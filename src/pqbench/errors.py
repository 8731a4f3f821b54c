"""Exception types shared across more than one subsystem.

Errors that belong to a single module (registry lookup failures, TLS frame
errors, ...) live next to the code that raises them; only the ones raised
from several places are collected here.
"""


class PqbenchError(Exception):
    """Base class for everything this package raises on purpose."""


class LengthMismatch(PqbenchError):
    """An input sequence has the wrong length for the given parameters."""


class DimensionMismatch(PqbenchError):
    """Matrix/vector shapes do not line up."""


class TooLarge(PqbenchError):
    """A size is above its cap: a brute-force oracle's search space, or a
    count too large for the field that would carry it."""


class DecodeFailure(PqbenchError):
    """A decoder could not map the word back to a message."""

"""Named hashes: BLAKE2b as the default, pqh as the reference.

Everything downstream (signatures, key derivation, Fiat-Shamir, the
handshake transcript) takes a HashFunction rather than a hard-coded
algorithm, so any hash with a fixed output length can be swapped in.
Two are built here, each one fixed hash with a 32-byte output.

DEFAULT_HASH is BLAKE2b-256 (RFC 7693), from CPython's built-in _blake2
module.  It is native code, as the hashing in real TLS stacks is, so a
handshake's time goes to its KEM, its signatures and its transport
rather than to the hash.  It is imported from _blake2 rather than
through hashlib: it is the same class (hashlib.blake2b is
_blake2.blake2b), but importing hashlib also loads OpenSSL's _hashlib,
which adds about 3.6 MB to a bare interpreter's resident set for
nothing the package uses.  The package therefore needs a Python with
the built-in _blake2, as every default CPython build since 3.6 has; a
build without it has no hashlib.blake2b either, since hashlib never
takes blake2b from OpenSSL.

PQH is pqh-256, the reference a reader can trace by hand: an unkeyed
iterated hash over a public 64-bit mixing permutation, deterministic
across platforms, with a 256-bit output pinned by frozen vectors.
Cryptographic strength is explicitly not a goal of it.  Its core is
mix64, the well-known splitmix64 finalizer: a fixed public bijection on
64-bit words.  Four lanes of state, seeded with four constants, absorb
the input one 64-bit word at a time, each absorption followed by a round
that stirs every lane through mix64.  Finalization absorbs the message
length (so "ab","c" and "a","bc" separate), runs four blank rounds and
outputs the four lanes as big-endian words.

Both hashes stream through states shaped like hashlib objects: update
returns None, digest leaves the state able to go on absorbing, and copy
forks it.  DEFAULT_HASH's states are blake2b objects themselves.  pqh
absorbs each whole word as soon as it arrives and buffers the partial
last word, which it absorbs with the length only at finalization, so the
digest does not depend on how the input was split across updates.
"""

import struct
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Protocol

from _blake2 import blake2b

_MASK = (1 << 64) - 1


class HashState(Protocol):
    """A running hash computation, shaped like a hashlib object."""

    def update(self, data: bytes) -> None: ...

    def copy(self) -> "HashState": ...

    def digest(self) -> bytes: ...


def mix64(x: int) -> int:
    """splitmix64 finalizer, a public permutation of 64-bit words."""
    x &= _MASK
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK
    x ^= x >> 31
    return x


def _absorb(lanes: tuple[int, int, int, int], words) -> tuple[int, int, int, int]:
    """XOR each word into lane 0, then run one round: every lane in turn
    goes through mix64, fed from its neighbour.  mix64 is written out
    inline because this loop is where nearly all of pqh's time goes.
    Under the default BLAKE2b, pqh hashes only the pinned-issuer seed
    (tlssim.pinned_issuer) and the suites tests build on PQH, so the
    inlining saves test time, not handshake time."""
    a, b, c, d = lanes
    for w in words:
        x = a ^ w ^ d
        x ^= x >> 30
        x = (x * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 27
        x = (x * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        a = x ^ (x >> 31)
        x = (b + a) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 30
        x = (x * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 27
        x = (x * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        b = x ^ (x >> 31)
        x = c ^ b
        x ^= x >> 30
        x = (x * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 27
        x = (x * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        c = x ^ (x >> 31)
        x = (d + c) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 30
        x = (x * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 27
        x = (x * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        d = x ^ (x >> 31)
    return a, b, c, d


# lane seeds: four distinct constants, each put through mix64
_SEED_LANES = tuple(mix64(0x9E3779B97F4A7C15 * (i + 1)) for i in range(4))


class PqhState:
    """A running pqh computation.

    update() absorbs the whole words it can; digest() finalizes a private
    copy of the lanes, so the state can go on absorbing after it; copy()
    forks an independent state.
    """

    __slots__ = ("_lanes", "_tail", "_length")

    def __init__(self, lanes: tuple[int, int, int, int] = _SEED_LANES,
                 tail: bytes = b"", length: int = 0):
        self._lanes = lanes
        self._tail = tail
        self._length = length

    def update(self, data: bytes) -> None:
        self._length += len(data)
        if self._tail:
            data = self._tail + data
        words = len(data) >> 3
        if words:
            self._lanes = _absorb(self._lanes, struct.unpack_from(f">{words}Q", data))
        self._tail = data[words << 3 :]

    def copy(self) -> "PqhState":
        return PqhState(self._lanes, self._tail, self._length)

    def digest(self) -> bytes:
        lanes = self._lanes
        if self._tail:
            lanes = _absorb(lanes, (int.from_bytes(self._tail, "big"),))
        a, b, c, d = lanes
        return struct.pack(">4Q", *_absorb((a, b ^ self._length, c, d), (0, 0, 0, 0)))


class _BufferedState:
    """The streaming state of a hash known only by its one-shot apply:
    it keeps every byte and hashes them all at digest(), through one
    apply call, whose output it checks as HashFunction's call does."""

    __slots__ = ("_h", "_data")

    def __init__(self, h: "HashFunction", data: bytes = b""):
        self._h = h
        self._data = data

    def update(self, data: bytes) -> None:
        self._data += data

    def copy(self) -> "_BufferedState":
        return _BufferedState(self._h, self._data)

    def digest(self) -> bytes:
        out = self._h.apply(self._data)
        if len(out) != self._h.output_bytes:
            raise self._h.wrong_length(out)
        return out


@dataclass(frozen=True)
class HashFunction:
    """A named hash with a fixed output length.

    Instances are callable.  new is the state factory, picked once when
    the hash is built: new_state if given, else a buffering state that
    keeps every byte and reaches apply once per digest.  A state has
    update, copy and digest, shaped like a hashlib object, and digesting
    everything fed to it gives what one call on the concatenation gives.
    Calling h(data) hashes through one fresh state, and h.each(items)
    hashes every item through its own fresh state in one loop, so neither
    spends a Python frame per digest beyond the state's own methods.  Both
    check every digest they return against output_bytes.
    """

    name: str
    output_bytes: int
    apply: Callable[[bytes], bytes] = field(repr=False)
    new_state: Callable[[], HashState] | None = field(default=None, repr=False)
    new: Callable[[], HashState] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        new = self.new_state if self.new_state is not None else partial(_BufferedState, self)
        object.__setattr__(self, "new", new)

    def __call__(self, data: bytes) -> bytes:
        state = self.new()
        state.update(data)
        out = state.digest()
        if len(out) != self.output_bytes:
            raise self.wrong_length(out)
        return out

    def each(self, items: Iterable[bytes]) -> list[bytes]:
        """[h(x) for x in items], from one loop over fresh states."""
        new = self.new
        size = self.output_bytes
        out = []
        for data in items:
            state = new()
            state.update(data)
            digest = state.digest()
            if len(digest) != size:
                raise self.wrong_length(digest)
            out.append(digest)
        return out

    def wrong_length(self, digest: bytes) -> ValueError:
        """The error for a digest whose length is not output_bytes."""
        return ValueError(
            f"{self.name}: returned {len(digest)} bytes, declared {self.output_bytes}"
        )


def _pqh256(data: bytes) -> bytes:
    state = PqhState()
    state.update(data)
    return state.digest()


PQH = HashFunction("pqh256", 32, _pqh256, PqhState)


def _make_blake2b256() -> HashFunction:
    """BLAKE2b-256 (RFC 7693).  Each call, and each new state, copies a
    prepared empty object, which skips the constructor's keyword parsing."""
    empty = blake2b(digest_size=32)

    def apply(data: bytes) -> bytes:
        b = empty.copy()
        b.update(data)
        return b.digest()

    return HashFunction("blake2b256", 32, apply, empty.copy)


DEFAULT_HASH = _make_blake2b256()

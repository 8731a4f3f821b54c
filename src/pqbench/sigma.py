"""Three-move identification protocols and their signature transform.

A relation bundles the four moves as callables: commit produces a
commitment plus prover state, the verifier draws a challenge from a
finite space, respond answers it from the state, and check decides the
transcript.  Honest runs always accept; a prover without the secret can
answer at most one challenge per commitment, which is what makes the
challenge space size the soundness error.

The non-interactive transform replaces the verifier's draw with a hash
of (public input, commitment, message).  Binding the message into that
hash is what turns the identification scheme into a signature scheme,
so the message is hashed here by design.  Reduction of the hash to the
challenge space rejects the biased tail instead of folding it in.

One concrete relation ships: knowledge of a discrete logarithm in a
small prime-field subgroup, with the group order found by enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import Any, Callable

from .errors import PqbenchError
from .hashing import HashFunction
from .kex import is_prime


class InvalidGroup(PqbenchError):
    """Group parameters fail validation (p not prime, bad generator, ...)."""


@dataclass(frozen=True)
class SigmaRelation:
    """One relation's moves; challenges are ints in [0, challenge_count)."""

    name: str
    challenge_count: int
    commit: Callable[[Any, Any, Random], tuple[bytes, Any]] = field(repr=False)
    respond: Callable[[Any, int], bytes] = field(repr=False)
    check: Callable[[Any, bytes, int, bytes], bool] = field(repr=False)
    encode_public: Callable[[Any], bytes] = field(repr=False)

    def __post_init__(self):
        if self.challenge_count < 2:
            raise ValueError("challenge space needs at least two elements")


@dataclass(frozen=True)
class Transcript:
    commitment: bytes
    challenge: int
    response: bytes
    accepted: bool


def run_interactive(rel: SigmaRelation, secret, public, rng: Random) -> Transcript:
    """One full commit / random challenge / respond / check round."""
    co, state = rel.commit(secret, public, rng)
    challenge = rng.randrange(rel.challenge_count)
    response = rel.respond(state, challenge)
    return Transcript(co, challenge, response, rel.check(public, co, challenge, response))


def fs_challenge(rel: SigmaRelation, public, commitment: bytes, msg: bytes,
                 h: HashFunction) -> int:
    """Hash (public, commitment, msg) down to a challenge, without bias.

    The digest is read as one big integer; values in the final partial
    copy of the space are rejected and the hash re-run with a bumped
    counter, so every challenge is exactly equally likely.
    """
    space = rel.challenge_count
    nbits = 8 * h.output_bytes
    limit = (2**nbits // space) * space
    prefix = rel.encode_public(public) + commitment + msg
    counter = 0
    while True:
        v = int.from_bytes(h(prefix + counter.to_bytes(4, "big")), "big")
        if v < limit:
            return v % space
        counter += 1


@dataclass(frozen=True)
class FsSignature:
    commitment: bytes
    response: bytes


def fs_sign(rel: SigmaRelation, secret, public, msg: bytes, h: HashFunction,
            rng: Random) -> FsSignature:
    co, state = rel.commit(secret, public, rng)
    challenge = fs_challenge(rel, public, co, msg, h)
    return FsSignature(co, rel.respond(state, challenge))


def fs_verify(rel: SigmaRelation, public, msg: bytes, sig: FsSignature,
              h: HashFunction) -> bool:
    challenge = fs_challenge(rel, public, sig.commitment, msg, h)
    return rel.check(public, sig.commitment, challenge, sig.response)


# --- discrete-log relation ---


def _int_bytes(x: int) -> bytes:
    return x.to_bytes(8, "big")


@dataclass(frozen=True)
class DlogSetting:
    """A subgroup <g> of Z_p^* plus the sigma relation for proving
    knowledge of x in y = g^x."""

    p: int
    g: int
    order: int
    relation: SigmaRelation

    def keypair(self, rng: Random) -> tuple[int, int]:
        x = rng.randrange(self.order)
        return x, pow(self.g, x, self.p)


def dlog_relation(p: int, g: int, challenge_count: int | None = None) -> DlogSetting:
    """Build the dlog relation, computing the order of g by enumeration.

    The prover commits to g^k, responds r = k + c x mod order, and the
    verifier checks g^r == commitment * y^c.  challenge_count defaults to
    the group order.
    """
    if not is_prime(p):
        raise InvalidGroup(f"p={p} is not prime")
    if not 2 <= g < p:
        raise InvalidGroup(f"generator {g} outside 2..p-1")
    order = 1
    acc = g
    while acc != 1:
        acc = acc * g % p
        order += 1
    if order < 2:
        raise InvalidGroup("generator has trivial order")
    if challenge_count is None:
        challenge_count = order

    def commit(secret, public, rng: Random):
        k = rng.randrange(order)
        return _int_bytes(pow(g, k, p)), (k, secret)

    def respond(state, challenge: int) -> bytes:
        k, x = state
        return _int_bytes((k + challenge * x) % order)

    def check(public, commitment: bytes, challenge: int, response: bytes) -> bool:
        co = int.from_bytes(commitment, "big")
        r = int.from_bytes(response, "big")
        if not 0 < co < p or r >= order:
            return False
        return pow(g, r, p) == co * pow(public, challenge, p) % p

    return DlogSetting(
        p, g, order,
        SigmaRelation(
            name=f"dlog-p{p}-g{g}",
            challenge_count=challenge_count,
            commit=commit,
            respond=respond,
            check=check,
            encode_public=_int_bytes,
        ),
    )


def dlog_extract(order: int, c1: int, r1: int, c2: int, r2: int) -> int:
    """Recover the secret from two accepting transcripts on one commitment.

    Needs gcd(c1 - c2, order) = 1; raises ValueError otherwise.
    """
    if c1 == c2:
        raise ValueError("challenges must differ")
    return (r1 - r2) * pow(c1 - c2, -1, order) % order

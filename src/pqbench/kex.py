"""Elliptic-curve Diffie-Hellman and the uniform KEM/signature contracts.

Curves are short-Weierstrass over small prime fields, points in affine
coordinates with an explicit infinity element, and the group law is the
standard chord-and-tangent construction.  Fields stay small enough that a
curve's whole point set can be enumerated, which is how the fixture
curves' orders were found and how the group-law tests stay exhaustive.

The same module defines the two behavioral contracts the benchmarking
and handshake layers consume: KemInstance (keypair / encaps / decaps)
and SigInstance (keypair / sign / verify).  Public keys, ciphertexts,
signatures and shared secrets are bytes; a secret key is never sent, so
it stays opaque, in whatever form keypair built it.  Any scheme in the
package can be wrapped into these shapes; the kem_from_encryption
adapter does it generically for bit-oriented public-key encryption by
encrypting the whole secret bit vector in one call, one block per bit
read as one numeral, and hashing the bit string into the shared secret.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from random import Random
from typing import Any, Callable, Sequence

from .errors import PqbenchError, TooLarge
from .hashing import HashFunction
from .serialize import pack_bits

ENUMERATION_MAX_Q = 10_000
# draws takes a batch of words while at least this many values are still
# needed; a batch costs about as much as this many one-value draws
_BATCH_MIN = 12


class PointNotOnCurve(PqbenchError):
    """A coordinate pair does not satisfy the curve equation."""


class DecapsFailure(PqbenchError):
    """Decapsulation could not recover a shared secret."""


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % p for p in range(2, int(n**0.5) + 1))


def draws(rng: Random, n: int, count: int) -> list[int]:
    """count values of rng.randrange(n), taken from the stream exactly as
    randrange takes them: getrandbits(n.bit_length()), redrawn while the
    value is not below n.  randint(a, b) is a + draws(rng, b - a + 1, 1)[0].

    For n below 256, while at least _BATCH_MIN values are still needed,
    whole batches are drawn at once.  getrandbits(k) with k <= 32 takes
    one 32-bit word of the generator and keeps its top k bits, and
    getrandbits(32 * w) gives the next w words, the first in the lowest 32
    bits.  So a batch of w words, as many as values are still needed, is w
    draws in a row: each word's top byte, shifted, is the value, and
    translate drops the ones not below n.  A batch never takes a word past
    the last one the value-by-value loop takes, since it can keep no more
    values than it has words."""
    if n < 1:
        raise ValueError(f"empty range: n = {n}")
    out = []
    if count >= _BATCH_MIN and n < 256:
        table, rejected = _top_byte_filter(n)
        batch = b""
        while count - len(batch) >= _BATCH_MIN:
            need = count - len(batch)
            words = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
            batch += words[3::4].translate(table, rejected)
        out = list(batch)
    k = n.bit_length()
    getrandbits = rng.getrandbits
    append = out.append
    for _ in range(count - len(out)):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        append(r)
    return out


@cache
def _top_byte_filter(n: int) -> tuple[bytes, bytes]:
    """(table, rejected) for bytes.translate: a word's top byte maps to its
    top n.bit_length() bits, and the bytes whose value is not below n are
    deleted."""
    shift = 8 - n.bit_length()
    table = bytes(b >> shift for b in range(256))
    return table, bytes(b for b in range(256) if b >> shift >= n)


@dataclass(frozen=True)
class CurveParams:
    """y^2 = x^3 + a x + b over F_q, nonsingular."""

    q: int
    a: int
    b: int

    def __post_init__(self):
        if not is_prime(self.q) or self.q < 5:
            raise ValueError(f"q must be a prime >= 5, got {self.q}")
        if (4 * self.a**3 + 27 * self.b**2) % self.q == 0:
            raise ValueError("singular curve: 4a^3 + 27b^2 = 0")


@dataclass(frozen=True)
class Point:
    """Affine point; (None, None) is the group identity."""

    x: int | None
    y: int | None

    @property
    def is_infinity(self) -> bool:
        return self.x is None


INFINITY = Point(None, None)


def on_curve(p: Point, curve: CurveParams) -> bool:
    """True for the identity and for a point of the curve whose coordinates
    are canonical, in [0, q): x + q names the same field element as x, but
    it is not an encoding of a curve point."""
    if p.is_infinity:
        return True
    q = curve.q
    return (0 <= p.x < q and 0 <= p.y < q
            and (p.y * p.y - (p.x**3 + curve.a * p.x + curve.b)) % q == 0)


def _require_on_curve(p: Point, curve: CurveParams) -> None:
    if not on_curve(p, curve):
        raise PointNotOnCurve(f"({p.x}, {p.y}) is not a point of y^2 = x^3 + {curve.a}x + "
                              f"{curve.b} with coordinates in [0, {curve.q})")


def point_add(p1: Point, p2: Point, curve: CurveParams) -> Point:
    """Chord-and-tangent addition."""
    _require_on_curve(p1, curve)
    _require_on_curve(p2, curve)
    if p1.is_infinity:
        return p2
    if p2.is_infinity:
        return p1
    q = curve.q
    if p1.x == p2.x and (p1.y + p2.y) % q == 0:
        return INFINITY
    if p1 == p2:
        slope = (3 * p1.x * p1.x + curve.a) * pow(2 * p1.y, -1, q) % q
    else:
        slope = (p2.y - p1.y) * pow(p2.x - p1.x, -1, q) % q
    x3 = (slope * slope - p1.x - p2.x) % q
    return Point(x3, (slope * (p1.x - x3) - p1.y) % q)


def scalar_mul(k: int, p: Point, curve: CurveParams) -> Point:
    """k p by double-and-add; k must be >= 0, k = 0 gives the identity.

    The input point is checked once.  The loop then runs on plain (x, y)
    ints, with point_add's chord and tangent formulas inline and a None x
    for the identity, and builds one Point at the end.  Every point it
    meets is a multiple of the checked one, so none needs checking again.
    """
    if k < 0:
        raise ValueError("scalar must be >= 0")
    _require_on_curve(p, curve)
    q, a = curve.q, curve.a
    x = y = None  # the sum so far
    dx, dy = p.x, p.y  # the addend, 2^i p; None once it is the identity
    while k and dx is not None:
        if k & 1:
            if x is None:
                x, y = dx, dy
            elif x != dx:
                slope = (dy - y) * pow(dx - x, -1, q) % q
                x3 = (slope * slope - x - dx) % q
                x, y = x3, (slope * (x - x3) - y) % q
            elif (y + dy) % q == 0:
                x = None
            else:  # the sum equals the addend
                slope = (3 * x * x + a) * pow(2 * y, -1, q) % q
                x3 = (slope * slope - 2 * x) % q
                x, y = x3, (slope * (x - x3) - y) % q
        k >>= 1
        if k:
            if dy == 0:
                dx = None
            else:
                slope = (3 * dx * dx + a) * pow(2 * dy, -1, q) % q
                x3 = (slope * slope - 2 * dx) % q
                dx, dy = x3, (slope * (dx - x3) - dy) % q
    return INFINITY if x is None else Point(x, y)


def enumerate_points(curve: CurveParams) -> list[Point]:
    """Every point including infinity; refuses fields beyond the cap."""
    if curve.q > ENUMERATION_MAX_Q:
        raise TooLarge(f"q={curve.q} beyond enumeration cap {ENUMERATION_MAX_Q}")
    roots: dict[int, list[int]] = {}
    for y in range(curve.q):
        roots.setdefault(y * y % curve.q, []).append(y)
    points = [INFINITY]
    for x in range(curve.q):
        rhs = (x**3 + curve.a * x + curve.b) % curve.q
        for y in roots.get(rhs, ()):
            points.append(Point(x, y))
    return points


def point_order(p: Point, curve: CurveParams) -> int:
    """Smallest k >= 1 with k p = identity, by repeated addition."""
    _require_on_curve(p, curve)
    if p.is_infinity:
        return 1
    acc = p
    order = 1
    while not acc.is_infinity:
        acc = point_add(acc, p, curve)
        order += 1
    return order


# fixture curves, orders found by full enumeration:
# TINY has 13 points in total, so every finite point generates the group
TINY_CURVE = CurveParams(q=11, a=1, b=6)
TINY_GEN = Point(2, 4)
TINY_ORDER = 13

MAIN_CURVE = CurveParams(q=601, a=3, b=2)
MAIN_GEN = Point(0, 222)
MAIN_ORDER = 599


@dataclass(frozen=True)
class EcdhResult:
    public_a: Point
    public_b: Point
    shared_a: Point
    shared_b: Point


def ecdh_exchange(
    curve: CurveParams,
    gen: Point,
    order: int,
    rng_a: Random,
    rng_b: Random,
    n_a: int | None = None,
    n_b: int | None = None,
) -> EcdhResult:
    """One raw exchange; n_a / n_b are test hooks for the secret scalars."""
    if n_a is None:
        n_a = rng_a.randrange(1, order)
    if n_b is None:
        n_b = rng_b.randrange(1, order)
    pub_a = scalar_mul(n_a, gen, curve)
    pub_b = scalar_mul(n_b, gen, curve)
    return EcdhResult(
        public_a=pub_a,
        public_b=pub_b,
        shared_a=scalar_mul(n_a, pub_b, curve),
        shared_b=scalar_mul(n_b, pub_a, curve),
    )


def encode_point(p: Point) -> bytes:
    if p.is_infinity:
        return b"\x00"
    return b"\x01" + p.x.to_bytes(4, "big") + p.y.to_bytes(4, "big")


def decode_point(data: bytes) -> Point:
    if data == b"\x00":
        return INFINITY
    if len(data) != 9 or data[0] != 1:
        raise PointNotOnCurve("bad point encoding")
    return Point(int.from_bytes(data[1:5], "big"), int.from_bytes(data[5:9], "big"))


# --- uniform behavioral contracts ---


@dataclass(frozen=True)
class KemInstance:
    """Key encapsulation over byte strings and an opaque secret.

    keypair(rng) -> (public, secret); encaps(public, rng) -> (ciphertext,
    shared); decaps(secret, ciphertext) -> shared.  Shared secrets are
    fixed-length byte strings; the secret is whatever keypair returned.
    """

    name: str
    keypair: Callable[[Random], tuple[bytes, Any]] = field(repr=False)
    encaps: Callable[[bytes, Random], tuple[bytes, bytes]] = field(repr=False)
    decaps: Callable[[Any, bytes], bytes] = field(repr=False)


@dataclass(frozen=True)
class SigInstance:
    """Signatures over byte strings; sign is deterministic in (secret,
    msg), and the secret is whatever keypair returned, opaque to callers."""

    name: str
    keypair: Callable[[Random], tuple[bytes, Any]] = field(repr=False)
    sign: Callable[[Any, bytes], bytes] = field(repr=False)
    verify: Callable[[bytes, bytes, bytes], bool] = field(repr=False)


def ecdh_kem(curve: CurveParams, gen: Point, order: int, h: HashFunction,
             name: str) -> KemInstance:
    """ECDH as a KEM: encapsulation is an ephemeral keypair, the shared
    secret is the hash of the shared point's x-coordinate serialization."""

    def shared_secret(point: Point) -> bytes:
        if point.is_infinity:
            raise DecapsFailure("shared point is the identity")
        return h(point.x.to_bytes(4, "big"))

    def keypair(rng: Random):
        n = rng.randrange(1, order)
        return encode_point(scalar_mul(n, gen, curve)), n

    def encaps(public: bytes, rng: Random):
        pub_point = decode_point(public)
        _require_on_curve(pub_point, curve)
        e = rng.randrange(1, order)
        return encode_point(scalar_mul(e, gen, curve)), shared_secret(
            scalar_mul(e, pub_point, curve)
        )

    def decaps(n: int, ciphertext: bytes):
        # scalar_mul refuses a point off the curve before any arithmetic
        return shared_secret(scalar_mul(n, decode_point(ciphertext), curve))

    return KemInstance(name, keypair, encaps, decaps)


def kem_from_encryption(
    name: str,
    keygen: Callable[[Random], tuple[bytes, Any]],
    encryptor: Callable[[bytes], Callable[[list[int], Random], int]],
    decrypt_bits: Callable[[Any, int], Sequence[int]],
    secret_bits: int,
    *,
    ciphertext_bits: int,
    h: HashFunction,
) -> KemInstance:
    """Wrap bit-oriented public-key encryption as a KEM.

    The ciphertext is one block of ciphertext_bits bits per secret bit,
    read as one numeral: the first bit's block most significant, padded
    with zero bits to whole bytes.  encryptor(public) reads a public key
    once and returns encrypt_bits(bits, rng), which encrypts the whole
    secret bit vector in one call and gives that numeral; one wider than
    the blocks is a DecapsFailure.  decrypt_bits(secret, numeral) takes
    the secret as keygen returned it and gives the bits back; a
    PqbenchError it raises, or a value that is not a bit, is a
    DecapsFailure.  encaps reads the public key first, so a key that
    encryptor refuses costs no draw; then it draws the bits before
    encrypting them, and hashes the plaintext bit string into the shared
    secret.
    """
    total_bits = secret_bits * ciphertext_bits
    ct_len = (total_bits + 7) // 8
    pad = 8 * ct_len - total_bits

    def encaps(public: bytes, rng: Random):
        encrypt_bits = encryptor(public)
        bits = draws(rng, 2, secret_bits)
        numeral = encrypt_bits(bits, rng)
        if numeral >> total_bits:
            raise DecapsFailure(f"{name}: ciphertext wider than {total_bits} bits")
        return (numeral << pad).to_bytes(ct_len, "big"), h(pack_bits(bits))

    def decaps(secret, ciphertext: bytes):
        if len(ciphertext) != ct_len:
            raise DecapsFailure(f"{name}: ciphertext must be {ct_len} bytes")
        try:
            bits = decrypt_bits(secret, int.from_bytes(ciphertext, "big") >> pad)
        except PqbenchError as e:
            raise DecapsFailure(f"{name}: {e}") from e
        if len(bits) != secret_bits:
            raise DecapsFailure(f"{name}: decryption returned {len(bits)} bits")
        if not set(bits) <= {0, 1}:
            bit = next(b for b in bits if b not in (0, 1))
            raise DecapsFailure(f"{name}: decryption returned {bit}")
        return h(pack_bits(bits))

    return KemInstance(name, keygen, encaps, decaps)

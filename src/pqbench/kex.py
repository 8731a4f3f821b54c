"""Elliptic-curve Diffie-Hellman and the uniform KEM/signature contracts.

Curves are short-Weierstrass over small prime fields, points in affine
coordinates with an explicit infinity element, and the group law is the
standard chord-and-tangent construction.  Fields stay small enough that a
curve's whole point set can be enumerated, which is how the fixture
curves' orders were found and how the group-law tests stay exhaustive.

The same module defines the two behavioral contracts the benchmarking
and handshake layers consume: KemInstance (keypair / encaps / decaps
over opaque byte strings) and SigInstance (keypair / sign / verify).
Any scheme in the package can be wrapped into these shapes; the
kem_from_encryption adapter does it generically for bit-oriented
public-key encryption by polling one encrypted bit per secret bit and
hashing the bit string into the shared secret.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import Callable

from .errors import PqbenchError, TooLarge
from .hashing import HashFunction
from .serialize import pack_bits

ENUMERATION_MAX_Q = 10_000


class PointNotOnCurve(PqbenchError):
    """A coordinate pair does not satisfy the curve equation."""


class DecapsFailure(PqbenchError):
    """Decapsulation could not recover a shared secret."""


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % p for p in range(2, int(n**0.5) + 1))


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
    if p.is_infinity:
        return True
    return (p.y * p.y - (p.x**3 + curve.a * p.x + curve.b)) % curve.q == 0


def _require_on_curve(p: Point, curve: CurveParams) -> None:
    if not on_curve(p, curve):
        raise PointNotOnCurve(f"({p.x}, {p.y}) not on y^2 = x^3 + {curve.a}x + {curve.b} mod {curve.q}")


def point_neg(p: Point, curve: CurveParams) -> Point:
    _require_on_curve(p, curve)
    if p.is_infinity:
        return p
    return Point(p.x, -p.y % curve.q)


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
    """Double-and-add; k must be >= 0, k = 0 gives the identity."""
    if k < 0:
        raise ValueError("scalar must be >= 0")
    _require_on_curve(p, curve)
    acc = INFINITY
    addend = p
    while k:
        if k & 1:
            acc = point_add(acc, addend, curve)
        addend = point_add(addend, addend, curve)
        k >>= 1
    return acc


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
    """Key encapsulation over opaque byte strings.

    keypair(rng) -> (public, secret); encaps(public, rng) -> (ciphertext,
    shared); decaps(secret, ciphertext) -> shared.  Shared secrets are
    fixed-length byte strings.
    """

    name: str
    keypair: Callable[[Random], tuple[bytes, bytes]] = field(repr=False)
    encaps: Callable[[bytes, Random], tuple[bytes, bytes]] = field(repr=False)
    decaps: Callable[[bytes, bytes], bytes] = field(repr=False)


@dataclass(frozen=True)
class SigInstance:
    """Signatures over opaque byte strings; sign is deterministic in (secret, msg)."""

    name: str
    keypair: Callable[[Random], tuple[bytes, bytes]] = field(repr=False)
    sign: Callable[[bytes, bytes], bytes] = field(repr=False)
    verify: Callable[[bytes, bytes, bytes], bool] = field(repr=False)


def ecdh_kem(curve: CurveParams, gen: Point, order: int, h: HashFunction,
             name: str = "ecdh") -> KemInstance:
    """ECDH as a KEM: encapsulation is an ephemeral keypair, the shared
    secret is the hash of the shared point's x-coordinate serialization."""

    def shared_secret(point: Point) -> bytes:
        if point.is_infinity:
            raise DecapsFailure("shared point is the identity")
        return h(point.x.to_bytes(4, "big"))

    def keypair(rng: Random):
        n = rng.randrange(1, order)
        return encode_point(scalar_mul(n, gen, curve)), n.to_bytes(4, "big")

    def encaps(public: bytes, rng: Random):
        pub_point = decode_point(public)
        _require_on_curve(pub_point, curve)
        e = rng.randrange(1, order)
        return encode_point(scalar_mul(e, gen, curve)), shared_secret(
            scalar_mul(e, pub_point, curve)
        )

    def decaps(secret: bytes, ciphertext: bytes):
        n = int.from_bytes(secret, "big")
        ct_point = decode_point(ciphertext)
        _require_on_curve(ct_point, curve)
        return shared_secret(scalar_mul(n, ct_point, curve))

    return KemInstance(name, keypair, encaps, decaps)


def kem_from_encryption(
    name: str,
    keygen: Callable[[Random], tuple[bytes, bytes]],
    encrypt_bit: Callable[[bytes, int, Random], int],
    decrypt_bit: Callable[[bytes, int], int],
    secret_bits: int,
    *,
    ciphertext_bits: int,
    h: HashFunction,
) -> KemInstance:
    """Wrap bit-oriented public-key encryption as a KEM.

    encrypt_bit returns each per-bit ciphertext as an int of exactly
    ciphertext_bits bits; the adapter packs them contiguously (first bit's
    ciphertext in the most significant position) and hashes the plaintext
    bit string into the shared secret.
    """
    total_bits = secret_bits * ciphertext_bits
    ct_len = (total_bits + 7) // 8
    pad = 8 * ct_len - total_bits

    def encaps(public: bytes, rng: Random):
        bits = [rng.randrange(2) for _ in range(secret_bits)]
        acc = 0
        for bit in bits:
            block = encrypt_bit(public, bit, rng)
            if block >> ciphertext_bits:
                raise DecapsFailure(f"{name}: block wider than {ciphertext_bits} bits")
            acc = (acc << ciphertext_bits) | block
        return (acc << pad).to_bytes(ct_len, "big"), h(pack_bits(bits))

    def decaps(secret: bytes, ciphertext: bytes):
        if len(ciphertext) != ct_len:
            raise DecapsFailure(f"{name}: ciphertext must be {ct_len} bytes")
        acc = int.from_bytes(ciphertext, "big") >> pad
        mask = (1 << ciphertext_bits) - 1
        bits = []
        for i in reversed(range(secret_bits)):
            block = (acc >> (i * ciphertext_bits)) & mask
            try:
                bit = decrypt_bit(secret, block)
            except PqbenchError as e:
                raise DecapsFailure(f"{name}: {e}") from e
            if bit not in (0, 1):
                raise DecapsFailure(f"{name}: decryption returned {bit}")
            bits.append(bit)
        return h(pack_bits(bits))

    return KemInstance(name, keygen, encaps, decaps)

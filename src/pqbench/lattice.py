"""Learning-with-errors encryption and small lattice search oracles.

The encryption scheme is the classic one built directly on LWE samples:
the public key is a batch of noisy inner products (a, <s,a> + e mod q),
a bit is encrypted by summing a random subset of samples and shifting by
q/2 when the bit is 1, and decryption checks whether the masked value
sits closer to 0 or to q/2.  Parameters stay at desk scale on purpose;
the point is observable correctness, not concrete hardness.

The module also carries two exhaustive-search oracles, one for short
integer solutions of A z = 0 and one for shortest vectors of a tiny
lattice basis.  Both enumerate their whole search box and exist so other
results can be checked against ground truth.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .errors import DimensionMismatch, LengthMismatch, PqbenchError, TooLarge
from .kex import is_prime

SIS_MAX_M = 18
SVP_MAX_DIM = 4
SVP_MAX_BOUND = 10


def centered(x: int, q: int) -> int:
    """Representative of x mod q in (-q/2, q/2]."""
    x %= q
    return x if x <= q // 2 else x - q


@dataclass(frozen=True)
class LweParams:
    """n secret coordinates, modulus q, m published samples, noise bound b.

    Noise is uniform on [-b, b].  Decryption of a single bit is guaranteed
    whenever m * b stays under q/4 (the worst-case subset-sum noise), which
    is_guaranteed_correct checks.
    """

    n: int
    q: int
    m: int
    b: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.q < 5 or not is_prime(self.q):
            raise ValueError(f"q must be a prime >= 5, got {self.q}")
        if self.m < self.n:
            raise ValueError("m must be >= n")
        if self.b < 0:
            raise ValueError("b must be >= 0")

    def is_guaranteed_correct(self) -> bool:
        return self.m * self.b < self.q / 4


def guaranteed_params(n: int, q: int, m: int, b: int) -> LweParams:
    """LweParams that refuses noise too large for certain decryption."""
    p = LweParams(n, q, m, b)
    if not p.is_guaranteed_correct():
        raise ValueError(f"m*b = {m * b} not below q/4 = {q / 4}")
    return p


@dataclass(frozen=True)
class LweSample:
    a: tuple[int, ...]
    b: int


@dataclass
class LweKeypair:
    params: LweParams
    secret: tuple[int, ...]
    samples: list[LweSample]  # the public key


def lwe_sample(secret, params: LweParams, rng: Random) -> LweSample:
    """One noisy inner product: (a, <s,a> + e mod q), e uniform on [-b, b]."""
    if len(secret) != params.n:
        raise LengthMismatch(f"secret length {len(secret)} != n={params.n}")
    a = tuple(rng.randrange(params.q) for _ in range(params.n))
    e = rng.randint(-params.b, params.b)
    b = (sum(si * ai for si, ai in zip(secret, a)) + e) % params.q
    return LweSample(a, b)


def lwe_keygen(params: LweParams, rng: Random) -> LweKeypair:
    secret = tuple(rng.randrange(params.q) for _ in range(params.n))
    samples = [lwe_sample(secret, params, rng) for _ in range(params.m)]
    return LweKeypair(params, secret, samples)


def lwe_encrypt_bit(
    kp_or_samples, bit: int, params: LweParams, rng: Random, subset=None
) -> tuple[tuple[int, ...], int]:
    """Sum a random nonempty subset of samples, add bit * floor(q/2).

    subset is a test hook: an iterable of sample indices.  The ciphertext
    is (a_sum, b_sum + bit * floor(q/2)), everything mod q.
    """
    samples = kp_or_samples.samples if isinstance(kp_or_samples, LweKeypair) else kp_or_samples
    if bit not in (0, 1):
        raise ValueError("bit must be 0 or 1")
    if len(samples) != params.m:
        raise LengthMismatch(f"{len(samples)} samples != m={params.m}")
    if subset is None:
        while True:
            subset = [i for i in range(params.m) if rng.randrange(2)]
            if subset:
                break
    else:
        subset = list(subset)
        if not subset or len(set(subset)) != len(subset):
            raise ValueError("subset hook must name distinct indices, at least one")
    a_sum = [0] * params.n
    b_sum = 0
    for i in subset:
        s = samples[i]
        for j in range(params.n):
            a_sum[j] += s.a[j]
        b_sum += s.b
    a_sum = tuple(x % params.q for x in a_sum)
    return a_sum, (b_sum + bit * (params.q // 2)) % params.q


def lwe_decrypt_bit(secret, ct, params: LweParams) -> int:
    """0 when the masked value lies strictly within q/4 of zero, else 1."""
    a, b = ct
    if len(a) != params.n or len(secret) != params.n:
        raise LengthMismatch("ciphertext/secret dimension mismatch")
    d = centered(b - sum(si * ai for si, ai in zip(secret, a)), params.q)
    return 0 if abs(d) < params.q / 4 else 1


def ct_add(ct1, ct2, params: LweParams):
    """Componentwise ciphertext sum; decrypts to the XOR while noise allows."""
    a1, b1 = ct1
    a2, b2 = ct2
    if len(a1) != len(a2):
        raise LengthMismatch("ciphertext dimension mismatch")
    return tuple((x + y) % params.q for x, y in zip(a1, a2)), (b1 + b2) % params.q


# --- short integer solution oracle ---


@dataclass(frozen=True)
class SisInstance:
    """Find nonzero z in {-1,0,1}^m with A z = 0 mod q; A is n rows of m."""

    a_rows: tuple[tuple[int, ...], ...]
    q: int

    def __post_init__(self):
        if not self.a_rows:
            raise DimensionMismatch("need at least one row")
        m = len(self.a_rows[0])
        if any(len(r) != m for r in self.a_rows):
            raise DimensionMismatch("ragged rows")

    @property
    def m(self) -> int:
        return len(self.a_rows[0])


def sis_check(inst: SisInstance, z) -> bool:
    if len(z) != inst.m:
        raise DimensionMismatch(f"z length {len(z)} != m={inst.m}")
    return any(z) and all(
        sum(c * zi for c, zi in zip(row, z)) % inst.q == 0 for row in inst.a_rows
    )


def sis_brute_force(inst: SisInstance) -> tuple[int, ...] | None:
    """First solution in lexicographic order over {-1,0,1}^m, or None."""
    if inst.m > SIS_MAX_M:
        raise TooLarge(f"m={inst.m} exceeds cap {SIS_MAX_M}")
    for z in itertools.product((-1, 0, 1), repeat=inst.m):
        if any(z) and sis_check(inst, z):
            return z
    return None


# --- shortest vector oracle ---


def _rational_rank(vectors) -> int:
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@dataclass(frozen=True)
class LatticeBasis:
    """Up to SVP_MAX_DIM integer vectors, linearly independent over Q."""

    vectors: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not 1 <= len(self.vectors) <= SVP_MAX_DIM:
            raise TooLarge(f"basis of {len(self.vectors)} vectors outside 1..{SVP_MAX_DIM}")
        dim = len(self.vectors[0])
        if any(len(v) != dim for v in self.vectors):
            raise DimensionMismatch("ragged basis vectors")
        if _rational_rank(self.vectors) != len(self.vectors):
            raise PqbenchError("basis vectors are linearly dependent")


def svp_brute_force(basis: LatticeBasis, coeff_bound: int) -> tuple[int, ...]:
    """Shortest nonzero combination with coefficients in [-bound, bound].

    Ties on the Euclidean norm go to the lexicographically first
    coefficient vector (coefficients enumerated -bound..bound).
    """
    if not 1 <= coeff_bound <= SVP_MAX_BOUND:
        raise TooLarge(f"coeff_bound {coeff_bound} outside 1..{SVP_MAX_BOUND}")
    dim = len(basis.vectors[0])
    best = None
    best_norm = None
    for coeffs in itertools.product(range(-coeff_bound, coeff_bound + 1), repeat=len(basis.vectors)):
        if not any(coeffs):
            continue
        vec = tuple(
            sum(c * basis.vectors[i][d] for i, c in enumerate(coeffs)) for d in range(dim)
        )
        norm = sum(x * x for x in vec)
        if best_norm is None or norm < best_norm:
            best, best_norm = vec, norm
    return best

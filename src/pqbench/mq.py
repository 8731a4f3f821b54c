"""Multivariate quadratic systems over small prime fields, and UOV signing.

A public key here is a system of quadratic polynomials P: F^n -> F^m; a
signature on a message is any preimage of the message's hash under P.
The trapdoor is the oil-and-vinegar split: a central system whose
polynomials carry no oil-times-oil terms becomes linear in the oil
variables once the vinegar variables are fixed to random values, so the
legitimate signer solves a small linear system where a forger faces the
full quadratic one.  The published key is the central system composed
with a secret invertible affine change of variables, which hides the
split.

Everything is exhaustively checkable at these sizes; a brute-force
preimage enumerator is included exactly for that purpose.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random

from .errors import DimensionMismatch, LengthMismatch, PqbenchError, TooLarge
from .hashing import HashFunction
from .kex import is_prime

PREIMAGE_CAP = 10**6
MAX_FIELD = 31
MAX_RETRIES = 100  # vinegar draws uov_sign tries before RetriesExhausted


class RetriesExhausted(PqbenchError):
    """Signing kept drawing vinegar values that make the system singular."""


@dataclass(frozen=True)
class PrimeField:
    """Arithmetic mod a small prime; inversion by Fermat."""

    q: int

    def __post_init__(self):
        if not is_prime(self.q) or self.q > MAX_FIELD:
            raise ValueError(f"q must be a prime <= {MAX_FIELD}, got {self.q}")

    def add(self, a, b):
        return (a + b) % self.q

    def sub(self, a, b):
        return (a - b) % self.q

    def mul(self, a, b):
        return (a * b) % self.q

    def inv(self, a):
        if a % self.q == 0:
            raise ZeroDivisionError("no inverse of 0")
        return pow(a, self.q - 2, self.q)

    def rand(self, rng: Random):
        return rng.randrange(self.q)


@dataclass(frozen=True)
class QuadPoly:
    """const + sum(linear[j] x_j) + sum over j<=k of quad[j][k] x_j x_k.

    quad is a full n x n table with everything below the diagonal zero;
    the upper triangle is the single home of each cross term.
    """

    q: int
    const: int
    linear: tuple[int, ...]
    quad: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.linear)
        if len(self.quad) != n or any(len(r) != n for r in self.quad):
            raise DimensionMismatch("quad table must be n x n")
        coeffs = [self.const, *self.linear, *(c for row in self.quad for c in row)]
        if any(not 0 <= c < self.q for c in coeffs):
            raise ValueError("coefficients must lie in [0, q)")
        if any(self.quad[j][k] for j in range(n) for k in range(j)):
            raise ValueError("quad table must be upper triangular")

    @property
    def n(self) -> int:
        return len(self.linear)

    def eval(self, x) -> int:
        if len(x) != self.n:
            raise LengthMismatch(f"expected {self.n} variables, got {len(x)}")
        acc = self.const + sum(c * xi for c, xi in zip(self.linear, x))
        for j in range(self.n):
            if x[j]:
                row = self.quad[j]
                acc += x[j] * sum(row[k] * x[k] for k in range(j, self.n))
        return acc % self.q


@dataclass(frozen=True)
class MqSystem:
    """m quadratic polynomials in n shared variables over one field."""

    field: PrimeField
    polys: tuple[QuadPoly, ...]

    def __post_init__(self):
        if not self.polys:
            raise DimensionMismatch("empty system")
        n = self.polys[0].n
        if any(p.n != n or p.q != self.field.q for p in self.polys):
            raise DimensionMismatch("polynomials disagree on n or q")

    @property
    def n(self) -> int:
        return self.polys[0].n

    @property
    def m(self) -> int:
        return len(self.polys)


def eval_system(system: MqSystem, x) -> tuple[int, ...]:
    return tuple(p.eval(x) for p in system.polys)


# --- affine maps and linear solving ---


def _matrix_inverse(field: PrimeField, matrix):
    n = len(matrix)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] % field.q), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = field.inv(aug[col][col])
        aug[col] = [c * inv % field.q for c in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(a - f * b) % field.q for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def solve_linear(field: PrimeField, matrix, rhs):
    """One solution of matrix x = rhs, or None when the matrix is singular."""
    inverse = _matrix_inverse(field, matrix)
    if inverse is None:
        return None
    return tuple(sum(c * r for c, r in zip(row, rhs)) % field.q for row in inverse)


@dataclass(frozen=True)
class AffineMap:
    """x -> matrix x + offset over the field; must be invertible."""

    field: PrimeField
    matrix: tuple[tuple[int, ...], ...]
    offset: tuple[int, ...]
    _inverse_matrix: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self):
        n = len(self.matrix)
        if any(len(r) != n for r in self.matrix) or len(self.offset) != n:
            raise DimensionMismatch("affine map must be square with matching offset")
        inv = _matrix_inverse(self.field, self.matrix)
        if inv is None:
            raise ValueError("affine map matrix is singular")
        object.__setattr__(self, "_inverse_matrix", tuple(tuple(r) for r in inv))

    @property
    def n(self) -> int:
        return len(self.matrix)

    def apply(self, x) -> tuple[int, ...]:
        if len(x) != self.n:
            raise LengthMismatch(f"expected {self.n} coordinates, got {len(x)}")
        return tuple(
            (sum(c * xi for c, xi in zip(row, x)) + o) % self.field.q
            for row, o in zip(self.matrix, self.offset)
        )

    def apply_inverse(self, y) -> tuple[int, ...]:
        if len(y) != self.n:
            raise LengthMismatch(f"expected {self.n} coordinates, got {len(y)}")
        shifted = [(yi - o) % self.field.q for yi, o in zip(y, self.offset)]
        return tuple(
            sum(c * s for c, s in zip(row, shifted)) % self.field.q
            for row in self._inverse_matrix
        )

    def inverse(self) -> "AffineMap":
        off = self.apply_inverse(tuple([0] * self.n))
        return AffineMap(self.field, self._inverse_matrix, off)


def identity_map(field: PrimeField, n: int) -> AffineMap:
    eye = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    return AffineMap(field, eye, tuple([0] * n))


def random_affine(field: PrimeField, n: int, rng: Random, offset_zero: bool = True) -> AffineMap:
    while True:
        matrix = tuple(tuple(field.rand(rng) for _ in range(n)) for _ in range(n))
        if _matrix_inverse(field, matrix) is not None:
            break
    offset = tuple([0] * n if offset_zero else [field.rand(rng) for _ in range(n)])
    return AffineMap(field, matrix, offset)


# --- symbolic composition ---


class _Accum:
    """Mutable (const, linear, quad) coefficient triple during composition."""

    def __init__(self, q: int, n: int):
        self.q = q
        self.n = n
        self.const = 0
        self.linear = [0] * n
        self.quad = [[0] * n for _ in range(n)]

    def add_scaled(self, other: "_Accum", scale: int):
        self.const = (self.const + scale * other.const) % self.q
        for j in range(self.n):
            self.linear[j] = (self.linear[j] + scale * other.linear[j]) % self.q
            for k in range(j, self.n):
                self.quad[j][k] = (self.quad[j][k] + scale * other.quad[j][k]) % self.q

    def add_product(self, u0, u_lin, w0, w_lin, scale: int):
        """scale * (u0 + sum u_j x_j)(w0 + sum w_k x_k), folded upper-triangular."""
        self.const = (self.const + scale * u0 * w0) % self.q
        for j in range(self.n):
            self.linear[j] = (self.linear[j] + scale * (u0 * w_lin[j] + w0 * u_lin[j])) % self.q
        for j in range(self.n):
            if not u_lin[j] and not w_lin[j]:
                continue
            self.quad[j][j] = (self.quad[j][j] + scale * u_lin[j] * w_lin[j]) % self.q
            for k in range(j + 1, self.n):
                cross = u_lin[j] * w_lin[k] + u_lin[k] * w_lin[j]
                self.quad[j][k] = (self.quad[j][k] + scale * cross) % self.q

    def freeze(self) -> QuadPoly:
        return QuadPoly(
            self.q,
            self.const,
            tuple(self.linear),
            tuple(tuple(r) for r in self.quad),
        )


def compose_trapdoor(s_map: AffineMap, central: MqSystem, t_map: AffineMap) -> MqSystem:
    """Expand S(central(T(x))) into an explicit quadratic system.

    T substitutes an affine form for every central variable, products of
    forms are expanded symbolically, and S mixes the resulting
    polynomials.  The output is what gets published as the key.
    """
    q = central.field.q
    if t_map.n != central.n or s_map.n != central.m:
        raise DimensionMismatch("map dimensions do not match the central system")
    n = t_map.n
    # affine form feeding central variable l: (t_offset[l], row l of T)
    t_forms = [(t_map.offset[l], t_map.matrix[l]) for l in range(central.n)]

    inner = []
    for p in central.polys:
        acc = _Accum(q, n)
        acc.const = p.const
        for l, beta in enumerate(p.linear):
            if beta:
                c0, lin = t_forms[l]
                acc.const = (acc.const + beta * c0) % q
                for j in range(n):
                    acc.linear[j] = (acc.linear[j] + beta * lin[j]) % q
        for l in range(central.n):
            for l2 in range(l, central.n):
                gamma = p.quad[l][l2]
                if gamma:
                    u0, u_lin = t_forms[l]
                    w0, w_lin = t_forms[l2]
                    acc.add_product(u0, u_lin, w0, w_lin, gamma)
        inner.append(acc)

    outer = []
    for i in range(s_map.n):
        acc = _Accum(q, n)
        acc.const = s_map.offset[i]
        for j, coeff in enumerate(s_map.matrix[i]):
            if coeff:
                acc.add_scaled(inner[j], coeff)
        outer.append(acc.freeze())
    return MqSystem(central.field, tuple(outer))


# --- oil and vinegar ---


@dataclass(frozen=True)
class UovParams:
    """o oil variables, v vinegar variables; indices [0, v) are vinegar."""

    o: int
    v: int
    q: int

    def __post_init__(self):
        if self.o < 1 or self.v < 1:
            raise ValueError("need at least one oil and one vinegar variable")
        PrimeField(self.q)  # validates the modulus

    @property
    def n(self) -> int:
        return self.o + self.v


@dataclass
class UovPrivateKey:
    params: UovParams
    central: MqSystem
    t_map: AffineMap


@dataclass
class UovKeypair:
    public: MqSystem
    private: UovPrivateKey


def random_central_map(params: UovParams, rng: Random) -> MqSystem:
    """o random quadratics with the oil-times-oil block forced to zero."""
    f = PrimeField(params.q)
    n, v = params.n, params.v
    polys = []
    for _ in range(params.o):
        quad = [[0] * n for _ in range(n)]
        for j in range(n):
            for k in range(j, n):
                if j < v:  # at least one vinegar variable in the term
                    quad[j][k] = f.rand(rng)
        polys.append(
            QuadPoly(
                params.q,
                f.rand(rng),
                tuple(f.rand(rng) for _ in range(n)),
                tuple(tuple(r) for r in quad),
            )
        )
    return MqSystem(f, tuple(polys))


def uov_keygen(params: UovParams, rng: Random) -> UovKeypair:
    """Central map composed with a secret change of variables.

    The published system is central(T(x)); no output mixing is applied on
    top, the variable change alone hides the oil block.
    """
    central = random_central_map(params, rng)
    f = central.field
    t_map = random_affine(f, params.n, rng)
    public = compose_trapdoor(identity_map(f, params.o), central, t_map)
    return UovKeypair(public, UovPrivateKey(params, central, t_map))


def hash_to_vector(h: HashFunction, msg: bytes, count: int, q: int) -> tuple[int, ...]:
    """Map a message to count field elements (mod-q reduction of hash words)."""
    out = []
    counter = 0
    while len(out) < count:
        digest = h(msg + bytes([counter & 0xFF]))
        for i in range(0, len(digest) - 1, 2):
            if len(out) == count:
                break
            out.append(int.from_bytes(digest[i : i + 2], "big") % q)
        counter += 1
    return tuple(out)


def uov_sign(sk: UovPrivateKey, msg: bytes, h: HashFunction, rng: Random) -> tuple[int, ...]:
    """Fix vinegar at random, solve the oil system, undo the variable change.

    Raises RetriesExhausted after MAX_RETRIES singular vinegar draws.
    """
    params = sk.params
    f = sk.central.field
    target = hash_to_vector(h, msg, params.o, params.q)
    for _ in range(MAX_RETRIES):
        vinegar = [f.rand(rng) for _ in range(params.v)]
        matrix = []
        rhs = []
        for p, t in zip(sk.central.polys, target):
            const = p.const
            oil_coeffs = [0] * params.o
            for j in range(params.v):
                xj = vinegar[j]
                if xj:
                    const += p.linear[j] * xj
                    row = p.quad[j]
                    const += xj * sum(row[k] * vinegar[k] for k in range(j, params.v))
                    for k in range(params.o):
                        oil_coeffs[k] += xj * row[params.v + k]
            for k in range(params.o):
                oil_coeffs[k] = (oil_coeffs[k] + p.linear[params.v + k]) % params.q
            matrix.append(oil_coeffs)
            rhs.append((t - const) % params.q)
        oil = solve_linear(f, matrix, rhs)
        if oil is not None:
            preimage = tuple(vinegar) + oil
            return sk.t_map.apply_inverse(preimage)
    raise RetriesExhausted(f"no invertible oil system in {MAX_RETRIES} vinegar draws")


def uov_verify(public: MqSystem, msg: bytes, sig, h: HashFunction) -> bool:
    if len(sig) != public.n:
        raise LengthMismatch(f"signature length {len(sig)} != n={public.n}")
    if any(not 0 <= s < public.field.q for s in sig):
        return False
    return eval_system(public, sig) == hash_to_vector(h, msg, public.m, public.field.q)


def brute_force_preimages(system: MqSystem, target) -> list[tuple[int, ...]]:
    """Every x with system(x) == target, ascending lexicographic order."""
    import itertools

    if len(target) != system.m:
        raise DimensionMismatch(f"target length {len(target)} != m={system.m}")
    if system.field.q**system.n > PREIMAGE_CAP:
        raise TooLarge(f"q^n = {system.field.q ** system.n} exceeds cap {PREIMAGE_CAP}")
    target = tuple(t % system.field.q for t in target)
    return [
        x
        for x in itertools.product(range(system.field.q), repeat=system.n)
        if eval_system(system, x) == target
    ]


# --- serialization (used by the uniform signature contract) ---


def serialize_system(system: MqSystem) -> bytes:
    """q, n, m as single bytes, then per poly: const, linear, upper quad."""
    out = bytearray([system.field.q, system.n, system.m])
    for p in system.polys:
        out.append(p.const)
        out.extend(p.linear)
        for j in range(p.n):
            out.extend(p.quad[j][j:])
    return bytes(out)


def deserialize_system(data: bytes) -> MqSystem:
    from .serialize import MalformedFrame

    if len(data) < 3:
        raise MalformedFrame("system header truncated")
    q, n, m = data[0], data[1], data[2]
    per_poly = 1 + n + n * (n + 1) // 2
    if len(data) != 3 + m * per_poly:
        raise MalformedFrame(f"expected {3 + m * per_poly} bytes, got {len(data)}")
    polys = []
    pos = 3
    for _ in range(m):
        const = data[pos]
        pos += 1
        linear = tuple(data[pos : pos + n])
        pos += n
        quad = [[0] * n for _ in range(n)]
        for j in range(n):
            width = n - j
            row = data[pos : pos + width]
            pos += width
            for k, c in enumerate(row):
                quad[j][j + k] = c
        polys.append((const, linear, tuple(tuple(r) for r in quad)))
    try:
        f = PrimeField(q)
        return MqSystem(f, tuple(QuadPoly(q, *poly) for poly in polys))
    except (ValueError, DimensionMismatch) as e:
        raise MalformedFrame(str(e)) from None

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

import struct
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice
from operator import mul
from random import Random

from .errors import DimensionMismatch, LengthMismatch, PqbenchError, TooLarge
from .hashing import HashFunction
from .kex import draws, is_prime
from .serialize import MalformedFrame

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

    def mul(self, a, b):
        return (a * b) % self.q

    def inv(self, a):
        if a % self.q == 0:
            raise ZeroDivisionError("no inverse of 0")
        return pow(a, self.q - 2, self.q)


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
        quad = self.quad
        if len(quad) != n or any(map(n.__ne__, map(len, quad))):
            raise DimensionMismatch("quad table must be n x n")
        every = (self.const, *self.linear, *chain.from_iterable(quad))
        if min(every) < 0 or max(every) >= self.q:
            raise ValueError("coefficients must lie in [0, q)")
        if any(map(any, map(islice, quad, range(n)))):  # row j's first j entries
            raise ValueError("quad table must be upper triangular")

    @property
    def n(self) -> int:
        return len(self.linear)

    @property
    def coefficients(self) -> tuple[int, ...]:
        """Flat, in the order serialize_system writes them: const, linear,
        then the upper triangle of quad row by row."""
        return (self.const, *self.linear,
                *chain.from_iterable(row[j:] for j, row in enumerate(self.quad)))


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


def _evaluate(q: int, rows, x) -> tuple[int, ...]:
    """Each coefficient row, laid out as QuadPoly.coefficients, at x mod q:
    one monomial vector 1, x_0..x_{n-1}, x_j x_k (j <= k) serves them all."""
    mono = [1, *x]
    for j, xj in enumerate(x):
        mono += [xj * xk for xk in x[j:]]
    return tuple(sum(map(mul, row, mono)) % q for row in rows)


def eval_system(system: MqSystem, x) -> tuple[int, ...]:
    if len(x) != system.n:
        raise LengthMismatch(f"expected {system.n} variables, got {len(x)}")
    return _evaluate(system.field.q, [p.coefficients for p in system.polys], x)


# --- affine maps and linear solving ---


def _matrix_inverse(field: PrimeField, matrix):
    """The inverse of a square matrix mod q, or None when it is singular.

    Gauss-Jordan in place: column k of the identity that [A | I] would
    carry is stored in A's column k once elimination has cleared it, so each
    row operation spans n entries, not 2n.  The row swaps, undone as column
    swaps in reverse order, give the inverse of A itself.
    """
    q = field.q
    n = len(matrix)
    a = [list(row) for row in matrix]
    swaps = []
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k] % q), None)
        if pivot is None:
            return None
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            swaps.append((k, pivot))
        row = a[k]
        inv = field.inv(row[k])
        row[k] = 1
        top = a[k] = [c * inv % q for c in row]
        for i in range(n):
            f = a[i][k]
            if f and i != k:
                row = a[i]
                row[k] = 0
                a[i] = [(c - f * t) % q for c, t in zip(row, top)]
    for k, pivot in reversed(swaps):
        for row in a:
            row[k], row[pivot] = row[pivot], row[k]
    return a


def solve_linear(field: PrimeField, matrix, rhs):
    """One solution of matrix x = rhs, or None when the matrix is singular."""
    inverse = _matrix_inverse(field, matrix)
    if inverse is None:
        return None
    return tuple(sum(map(mul, row, rhs)) % field.q for row in inverse)


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
        q = self.field.q
        shifted = [(yi - o) % q for yi, o in zip(y, self.offset)]
        return tuple(sum(map(mul, row, shifted)) % q for row in self._inverse_matrix)


def identity_map(field: PrimeField, n: int) -> AffineMap:
    eye = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    return AffineMap(field, eye, tuple([0] * n))


def random_affine(field: PrimeField, n: int, rng: Random) -> AffineMap:
    while True:
        values = draws(rng, field.q, n * n)
        matrix = tuple(tuple(values[i * n:(i + 1) * n]) for i in range(n))
        try:
            return AffineMap(field, matrix, (0,) * n)
        except ValueError:  # a singular draw
            continue


# --- symbolic composition ---
#
# Substitution packs a vector of nonnegative ints into one int, entry k in
# bits [64k, 64k + 64), so that adding or scaling whole vectors is one
# big-int operation: sum(map(mul, coefficients, packed_rows)) is a
# vector-matrix product.  Entries are reduced mod q only once unpacked, and
# _substitute bounds them below 2^64 until then.


def _pack(values) -> int:
    return int.from_bytes(struct.pack(f"<{len(values)}Q", *values), "little")


def _unpack(packed: int, count: int) -> tuple[int, ...]:
    return struct.unpack(f"<{count}Q", packed.to_bytes(8 * count, "little"))


def _substitute(p: QuadPoly, a, a_rows, b) -> list[int]:
    """The coefficients of p(T(x)) in QuadPoly.coefficients order, each
    reduced mod q, where T(x) = A x + b is given by A, A's packed rows and
    b, all entries in [0, q).

    With p(y) = c + L.y + y'Qy, the substituted polynomial is
    (c + L.b + b'Qb) + (L + (Q + Q')b)'A x + x'(A'QA)x.  Only Q's nonzero
    rows enter A'QA (a central map's oil rows are all zero), and b's terms
    only when b is nonzero (it is zero in uov_keygen).  An entry of A'QA
    sums n^2 products of three values below q, and an entry of grad'A n
    products of a value below q and one below 3nq^2, so while n is below
    10^6 no packed entry reaches 2^64.
    """
    n = len(b)
    quad = p.quad
    const, grad = p.const, p.linear  # grad: the gradient of p at b, L + (Q + Q')b
    if any(b):
        qb = [sum(map(mul, row, b)) for row in quad]
        grad = [g + qb_k + sum(map(mul, col, b)) for g, qb_k, col in zip(grad, qb, zip(*quad))]
        const += sum(map(mul, p.linear, b)) + sum(map(mul, b, qb))
    live = [i for i, row in enumerate(quad) if any(row)]
    qa = [sum(map(mul, quad[i], a_rows)) for i in live]  # QA's live rows
    a_live = list(zip(*[a[i] for i in live])) or [()] * n  # A's live rows, by column
    full = [_unpack(sum(map(mul, a_col, qa)), n) for a_col in a_live]  # A'QA by rows
    coeffs = [const, *_unpack(sum(map(mul, grad, a_rows)), n)]
    for j in range(n):
        row = full[j]
        coeffs.append(row[j])
        coeffs += [row[k] + full[k][j] for k in range(j + 1, n)]
    return [c % p.q for c in coeffs]


def _freeze(q: int, n: int, coeffs) -> QuadPoly:
    """A QuadPoly from coefficients laid out as QuadPoly.coefficients."""
    quad = []
    pos = 1 + n
    for j in range(n):
        quad.append((0,) * j + tuple(coeffs[pos:pos + n - j]))
        pos += n - j
    return QuadPoly(q, coeffs[0], tuple(coeffs[1:1 + n]), tuple(quad))


def _substitute_system(central: MqSystem, t_map: AffineMap) -> MqSystem:
    """central(T(x)) as an explicit quadratic system."""
    if t_map.n != central.n:
        raise DimensionMismatch("map dimensions do not match the central system")
    q, n = central.field.q, t_map.n
    a = [[x % q for x in row] for row in t_map.matrix]
    a_rows = [_pack(row) for row in a]
    b = [x % q for x in t_map.offset]
    return MqSystem(central.field, tuple(_freeze(q, n, _substitute(p, a, a_rows, b))
                                         for p in central.polys))


def compose_trapdoor(s_map: AffineMap, central: MqSystem, t_map: AffineMap) -> MqSystem:
    """Expand S(central(T(x))) into an explicit quadratic system.

    T substitutes an affine form for every central variable, and S mixes
    the resulting polynomials.
    """
    if s_map.n != central.m:
        raise DimensionMismatch("map dimensions do not match the central system")
    inner = _substitute_system(central, t_map)
    q, n = central.field.q, t_map.n
    flat = [p.coefficients for p in inner.polys]
    outer = []
    for row, offset in zip(s_map.matrix, s_map.offset):
        mixed = [sum(map(mul, row, column)) for column in zip(*flat)]
        mixed[0] += offset
        outer.append(_freeze(q, n, [c % q for c in mixed]))
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

    @cached_property
    def oil_system(self) -> tuple[list, list]:
        """The central map split for signing, built at the first sign.

        With the vinegar fixed, each central polynomial is its vinegar-only
        part, a polynomial in the v vinegar variables laid out as
        QuadPoly.coefficients, plus one linear form in (1, vinegar) per oil
        variable: its linear oil term, then its vinegar-times-oil column.
        """
        v = self.params.v
        vinegar_parts = []
        oil_forms = []
        for p in self.central.polys:
            vinegar_rows = p.quad[:v]
            vinegar_parts.append([p.const, *p.linear[:v],
                                  *chain.from_iterable(row[j:v] for j, row in enumerate(vinegar_rows))])
            oil_forms.append([(lin, *column) for lin, column in
                              zip(p.linear[v:], zip(*(row[v:] for row in vinegar_rows)))])
        return vinegar_parts, oil_forms


@dataclass
class UovKeypair:
    public: MqSystem
    private: UovPrivateKey


def random_central_map(params: UovParams, rng: Random) -> MqSystem:
    """o random quadratics with the oil-times-oil block forced to zero.

    Each polynomial draws the vinegar rows of its quad table's upper
    triangle, row by row, then its constant, then its linear terms."""
    q, n, v = params.q, params.n, params.v
    vinegar_terms = sum(n - j for j in range(v))
    per_poly = vinegar_terms + 1 + n
    oil_terms = [0] * (n * (n + 1) // 2 - vinegar_terms)
    values = draws(rng, q, params.o * per_poly)
    polys = []
    for start in range(0, len(values), per_poly):
        quad = values[start:start + vinegar_terms]
        const_linear = values[start + vinegar_terms:start + per_poly]
        polys.append(_freeze(q, n, const_linear + quad + oil_terms))
    return MqSystem(PrimeField(q), tuple(polys))


def uov_keygen(params: UovParams, rng: Random) -> UovKeypair:
    """Central map composed with a secret change of variables.

    The published system is central(T(x)); no output mixing is applied on
    top, the variable change alone hides the oil block.
    """
    central = random_central_map(params, rng)
    t_map = random_affine(central.field, params.n, rng)
    public = _substitute_system(central, t_map)
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
    q, v = sk.params.q, sk.params.v
    target = hash_to_vector(h, msg, sk.params.o, q)
    vinegar_parts, oil_forms = sk.oil_system
    for _ in range(MAX_RETRIES):
        vinegar = draws(rng, q, v)
        consts = _evaluate(q, vinegar_parts, vinegar)
        ones = (1, *vinegar)
        matrix = [[sum(map(mul, form, ones)) % q for form in forms] for forms in oil_forms]
        rhs = [(t - c) % q for t, c in zip(target, consts)]
        oil = solve_linear(sk.central.field, matrix, rhs)
        if oil is not None:
            return sk.t_map.apply_inverse((*vinegar, *oil))
    raise RetriesExhausted(f"no invertible oil system in {MAX_RETRIES} vinegar draws")


def uov_verify(public: bytes, msg: bytes, sig, h: HashFunction) -> bool:
    """Check sig against a public key as serialize_system wrote it, by
    evaluating the key's bytes directly.  A key that does not parse raises
    MalformedFrame, and a signature of the wrong length LengthMismatch."""
    q, n, m, per_poly = _system_header(public)
    if len(sig) != n:
        raise LengthMismatch(f"signature length {len(sig)} != n={n}")
    if n and (min(sig) < 0 or max(sig) >= q):
        return False
    rows = [public[pos:pos + per_poly] for pos in range(3, len(public), per_poly)]
    return _evaluate(q, rows, sig) == hash_to_vector(h, msg, m, q)


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
    """q, n, m as single bytes, then each polynomial's coefficients."""
    for name, size in (("n", system.n), ("m", system.m)):
        if size > 255:
            raise TooLarge(f"{name} = {size} does not fit the system header's one-byte {name} field")
    return bytes([system.field.q, system.n, system.m,
                  *chain.from_iterable(p.coefficients for p in system.polys)])


def _system_header(data: bytes) -> tuple[int, int, int, int]:
    """(q, n, m, bytes per polynomial) of a serialized system, once its
    length, its field (a prime q <= MAX_FIELD), its m >= 1 and every
    coefficient (below q) have been checked."""
    if len(data) < 3:
        raise MalformedFrame("system header truncated")
    q, n, m = data[0], data[1], data[2]
    per_poly = 1 + n + n * (n + 1) // 2
    if len(data) != 3 + m * per_poly:
        raise MalformedFrame(f"expected {3 + m * per_poly} bytes, got {len(data)}")
    if not is_prime(q) or q > MAX_FIELD:
        raise MalformedFrame(f"q must be a prime <= {MAX_FIELD}, got {q}")
    if not m:
        raise MalformedFrame("empty system")
    if max(data[3:]) >= q:
        raise MalformedFrame("coefficients must lie in [0, q)")
    return q, n, m, per_poly

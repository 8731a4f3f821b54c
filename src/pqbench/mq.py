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
from functools import cached_property, lru_cache
from itertools import chain, combinations_with_replacement, islice, starmap
from operator import add, itemgetter, mul
from random import Random
from typing import NamedTuple

from .errors import DimensionMismatch, LengthMismatch, PqbenchError, TooLarge
from .hashing import HashFunction
from .kex import draws, is_prime
from .serialize import MalformedFrame

PREIMAGE_CAP = 10**6
MAX_FIELD = 31
MAX_RETRIES = 100  # vinegar draws uov_sign tries before RetriesExhausted


class RetriesExhausted(PqbenchError):
    """Signing kept drawing vinegar values that make the system singular."""


def _built(cls, **fields):
    """An instance of the frozen dataclass cls with its fields set as
    given, without running its checks: for values built to pass them."""
    obj = object.__new__(cls)
    vars(obj).update(fields)
    return obj


@dataclass(frozen=True)
class PrimeField:
    """A small prime modulus; inversion by Fermat."""

    q: int

    def __post_init__(self):
        if not is_prime(self.q) or self.q > MAX_FIELD:
            raise ValueError(f"q must be a prime <= {MAX_FIELD}, got {self.q}")

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
        """Flat, in the order a public key's bytes hold them: const,
        linear, then the upper triangle of quad row by row."""
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
    mono = [1, *x, *starmap(mul, combinations_with_replacement(x, 2))]
    return tuple([sum(map(mul, row, mono)) % q for row in rows])


def eval_system(system: MqSystem, x) -> tuple[int, ...]:
    if len(x) != system.n:
        raise LengthMismatch(f"expected {system.n} variables, got {len(x)}")
    return _evaluate(system.field.q, [p.coefficients for p in system.polys], x)


# --- affine maps and linear solving ---


def _matrix_inverse(field: PrimeField, matrix):
    """The inverse of a square matrix mod q, as a tuple of rows, or None
    when it is singular.

    Gauss-Jordan on [A | I] with each row packed into one int, lane j of
    width w holding column j, so a row operation is one big-int multiply
    and add.  Rows are never reduced during elimination: the pivot row is
    scaled by the pivot's inverse and every other row adds (q - f) times it,
    where f is its own entry in the pivot column mod q, so every lane stays
    nonnegative, grows at most (1 + (q - 1)^2)-fold per column, and only the
    entries read are reduced.  w holds q (1 + (q - 1)^2)^n.
    """
    q = field.q
    n = len(matrix)
    bits = (q * (1 + (q - 1) ** 2) ** n).bit_length()
    lane = (1 << bits) - 1
    units = [1 << bits * j for j in range(n)]
    rows = [sum(map(mul, map(q.__rmod__, row), units)) | 1 << bits * (n + i)
            for i, row in enumerate(matrix)]
    for k in range(n):
        shift = bits * k
        for r in range(k, n):
            pivot = (rows[r] >> shift & lane) % q
            if pivot:
                break
        else:
            return None
        top = rows[r] * field.inv(pivot)
        rows[r] = rows[k]
        rows[k] = top
        for i in range(n):
            if i != k:
                f = (rows[i] >> shift & lane) % q
                if f:
                    rows[i] += (q - f) * top
    shifts = range(bits * n, 2 * bits * n, bits)
    return tuple(tuple([(row >> shift & lane) % q for shift in shifts]) for row in rows)


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
        object.__setattr__(self, "_inverse_matrix", inv)

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
    """x -> A x with A drawn row by row, entry by entry, until it is
    invertible; a drawn A is square and reduced, so only its inverse is
    computed, once, and AffineMap's checks are skipped."""
    while True:
        values = draws(rng, field.q, n * n)
        matrix = tuple(tuple(values[i * n:(i + 1) * n]) for i in range(n))
        inverse = _matrix_inverse(field, matrix)
        if inverse is not None:
            return _built(AffineMap, field=field, matrix=matrix, offset=(0,) * n,
                          _inverse_matrix=inverse)


# --- symbolic composition ---
#
# Substitution packs a vector of nonnegative ints into one int, entry k in
# lane k, bits [wk, wk + w), so that adding or scaling whole vectors is one
# big-int operation: sum(map(mul, coefficients, packed_rows)) is a
# vector-matrix product.  Entries are reduced mod q only once unpacked, and
# _substitute_rows picks w so that none reaches 2^w until then.


class _Layout(NamedTuple):
    """How _substitute_rows packs polynomials in n variables over F_q.

    A substituted polynomial is one packed int: its constant in lane 0,
    its linear coefficients in lanes 1 .. n, the full n x n table of its
    quadratic form row by row from lane 1 + n, and one lane left zero.
    Every entry stays below 3 n^2 q^3, which sets the lane width."""

    bits: int  # lane width
    square: struct.Struct  # n x n lanes
    lanes: struct.Struct  # every lane of a substituted polynomial
    transpose: itemgetter  # a flat n x n matrix's entries, column by column
    spread_mask: int  # the table's lanes 1 + n + jn for every j
    # the pairwise sums of what first and second pick from the lanes are
    # the coefficients in QuadPoly.coefficients order: the constant, the
    # linear terms, then for j <= k the table's (j, k) and (k, j) entries,
    # once on the diagonal
    first: itemgetter
    second: itemgetter


@lru_cache(maxsize=8)
def _substitution_layout(n: int, q: int) -> _Layout:
    code = next((c for c in "HIQ" if 3 * n * n * q**3 < 1 << 8 * struct.calcsize(c)), None)
    if code is None:
        raise TooLarge(f"n = {n} over F_{q} needs lanes wider than 64 bits")
    bits = 8 * struct.calcsize(code)
    table = 1 + n
    zero = table + n * n
    first = [*range(table)]
    second = [zero] * table
    for j in range(n):
        first += [table + j * n + k for k in range(j, n)]
        second += [zero, *(table + k * n + j for k in range(j + 1, n))]
    return _Layout(
        bits,
        struct.Struct(f"<{n * n}{code}"),
        struct.Struct(f"<{zero + 1}{code}"),
        itemgetter(*(i * n + j for j in range(n) for i in range(n))),
        sum(((1 << bits) - 1) << bits * (table + j * n) for j in range(n)),
        itemgetter(*first),
        itemgetter(*second),
    )


def _substitute_rows(central: MqSystem, t_map: AffineMap) -> list[bytes]:
    """The coefficients of each central polynomial p composed with
    T(x) = A x + b, as bytes in QuadPoly.coefficients order, reduced mod q.

    With p(y) = c + L.y + y'Qy, p(T(x)) is (c + L.b + b'Qb) + (L + (Q + Q')b)'A x
    + x'(A'QA)x, and b's terms enter only when b is nonzero (it is zero in
    uov_keygen).  With a_i the rows of A and h_i = sum_l Q[i][l] a_l the rows
    of QA, x'(A'QA)x is the sum over i of (a_i.x)(h_i.x).  Packed, the outer
    product of a_i and h_i is one big-int product, a_i spread one entry
    every n lanes times h_i packed densely, so one packed sum holds the
    whole substituted polynomial (see _Layout).  A is packed twice, by rows
    and by columns, and each dense or spread row is one shift and mask.
    """
    if t_map.n != central.n:
        raise DimensionMismatch("map dimensions do not match the central system")
    q, n = central.field.q, t_map.n
    layout = _substitution_layout(n, q)
    bits, lanes, first, second = layout.bits, layout.lanes, layout.first, layout.second
    a = [x % q for row in t_map.matrix for x in row]
    b = [x % q for x in t_map.offset]
    by_rows = int.from_bytes(layout.square.pack(*a), "little")
    row_mask = (1 << n * bits) - 1
    dense = [by_rows >> shift & row_mask for shift in range(0, n * n * bits, n * bits)]
    linear_rows = [row << bits for row in dense]  # lanes 1 .. n
    # column j from lane 1 + n + jn on, so row i, shifted down i lanes, is spread
    by_columns = int.from_bytes(layout.square.pack(*layout.transpose(a)), "little")
    by_columns <<= bits * (1 + n)
    spread = [by_columns >> shift & layout.spread_mask for shift in range(0, n * bits, bits)]
    rows = []
    for p in central.polys:
        quad = p.quad
        const, grad = p.const, p.linear  # grad: the gradient of p at b, L + (Q + Q')b
        if any(b):
            qb = [sum(map(mul, row, b)) for row in quad]
            grad = [g + qb_k + sum(map(mul, col, b)) for g, qb_k, col in zip(grad, qb, zip(*quad))]
            const += sum(map(mul, p.linear, b)) + sum(map(mul, b, qb))
        h = [sum(map(mul, row, dense)) for row in quad]  # QA's rows
        packed = const + sum(map(mul, grad, linear_rows)) + sum(map(mul, spread, h))
        values = lanes.unpack(packed.to_bytes(lanes.size, "little"))
        rows.append(bytes([c % q for c in map(add, first(values), second(values))]))
    return rows


def _freeze(q: int, n: int, coeffs) -> QuadPoly:
    """A QuadPoly from coefficients laid out as QuadPoly.coefficients, each
    in [0, q); such a layout passes QuadPoly's checks by construction."""
    quad = []
    pos = 1 + n
    for j in range(n):
        quad.append((0,) * j + tuple(coeffs[pos:pos + n - j]))
        pos += n - j
    return _built(QuadPoly, q=q, const=coeffs[0], linear=tuple(coeffs[1:1 + n]), quad=tuple(quad))


def compose_trapdoor(s_map: AffineMap, central: MqSystem, t_map: AffineMap) -> MqSystem:
    """Expand S(central(T(x))) into an explicit quadratic system.

    T substitutes an affine form for every central variable, and S mixes
    the resulting polynomials.
    """
    if s_map.n != central.m:
        raise DimensionMismatch("map dimensions do not match the central system")
    inner = _substitute_rows(central, t_map)
    q, n = central.field.q, t_map.n
    outer = []
    for row, offset in zip(s_map.matrix, s_map.offset):
        mixed = [sum(map(mul, row, column)) for column in zip(*inner)]
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
    public: bytes
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
    top, the variable change alone hides the oil block.  The public key is
    that system's bytes as uov_verify reads them: q, n and m as single
    bytes, then each polynomial's coefficients in QuadPoly.coefficients
    order.  An n the one-byte header cannot hold is refused before any
    draw; m = o is below n.
    """
    if params.n > 255:
        raise TooLarge(f"n = {params.n} does not fit the public key's one-byte n field")
    central = random_central_map(params, rng)
    t_map = random_affine(central.field, params.n, rng)
    header = bytes([params.q, params.n, params.o])
    return UovKeypair(header + b"".join(_substitute_rows(central, t_map)),
                      UovPrivateKey(params, central, t_map))


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
    """Check sig against a public key as uov_keygen wrote it, by
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


# --- public keys as bytes ---


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

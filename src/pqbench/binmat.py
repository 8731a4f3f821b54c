"""Word-packed linear algebra over GF(2).

Rows are stored as Python ints, bit j of a row being column j, so a row
operation is one XOR on arbitrary-precision words instead of a Python
loop over entries.  That packing is what keeps the exhaustive code-based
tests (thousands of encode/decode calls) fast enough to be pleasant.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .errors import DimensionMismatch


@dataclass(eq=True)
class BinaryMatrix:
    rows: int
    cols: int
    data: list[int]  # one int per row, bit j = column j

    def __post_init__(self):
        if len(self.data) != self.rows:
            raise DimensionMismatch(f"{self.rows} rows declared, {len(self.data)} given")
        if self.data and (min(self.data) < 0 or max(self.data) >> self.cols):
            raise DimensionMismatch(f"row has bits beyond column {self.cols - 1}")

    @classmethod
    def zero(cls, rows: int, cols: int) -> "BinaryMatrix":
        return cls(rows, cols, [0] * rows)

    @classmethod
    def identity(cls, n: int) -> "BinaryMatrix":
        return cls(n, n, [1 << i for i in range(n)])

    @classmethod
    def random(cls, rows: int, cols: int, rng: Random) -> "BinaryMatrix":
        return cls(rows, cols, [rng.getrandbits(cols) for _ in range(rows)])

    @classmethod
    def from_bits(cls, bits) -> "BinaryMatrix":
        data = [sum(b << j for j, b in enumerate(row)) for row in bits]
        return cls(len(bits), len(bits[0]) if bits else 0, data)

    def mul(self, other: "BinaryMatrix") -> "BinaryMatrix":
        """Matrix product; row i of the result XORs the rows of other that
        row i selects.  Bit-sliced, with self's rows side by side in lanes
        as wide as either matrix: bit j of every row, times row j of other,
        puts that row in every lane that selects it."""
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} times {other.rows}x{other.cols}")
        width = max(self.cols, other.cols)
        packed, low = _side_by_side(self.data, width)
        out = 0
        for j, row in enumerate(other.data):
            out ^= (packed >> j & low) * row
        return BinaryMatrix(self.rows, other.cols, _apart(out, self.rows, width))

    def vec_mul(self, v: int) -> int:
        """Row vector times matrix: v has self.rows bits, result self.cols."""
        if v >> self.rows:
            raise DimensionMismatch(f"vector has bits beyond row {self.rows - 1}")
        acc = 0
        while v:
            j = (v & -v).bit_length() - 1
            acc ^= self.data[j]
            v &= v - 1
        return acc

    def permute_cols(self, perm: list[int]) -> "BinaryMatrix":
        """Column i of self becomes column perm[i] of the result, for every
        row at once: permute_lanes over the rows side by side."""
        if sorted(perm) != list(range(self.cols)):
            raise DimensionMismatch("perm is not a permutation of the columns")
        packed, low = _side_by_side(self.data, self.cols)
        return BinaryMatrix(self.rows, self.cols,
                            _apart(permute_lanes(packed, low, perm), self.rows, self.cols))

    def inverse(self) -> "BinaryMatrix":
        """Gauss-Jordan on [self | I]; raises ValueError when singular."""
        if self.rows != self.cols:
            raise DimensionMismatch("only square matrices invert")
        rows = _inverse_rows(self.data, self.rows)
        if rows is None:
            raise ValueError("matrix is singular")
        return BinaryMatrix(self.rows, self.rows, rows)


def _side_by_side(rows: list[int], width: int) -> tuple[int, int]:
    """rows in one int, row i in bits [width i, width i + width), and the
    int with bit 0 of each of those lanes set."""
    return (sum(row << width * i for i, row in enumerate(rows)),
            sum(1 << width * i for i in range(len(rows))))


def _apart(packed: int, count: int, width: int) -> list[int]:
    """_side_by_side undone: count rows of width bits."""
    mask = (1 << width) - 1
    return [packed >> width * i & mask for i in range(count)]


def _inverse_rows(data: list[int], n: int) -> list[int] | None:
    """The rows of an n x n matrix's inverse, or None when it is singular:
    Gauss-Jordan on [A | I] with each augmented row one int, A's row in
    bits 0 .. n - 1 and I's in bits n .. 2n - 1, so a row operation is one
    XOR."""
    rows = [row | 1 << n + i for i, row in enumerate(data)]
    for col in range(n):
        bit = 1 << col
        for r in range(col, n):
            if rows[r] & bit:
                break
        else:
            return None
        pivot = rows[r]
        rows[r] = rows[col]
        rows[col] = pivot
        for r in range(n):
            if rows[r] & bit and r != col:
                rows[r] ^= pivot
    return [row >> n for row in rows]


def random_invertible(n: int, rng: Random) -> tuple[BinaryMatrix, BinaryMatrix]:
    """Rejection-sample a random invertible matrix (succeeds fast: the
    invertible fraction over GF(2) stays near 29%), and return it with
    its inverse, the rows whose existence accepted the draw."""
    while True:
        m = BinaryMatrix.random(n, n, rng)
        rows = _inverse_rows(m.data, n)
        if rows is not None:
            return m, BinaryMatrix(n, n, rows)


def random_permutation(n: int, rng: Random) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def invert_permutation(perm: list[int]) -> list[int]:
    inv = [0] * len(perm)
    for i, j in enumerate(perm):
        inv[j] = i
    return inv


def permute_word(word: int, perm: list[int]) -> int:
    """Bit i of word moves to bit perm[i]."""
    out = 0
    w = word
    while w:
        j = (w & -w).bit_length() - 1
        out |= 1 << perm[j]
        w &= w - 1
    return out


def permute_lanes(packed: int, low: int, perm: list[int]) -> int:
    """permute_word of every lane at once: low has bit 0 of each lane set,
    and bit j of every lane, one mask away, moves to bit perm[j] of its
    lane with one shift; every lane must be wider than each perm[j]."""
    out = 0
    for j, target in enumerate(perm):
        out |= (packed >> j & low) << target
    return out

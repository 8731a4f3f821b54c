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
        mask = (1 << self.cols) - 1
        if any(row & ~mask for row in self.data):
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

    def get(self, i: int, j: int) -> int:
        return (self.data[i] >> j) & 1

    def mul(self, other: "BinaryMatrix") -> "BinaryMatrix":
        """Matrix product; row i of the result XORs rows of other."""
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} times {other.rows}x{other.cols}")
        out = []
        for row in self.data:
            acc = 0
            r = row
            while r:
                j = (r & -r).bit_length() - 1  # lowest set bit
                acc ^= other.data[j]
                r &= r - 1
            out.append(acc)
        return BinaryMatrix(self.rows, other.cols, out)

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
        """Column i of self becomes column perm[i] of the result."""
        if sorted(perm) != list(range(self.cols)):
            raise DimensionMismatch("perm is not a permutation of the columns")
        out = [0] * self.rows
        for i, row in enumerate(self.data):
            r = row
            while r:
                j = (r & -r).bit_length() - 1
                out[i] |= 1 << perm[j]
                r &= r - 1
        return BinaryMatrix(self.rows, self.cols, out)

    def inverse(self) -> "BinaryMatrix":
        """Gauss-Jordan on [self | I]; raises ValueError when singular."""
        if self.rows != self.cols:
            raise DimensionMismatch("only square matrices invert")
        n = self.rows
        left = self.data.copy()
        right = [1 << i for i in range(n)]
        for col in range(n):
            pivot = next(
                (r for r in range(col, n) if (left[r] >> col) & 1),
                None,
            )
            if pivot is None:
                raise ValueError("matrix is singular")
            left[col], left[pivot] = left[pivot], left[col]
            right[col], right[pivot] = right[pivot], right[col]
            for r in range(n):
                if r != col and (left[r] >> col) & 1:
                    left[r] ^= left[col]
                    right[r] ^= right[col]
        return BinaryMatrix(n, n, right)

    def is_invertible(self) -> bool:
        try:
            self.inverse()
        except ValueError:
            return False
        return True


def random_invertible(n: int, rng: Random) -> BinaryMatrix:
    """Rejection-sample a random invertible matrix (succeeds fast: the
    invertible fraction over GF(2) stays near 29%)."""
    while True:
        m = BinaryMatrix.random(n, n, rng)
        if m.is_invertible():
            return m


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

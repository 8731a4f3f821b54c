import hashlib
import struct
from random import Random

import pytest
from hypothesis import given, strategies as st

from pqbench.binmat import (
    BinaryMatrix,
    invert_permutation,
    permute_word,
    random_invertible,
    random_permutation,
)
from pqbench.errors import DimensionMismatch


def naive_mul(a: BinaryMatrix, b: BinaryMatrix) -> BinaryMatrix:
    """Triple-loop reference multiply used as the oracle."""
    out = [[0] * b.cols for _ in range(a.rows)]
    for i in range(a.rows):
        for j in range(b.cols):
            s = 0
            for k in range(a.cols):
                s ^= (a.data[i] >> k & 1) & (b.data[k] >> j & 1)
            out[i][j] = s
    return BinaryMatrix.from_bits(out)


def test_mul_matches_naive_oracle():
    rng = Random(1)
    for _ in range(25):
        r, c, c2 = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        a = BinaryMatrix.random(r, c, rng)
        b = BinaryMatrix.random(c, c2, rng)
        assert a.mul(b) == naive_mul(a, b)


@given(st.integers(0, 2**32))
def test_identity_is_neutral(seed):
    rng = Random(seed)
    m = BinaryMatrix.random(4, 4, rng)
    i = BinaryMatrix.identity(4)
    assert i.mul(m) == m
    assert m.mul(i) == m


def test_vec_mul_matches_row_matrix():
    rng = Random(2)
    m = BinaryMatrix.random(5, 7, rng)
    for v in range(2**5):
        as_matrix = BinaryMatrix(1, 5, [v]).mul(m)
        assert m.vec_mul(v) == as_matrix.data[0]


def test_inverse_roundtrip():
    rng = Random(4)
    for n in (1, 2, 3, 5, 8):
        m, inverse = random_invertible(n, rng)
        assert inverse == m.inverse()
        assert m.mul(inverse) == BinaryMatrix.identity(n)
        assert inverse.mul(m) == BinaryMatrix.identity(n)


def test_singular_matrix_raises():
    for m in (BinaryMatrix(2, 2, [0b11, 0b11]),  # equal rows
              BinaryMatrix.zero(3, 3)):
        with pytest.raises(ValueError):
            m.inverse()


def test_shape_checks():
    a = BinaryMatrix.zero(2, 3)
    b = BinaryMatrix.zero(2, 3)
    with pytest.raises(DimensionMismatch):
        a.mul(b)
    with pytest.raises(DimensionMismatch):
        a.vec_mul(0b100)
    with pytest.raises(DimensionMismatch):
        BinaryMatrix(2, 2, [0b100, 0])  # bit beyond declared cols
    with pytest.raises(DimensionMismatch):
        BinaryMatrix(2, 2, [0, -1])  # a negative row has every high bit set


def test_permute_cols_matches_permutation_matrix():
    rng = Random(5)
    m = BinaryMatrix.random(3, 5, rng)
    perm = random_permutation(5, rng)
    # P as an explicit matrix: row i has its 1 in column perm[i]
    p = BinaryMatrix(5, 5, [1 << perm[i] for i in range(5)])
    assert m.permute_cols(perm) == m.mul(p)


def test_permute_word_and_inverse():
    rng = Random(6)
    perm = random_permutation(8, rng)
    inv = invert_permutation(perm)
    for w in (0, 1, 0b10110101, 0xFF):
        assert permute_word(permute_word(w, perm), inv) == w


def test_permute_cols_rejects_non_permutation():
    m = BinaryMatrix.zero(2, 3)
    with pytest.raises(DimensionMismatch):
        m.permute_cols([0, 0, 1])


def test_bit_sliced_products_and_permutations_match_per_row_loops():
    rng = Random(8)
    for _ in range(100):
        rows, cols, cols2 = rng.randint(1, 9), rng.randint(1, 9), rng.randint(1, 9)
        a = BinaryMatrix.random(rows, cols, rng)
        b = BinaryMatrix.random(cols, cols2, rng)
        perm = random_permutation(cols, rng)
        assert a.permute_cols(perm).data == [permute_word(row, perm) for row in a.data]
        assert a.mul(b).data == [b.vec_mul(row) for row in a.data]


def test_random_invertible_draws_are_pinned():
    # every matrix drawn for n = 1..8 and seeds 0..49, then the state each
    # generator is left in, so neither the matrices nor the RNG stream move
    h = hashlib.sha256()
    states = []
    for n in range(1, 9):
        for seed in range(50):
            rng = Random(seed)
            h.update(bytes(random_invertible(n, rng)[0].data))
            states.append(rng.getstate())
    for version, words, gauss in states:
        assert (version, gauss) == (3, None)
        h.update(struct.pack(">625I", *words))
    assert h.hexdigest() == "8eaac489c4f534b8ae86a006bad1187098a33bd137229b104ebdddf4ab681506"

from random import Random

import pytest

from pqbench.binmat import BinaryMatrix
from pqbench.codecrypt import (
    brute_force_decode,
    deserialize_code_matrix,
    hamming_code,
    hamming_distance,
    hamming_weight,
    mceliece_decrypt,
    mceliece_encrypt,
    mceliece_keygen,
    random_error,
    serialize_code_matrix,
)
from pqbench.errors import DimensionMismatch, TooLarge
from pqbench.serialize import MalformedFrame


def test_weight_and_distance():
    assert hamming_weight(0) == 0
    assert hamming_weight(0b1011) == 3
    assert hamming_distance(0b1100, 0b1010) == 2


def test_hamming_7_4_shape():
    code = hamming_code(3)
    assert (code.n, code.k, code.t) == (7, 4, 1)
    code15 = hamming_code(4)
    assert (code15.n, code15.k, code15.t) == (15, 11, 1)


def test_hamming_codewords_have_min_distance_3():
    code = hamming_code(3)
    words = [code.encode(m) for m in range(16)]
    assert len(set(words)) == 16
    for i in range(16):
        for j in range(i + 1, 16):
            assert hamming_distance(words[i], words[j]) >= 3


def test_hamming_corrects_every_single_error():
    code = hamming_code(3)
    for m in range(16):
        c = code.encode(m)
        assert code.decoder(c) == m
        for pos in range(7):
            assert code.decoder(c ^ (1 << pos)) == m, (m, pos)


def test_hamming_two_errors_mislead_but_never_crash():
    code = hamming_code(3)
    for m in range(16):
        c = code.encode(m)
        decoded = code.decoder(c ^ 0b11)  # two errors, beyond t=1
        assert 0 <= decoded < 16  # some message, wrong or not, no exception


def test_syndrome_decoder_matches_brute_force_on_all_words():
    # the packed syndrome path and the nearest-codeword oracle must agree
    # on the entire 7-bit word space
    code = hamming_code(3)
    for word in range(2**7):
        assert code.decoder(word) == brute_force_decode(code, word), word


def test_brute_force_tie_break_is_smallest_message():
    code = hamming_code(3)
    # distance-2 word sits between codewords; whatever the tie set is,
    # the oracle must return its smallest member
    word = code.encode(5) ^ 0b11
    m = brute_force_decode(code, word)
    d = hamming_distance(word, code.encode(m))
    ties = [mm for mm in range(16) if hamming_distance(word, code.encode(mm)) == d]
    assert m == min(ties)


def test_brute_force_cap():
    big = hamming_code(5)  # k = 26
    with pytest.raises(TooLarge):
        brute_force_decode(big, 0)


def test_mceliece_roundtrip_7_4():
    rng = Random(10)
    code = hamming_code(3)
    pk, sk = mceliece_keygen(code, rng)
    for m in range(16):
        c = mceliece_encrypt(pk, m, rng)
        assert mceliece_decrypt(sk, c) == m


def test_mceliece_exhaustive_many_keys():
    # every message under a spread of keys, fresh scramble and permutation each
    code = hamming_code(3)
    for seed in range(20):
        rng = Random(1000 + seed)
        pk, sk = mceliece_keygen(code, rng)
        for m in range(16):
            assert mceliece_decrypt(sk, mceliece_encrypt(pk, m, rng)) == m


def test_mceliece_identity_hooks_reduce_to_bare_code():
    rng = Random(11)
    code = hamming_code(3)
    pk, sk = mceliece_keygen(
        code, rng, scramble=BinaryMatrix.identity(4), perm=list(range(7))
    )
    assert pk.matrix == code.generator
    m = 0b1010
    c = mceliece_encrypt(pk, m, rng, error=0)
    assert c == code.encode(m)
    assert mceliece_decrypt(sk, c) == m


def test_mceliece_error_hook_and_weight_check():
    rng = Random(12)
    code = hamming_code(3)
    pk, sk = mceliece_keygen(code, rng)
    c = mceliece_encrypt(pk, 7, rng, error=1 << 3)
    assert mceliece_decrypt(sk, c) == 7
    with pytest.raises(DimensionMismatch):
        mceliece_encrypt(pk, 7, rng, error=0b111)  # weight 3 > t


def test_mceliece_message_range_checked():
    rng = Random(13)
    pk, _ = mceliece_keygen(hamming_code(3), rng)
    with pytest.raises(DimensionMismatch):
        mceliece_encrypt(pk, 1 << 4, rng)


def test_mceliece_15_11():
    rng = Random(14)
    code = hamming_code(4)
    pk, sk = mceliece_keygen(code, rng)
    for m in (0, 1, 2**11 - 1, 0b10110010101, 1234):
        assert mceliece_decrypt(sk, mceliece_encrypt(pk, m, rng)) == m


def test_mceliece_wrong_key_garbles():
    rng = Random(15)
    code = hamming_code(3)
    pk, _ = mceliece_keygen(code, rng)
    _, other_sk = mceliece_keygen(code, rng)
    hits = sum(
        mceliece_decrypt(other_sk, mceliece_encrypt(pk, m, rng)) == m for m in range(16)
    )
    assert hits < 16  # the wrong key cannot track the right one across the space


def test_random_error_weight():
    rng = Random(16)
    for _ in range(50):
        assert hamming_weight(random_error(7, 1, rng)) == 1
        assert hamming_weight(random_error(16, 3, rng)) == 3


def test_matrix_serialization_roundtrip():
    rng = Random(17)
    code = hamming_code(3)
    pk, _ = mceliece_keygen(code, rng)
    blob = serialize_code_matrix(pk.matrix, pk.t)
    matrix, t = deserialize_code_matrix(blob)
    assert matrix == pk.matrix
    assert t == pk.t


def test_matrix_serialization_rejects_malformed():
    rng = Random(18)
    pk, _ = mceliece_keygen(hamming_code(3), rng)
    blob = serialize_code_matrix(pk.matrix, pk.t)
    with pytest.raises(MalformedFrame):
        deserialize_code_matrix(blob[:-1])
    with pytest.raises(MalformedFrame):
        deserialize_code_matrix(blob + b"\x00")
    with pytest.raises(MalformedFrame):
        deserialize_code_matrix(b"\x00" * 5)


def test_matrix_deserialization_rejects_t_beyond_n():
    pk, _ = mceliece_keygen(hamming_code(3), Random(19))
    assert deserialize_code_matrix(serialize_code_matrix(pk.matrix, pk.matrix.cols))[1] == 7
    with pytest.raises(MalformedFrame):
        deserialize_code_matrix(serialize_code_matrix(pk.matrix, pk.matrix.cols + 1))

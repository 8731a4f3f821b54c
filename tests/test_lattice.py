import itertools
import struct
from random import Random
from statistics import mean, pvariance

import pytest

from pqbench.errors import DimensionMismatch, LengthMismatch, PqbenchError, TooLarge
from pqbench.lattice import (
    LatticeBasis,
    LweKeypair,
    LweParams,
    SisInstance,
    centered,
    guaranteed_params,
    lwe_decrypt_bit,
    lwe_encrypt_bit,
    lwe_encrypt_bits,
    sample_lanes,
    lwe_keygen,
    lwe_sample,
    sis_brute_force,
    sis_check,
    svp_brute_force,
)


def test_centered_representative():
    assert centered(0, 13) == 0
    assert centered(6, 13) == 6
    assert centered(7, 13) == -6
    assert centered(12, 13) == -1
    assert centered(15, 13) == 2
    for q in (5, 13, 97):
        for x in range(q):
            c = centered(x, q)
            assert -q / 2 < c <= q / 2
            assert c % q == x


def test_params_validation():
    with pytest.raises(ValueError):
        LweParams(n=2, q=12, m=4, b=1)  # q not prime
    with pytest.raises(ValueError):
        LweParams(n=2, q=3, m=4, b=1)  # q < 5
    with pytest.raises(ValueError):
        LweParams(n=4, q=13, m=2, b=1)  # m < n
    with pytest.raises(ValueError):
        guaranteed_params(n=2, q=13, m=4, b=1)  # 4*1 not below 13/4
    p = guaranteed_params(n=2, q=97, m=8, b=2)
    assert p.is_guaranteed_correct()


def test_sample_residual_bounded():
    params = LweParams(n=3, q=97, m=5, b=2)
    rng = Random(1)
    secret = tuple(rng.randrange(97) for _ in range(3))
    for _ in range(200):
        s = lwe_sample(secret, params, rng)
        residual = centered(s.b - sum(si * ai for si, ai in zip(secret, s.a)), 97)
        assert abs(residual) <= 2


def test_sample_checks_secret_length():
    params = LweParams(n=3, q=97, m=5, b=2)
    with pytest.raises(LengthMismatch):
        lwe_sample((1, 2), params, Random(0))


def test_subset_hook_matches_hand_computation():
    params = LweParams(n=2, q=97, m=3, b=0)
    secret = (5, 11)
    rng = Random(2)
    kp = lwe_keygen(params, rng)
    kp = LweKeypair(params, secret, [
        # noise-free samples written out by hand
        type(kp.samples[0])((3, 4), (5 * 3 + 11 * 4) % 97),
        type(kp.samples[0])((10, 20), (5 * 10 + 11 * 20) % 97),
        type(kp.samples[0])((96, 1), (5 * 96 + 11 * 1) % 97),
    ])
    a, b = lwe_encrypt_bit(kp.samples, 1, params, rng, subset=[0, 2])
    assert a == ((3 + 96) % 97, (4 + 1) % 97)
    assert b == ((59 + 491) + 48) % 97
    assert lwe_decrypt_bit(secret, (a, b), params) == 1


def test_subset_hook_validation():
    params = LweParams(n=2, q=97, m=3, b=0)
    kp = lwe_keygen(params, Random(3))
    with pytest.raises(ValueError):
        lwe_encrypt_bit(kp.samples, 0, params, Random(3), subset=[])
    with pytest.raises(ValueError):
        lwe_encrypt_bit(kp.samples, 0, params, Random(3), subset=[1, 1])
    with pytest.raises(ValueError):
        lwe_encrypt_bit(kp.samples, 2, params, Random(3))


def test_encrypt_refuses_a_sample_of_the_wrong_width():
    # the column sums stop at the shortest sample; a short one must not
    # give a short ciphertext
    params = LweParams(n=2, q=97, m=2, b=0)
    kp = lwe_keygen(params, Random(4))
    short = [kp.samples[0], type(kp.samples[0])((7,), 7)]
    with pytest.raises(LengthMismatch):
        lwe_encrypt_bit(short, 1, params, Random(4), subset=[0, 1])


def packed(samples, params):
    """Each sample as the int lwe_encrypt_bits takes: a then b in the
    big-endian lanes of sample_lanes(params)."""
    return [int.from_bytes(sample_lanes(params).pack(*s.a, s.b), "big") for s in samples]


@pytest.mark.parametrize("params", [
    LweParams(n=1, q=5, m=1, b=0),
    LweParams(n=2, q=17, m=4, b=0),
    guaranteed_params(n=4, q=521, m=8, b=10),
    guaranteed_params(n=3, q=65537, m=12, b=100),
], ids=str)
def test_encrypt_bits_equals_one_call_per_bit(params):
    for seed in range(40):
        rng = Random(seed)
        kp = lwe_keygen(params, rng)
        bits = [rng.randrange(2) for _ in range(rng.randrange(0, 40))]
        reference = Random()
        reference.setstate(rng.getstate())
        lanes = sample_lanes(params)
        got = lwe_encrypt_bits(packed(kp.samples, params), bits, params, rng)
        got = list(struct.unpack(f">{len(bits) * (params.n + 1)}{lanes.format[-1]}",
                                 got.to_bytes(len(bits) * lanes.size, "big")))
        want = [x for bit in bits
                for a, b in [lwe_encrypt_bit(kp.samples, bit, params, reference)] for x in (*a, b)]
        assert got == want
        assert rng.getstate() == reference.getstate()


def test_encrypt_bits_checks_what_the_per_bit_call_checks():
    params = LweParams(n=2, q=97, m=2, b=0)
    kp = lwe_keygen(params, Random(5))
    samples = packed(kp.samples, params)
    with pytest.raises(ValueError):
        lwe_encrypt_bits(samples, [0, 2], params, Random(5))
    with pytest.raises(LengthMismatch):
        lwe_encrypt_bits(samples[:1], [0], params, Random(5))
    wide = [samples[0], samples[1] | 1 << 8 * sample_lanes(params).size]  # a bit past b's lane
    with pytest.raises(LengthMismatch):
        lwe_encrypt_bits(wide, [1], params, Random(5))


def test_halfway_point_decrypts_to_one():
    params = LweParams(n=2, q=97, m=2, b=0)
    secret = (0, 0)
    # masked value lands exactly on floor(q/2)
    assert lwe_decrypt_bit(secret, ((1, 2), 48), params) == 1
    assert lwe_decrypt_bit(secret, ((1, 2), 0), params) == 0
    # strictly inside q/4 of zero stays 0
    assert lwe_decrypt_bit(secret, ((0, 0), 24), params) == 0
    assert lwe_decrypt_bit(secret, ((0, 0), 25), params) == 1


@pytest.mark.parametrize("n", [2, 4, 8])
def test_roundtrip_guaranteed_params(n):
    params = guaranteed_params(n=n, q=521, m=2 * n, b=max(1, 130 // (2 * n) - 1))
    rng = Random(40 + n)
    kp = lwe_keygen(params, rng)
    for i in range(500):
        bit = i & 1
        ct = lwe_encrypt_bit(kp.samples, bit, params, rng)
        assert lwe_decrypt_bit(kp.secret, ct, params) == bit


def test_decision_lwe_distinguisher_z_test():
    # LWE samples keep |b - <s,a>| within the noise bound while uniform
    # pairs scatter it across the whole modulus; a two-sample z statistic
    # on those absolute residues separates the distributions decisively
    params = LweParams(n=4, q=521, m=4, b=2)
    rng = Random(60)
    secret = tuple(rng.randrange(params.q) for _ in range(params.n))

    def residue(sample):
        return abs(centered(sample.b - sum(s * a for s, a in zip(secret, sample.a)), params.q))

    real = [residue(lwe_sample(secret, params, rng)) for _ in range(400)]
    fake = []
    for _ in range(400):
        a = tuple(rng.randrange(params.q) for _ in range(params.n))
        s = lwe_sample(secret, params, rng)
        fake.append(residue(type(s)(a, rng.randrange(params.q))))

    z = (mean(fake) - mean(real)) / (
        (pvariance(real) / len(real) + pvariance(fake) / len(fake)) ** 0.5
    )
    assert z > 10  # far beyond any plausible threshold
    assert max(real) <= params.b


# --- SIS oracle ---


def test_sis_finds_planted_solution():
    # plant z = (1, -1, 0, 1): third column makes row sums vanish
    q = 13
    rows = ((3, 5, 7, 2), (1, 4, 9, 3))
    # 3 - 5 + 2 = 0 mod 13; 1 - 4 + 3 = 0 mod 13
    inst = SisInstance(rows, q)
    z = sis_brute_force(inst)
    assert z is not None
    assert sis_check(inst, z)


def test_sis_returns_first_lexicographic():
    inst = SisInstance(((0, 0, 0),), 7)  # everything is a solution
    # lexicographic over (-1, 0, 1): first nonzero tuple is (-1, -1, -1)
    assert sis_brute_force(inst) == (-1, -1, -1)


def test_sis_none_is_verified_by_independent_enumeration():
    # full rank and large-ish modulus: check no ternary solution exists
    inst = SisInstance(((1, 0, 0), (0, 1, 0), (0, 0, 1)), 101)
    assert sis_brute_force(inst) is None
    # independent recursive enumeration, different code path from itertools
    def search(prefix):
        if len(prefix) == 3:
            return any(prefix) and sis_check(inst, prefix)
        return any(search(prefix + [v]) for v in (-1, 0, 1))
    assert not search([])


def test_sis_cap_and_validation():
    with pytest.raises(TooLarge):
        sis_brute_force(SisInstance((tuple(range(19)),), 13))
    with pytest.raises(DimensionMismatch):
        SisInstance(((1, 2), (1, 2, 3)), 13)
    with pytest.raises(DimensionMismatch):
        sis_check(SisInstance(((1, 2),), 13), (1, 0, 0))


# --- SVP oracle ---


def test_svp_on_known_basis():
    basis = LatticeBasis(((7, 0), (3, 1)))
    # shortest in the box: (3,1) - no wait, combinations like (3,1)*1 vs
    # (7,0)-2*(3,1) = (1,-2); norm 5 for (1,-2) vs 10 for (3,1): the
    # oracle must find (1,-2) or its negation first
    v = svp_brute_force(basis, 3)
    assert sum(x * x for x in v) == 5


def test_svp_tie_prefers_first_lexicographic_coefficients():
    basis = LatticeBasis(((1, 0), (0, 1)))
    # norm 1 vectors: coefficient vectors (-1,0), (0,-1), (0,1), (1,0);
    # first in lex order over [-1..1]^2 is (-1, 0)
    assert svp_brute_force(basis, 1) == (-1, 0)


def test_svp_no_longer_than_any_sampled_vector():
    rng = Random(70)
    basis = LatticeBasis(((4, 1, 0), (1, 5, 2), (0, 3, 7)))
    v = svp_brute_force(basis, 4)
    best = sum(x * x for x in v)
    for _ in range(500):
        coeffs = [rng.randint(-4, 4) for _ in range(3)]
        if not any(coeffs):
            continue
        sample = [
            sum(c * basis.vectors[i][d] for i, c in enumerate(coeffs)) for d in range(3)
        ]
        assert best <= sum(x * x for x in sample)


def test_svp_caps_and_basis_validation():
    with pytest.raises(TooLarge):
        svp_brute_force(LatticeBasis(((1, 0), (0, 1))), 11)
    with pytest.raises(TooLarge):
        LatticeBasis(((1,), (2,), (3,), (4,), (5,)))
    with pytest.raises(PqbenchError):
        LatticeBasis(((1, 2), (2, 4)))  # dependent
    with pytest.raises(DimensionMismatch):
        LatticeBasis(((1, 2), (1, 2, 3)))


def test_svp_exhausts_the_whole_box():
    # cross-check against itertools enumeration done inline
    basis = LatticeBasis(((2, 1), (1, 2)))
    v = svp_brute_force(basis, 2)
    norms = []
    for c1 in range(-2, 3):
        for c2 in range(-2, 3):
            if c1 == c2 == 0:
                continue
            vec = (2 * c1 + c2, c1 + 2 * c2)
            norms.append(sum(x * x for x in vec))
    assert sum(x * x for x in v) == min(norms)

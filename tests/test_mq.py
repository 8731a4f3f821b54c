import itertools
from random import Random

import pytest

from pqbench.errors import DimensionMismatch, LengthMismatch, TooLarge
from pqbench.hashing import PQH
from pqbench.mq import (
    AffineMap,
    MqSystem,
    PrimeField,
    QuadPoly,
    RetriesExhausted,
    UovParams,
    UovPrivateKey,
    brute_force_preimages,
    compose_trapdoor,
    deserialize_system,
    eval_system,
    hash_to_vector,
    identity_map,
    random_affine,
    random_central_map,
    serialize_system,
    solve_linear,
    uov_keygen,
    uov_sign,
    uov_verify,
)
from pqbench.serialize import MalformedFrame

H = PQH


def naive_eval(p: QuadPoly, x) -> int:
    acc = p.const
    for j in range(p.n):
        acc += p.linear[j] * x[j]
    for j in range(p.n):
        for k in range(p.n):
            acc += p.quad[j][k] * x[j] * x[k]
    return acc % p.q


def random_poly(q, n, rng):
    quad = [[0] * n for _ in range(n)]
    for j in range(n):
        for k in range(j, n):
            quad[j][k] = rng.randrange(q)
    return QuadPoly(q, rng.randrange(q), tuple(rng.randrange(q) for _ in range(n)),
                    tuple(tuple(r) for r in quad))


def test_field_validation_and_inverse():
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(37)  # prime but above the cap
    f = PrimeField(7)
    for a in range(1, 7):
        assert f.mul(a, f.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_quad_poly_eval_matches_naive():
    rng = Random(1)
    for _ in range(20):
        q = rng.choice([3, 5, 7])
        n = rng.randint(1, 4)
        p = random_poly(q, n, rng)
        for x in itertools.product(range(q), repeat=n):
            assert p.eval(x) == naive_eval(p, x)


def test_quad_poly_validation():
    with pytest.raises(ValueError):
        QuadPoly(3, 0, (0, 0), ((0, 0), (1, 0)))  # below-diagonal entry
    with pytest.raises(ValueError):
        QuadPoly(3, 5, (0,), ((0,),))  # coefficient out of range
    with pytest.raises(DimensionMismatch):
        QuadPoly(3, 0, (0, 0), ((0, 0),))
    p = QuadPoly(3, 1, (2, 0), ((1, 2), (0, 1)))
    with pytest.raises(LengthMismatch):
        p.eval((1,))


def test_affine_map_roundtrip_exhaustive():
    f = PrimeField(3)
    rng = Random(2)
    for _ in range(5):
        m = random_affine(f, 3, rng, offset_zero=False)
        for x in itertools.product(range(3), repeat=3):
            y = m.apply(x)
            assert m.apply_inverse(y) == x
            assert m.inverse().apply(y) == x


def test_affine_map_rejects_singular():
    f = PrimeField(5)
    with pytest.raises(ValueError):
        AffineMap(f, ((1, 2), (2, 4)), (0, 0))  # second row is twice the first
    with pytest.raises(DimensionMismatch):
        AffineMap(f, ((1, 0), (0, 1)), (0, 0, 0))


def test_solve_linear():
    f = PrimeField(7)
    assert solve_linear(f, [[2, 1], [1, 3]], [5, 6]) is not None
    x = solve_linear(f, [[2, 1], [1, 3]], [5, 6])
    assert (2 * x[0] + x[1]) % 7 == 5
    assert (x[0] + 3 * x[1]) % 7 == 6
    assert solve_linear(f, [[1, 2], [2, 4]], [1, 1]) is None


def test_compose_with_identity_is_identity():
    rng = Random(3)
    f = PrimeField(5)
    central = MqSystem(f, tuple(random_poly(5, 3, rng) for _ in range(2)))
    composed = compose_trapdoor(identity_map(f, 2), central, identity_map(f, 3))
    assert composed == central


def test_compose_matches_pointwise_application():
    # the expanded system must agree with apply-T, eval, apply-S at every
    # point of the domain
    rng = Random(4)
    for q in (2, 3):
        f = PrimeField(q)
        central = MqSystem(f, tuple(random_poly(q, 3, rng) for _ in range(2)))
        s_map = random_affine(f, 2, rng, offset_zero=False)
        t_map = random_affine(f, 3, rng, offset_zero=False)
        composed = compose_trapdoor(s_map, central, t_map)
        for x in itertools.product(range(q), repeat=3):
            direct = s_map.apply(eval_system(central, t_map.apply(x)))
            assert eval_system(composed, x) == direct


def test_central_map_has_no_oil_cross_terms():
    params = UovParams(o=2, v=3, q=7)
    central = random_central_map(params, Random(5))
    for p in central.polys:
        for j in range(params.v, params.n):
            for k in range(j, params.n):
                assert p.quad[j][k] == 0


def test_uov_roundtrip():
    params = UovParams(o=2, v=4, q=7)
    rng = Random(6)
    kp = uov_keygen(params, rng)
    for i in range(50):
        msg = f"message {i}".encode()
        sig = uov_sign(kp.private, msg, H, rng)
        assert len(sig) == params.n
        assert uov_verify(kp.public, msg, sig, H)


def test_uov_public_hides_but_matches_private():
    params = UovParams(o=2, v=4, q=7)
    rng = Random(7)
    kp = uov_keygen(params, rng)
    # public = central after the variable change, pointwise
    for _ in range(50):
        x = tuple(rng.randrange(7) for _ in range(params.n))
        assert eval_system(kp.public, x) == eval_system(kp.private.central, kp.private.t_map.apply(x))


def test_uov_wrong_message_rejected():
    params = UovParams(o=2, v=4, q=7)
    rng = Random(8)
    kp = uov_keygen(params, rng)
    sig = uov_sign(kp.private, b"signed message", H, rng)
    # frozen seed: this specific cross-check fails (and would only pass by
    # a 1-in-q^o accident for some other message)
    assert not uov_verify(kp.public, b"a different message", sig, H)


def test_uov_perturbed_signature_rejected():
    params = UovParams(o=2, v=4, q=7)
    rng = Random(9)
    kp = uov_keygen(params, rng)
    msg = b"perturbation fixture"
    sig = uov_sign(kp.private, msg, H, rng)
    perturbed = list(sig)
    perturbed[0] = (perturbed[0] + 1) % 7
    assert not uov_verify(kp.public, msg, tuple(perturbed), H)  # frozen seed
    with pytest.raises(LengthMismatch):
        uov_verify(kp.public, msg, sig + (0,), H)
    assert not uov_verify(kp.public, msg, sig[:-1] + (7,), H)  # out of range


def test_uov_retries_exhausted_on_degenerate_key():
    # a central map with no oil appearance at all leaves every oil system
    # singular, so signing must give up after its retry budget
    params = UovParams(o=1, v=2, q=5)
    f = PrimeField(5)
    zero_oil = QuadPoly(
        5, 2,
        (1, 3, 0),                      # no linear oil term
        ((1, 2, 0), (0, 1, 0), (0, 0, 0)),  # no quad oil column
    )
    central = MqSystem(f, (zero_oil,))
    sk = UovPrivateKey(params, central, identity_map(f, 3))
    with pytest.raises(RetriesExhausted):
        uov_sign(sk, b"m", H, Random(10))


def test_signatures_live_in_brute_force_preimage_set():
    params = UovParams(o=1, v=2, q=3)
    rng = Random(11)
    kp = uov_keygen(params, rng)
    for i in range(25):
        msg = f"containment {i}".encode()
        sig = uov_sign(kp.private, msg, H, rng)
        target = hash_to_vector(H, msg, params.o, params.q)
        assert sig in brute_force_preimages(kp.public, target)


def test_brute_force_preimages_order_and_cap():
    f = PrimeField(3)
    p = QuadPoly(3, 0, (1, 0), ((0, 0), (0, 0)))  # f(x) = x0
    system = MqSystem(f, (p,))
    pre = brute_force_preimages(system, (1,))
    assert pre == sorted(pre)  # ascending lexicographic
    assert all(x[0] == 1 for x in pre)
    assert len(pre) == 3
    big = UovParams(o=2, v=8, q=7)  # 7^10 far beyond the cap
    kp = uov_keygen(big, Random(12))
    with pytest.raises(TooLarge):
        brute_force_preimages(kp.public, (0, 0))
    with pytest.raises(DimensionMismatch):
        brute_force_preimages(system, (0, 0))


def test_hash_to_vector_properties():
    v1 = hash_to_vector(H, b"msg", 6, 7)
    assert v1 == hash_to_vector(H, b"msg", 6, 7)
    assert len(v1) == 6
    assert all(0 <= x < 7 for x in v1)
    assert v1 != hash_to_vector(H, b"msh", 6, 7)
    # more elements than one digest provides still works
    assert len(hash_to_vector(H, b"msg", 40, 7)) == 40


def test_system_serialization_roundtrip():
    params = UovParams(o=2, v=4, q=7)
    kp = uov_keygen(params, Random(13))
    blob = serialize_system(kp.public)
    back = deserialize_system(blob)
    assert back == kp.public
    with pytest.raises(MalformedFrame):
        deserialize_system(blob[:-1])
    with pytest.raises(MalformedFrame):
        deserialize_system(b"\x07")
    with pytest.raises(MalformedFrame):
        deserialize_system(b"\x04" + blob[1:])  # field size not prime
    with pytest.raises(MalformedFrame):
        deserialize_system(b"\x07\x06\x00")  # no polynomials

"""Curve arithmetic, ECDH, and the generic encryption-to-KEM adapter."""

import itertools
from random import Random

import pytest

from pqbench.errors import TooLarge
from pqbench.hashing import PQH
from pqbench.kex import (
    INFINITY,
    MAIN_CURVE,
    MAIN_GEN,
    MAIN_ORDER,
    TINY_CURVE,
    TINY_GEN,
    TINY_ORDER,
    CurveParams,
    DecapsFailure,
    Point,
    PointNotOnCurve,
    decode_point,
    ecdh_exchange,
    ecdh_kem,
    encode_point,
    enumerate_points,
    kem_from_encryption,
    on_curve,
    point_add,
    point_neg,
    point_order,
    scalar_mul,
)

H = PQH


def test_curve_params_validation():
    with pytest.raises(ValueError):
        CurveParams(q=4, a=1, b=1)
    with pytest.raises(ValueError):
        CurveParams(q=9, a=1, b=1)
    with pytest.raises(ValueError):
        CurveParams(q=5, a=0, b=0)  # singular


def test_infinity_is_on_every_curve():
    assert on_curve(INFINITY, TINY_CURVE)
    assert on_curve(INFINITY, MAIN_CURVE)


def test_fixture_point_counts():
    assert len(enumerate_points(TINY_CURVE)) == TINY_ORDER
    assert len(enumerate_points(MAIN_CURVE)) == MAIN_ORDER
    assert all(on_curve(p, TINY_CURVE) for p in enumerate_points(TINY_CURVE))


def test_enumeration_cap():
    with pytest.raises(TooLarge):
        enumerate_points(CurveParams(q=10007, a=1, b=6))


def test_group_law_exhaustive_on_tiny():
    pts = enumerate_points(TINY_CURVE)
    # closure and commutativity
    for p1, p2 in itertools.product(pts, repeat=2):
        s = point_add(p1, p2, TINY_CURVE)
        assert on_curve(s, TINY_CURVE)
        assert s == point_add(p2, p1, TINY_CURVE)
    # identity and inverses
    for p in pts:
        assert point_add(p, INFINITY, TINY_CURVE) == p
        assert point_add(p, point_neg(p, TINY_CURVE), TINY_CURVE) == INFINITY
    # associativity over every triple (13^3 cases)
    for p1, p2, p3 in itertools.product(pts, repeat=3):
        left = point_add(point_add(p1, p2, TINY_CURVE), p3, TINY_CURVE)
        right = point_add(p1, point_add(p2, p3, TINY_CURVE), TINY_CURVE)
        assert left == right


def test_scalar_mul_matches_repeated_addition():
    acc = INFINITY
    for k in range(2 * TINY_ORDER + 1):
        assert scalar_mul(k, TINY_GEN, TINY_CURVE) == acc
        acc = point_add(acc, TINY_GEN, TINY_CURVE)


def test_scalar_mul_rejects_negative():
    with pytest.raises(ValueError):
        scalar_mul(-1, TINY_GEN, TINY_CURVE)


def test_point_orders():
    assert point_order(INFINITY, TINY_CURVE) == 1
    assert point_order(TINY_GEN, TINY_CURVE) == TINY_ORDER
    assert point_order(MAIN_GEN, MAIN_CURVE) == MAIN_ORDER
    # prime group order: every finite point generates the whole group
    for p in enumerate_points(TINY_CURVE)[1:]:
        assert point_order(p, TINY_CURVE) == TINY_ORDER


def test_off_curve_points_rejected():
    bad = Point(1, 1)
    assert not on_curve(bad, TINY_CURVE)
    with pytest.raises(PointNotOnCurve):
        point_add(bad, TINY_GEN, TINY_CURVE)
    with pytest.raises(PointNotOnCurve):
        scalar_mul(2, bad, TINY_CURVE)
    with pytest.raises(PointNotOnCurve):
        point_neg(bad, TINY_CURVE)


def test_ecdh_agreement_many_exchanges():
    rng_a, rng_b = Random(101), Random(202)
    for curve, gen, order in [
        (TINY_CURVE, TINY_GEN, TINY_ORDER),
        (MAIN_CURVE, MAIN_GEN, MAIN_ORDER),
    ]:
        for _ in range(200):
            res = ecdh_exchange(curve, gen, order, rng_a, rng_b)
            assert res.shared_a == res.shared_b
            assert not res.shared_a.is_infinity
            assert on_curve(res.public_a, curve)
            assert on_curve(res.public_b, curve)


def test_ecdh_scalar_hooks():
    res = ecdh_exchange(TINY_CURVE, TINY_GEN, TINY_ORDER, Random(0), Random(0), n_a=3, n_b=5)
    assert res.shared_a == scalar_mul(15, TINY_GEN, TINY_CURVE)
    assert res.public_a == scalar_mul(3, TINY_GEN, TINY_CURVE)


def test_point_codec_roundtrip():
    for p in enumerate_points(TINY_CURVE):
        assert decode_point(encode_point(p)) == p
    assert encode_point(INFINITY) == b"\x00"
    with pytest.raises(PointNotOnCurve):
        decode_point(b"\x02" + bytes(8))
    with pytest.raises(PointNotOnCurve):
        decode_point(b"\x01\x00")


def test_ecdh_kem_roundtrip():
    kem = ecdh_kem(MAIN_CURVE, MAIN_GEN, MAIN_ORDER, H, name="ecdh-test")
    rng = Random(7)
    assert kem.name == "ecdh-test"
    for _ in range(200):
        pk, sk = kem.keypair(rng)
        ct, ss = kem.encaps(pk, rng)
        assert len(ss) == H.output_bytes
        assert kem.decaps(sk, ct) == ss


def test_ecdh_kem_rejects_off_curve_inputs():
    kem = ecdh_kem(MAIN_CURVE, MAIN_GEN, MAIN_ORDER, H)
    rng = Random(8)
    pk, sk = kem.keypair(rng)
    with pytest.raises(PointNotOnCurve):
        kem.encaps(encode_point(Point(1, 1)), rng)
    with pytest.raises(PointNotOnCurve):
        kem.decaps(sk, encode_point(Point(1, 1)))
    # an on-curve identity ciphertext has no x-coordinate to hash
    with pytest.raises(DecapsFailure):
        kem.decaps(sk, encode_point(INFINITY))


def _identity_kem(secret_bits=16):
    # the 'encryption' returns the bit itself, so the ciphertext IS the
    # packed plaintext bit string
    return kem_from_encryption(
        "identity",
        lambda rng: (b"pk", b"sk"),
        lambda pk: lambda bit, rng: bit,
        lambda sk, block: block,
        secret_bits,
        ciphertext_bits=1,
        h=H,
    )


def test_adapter_identity_ciphertext_is_bit_string():
    kem = _identity_kem()
    rng = Random(9)
    ct, ss = kem.encaps(b"pk", rng)
    assert len(ct) == 2
    bits = [(int.from_bytes(ct, "big") >> (15 - i)) & 1 for i in range(16)]
    from pqbench.serialize import pack_bits

    assert H(pack_bits(bits)) == ss
    assert kem.decaps(b"sk", ct) == ss


def test_adapter_packs_blocks_msb_first():
    # 3-bit blocks: record the order encrypt sees bits, then check layout
    seen = []

    def enc(bit, rng):
        seen.append(bit)
        return (0b100 | bit)  # distinctive high bit in every block

    kem = kem_from_encryption(
        "blocky", lambda rng: (b"", b""), lambda pk: enc, lambda sk, block: block & 1,
        5, ciphertext_bits=3, h=H,
    )
    ct, ss = kem.encaps(b"", Random(10))
    acc = int.from_bytes(ct, "big") >> (16 - 15)  # one pad bit
    blocks = [(acc >> (3 * i)) & 0b111 for i in reversed(range(5))]
    assert [b & 1 for b in blocks] == seen
    assert all(b & 0b100 for b in blocks)
    assert kem.decaps(b"", ct) == ss


def test_adapter_rejects_wide_blocks_and_bad_lengths():
    kem = kem_from_encryption(
        "wide", lambda rng: (b"", b""), lambda pk: lambda bit, rng: 2, lambda sk, block: block,
        4, ciphertext_bits=1, h=H,
    )
    with pytest.raises(DecapsFailure):
        kem.encaps(b"", Random(11))
    good = _identity_kem()
    with pytest.raises(DecapsFailure):
        good.decaps(b"sk", b"\x00\x00\x00")


def test_adapter_decrypt_errors_become_decaps_failure():
    def bad_dec(sk, block):
        raise TooLarge("nope")

    kem = kem_from_encryption(
        "failing", lambda rng: (b"", b""), lambda pk: lambda bit, rng: bit, bad_dec,
        8, ciphertext_bits=1, h=H,
    )
    ct, _ = kem.encaps(b"", Random(12))
    with pytest.raises(DecapsFailure):
        kem.decaps(b"", ct)
    kem2 = kem_from_encryption(
        "nonbit", lambda rng: (b"", b""), lambda pk: lambda bit, rng: bit,
        lambda sk, block: 7, 8, ciphertext_bits=3, h=H,
    )
    ct2, _ = kem2.encaps(b"", Random(13))
    with pytest.raises(DecapsFailure):
        kem2.decaps(b"", ct2)

"""Curve arithmetic, ECDH, and the generic encryption-to-KEM adapter."""

import functools
import itertools
from random import Random

import pytest

from pqbench import kex
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
    draws,
    ecdh_exchange,
    ecdh_kem,
    encode_point,
    enumerate_points,
    kem_from_encryption,
    on_curve,
    point_add,
    point_order,
    scalar_mul,
)

H = PQH


@pytest.mark.parametrize("n", [1, 2, 3, 7, 521, 4006])
def test_draws_match_randrange_value_for_value(n):
    # draws reproduces CPython's _randbelow (getrandbits(n.bit_length()),
    # redrawn while >= n); if that ever changes, every pinned key moves
    # and this test says why
    for seed in range(4):
        ours, theirs = Random(seed), Random(seed)
        for count in (0, 1, 5, 3000):
            assert draws(ours, n, count) == [theirs.randrange(n) for _ in range(count)]
            assert ours.getstate() == theirs.getstate()


def test_batched_draws_match_randrange_for_every_small_range():
    # ranges below 256 draw whole batches of words while at least
    # _BATCH_MIN values are still needed, then one value at a time: both
    # sides of the switch, and of n = 256, take randrange's stream
    for n in range(1, 300):
        for seed in range(2):
            ours, theirs = Random(seed), Random(seed)
            for count in (kex._BATCH_MIN - 1, kex._BATCH_MIN, kex._BATCH_MIN + 1, 64):
                assert draws(ours, n, count) == [theirs.randrange(n) for _ in range(count)]
                assert ours.getstate() == theirs.getstate()


def test_draws_give_randint_by_offset():
    for seed in range(4):
        ours, theirs = Random(seed), Random(seed)
        got = [d - 10 for d in draws(ours, 21, 3000)]
        assert got == [theirs.randint(-10, 10) for _ in range(3000)]
        assert ours.getstate() == theirs.getstate()


def test_draws_refuse_an_empty_range():
    with pytest.raises(ValueError):
        draws(Random(0), 0, 1)


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
    # identity and inverses; pts[0] is infinity, and -(x, y) = (x, -y)
    for p in pts:
        assert point_add(p, INFINITY, TINY_CURVE) == p
    for p in pts[1:]:
        assert point_add(p, Point(p.x, -p.y % TINY_CURVE.q), TINY_CURVE) == INFINITY
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


@pytest.mark.parametrize("curve,gen,order", [(TINY_CURVE, TINY_GEN, TINY_ORDER),
                                             (MAIN_CURVE, MAIN_GEN, MAIN_ORDER)], ids=["tiny", "main"])
def test_scalar_mul_matches_repeated_point_add_on_every_point(curve, gen, order):
    # the kernel against point_add, which checks both operands every call:
    # every point, the scalars around the group order and seeded random ones
    rng = Random(order)
    for p in enumerate_points(curve):
        multiples = [INFINITY]
        for _ in range(order + 1):
            multiples.append(point_add(multiples[-1], p, curve))
        for k in (0, 1, 2, order - 1, order, order + 1, *(rng.randrange(4 * order) for _ in range(3))):
            expected = multiples[k] if k <= order + 1 else multiples[k % order]
            assert scalar_mul(k, p, curve) == expected


def test_scalar_mul_checks_its_point_once(monkeypatch):
    calls = []
    original = kex.on_curve
    monkeypatch.setattr(kex, "on_curve", lambda p, curve: calls.append(p) or original(p, curve))
    rng = Random(16)
    for k in (0, 1, 2, MAIN_ORDER - 1, MAIN_ORDER, *(rng.randrange(1, MAIN_ORDER) for _ in range(20))):
        calls.clear()
        scalar_mul(k, MAIN_GEN, MAIN_CURVE)
        assert calls == [MAIN_GEN]


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
    kem = ecdh_kem(MAIN_CURVE, MAIN_GEN, MAIN_ORDER, H, name="ecdh-test")
    rng = Random(8)
    pk, sk = kem.keypair(rng)
    with pytest.raises(PointNotOnCurve):
        kem.encaps(encode_point(Point(1, 1)), rng)
    with pytest.raises(PointNotOnCurve):
        kem.decaps(sk, encode_point(Point(1, 1)))
    # an on-curve identity ciphertext has no x-coordinate to hash
    with pytest.raises(DecapsFailure):
        kem.decaps(sk, encode_point(INFINITY))
    # coordinates outside [0, q) name the same field elements, so they pass
    # the curve equation mod q, but they are not encodings of curve points:
    # x + q in a ciphertext and y + 3q in a public key used to give the
    # same shared secret as the canonical point
    q = MAIN_CURVE.q
    ct, _ = kem.encaps(pk, rng)
    point = decode_point(ct)
    public = decode_point(pk)
    for shifted in (Point(point.x + q, point.y), Point(public.x, public.y + 3 * q)):
        assert (shifted.y ** 2 - shifted.x ** 3 - MAIN_CURVE.a * shifted.x - MAIN_CURVE.b) % q == 0
        assert not on_curve(shifted, MAIN_CURVE)
    with pytest.raises(PointNotOnCurve):
        kem.decaps(sk, encode_point(Point(point.x + q, point.y)))
    with pytest.raises(PointNotOnCurve):
        kem.encaps(encode_point(Point(public.x, public.y + 3 * q)), rng)
    with pytest.raises(PointNotOnCurve):
        scalar_mul(2, Point(point.x - q, point.y), MAIN_CURVE)


def numeral(blocks, width):
    """blocks read as one numeral, the first most significant."""
    return functools.reduce(lambda acc, block: acc << width | block, blocks, 0)


def blocks_of(value, count, width):
    return [(value >> width * i) & ((1 << width) - 1) for i in reversed(range(count))]


def _identity_kem(secret_bits=16):
    # the 'encryption' returns the bits themselves, so the ciphertext IS
    # the packed plaintext bit string
    return kem_from_encryption(
        "identity",
        lambda rng: (b"pk", b"sk"),
        lambda pk: lambda bits, rng: numeral(bits, 1),
        lambda sk, value: blocks_of(value, secret_bits, 1),
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

    def enc(bits, rng):
        seen.extend(bits)
        return numeral([0b100 | bit for bit in bits], 3)  # distinctive high bit in every block

    kem = kem_from_encryption(
        "blocky", lambda rng: (b"", b""), lambda pk: enc,
        lambda sk, value: [block & 1 for block in blocks_of(value, 5, 3)],
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
        "wide", lambda rng: (b"", b""), lambda pk: lambda bits, rng: numeral([2] * len(bits), 1),
        lambda sk, value: blocks_of(value, 4, 1), 4, ciphertext_bits=1, h=H,
    )
    with pytest.raises(DecapsFailure):
        kem.encaps(b"", Random(11))
    good = _identity_kem()
    with pytest.raises(DecapsFailure):
        good.decaps(b"sk", b"\x00\x00\x00")


def test_adapter_decrypt_errors_become_decaps_failure():
    def bad_dec(sk, value):
        raise TooLarge("nope")

    kem = kem_from_encryption(
        "failing", lambda rng: (b"", b""), lambda pk: lambda bits, rng: numeral(bits, 1), bad_dec,
        8, ciphertext_bits=1, h=H,
    )
    ct, _ = kem.encaps(b"", Random(12))
    with pytest.raises(DecapsFailure):
        kem.decaps(b"", ct)
    kem2 = kem_from_encryption(
        "nonbit", lambda rng: (b"", b""), lambda pk: lambda bits, rng: numeral(bits, 3),
        lambda sk, value: [7] * 8, 8, ciphertext_bits=3, h=H,
    )
    ct2, _ = kem2.encaps(b"", Random(13))
    with pytest.raises(DecapsFailure):
        kem2.decaps(b"", ct2)

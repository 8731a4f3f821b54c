from random import Random

import pytest

from pqbench.hashing import PQH
from pqbench.serialize import pack, unpack
from pqbench.sigma import (
    FsSignature,
    InvalidGroup,
    SigmaRelation,
    dlog_relation,
    fs_challenge,
    fs_sign,
    fs_verify,
)
from pqbench.suites import builtin_sigs

H = PQH


def test_dlog_group_validation():
    with pytest.raises(InvalidGroup):
        dlog_relation(10, 3)  # p not prime
    with pytest.raises(InvalidGroup):
        dlog_relation(23, 1)  # generator below 2
    with pytest.raises(InvalidGroup):
        dlog_relation(23, 23)
    with pytest.raises(ValueError):
        SigmaRelation(
            name="one-challenge",
            challenge_count=1,
            commit=lambda s, p, rng: (b"", None),
            respond=lambda st, c: b"",
            check=lambda p, co, c, r: True,
            encode_public=lambda p: b"",
        )


def test_order_by_enumeration():
    # 2 has order 11 mod 23; 72 has order 17 mod 103
    assert dlog_relation(23, 2).order == 11
    assert dlog_relation(103, 72).order == 17
    assert pow(72, 17, 103) == 1


def test_identity_witness_accepts():
    setting = dlog_relation(23, 2)
    # x = 0, y = 1: the trivial statement still proves cleanly
    sig = fs_sign(setting.relation, 0, 1, b"trivial", H, Random(2))
    assert fs_verify(setting.relation, 1, b"trivial", sig, H)


def test_wrong_secret_accepts_exactly_once_per_commitment():
    # order-17 subgroup, challenges 0..16: a prover using x' != x answers
    # correctly only where c*(x - x') = 0 mod 17, and as 17 is prime that
    # is the single challenge c = 0
    setting = dlog_relation(103, 72)
    rel = setting.relation
    assert rel.challenge_count == 17
    rng = Random(3)
    x, y = setting.keypair(rng)
    wrong = (x + 5) % setting.order
    accepted = 0
    co, state = rel.commit(wrong, y, rng)
    for c in range(rel.challenge_count):
        accepted += rel.check(y, co, c, rel.respond(state, c))
    assert accepted == 1


def test_fs_sign_verify_roundtrip():
    setting = dlog_relation(103, 72)
    rng = Random(5)
    x, y = setting.keypair(rng)
    for i in range(50):
        msg = f"signed {i}".encode()
        sig = fs_sign(setting.relation, x, y, msg, H, rng)
        assert fs_verify(setting.relation, y, msg, sig, H)


def test_fs_signature_binds_message():
    setting = dlog_relation(103, 72)
    rng = Random(6)
    x, y = setting.keypair(rng)
    sig = fs_sign(setting.relation, x, y, b"the real message", H, rng)
    assert not fs_verify(setting.relation, y, b"another message", sig, H)


def test_fs_tamper_always_rejects():
    # any change to commitment or response breaks the check equation: two
    # distinct challenges under one commitment cannot share a response
    setting = dlog_relation(103, 72)
    rel = setting.relation
    rng = Random(7)
    x, y = setting.keypair(rng)
    for i in range(100):
        msg = f"tamper {i}".encode()
        sig = fs_sign(rel, x, y, msg, H, rng)
        pos = rng.randrange(len(sig.response))
        flip = bytes(
            b ^ (0x01 if j == pos else 0) for j, b in enumerate(sig.response)
        )
        assert not fs_verify(rel, y, msg, FsSignature(sig.commitment, flip), H)
        pos = rng.randrange(len(sig.commitment))
        flip = bytes(
            b ^ (0x80 if j == pos else 0) for j, b in enumerate(sig.commitment)
        )
        assert not fs_verify(rel, y, msg, FsSignature(flip, sig.response), H)


def _rewidth(field: bytes, width: int) -> bytes:
    return int.from_bytes(field, "big").to_bytes(width, "big")


@pytest.mark.parametrize("width", (2, 9))
def test_dlog_check_takes_only_eight_byte_fields(width):
    setting = dlog_relation(103, 72)
    rel = setting.relation
    rng = Random(8)
    x, y = setting.keypair(rng)
    co, state = rel.commit(x, y, rng)
    response = rel.respond(state, 5)
    assert rel.check(y, co, 5, response)
    assert not rel.check(y, _rewidth(co, width), 5, response)
    assert not rel.check(y, co, 5, _rewidth(response, width))


@pytest.mark.parametrize("width", (2, 9))
def test_fs_dlog_signature_with_a_rewidthed_response_is_rejected(width):
    sig = builtin_sigs(H)["fs-dlog"]
    pk, sk = sig.keypair(Random(9))
    msg = b"response width"
    commitment, response = unpack(sig.sign(sk, msg), 2)
    assert sig.verify(pk, msg, pack(commitment, response))
    assert not sig.verify(pk, msg, pack(commitment, _rewidth(response, width)))


def test_fs_challenge_depends_on_message():
    # with a wide challenge space, distinct messages must give distinct
    # challenges; a collision would mean the message is not really bound
    wide = SigmaRelation(
        name="wide",
        challenge_count=2**128,
        commit=lambda s, p, rng: (b"", None),
        respond=lambda st, c: b"",
        check=lambda p, co, c, r: True,
        encode_public=lambda p: b"pub",
    )
    co = b"fixed commitment"
    seen = set()
    for i in range(10_000):
        c = fs_challenge(wide, None, co, f"message {i}".encode(), H)
        assert 0 <= c < 2**128
        seen.add(c)
    assert len(seen) == 10_000


def test_fs_challenge_unbiased_reduction():
    # space of 3 does not divide 2^256: exercise the rejection loop over
    # many inputs and keep the empirical counts roughly flat
    narrow = SigmaRelation(
        name="narrow",
        challenge_count=3,
        commit=lambda s, p, rng: (b"", None),
        respond=lambda st, c: b"",
        check=lambda p, co, c, r: True,
        encode_public=lambda p: b"",
    )
    counts = [0, 0, 0]
    for i in range(3000):
        counts[fs_challenge(narrow, None, b"", f"input {i}".encode(), H)] += 1
    assert all(800 < c < 1200 for c in counts)


def test_fs_challenge_deterministic():
    setting = dlog_relation(103, 72)
    a = fs_challenge(setting.relation, 45, b"co", b"msg", H)
    assert a == fs_challenge(setting.relation, 45, b"co", b"msg", H)
    assert 0 <= a < setting.order


def test_completeness_sweep_both_modes():
    setting = dlog_relation(103, 72)
    rng = Random(8)
    x, y = setting.keypair(rng)
    for i in range(250):
        msg = rng.randbytes(10)
        assert fs_verify(setting.relation, y, msg, fs_sign(setting.relation, x, y, msg, H, rng), H)

from random import Random

import pytest
from hypothesis import given, strategies as st

from pqbench.errors import LengthMismatch
from pqbench.hashing import PQH
from pqbench.hashsig import (
    IndexOutOfRange,
    InvalidBundle,
    KeysExhausted,
    MssSigner,
    NotPowerOfTwo,
    WotsParams,
    hash_chain,
    lamport_keygen,
    lamport_public_bytes,
    lamport_sign,
    lamport_verify,
    merkle_build,
    merkle_prove,
    merkle_verify,
    message_bits,
    mss_verify,
    serialize_mss_signature,
    deserialize_mss_signature,
    wots_keygen,
    wots_sign,
    wots_verify,
)

H = PQH


def test_hash_chain_zero_steps_is_identity():
    assert hash_chain(H, b"seed", 0) == b"seed"


def test_hash_chain_composes():
    x = b"start"
    for a in range(4):
        for b in range(4):
            assert hash_chain(H, hash_chain(H, x, a), b) == hash_chain(H, x, a + b)


@given(st.binary(min_size=1, max_size=16), st.integers(0, 6), st.integers(0, 6))
def test_hash_chain_composes_property(x, a, b):
    assert hash_chain(H, hash_chain(H, x, a), b) == hash_chain(H, x, a + b)


# --- Lamport ---


def test_lamport_seed_determinism():
    a = lamport_keygen(16, H, Random(7))
    b = lamport_keygen(16, H, Random(7))
    assert a.secret == b.secret
    assert a.public == b.public
    c = lamport_keygen(16, H, Random(8))
    assert a.secret != c.secret


def test_lamport_roundtrip():
    rng = Random(1)
    kp = lamport_keygen(24, H, rng)
    bits = [rng.randrange(2) for _ in range(24)]
    sig = lamport_sign(kp, bits)
    assert lamport_verify(kp.public, bits, sig, H)


def test_lamport_wrong_message_fails():
    rng = Random(2)
    kp = lamport_keygen(16, H, rng)
    bits = [rng.randrange(2) for _ in range(16)]
    sig = lamport_sign(kp, bits)
    flipped = bits.copy()
    flipped[5] ^= 1
    assert not lamport_verify(kp.public, flipped, sig, H)


def test_lamport_tampered_signature_fails():
    rng = Random(3)
    kp = lamport_keygen(16, H, rng)
    bits = [rng.randrange(2) for _ in range(16)]
    sig = lamport_sign(kp, bits)
    for i in range(16):
        bad = sig.copy()
        bad[i] = bytes([bad[i][0] ^ 1]) + bad[i][1:]
        assert not lamport_verify(kp.public, bits, bad, H)


def test_lamport_length_mismatch():
    kp = lamport_keygen(16, H, Random(4))
    with pytest.raises(LengthMismatch):
        lamport_sign(kp, [0] * 15)
    with pytest.raises(LengthMismatch):
        lamport_sign(kp, [0, 2] + [0] * 14)
    # verify treats bad shapes as a failed check, not an error
    assert not lamport_verify(kp.public, [0] * 15, lamport_sign(kp, [0] * 16), H)
    list0, list1 = kp.public
    assert not lamport_verify((list0, list1[:-1]), [1] * 16, lamport_sign(kp, [1] * 16), H)


# --- Winternitz ---


def test_wots_chunk_counts():
    p = WotsParams(w=4, msg_bits=16)
    assert p.msg_chunks == 4
    assert p.chain_end == 15
    # checksum can reach 4*15 = 60, needs two base-16 digits
    assert p.checksum_chunks == 2
    assert p.total_chunks == 6
    assert WotsParams(w=1, msg_bits=8).checksum_chunks == 4  # max 8, digits 1000 base 2
    assert WotsParams(w=2, msg_bits=8).checksum_chunks == 2


def test_wots_checksum_oracle():
    # independent recomputation of the signed chain depths for a known message
    p = WotsParams(w=4, msg_bits=16)
    bits = [0, 0, 0, 1, 1, 1, 1, 1, 0, 1, 0, 1, 1, 1, 1, 0]  # 0x1f5e
    vals = [1, 15, 5, 14]
    checksum = sum(15 - v for v in vals)  # 14+0+10+1 = 25 = 0x19
    expect = vals + [25 // 16, 25 % 16]

    rng = Random(11)
    secret, public = wots_keygen(p, H, rng)
    sig = wots_sign(p, secret, bits, H)
    for i, v in enumerate(expect):
        assert sig[i] == hash_chain(H, secret[i], v)
    assert wots_verify(p, public, bits, sig, H)


def test_wots_zero_chunk_reveals_secret():
    p = WotsParams(w=4, msg_bits=8)
    secret, public = wots_keygen(p, H, Random(12))
    sig = wots_sign(p, secret, [0] * 8, H)
    assert sig[0] == secret[0]
    assert sig[1] == secret[1]


def test_wots_public_is_chain_end_plus_one():
    p = WotsParams(w=2, msg_bits=4)
    secret, public = wots_keygen(p, H, Random(13))
    for s, pk in zip(secret, public):
        assert pk == hash_chain(H, s, p.chain_end + 1)


@pytest.mark.parametrize("w,msg_bits", [(1, 8), (2, 8), (4, 16), (8, 16)])
def test_wots_roundtrip(w, msg_bits):
    p = WotsParams(w=w, msg_bits=msg_bits)
    rng = Random(100 + w)
    secret, public = wots_keygen(p, H, rng)
    for _ in range(20):
        bits = [rng.randrange(2) for _ in range(msg_bits)]
        sig = wots_sign(p, secret, bits, H)
        assert wots_verify(p, public, bits, sig, H)


def test_wots_chain_walk_forgery_fails():
    # walking a message chain forward turns chunk value v into v+1, but the
    # checksum chain would have to walk backwards; verify must refuse
    p = WotsParams(w=4, msg_bits=8)
    rng = Random(14)
    secret, public = wots_keygen(p, H, rng)
    bits = [0, 0, 1, 1, 0, 1, 0, 1]  # chunks [3, 5]
    sig = wots_sign(p, secret, bits, H)
    forged_bits = [0, 1, 0, 0, 0, 1, 0, 1]  # first chunk 3 -> 4
    forged = sig.copy()
    forged[0] = H(forged[0])  # advance the chain one step
    assert not wots_verify(p, public, forged_bits, forged, H)


def test_wots_tampered_element_fails():
    p = WotsParams(w=4, msg_bits=16)
    rng = Random(15)
    secret, public = wots_keygen(p, H, rng)
    bits = [rng.randrange(2) for _ in range(16)]
    sig = wots_sign(p, secret, bits, H)
    for i in range(p.total_chunks):
        bad = sig.copy()
        bad[i] = bytes([bad[i][0] ^ 0x40]) + bad[i][1:]
        assert not wots_verify(p, public, bits, bad, H)


# --- Merkle ---


def test_merkle_single_leaf():
    t = merkle_build([b"only"], H)
    assert t.root == H(b"only")
    proof = merkle_prove(t, 0)
    assert proof.siblings == []
    assert merkle_verify(t.root, b"only", proof, H)


def test_merkle_two_leaves_root_oracle():
    t = merkle_build([b"L", b"R"], H)
    assert t.root == H(H(b"L") + H(b"R"))


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
def test_merkle_all_leaves_prove_and_verify(n):
    leaves = [f"leaf-{i}".encode() for i in range(n)]
    t = merkle_build(leaves, H)
    for i, leaf in enumerate(leaves):
        proof = merkle_prove(t, i)
        assert len(proof.siblings) == n.bit_length() - 1  # log2(n)
        assert merkle_verify(t.root, leaf, proof, H)
        # proof for leaf i never verifies some other leaf
        assert not merkle_verify(t.root, b"other", proof, H)


def test_merkle_rejects_bad_shapes():
    with pytest.raises(NotPowerOfTwo):
        merkle_build([b"a", b"b", b"c"], H)
    with pytest.raises(NotPowerOfTwo):
        merkle_build([], H)
    t = merkle_build([b"a", b"b"], H)
    with pytest.raises(IndexOutOfRange):
        merkle_prove(t, 2)
    with pytest.raises(IndexOutOfRange):
        merkle_prove(t, -1)


def test_merkle_tampered_proof_fails():
    leaves = [f"leaf-{i}".encode() for i in range(8)]
    t = merkle_build(leaves, H)
    proof = merkle_prove(t, 3)
    for k in range(len(proof.siblings)):
        sib, side = proof.siblings[k]
        bad_sibs = proof.siblings.copy()
        bad_sibs[k] = (bytes([sib[0] ^ 1]) + sib[1:], side)
        bad = type(proof)(proof.leaf_index, bad_sibs)
        assert not merkle_verify(t.root, leaves[3], bad, H)
    assert not merkle_verify(bytes(32), leaves[3], proof, H)


@given(st.integers(0, 3), st.binary(max_size=8))
def test_merkle_wrong_index_proof_rejects(idx, junk):
    leaves = [b"a", b"b", b"c", b"d"]
    t = merkle_build(leaves, H)
    proof = merkle_prove(t, idx)
    for j in range(4):
        ok = merkle_verify(t.root, leaves[j], proof, H)
        assert ok == (j == idx)


# --- many-time scheme ---


def test_mss_roundtrip_and_exhaustion():
    rng = Random(21)
    signer = MssSigner(4, 16, H, rng)
    seen = set()
    for i in range(4):
        msg = f"msg {i}".encode()
        sig = signer.sign(msg)
        seen.add(sig.leaf_index)
        assert mss_verify(signer.root, msg, sig, H)
    assert seen == {0, 1, 2, 3}  # every leaf used exactly once
    with pytest.raises(KeysExhausted):
        signer.sign(b"one too many")


def test_mss_signature_binds_message():
    signer = MssSigner(8, 16, H, Random(22))
    sig = signer.sign(b"genuine")
    assert not mss_verify(signer.root, b"forged", sig, H)


def test_mss_stateless_mode():
    rng = Random(23)
    signer = MssSigner(8, 16, H, rng, stateless=True)
    sigs = [signer.sign(b"same message") for _ in range(3)]
    # index is a function of the message, not of signing history
    assert len({s.leaf_index for s in sigs}) == 1
    for _ in range(20):  # never exhausts
        msg = rng.randbytes(8)
        assert mss_verify(signer.root, msg, signer.sign(msg), H)


def test_mss_rejects_broken_bundles():
    signer = MssSigner(4, 16, H, Random(24))
    sig = signer.sign(b"m")
    mismatched = type(sig)(
        leaf_index=(sig.leaf_index + 1) % 4,
        ots_signature=sig.ots_signature,
        ots_public=sig.ots_public,
        proof=sig.proof,
    )
    with pytest.raises(InvalidBundle):
        mss_verify(signer.root, b"m", mismatched, H)
    lopsided = type(sig)(
        leaf_index=sig.leaf_index,
        ots_signature=sig.ots_signature,
        ots_public=(sig.ots_public[0], sig.ots_public[1][:-1]),
        proof=sig.proof,
    )
    with pytest.raises(InvalidBundle):
        mss_verify(signer.root, b"m", lopsided, H)


def test_mss_tampered_parts_fail():
    signer = MssSigner(4, 16, H, Random(25))
    msg = b"tamper target"
    sig = signer.sign(msg)

    bad_ots = sig.ots_signature.copy()
    bad_ots[0] = bytes([bad_ots[0][0] ^ 1]) + bad_ots[0][1:]
    tampered = type(sig)(sig.leaf_index, bad_ots, sig.ots_public, sig.proof)
    assert not mss_verify(signer.root, msg, tampered, H)

    sib, side = sig.proof.siblings[0]
    bad_proof = type(sig.proof)(
        sig.proof.leaf_index, [(bytes([sib[0] ^ 1]) + sib[1:], side)] + sig.proof.siblings[1:]
    )
    tampered = type(sig)(sig.leaf_index, sig.ots_signature, sig.ots_public, bad_proof)
    assert not mss_verify(signer.root, msg, tampered, H)

    # substituting a fresh one-time key breaks the path to the root
    other = lamport_keygen(16, H, Random(26))
    forged_bits = message_bits(H, msg, 16)
    forged = type(sig)(
        sig.leaf_index,
        lamport_sign(other, forged_bits),
        other.public,
        sig.proof,
    )
    assert not mss_verify(signer.root, msg, forged, H)


def test_completeness_sweep_all_three_schemes():
    # many random messages through each scheme, all must verify
    rng = Random(27)
    kp = lamport_keygen(16, H, rng)
    p = WotsParams(w=4, msg_bits=16)
    wsecret, wpublic = wots_keygen(p, H, rng)
    signer = MssSigner(16, 16, H, rng, stateless=True)
    for _ in range(300):
        bits = [rng.randrange(2) for _ in range(16)]
        assert lamport_verify(kp.public, bits, lamport_sign(kp, bits), H)
        assert wots_verify(p, wpublic, bits, wots_sign(p, wsecret, bits, H), H)
        msg = rng.randbytes(12)
        assert mss_verify(signer.root, msg, signer.sign(msg), H)


def test_leaf_serialization_is_injective_on_index():
    kp = lamport_keygen(16, H, Random(28))
    assert lamport_public_bytes(kp.public, 0) != lamport_public_bytes(kp.public, 1)


def test_mss_bundle_roundtrips_through_bytes():
    signer = MssSigner(8, 16, H, Random(29), stateless=True)
    for i in range(20):
        msg = b"bundle %d" % i
        sig = signer.sign(msg)
        blob = serialize_mss_signature(sig)
        back = deserialize_mss_signature(blob)
        assert back.leaf_index == sig.leaf_index
        assert back.ots_signature == sig.ots_signature
        assert back.ots_public == sig.ots_public
        assert back.proof.leaf_index == sig.proof.leaf_index
        assert back.proof.siblings == sig.proof.siblings
        assert mss_verify(signer.root, msg, back, H)


def test_mss_bundle_rejects_garbage():
    signer = MssSigner(4, 16, H, Random(30))
    blob = serialize_mss_signature(signer.sign(b"x"))
    with pytest.raises(InvalidBundle):
        deserialize_mss_signature(blob[:-3])
    with pytest.raises(InvalidBundle):
        deserialize_mss_signature(b"")
    with pytest.raises(InvalidBundle):
        deserialize_mss_signature(bytes(200))
    # flip a side flag to something that is not 0 or 1
    bad = blob[:-1] + bytes([7])
    with pytest.raises(InvalidBundle):
        deserialize_mss_signature(bad)

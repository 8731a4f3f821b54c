from random import Random

import pytest
from hypothesis import given, strategies as st

from pqbench.errors import LengthMismatch
from pqbench.hashing import PQH
from pqbench.serialize import pack, unpack
from pqbench.adapters import MSS_DEPTH, OTS_MSG_BITS
from pqbench.suites import builtin_sigs
from pqbench.hashsig import (
    SECRET_BYTES,
    IndexOutOfRange,
    InvalidBundle,
    KeysExhausted,
    MssSigner,
    NotPowerOfTwo,
    WotsParams,
    _chunks,
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


@given(st.binary(max_size=16), st.integers(0, 600))
def test_message_bits_reads_the_digest_first_bit_first(msg, nbits):
    digest = H(msg)
    while 8 * len(digest) < nbits:
        digest += H(digest)
    want = [(digest[i // 8] >> (7 - i % 8)) & 1 for i in range(nbits)]
    got = message_bits(H, msg, nbits)
    assert got == want and all(type(bit) is int for bit in got)


# --- Lamport ---


def test_lamport_seed_determinism():
    a = lamport_keygen(16, H, Random(7))
    b = lamport_keygen(16, H, Random(7))
    assert a.secret == b.secret
    assert a.public == b.public
    c = lamport_keygen(16, H, Random(8))
    assert a.secret != c.secret


def test_keygen_secrets_equal_per_secret_draws():
    # one randbytes draw per keypair gives the bytes, and leaves the rng in
    # the state, that one randbytes(SECRET_BYTES) per secret would
    keygen_rng = Random(7)
    kp = lamport_keygen(16, H, keygen_rng)
    rng = Random(7)
    draws = [rng.randbytes(SECRET_BYTES) for _ in range(32)]
    assert kp.secret == (draws[:16], draws[16:])
    assert kp.public == ([H(s) for s in draws[:16]], [H(s) for s in draws[16:]])
    assert keygen_rng.random() == rng.random()
    params = WotsParams(4, 32)
    keygen_rng = Random(8)
    chains, _ = wots_keygen(params, H, keygen_rng)
    rng = Random(8)
    assert [chain[0] for chain in chains] == [
        rng.randbytes(SECRET_BYTES) for _ in range(params.total_chunks)
    ]
    assert keygen_rng.random() == rng.random()


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


def _digit_count(n, base):
    digits = 1
    while n >= base:
        n //= base
        digits += 1
    return digits


def test_wots_checksum_width_is_the_digit_count_of_the_largest_checksum():
    for w in range(1, 17):
        for msg_bits in range(w, 4097, w):
            p = WotsParams(w=w, msg_bits=msg_bits)
            assert p.checksum_chunks == _digit_count(p.msg_chunks * p.chain_end, 2**w)


def _chunks_per_bit(params, bits):
    """The reference: each chunk built bit by bit, the checksum cut into
    digits by repeated division."""
    w = params.w
    vals = []
    for i in range(params.msg_chunks):
        v = 0
        for b in bits[i * w : (i + 1) * w]:
            v = (v << 1) | b
        vals.append(v)
    checksum = sum(params.chain_end - v for v in vals)
    digits = []
    for _ in range(params.checksum_chunks):
        digits.append(checksum % (2**w))
        checksum //= 2**w
    vals.extend(reversed(digits))  # most significant digit first
    return vals


@pytest.mark.parametrize("w", (1, 2, 3, 4, 8))
def test_wots_chunks_equal_the_per_bit_reference(w):
    rng = Random(200 + w)
    for msg_bits in (w, 8 * w, 24 * w):
        p = WotsParams(w=w, msg_bits=msg_bits)
        cases = [[0] * msg_bits, [1] * msg_bits]
        cases += [[rng.randrange(2) for _ in range(msg_bits)] for _ in range(50)]
        for bits in cases:
            assert _chunks(p, bits) == _chunks_per_bit(p, bits)


def test_wots_checksum_oracle():
    # independent recomputation of the signed chain depths for a known message
    p = WotsParams(w=4, msg_bits=16)
    bits = [0, 0, 0, 1, 1, 1, 1, 1, 0, 1, 0, 1, 1, 1, 1, 0]  # 0x1f5e
    vals = [1, 15, 5, 14]
    checksum = sum(15 - v for v in vals)  # 14+0+10+1 = 25 = 0x19
    expect = vals + [25 // 16, 25 % 16]

    rng = Random(11)
    chains, public = wots_keygen(p, H, rng)
    sig = wots_sign(p, chains, bits)
    for i, v in enumerate(expect):
        assert sig[i] == hash_chain(H, chains[i][0], v)
    assert wots_verify(p, public, bits, sig, H)


def test_wots_zero_chunk_reveals_secret():
    p = WotsParams(w=4, msg_bits=8)
    chains, public = wots_keygen(p, H, Random(12))
    sig = wots_sign(p, chains, [0] * 8)
    assert sig[0] == chains[0][0]
    assert sig[1] == chains[1][0]


def test_wots_public_is_chain_end_plus_one():
    # every kept state j is the chain's seed walked j steps, and the public
    # element is one step past the last
    p = WotsParams(w=2, msg_bits=4)
    chains, public = wots_keygen(p, H, Random(13))
    assert len(chains) == len(public) == p.total_chunks
    for chain, pk in zip(chains, public):
        assert chain == [hash_chain(H, chain[0], j) for j in range(p.chain_end + 1)]
        assert pk == hash_chain(H, chain[0], p.chain_end + 1)


@pytest.mark.parametrize("w,msg_bits", [(1, 8), (2, 8), (4, 16), (8, 16)])
def test_wots_roundtrip(w, msg_bits):
    p = WotsParams(w=w, msg_bits=msg_bits)
    rng = Random(100 + w)
    chains, public = wots_keygen(p, H, rng)
    for _ in range(20):
        bits = [rng.randrange(2) for _ in range(msg_bits)]
        sig = wots_sign(p, chains, bits)
        assert wots_verify(p, public, bits, sig, H)


def test_wots_chain_walk_forgery_fails():
    # walking a message chain forward turns chunk value v into v+1, but the
    # checksum chain would have to walk backwards; verify must refuse
    p = WotsParams(w=4, msg_bits=8)
    rng = Random(14)
    chains, public = wots_keygen(p, H, rng)
    bits = [0, 0, 1, 1, 0, 1, 0, 1]  # chunks [3, 5]
    sig = wots_sign(p, chains, bits)
    forged_bits = [0, 1, 0, 0, 0, 1, 0, 1]  # first chunk 3 -> 4
    forged = sig.copy()
    forged[0] = H(forged[0])  # advance the chain one step
    assert not wots_verify(p, public, forged_bits, forged, H)


def test_wots_tampered_element_fails():
    p = WotsParams(w=4, msg_bits=16)
    rng = Random(15)
    chains, public = wots_keygen(p, H, rng)
    bits = [rng.randrange(2) for _ in range(16)]
    sig = wots_sign(p, chains, bits)
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


@pytest.mark.parametrize("stateless", (False, True))
def test_mss_keys_equal_per_leaf_lamport_keygen(stateless):
    # one draw and one h.each for all leaves give the keys, the root and
    # the rng state that one lamport_keygen per leaf gives
    rng = Random(32)
    signer = MssSigner(8, 16, H, rng, stateless=stateless)
    ref = Random(32)
    secret = ref.randbytes(SECRET_BYTES)
    keypairs = [lamport_keygen(16, H, ref) for _ in range(8)]
    leaves = [lamport_public_bytes(kp.public, i) for i, kp in enumerate(keypairs)]
    assert signer.stateless_secret == secret
    assert signer.keypairs == keypairs
    assert signer.root == merkle_build(leaves, H).root
    assert rng.random() == ref.random()


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
    wchains, wpublic = wots_keygen(p, H, rng)
    signer = MssSigner(16, 16, H, rng, stateless=True)
    for _ in range(300):
        bits = [rng.randrange(2) for _ in range(16)]
        assert lamport_verify(kp.public, bits, lamport_sign(kp, bits), H)
        assert wots_verify(p, wpublic, bits, wots_sign(p, wchains, bits), H)
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
        back = deserialize_mss_signature(blob, 16, 3)
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
        deserialize_mss_signature(blob[:-3], 16, 2)
    with pytest.raises(InvalidBundle):
        deserialize_mss_signature(b"", 16, 2)
    with pytest.raises(InvalidBundle):
        deserialize_mss_signature(bytes(200), 16, 2)
    # flip a side flag to something that is not 0 or 1
    bad = blob[:-1] + bytes([7])
    with pytest.raises(InvalidBundle):
        deserialize_mss_signature(bad, 16, 2)


def _repacked_mss_signature(index_field) -> tuple[bytes, bytes, bytes]:
    """(public, message, signature) from the built-in mss signer, with both
    index fields replaced by index_field(the signed index)."""
    sig = builtin_sigs(H)["mss"]
    pk, sk = sig.keypair(Random(31))
    msg = b"index width"
    fields = unpack(sig.sign(sk, msg), 7)
    assert sig.verify(pk, msg, pack(*fields))
    fields[0] = fields[4] = index_field(int.from_bytes(fields[0], "big"))
    return pk, msg, pack(*fields)


@pytest.mark.parametrize("width", (3, 5, 6))
def test_mss_bundle_index_fields_take_exactly_four_bytes(width):
    pk, msg, blob = _repacked_mss_signature(lambda i: i.to_bytes(width, "big"))
    with pytest.raises(InvalidBundle, match="index fields must be 4 bytes"):
        deserialize_mss_signature(blob, OTS_MSG_BITS, MSS_DEPTH)
    assert not builtin_sigs(H)["mss"].verify(pk, msg, blob)


def test_mss_bundle_index_beyond_32_bits_is_invalid_bundle():
    _, _, blob = _repacked_mss_signature(lambda i: (i + 2**32).to_bytes(5, "big"))
    with pytest.raises(InvalidBundle, match="index fields must be 4 bytes"):
        deserialize_mss_signature(blob, OTS_MSG_BITS, MSS_DEPTH)

"""Every registered instance must honor the uniform KEM/signature contracts."""

import functools
import hashlib
from random import Random

import pytest
from hypothesis import example, given, strategies as st

from pqbench import adapters, codecrypt, hashsig, kex, lattice, mq, suites
from pqbench.binmat import BinaryMatrix
from pqbench.errors import LengthMismatch, PqbenchError
from pqbench.hashing import DEFAULT_HASH, PQH, HashFunction
from pqbench.kex import DecapsFailure, draws
from pqbench.serialize import MalformedFrame, pack, pack_bits, unpack
from pqbench.adapters import lamport_sig, mss_sig, wots_sig
from pqbench.suites import _stretch, builtin_kems, builtin_sigs, sized_stub_kem, sized_stub_sig
from pqbench.tlssim import SuiteConfig, pinned_issuer, registry_kem_suites, run_handshake

KEMS = sorted(builtin_kems().values(), key=lambda k: k.name)
SIGS = sorted(builtin_sigs().values(), key=lambda s: s.name)


def test_expected_instances_present():
    assert {k.name for k in KEMS} == {"ecdh-toy", "lwe-toy", "mceliece-toy", "stub-kem"}
    assert {s.name for s in SIGS} == {"lamport", "wots", "mss", "uov", "fs-dlog"}


@pytest.mark.parametrize("kem", KEMS, ids=lambda k: k.name)
def test_kem_roundtrip_many_cycles(kem):
    rng = Random(41)
    keys = [kem.keypair(rng) for _ in range(5)]
    for i in range(200):
        pk, sk = keys[i % len(keys)]
        ct, ss = kem.encaps(pk, rng)
        assert isinstance(ct, bytes) and isinstance(ss, bytes)
        assert kem.decaps(sk, ct) == ss


@pytest.mark.parametrize("kem", KEMS, ids=lambda k: k.name)
def test_kem_ciphertext_width_is_fixed(kem):
    rng = Random(42)
    pk, sk = kem.keypair(rng)
    widths = {len(kem.encaps(pk, rng)[0]) for _ in range(10)}
    assert len(widths) == 1


@pytest.mark.parametrize("sig", SIGS, ids=lambda s: s.name)
def test_sig_roundtrip_and_determinism(sig):
    rng = Random(43)
    for i in range(8):
        pk, sk = sig.keypair(rng)
        msg = b"contract message %d" % i
        s1 = sig.sign(sk, msg)
        s2 = sig.sign(sk, msg)
        assert s1 == s2  # sign must be a pure function of (secret, msg)
        assert sig.verify(pk, msg, s1)
        assert not sig.verify(pk, b"different message", s1)


@functools.cache
def genuine_signature(name):
    sig = builtin_sigs()[name]
    pk, sk = sig.keypair(Random(45))
    return pk, sig.sign(sk, b"contract message")


def splice(data, cut, drop, insert):
    cut = min(cut, len(data))
    return data[:cut] + insert + data[cut + drop :]


# (cut, drop, insert) for splice
splices = st.tuples(st.integers(0, 4096), st.integers(0, 4096), st.binary(max_size=12))


@pytest.mark.parametrize("sig", SIGS, ids=lambda s: s.name)
@example(public=(0, 0, b"\x01"), mutated=(0, 0, b""))  # fs-dlog: a public value over 8 bytes
@example(public=(0, 1, b"\x04"), mutated=(0, 0, b""))  # uov: a field size that is not prime
@example(public=(0, 0, b""), mutated=(0, 1, b""))  # a signature one byte short
@given(public=splices, mutated=splices)
def test_verify_returns_a_bool_for_any_public_key(sig, public, mutated):
    pk, signature = genuine_signature(sig.name)
    ok = sig.verify(splice(pk, *public), b"contract message", splice(signature, *mutated))
    assert isinstance(ok, bool)


@pytest.mark.parametrize("kem", KEMS, ids=lambda k: k.name)
@example(public=pack(*[b""] * 8))  # lwe-toy: samples of no width
@example(public=pack(*[b"\xff" * 10] * 8))  # lwe-toy: values not below q
@given(public=st.binary(max_size=300)
       | st.lists(st.binary(max_size=16), max_size=10).map(lambda chunks: pack(*chunks)))
def test_encaps_returns_or_raises_a_pqbench_error_for_any_public_key(kem, public):
    try:
        kem.encaps(public, Random(0))
    except PqbenchError:
        pass


DECAPS_KEMS = {**builtin_kems(), "sized-stub": sized_stub_kem("sized-stub", 1184, 1088)}


@functools.cache
def genuine_ciphertext(name):
    kem = DECAPS_KEMS[name]
    pk, sk = kem.keypair(Random(56))
    return sk, kem.encaps(pk, Random(57))[0]


@pytest.mark.parametrize("name", sorted(DECAPS_KEMS))
@given(data=st.data())
def test_decaps_returns_bytes_or_raises_a_pqbench_error_for_any_ciphertext(name, data):
    sk, genuine = genuine_ciphertext(name)
    ciphertext = data.draw(st.binary(min_size=len(genuine), max_size=len(genuine))
                           | splices.map(lambda cut: splice(genuine, *cut)))
    try:
        shared = DECAPS_KEMS[name].decaps(sk, ciphertext)
    except PqbenchError:
        return
    assert isinstance(shared, bytes)


@pytest.mark.parametrize("sig", SIGS, ids=lambda s: s.name)
def test_sig_rejects_cross_key_signatures(sig):
    rng = Random(44)
    pk1, sk1 = sig.keypair(rng)
    pk2, sk2 = sig.keypair(rng)
    assert pk1 != pk2
    s = sig.sign(sk1, b"hello")
    assert sig.verify(pk1, b"hello", s)
    assert not sig.verify(pk2, b"hello", s)


@pytest.mark.parametrize("sig", SIGS, ids=lambda s: s.name)
def test_sig_rejects_truncated_signature(sig):
    rng = Random(45)
    pk, sk = sig.keypair(rng)
    s = sig.sign(sk, b"truncate me")
    assert not sig.verify(pk, b"truncate me", s[:-1])
    assert not sig.verify(pk, b"truncate me", b"")


def test_lwe_samples_on_the_wire_are_the_lanes_the_kernel_reads():
    # _lwe_parse_pk hands each sample's bytes, read as one int, to
    # lattice.lwe_encrypt_bits, which reads them in sample_lanes
    assert lattice.sample_lanes(adapters.LWE_PARAMS).format == adapters.LWE_SAMPLE.format


def test_lwe_kem_shared_secret_depends_on_bits():
    kem = builtin_kems()["lwe-toy"]
    rng = Random(46)
    pk, sk = kem.keypair(rng)
    secrets = {kem.encaps(pk, rng)[1] for _ in range(20)}
    assert len(secrets) == 20  # 32 random bits should essentially never repeat


def reference_encaps(name, public, rng, h):
    """encaps of lwe-toy or mceliece-toy one secret bit at a time through
    the per-bit references lattice.lwe_encrypt_bit and
    codecrypt.mceliece_encrypt: draw the 32 bits, encrypt each in turn,
    pack the blocks most significant first and hash the bit string."""
    if name == "lwe-toy":
        samples = [lattice.LweSample(values[:-1], values[-1]) for values in
                   map(adapters.LWE_SAMPLE.unpack, unpack(public, adapters.LWE_PARAMS.m))]
        field = adapters.LWE_SCALAR_BITS
        width = (adapters.LWE_PARAMS.n + 1) * field

        def encrypt_bit(bit):
            a, b = lattice.lwe_encrypt_bit(samples, bit, adapters.LWE_PARAMS, rng)
            return functools.reduce(lambda acc, x: acc << field | x, (*a, b), 0)
    else:
        key = codecrypt.McEliecePublicKey(*codecrypt.deserialize_code_matrix(public))
        width = key.matrix.cols

        def encrypt_bit(bit):
            return codecrypt.mceliece_encrypt(key, bit, rng)

    bits = draws(rng, 2, suites.KEM_SECRET_BITS)
    acc = 0
    for bit in bits:
        acc = acc << width | encrypt_bit(bit)
    total = suites.KEM_SECRET_BITS * width
    size = -(-total // 8)
    return (acc << (8 * size - total)).to_bytes(size, "big"), h(pack_bits(bits))


def assert_pinned_encapsulations(name, expected):
    # two encapsulations under each of 50 seeded keys, as one digest of
    # ciphertexts and shared secrets; each encapsulation also equals the
    # per-bit reference in output and in the RNG state it leaves, so a
    # faster KEM must draw the same samples, bits, subsets and errors
    kem = builtin_kems(PQH)[name]
    digest = hashlib.sha256()
    for seed in range(50):
        rng = Random(seed)
        pk, sk = kem.keypair(rng)
        for _ in range(2):
            reference = Random()
            reference.setstate(rng.getstate())
            ct, ss = kem.encaps(pk, rng)
            assert (ct, ss) == reference_encaps(name, pk, reference, PQH)
            assert rng.getstate() == reference.getstate()
            digest.update(ct + ss)
    assert digest.hexdigest() == expected


def test_lwe_kem_matches_pinned_ciphertexts():
    assert_pinned_encapsulations(
        "lwe-toy", "b59693593cfa913f74da8807994742cfc86dc8f6ad2e59a3725a4223504a2ed6")


def test_mceliece_kem_matches_pinned_ciphertexts():
    assert_pinned_encapsulations(
        "mceliece-toy", "3011481897ee876cb7d40cd777d5c1d4035bc9d229d2fb72e151c007dea285a6")


def reference_scalar_mul(k, p, curve):
    """k p by double-and-add through kex.point_add, which checks both
    operands on every call."""
    acc, addend = kex.INFINITY, p
    while k:
        if k & 1:
            acc = kex.point_add(acc, addend, curve)
        addend = kex.point_add(addend, addend, curve)
        k >>= 1
    return acc


def reference_ecdh_encaps(public, rng, h):
    """ecdh-toy encaps through reference_scalar_mul."""
    point = kex.decode_point(public)
    e = rng.randrange(1, kex.MAIN_ORDER)
    ct = kex.encode_point(reference_scalar_mul(e, kex.MAIN_GEN, kex.MAIN_CURVE))
    shared = reference_scalar_mul(e, point, kex.MAIN_CURVE)
    return ct, h(shared.x.to_bytes(4, "big"))


def test_ecdh_kem_matches_pinned_keys_and_encapsulations():
    # keypair, two encapsulations and their decapsulations under each of
    # 50 seeds, as one digest; each encapsulation also equals the
    # point_add reference in output and in the RNG state it leaves
    kem = builtin_kems(PQH)["ecdh-toy"]
    digest = hashlib.sha256()
    for seed in range(50):
        rng = Random(seed)
        pk, sk = kem.keypair(rng)
        digest.update(pk)
        for _ in range(2):
            reference = Random()
            reference.setstate(rng.getstate())
            ct, ss = kem.encaps(pk, rng)
            assert (ct, ss) == reference_ecdh_encaps(pk, reference, PQH)
            assert rng.getstate() == reference.getstate()
            assert kem.decaps(sk, ct) == ss
            digest.update(ct + ss)
    assert digest.hexdigest() == \
        "16d4aca68717ce1463c2e13361c7739ef16977a1a2bda6269ad230f2703639ea"


# seeds whose lwe-toy encapsulation draws an all-zero subset for some bit
# and redraws it (seed 70 three times), so the equivalence below covers the
# vector kernel's top-up draws
LWE_RETRY_SEEDS = (0, 7, 9, 26, 33, 44, 47, 48, 56, 59, 61, 68, 70, 76, 77, 123, 128,
                   130, 136, 146, 148, 151, 166, 168, 181, 182, 185, 187, 188, 193, 199)


@pytest.mark.parametrize("name", ["lwe-toy", "mceliece-toy"])
def test_vector_kernels_take_the_per_bit_stream(monkeypatch, name):
    subset_draws = []
    original = lattice.draws
    kem = builtin_kems()[name]
    retries = []
    for seed in range(200):
        rng = Random(seed)
        pk, sk = kem.keypair(rng)
        reference = Random()
        reference.setstate(rng.getstate())
        ct, ss = kem.encaps(pk, rng)
        with monkeypatch.context() as patch:
            patch.setattr(lattice, "draws",
                          lambda r, n, count: subset_draws.append(count) or original(r, n, count))
            subset_draws.clear()
            assert (ct, ss) == reference_encaps(name, pk, reference, DEFAULT_HASH)
        assert rng.getstate() == reference.getstate()
        if len(subset_draws) > suites.KEM_SECRET_BITS:
            retries.append(seed)
    assert tuple(retries) == (LWE_RETRY_SEEDS if name == "lwe-toy" else ())


# (n, k, t) of crafted mceliece-toy public keys, each named by the first
# field the adapter refuses; the suite's code is hamming_code(3)'s (7, 4)
# with t = 1.  "n=20000" is a 2,512 B key with k = 1 and t = n, which cost
# the server 32 rng.sample calls over range(20000) before it was refused
CRAFTED_MCELIECE_SHAPES = {
    "t=0": (7, 4, 0),
    "t=2": (7, 4, 2),
    "n=20000": (20000, 1, 20000),
    "n=8": (8, 4, 1),
    "k=3": (7, 3, 1),
}


@pytest.mark.parametrize("shape", sorted(CRAFTED_MCELIECE_SHAPES))
def test_mceliece_keys_of_another_shape_are_refused_before_any_draw(monkeypatch, shape):
    n, k, t = CRAFTED_MCELIECE_SHAPES[shape]
    kem = builtin_kems()["mceliece-toy"]
    crafted = codecrypt.serialize_code_matrix(BinaryMatrix(k, n, [1] * k), t)
    made = [counted(monkeypatch, owner, name)
            for owner, name in ((kex, "draws"), (codecrypt, "draws"), (codecrypt, "random_error"))]
    rng = Random(0)
    before = rng.getstate()
    with pytest.raises(MalformedFrame, match=f"mceliece-toy public key has {shape},"):
        kem.encaps(crafted, rng)
    assert made == [[], [], []]
    assert rng.getstate() == before


def reference_decaps(name, secret, ciphertext, h):
    """decaps of lwe-toy or mceliece-toy one block at a time through the
    per-bit references, with the adapter's DecapsFailure messages."""
    if name == "lwe-toy":
        q, field = adapters.LWE_PARAMS.q, adapters.LWE_SCALAR_BITS
        width = (adapters.LWE_PARAMS.n + 1) * field

        def decrypt_bit(block):
            vals = [(block >> (field * i)) & ((1 << field) - 1)
                    for i in reversed(range(adapters.LWE_PARAMS.n + 1))]
            if max(vals) >= q:
                raise DecapsFailure(
                    f"{name}: LWE ciphertext value {max(vals)} is not below q={q}")
            return lattice.lwe_decrypt_bit(secret, (vals[:-1], vals[-1]), adapters.LWE_PARAMS)
    else:
        width = secret.code.n

        def decrypt_bit(block):
            m = codecrypt.mceliece_decrypt(secret, block)
            if m >> 1:
                raise DecapsFailure(f"{name}: plaintext {m} is not a single bit")
            return m

    total = suites.KEM_SECRET_BITS * width
    acc = int.from_bytes(ciphertext, "big") >> (-total % 8)
    bits = [decrypt_bit((acc >> (width * i)) & ((1 << width) - 1))
            for i in reversed(range(suites.KEM_SECRET_BITS))]
    return h(pack_bits(bits))


@pytest.mark.parametrize("name", ["lwe-toy", "mceliece-toy"])
def test_tampered_ciphertexts_decapsulate_as_the_per_bit_reference(name):
    kem = builtin_kems()[name]
    rng = Random(58)
    outcomes = set()
    for _ in range(10):
        pk, sk = kem.keypair(rng)
        ct, _ = kem.encaps(pk, rng)
        for _ in range(60):
            tampered = bytearray(ct)
            for _ in range(rng.randrange(1, 4)):
                tampered[rng.randrange(len(ct))] ^= 1 << rng.randrange(8)
            if rng.randrange(4) == 0:
                tampered = bytearray(rng.randbytes(len(ct)))
            try:
                want = reference_decaps(name, sk, bytes(tampered), DEFAULT_HASH)
            except DecapsFailure as e:
                with pytest.raises(DecapsFailure) as got:
                    kem.decaps(sk, bytes(tampered))
                assert str(got.value) == str(e)
                outcomes.add("refused")
            else:
                assert kem.decaps(sk, bytes(tampered)) == want
                outcomes.add("decapsulated")
    assert outcomes == {"refused", "decapsulated"}


def test_lwe_decaps_rejects_a_field_not_below_q():
    # adding q to one field of an honest ciphertext leaves it congruent, so
    # it used to decapsulate to the same key; no honest ciphertext carries
    # such a value, so decaps now refuses it and names it
    kem = builtin_kems()["lwe-toy"]
    rng = Random(48)
    pk, sk = kem.keypair(rng)
    ct, ss = kem.encaps(pk, rng)
    q, width = adapters.LWE_PARAMS.q, adapters.LWE_PARAMS.q.bit_length()
    acc = int.from_bytes(ct, "big")
    # the last field of the ciphertext with room for + q in its width
    shift = next(w for w in range(0, 8 * len(ct), width)
                 if ((acc >> w) & ((1 << width) - 1)) + q < 1 << width)
    value = (acc >> shift) & ((1 << width) - 1)
    bad = (acc + (q << shift)).to_bytes(len(ct), "big")
    assert kem.decaps(sk, ct) == ss
    with pytest.raises(DecapsFailure, match=f"value {value + q} is not below q={q}"):
        kem.decaps(sk, bad)


def test_mceliece_kem_bad_ciphertext_fails_closed():
    kem = builtin_kems()["mceliece-toy"]
    rng = Random(47)
    pk, sk = kem.keypair(rng)
    ct, ss = kem.encaps(pk, rng)
    with pytest.raises(DecapsFailure):
        kem.decaps(sk, ct[:-1])


def test_sized_stub_kem_reports_requested_sizes():
    kem = sized_stub_kem("stub-big", public_bytes=1184, ciphertext_bytes=1088)
    rng = Random(48)
    pk, sk = kem.keypair(rng)
    assert len(pk) == 1184
    ct, ss = kem.encaps(pk, rng)
    assert len(ct) == 1088
    assert kem.decaps(sk, ct) == ss
    with pytest.raises(DecapsFailure):
        kem.decaps(sk, ct[:-1])


def test_sized_stub_sig_reports_requested_sizes():
    sig = sized_stub_sig("stub-sig-big", public_bytes=2592, signature_bytes=2420)
    rng = Random(49)
    pk, sk = sig.keypair(rng)
    assert len(pk) == 2592
    s = sig.sign(sk, b"m")
    assert len(s) == 2420
    assert sig.verify(pk, b"m", s)
    flipped = bytes([s[0] ^ 1]) + s[1:]
    assert not sig.verify(pk, b"m", flipped)


# 31 and 32 sit on either side of the first digest-block boundary
@pytest.mark.parametrize("at", (0, 31, 32, 1210, 2419),
                         ids=("first", "block-end", "block-start", "middle", "last"))
def test_stub_signature_fails_with_any_byte_flipped(at):
    sig = sized_stub_sig("stub-sig-big", public_bytes=2592, signature_bytes=2420)
    pk, sk = sig.keypair(Random(49))
    s = sig.sign(sk, b"m")
    assert sig.verify(pk, b"m", s)
    assert not sig.verify(pk, b"m", s[:at] + bytes([s[at] ^ 0x80]) + s[at + 1:])


def test_stub_filler_is_keyed_by_the_instance_hash():
    default = sized_stub_kem("x", 1184, 1088, DEFAULT_HASH)
    reference = sized_stub_kem("x", 1184, 1088, PQH)
    pk_default, _ = default.keypair(Random(53))
    pk_reference, _ = reference.keypair(Random(53))
    assert len(pk_default) == len(pk_reference) == 1184
    assert pk_default != pk_reference


class CountingHash:
    """Wraps a HashFunction and records the length of every input."""

    def __init__(self, h=DEFAULT_HASH):
        self.lengths = []
        self.h = HashFunction(h.name, h.output_bytes, self._apply)
        self._inner = h

    def _apply(self, data):
        self.lengths.append(len(data))
        return self._inner(data)


@pytest.mark.parametrize("seed_len,size", [(0, 0), (5, 1), (16, 32), (15632, 1088), (20, 2420)])
def test_stretch_hashes_its_seed_once(seed_len, size):
    counting = CountingHash()
    out = _stretch(counting.h, bytes(seed_len), size)
    assert len(out) == size
    assert counting.lengths == [seed_len]


@pytest.mark.parametrize("h", (DEFAULT_HASH, PQH), ids=lambda h: h.name)
@pytest.mark.parametrize("size", (0, 1, 32, 33, 15632))
def test_stretch_matches_the_one_shot_formula(h, size):
    # one digest of the seed, repeated ceil(size / digest length) times
    seed = b"stretch seed"
    digest = h(seed)
    k = -(-size // len(digest))
    assert _stretch(h, seed, size) == (digest * k)[:size]


def test_stretch_prefixes_agree_and_depend_on_seed():
    assert _stretch(DEFAULT_HASH, b"seed", 100)[:40] == _stretch(DEFAULT_HASH, b"seed", 40)
    assert _stretch(DEFAULT_HASH, b"seed", 64) != _stretch(DEFAULT_HASH, b"seeD", 64)


def test_stub_kem_hashes_its_long_public_key_at_most_twice():
    counting = CountingHash()
    kem = sized_stub_kem("x", 15632, 1088, counting.h)
    rng = Random(50)
    pk, sk = kem.keypair(rng)
    counting.lengths.clear()
    ct, ss = kem.encaps(pk, rng)
    assert kem.decaps(sk, ct) == ss
    assert sum(1 for n in counting.lengths if n >= len(pk)) <= 2


def test_stub_sig_hashes_a_long_message_at_most_twice():
    counting = CountingHash()
    sig = sized_stub_sig("x", 1312, 2420, counting.h)
    rng = Random(51)
    pk, sk = sig.keypair(rng)
    msg = rng.randbytes(16 * 1024)
    counting.lengths.clear()
    s = sig.sign(sk, msg)
    assert sig.verify(pk, msg, s)
    assert sum(1 for n in counting.lengths if n >= len(msg)) <= 2


def test_lamport_sign_hashes_only_the_message():
    counting = CountingHash()
    sig = lamport_sig(counting.h)
    pk, sk = sig.keypair(Random(52))
    counting.lengths.clear()
    signature = sig.sign(sk, b"m")
    assert len(counting.lengths) == 1
    assert sig.verify(pk, b"m", signature)


# hash calls of keypair, sign and verify under a fixed seed; they do not
# depend on the host, so a kernel change that adds or drops hashing shows
HASH_CALLS = {"lamport": (65, 1, 33), "wots": (161, 1, 101), "mss": (528, 2, 37)}


@pytest.mark.parametrize("name", sorted(HASH_CALLS))
def test_hash_based_signers_make_pinned_hash_calls(name):
    counting = CountingHash()
    sig = builtin_sigs(counting.h)[name]
    calls = []
    pk, sk = sig.keypair(Random(7))
    calls.append(len(counting.lengths))
    counting.lengths.clear()
    signature = sig.sign(sk, b"pinned message")
    calls.append(len(counting.lengths))
    counting.lengths.clear()
    assert sig.verify(pk, b"pinned message", signature)
    calls.append(len(counting.lengths))
    assert tuple(calls) == HASH_CALLS[name]


# hash calls and bytes hashed by one handshake of each registry stub suite
# under Random(0), counted through CountingHash with the issuer key already
# derived; like HASH_CALLS they do not depend on the host, so a change in
# how much the stub filler or the transcript hashes shows without a timing run
REGISTRY_HASH_WORK = {
    "BIKE-1-CCA": (31, 112685),
    "FrodoKEM-976": (31, 206987),
    "Kyber-768": (31, 62459),
    "NewHope1024": (31, 68891),
    "ntruhps4096821": (31, 62999),
    "SABER-KEM": (31, 60539),
    "SIKEp610": (31, 55223),
}


@pytest.mark.parametrize("label", sorted(REGISTRY_HASH_WORK))
def test_registry_handshakes_make_pinned_hash_work(label):
    counting = CountingHash()
    cfg = next(c for c in registry_kem_suites(h=counting.h) if c.label == label)
    pinned_issuer(cfg.sig)
    counting.lengths.clear()
    t = run_handshake(cfg, cfg, rng=Random(0))
    assert t.server_key_digest == t.client_key_digest
    assert (len(counting.lengths), sum(counting.lengths)) == REGISTRY_HASH_WORK[label]


def counted(monkeypatch, owner, name):
    """The calls of owner.name from now on, as a list of their arguments."""
    calls = []
    original = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: calls.append(args) or original(*args))
    return calls


# kernel work per operation, counted by wrapping the named functions; like
# the hash calls above it does not depend on the host, so a kernel that
# slips back to per-element or per-object work shows without a timing run.
# uov keypair: QuadPoly objects built (the central map's o = 2, through
# mq._freeze, none through QuadPoly's checks) and 6 x 6 inversions (seed 3
# draws one singular matrix first); ecdh-toy: point checks (one per
# scalar_mul, plus encaps's on the received key before its draw; decaps
# leaves the received point to scalar_mul's check); mceliece-toy decaps:
# per-word unpermutations and decryptions
KERNEL_CALLS = {
    ("uov", "keypair", 7): {"_freeze": 2, "__post_init__": 0, "_matrix_inverse": 1},
    ("uov", "keypair", 3): {"_freeze": 2, "__post_init__": 0, "_matrix_inverse": 2},
    ("ecdh-toy", "keypair", 7): {"on_curve": 1},
    ("ecdh-toy", "encaps", 7): {"on_curve": 3},
    ("ecdh-toy", "decaps", 7): {"on_curve": 1},
    ("mceliece-toy", "decaps", 7): {"permute_word": 0, "mceliece_decrypt": 0},
}
KERNEL_OWNERS = {"_freeze": mq, "__post_init__": mq.QuadPoly, "_matrix_inverse": mq,
                 "on_curve": kex, "permute_word": codecrypt, "mceliece_decrypt": codecrypt}


@pytest.mark.parametrize("scheme,op,seed", sorted(KERNEL_CALLS))
def test_kernels_make_pinned_calls(monkeypatch, scheme, op, seed):
    instance = {**builtin_kems(), **builtin_sigs()}[scheme]
    rng = Random(seed)
    if op == "keypair":
        run = lambda: instance.keypair(rng)
    else:
        pk, sk = instance.keypair(rng)
        ct, ss = instance.encaps(pk, rng)
        run = {"encaps": lambda: instance.encaps(pk, rng), "decaps": lambda: instance.decaps(sk, ct)}[op]
    calls = {name: counted(monkeypatch, KERNEL_OWNERS[name], name) for name in KERNEL_CALLS[scheme, op, seed]}
    run()
    assert {name: len(made) for name, made in calls.items()} == KERNEL_CALLS[scheme, op, seed]


# the twelve hashsig-suites suites under the default hash and Random(0):
# message sizes in wire order, hash calls per handshake counted through a
# hash built from apply alone with the issuer key already derived, and the
# client key digest; pinned so a faster hashsig keeps every byte and call
HASHSIG_HANDSHAKES = {
    "ecdh-toy+lamport": (
        (42, 38, 5, 3498, 1157, 37, 37), 157,
        "950b2675bc1e65d946775fc189d756167de44c15f5d6cd5f8de0caed06338df4",
    ),
    "lwe-toy+lamport": (
        (144, 228, 5, 3498, 1157, 37, 37), 157,
        "6a2591d80d561cd3bed664ae1708927e922f1857056cc31562df9359dde946f5",
    ),
    "mceliece-toy+lamport": (
        (53, 61, 5, 3498, 1157, 37, 37), 157,
        "002a4ce4df24bd3cf611f1bdbcbbbda807572bfe1ce675fc9be7ea7f526bf30e",
    ),
    "stub-kem+lamport": (
        (33, 33, 5, 3498, 1157, 37, 37), 157,
        "ec29d5b3430f9773a56bf5fe55c88444545af0705356ea451c49424e012beab0",
    ),
    "ecdh-toy+wots": (
        (39, 35, 5, 751, 365, 37, 37), 389,
        "c3f70d096c9cc0797649b942b452ee2495eb1b82b36838f0d5f0300cf519ea90",
    ),
    "lwe-toy+wots": (
        (141, 225, 5, 751, 365, 37, 37), 389,
        "b9bcb18e960500cb0628b2ea7eedee7f8c489a332eabeb42a33a1cac1296555b",
    ),
    "mceliece-toy+wots": (
        (50, 58, 5, 751, 365, 37, 37), 359,
        "5e8f429118cdec78d3198b81365545c1468b61a935cf7e6ea93e57839cf71fc8",
    ),
    "stub-kem+wots": (
        (30, 30, 5, 751, 365, 37, 37), 374,
        "a4b9825f616926da23163abb0b950957ce522744f44c52c6821c3b42fa8c9469",
    ),
    "ecdh-toy+mss": (
        (38, 34, 5, 3665, 3608, 37, 37), 630,
        "0b935a7d40684d0118c98422ce170a2bcd11757c899cefb28eeb4e178b559f05",
    ),
    "lwe-toy+mss": (
        (140, 224, 5, 3665, 3608, 37, 37), 630,
        "11a445752dac2d8f4d19068d372c2528a70519db675b0b56d0c609a427a6f520",
    ),
    "mceliece-toy+mss": (
        (49, 57, 5, 3665, 3608, 37, 37), 630,
        "6c8d6e22aa9629e4a4620142cb742346e16e67fdb71943ad7bdc0decd2e69007",
    ),
    "stub-kem+mss": (
        (29, 29, 5, 3665, 3608, 37, 37), 630,
        "5de07254eeb2c82e9f10e3c07dfde7dd38347f71f0a3d4d490ccd8a218a67bc1",
    ),
}


@pytest.mark.parametrize("label", sorted(HASHSIG_HANDSHAKES))
def test_hashsig_suites_match_pinned_handshakes(label):
    kem_name, sig_name = label.split("+")
    sizes, calls, digest = HASHSIG_HANDSHAKES[label]
    h = DEFAULT_HASH
    cfg = SuiteConfig(builtin_kems(h)[kem_name], builtin_sigs(h)[sig_name], h, label)
    t = run_handshake(cfg, cfg, rng=Random(0))
    assert tuple(size for _, size in t.messages) == sizes
    assert t.client_key_digest.hex() == digest
    counting = CountingHash()
    h = counting.h
    cfg = SuiteConfig(builtin_kems(h)[kem_name], builtin_sigs(h)[sig_name], h, label)
    pinned_issuer(cfg.sig)
    counting.lengths.clear()
    t = run_handshake(cfg, cfg, rng=Random(0))
    assert len(counting.lengths) == calls
    assert t.client_key_digest.hex() == digest


# hash calls of a handshake outside its five signature operations: per
# side, 4 for the key schedule, 2 transcript digests before the Finished
# MACs, 4 for the MACs and 1 for the result, plus the KEM's one hash in
# encaps and one in decaps, which every built-in KEM makes; none depends on
# the signer, so the term is the same for every hashsig suite
PROTOCOL_HASH_CALLS = 24


@pytest.mark.parametrize("label", sorted(HASHSIG_HANDSHAKES))
def test_hashsig_handshake_calls_are_signature_operations_plus_protocol(label):
    # each pinned count is the identity keypair, the issuer's signature,
    # CertificateVerify's signature, the client's two verifies and one
    # protocol term, so a count that moves names the operation that moved
    kem_name, sig_name = label.split("+")
    counting = CountingHash()
    h = counting.h
    inner = builtin_sigs(h)[sig_name]
    ops = []

    def counted_op(op, run):
        def wrapped(*args):
            before = len(counting.lengths)
            out = run(*args)
            ops.append((op, len(counting.lengths) - before))
            return out
        return wrapped

    sig = kex.SigInstance(inner.name, counted_op("keypair", inner.keypair),
                          counted_op("sign", inner.sign), counted_op("verify", inner.verify))
    cfg = SuiteConfig(builtin_kems(h)[kem_name], sig, h, label)
    pinned_issuer(cfg.sig)
    ops.clear()
    counting.lengths.clear()
    run_handshake(cfg, cfg, rng=Random(0))
    assert [op for op, _ in ops] == ["keypair", "sign", "sign", "verify", "verify"]
    (_, keypair), (_, issuer), (_, cert_verify), (_, verify1), (_, verify2) = ops
    keypair_calls, sign_calls, _ = HASH_CALLS[sig_name]
    assert (keypair, issuer, cert_verify) == (keypair_calls, sign_calls, sign_calls)
    signature_calls = keypair + issuer + cert_verify + verify1 + verify2
    assert len(counting.lengths) == HASHSIG_HANDSHAKES[label][1]
    assert HASHSIG_HANDSHAKES[label][1] - signature_calls == PROTOCOL_HASH_CALLS


def _widen_one_time_lists(fields, width):
    fields[1:4] = (pack(*[bytes(32)] * width),) * 3


def _lengthen_proof(fields, depth):
    fields[5:7] = pack(*[bytes(32)] * depth), bytes(depth)


@pytest.mark.parametrize("reshape,size", [
    (_widen_one_time_lists, 31), (_widen_one_time_lists, 33), (_widen_one_time_lists, 4096),
    (_lengthen_proof, 2), (_lengthen_proof, 4), (_lengthen_proof, 4096),
])
def test_mss_verify_refuses_another_shape_before_hashing(reshape, size):
    # a bundle must not pick its own one-time width or proof depth: either
    # sets how much a verifier hashes before it can say no
    counting = CountingHash()
    sig = builtin_sigs(counting.h)["mss"]
    pk, sk = sig.keypair(Random(56))
    fields = unpack(sig.sign(sk, b"m"), 7)
    reshape(fields, size)
    counting.lengths.clear()
    assert not sig.verify(pk, b"m", pack(*fields))
    assert counting.lengths == []


def test_lamport_verify_refuses_a_wide_element_before_any_hash():
    counting = CountingHash()
    kp = hashsig.lamport_keygen(adapters.OTS_MSG_BITS, counting.h, Random(60))
    bits = hashsig.message_bits(counting.h, b"m", adapters.OTS_MSG_BITS)
    sig = hashsig.lamport_sign(kp, bits)
    assert hashsig.lamport_verify(kp.public, bits, sig, counting.h)
    sig[5] = bytes(1 << 20)
    counting.lengths.clear()
    assert not hashsig.lamport_verify(kp.public, bits, sig, counting.h)
    assert counting.lengths == []


@pytest.mark.parametrize("factory", [lamport_sig, wots_sig, mss_sig])
def test_hash_based_signers_refuse_a_hash_of_another_width(factory):
    # their keys and signatures are vectors of 32-byte elements, digests
    # included
    short = HashFunction("blake2b-128", 16, lambda data: DEFAULT_HASH(data)[:16])
    with pytest.raises(LengthMismatch, match="needs a 32-byte hash, blake2b-128 gives 16"):
        factory(short)


def test_stub_kem_decaps_hashes_once():
    counting = CountingHash()
    kem = sized_stub_kem("x", 1184, 1088, counting.h)
    rng = Random(53)
    pk, sk = kem.keypair(rng)
    ct, ss = kem.encaps(pk, rng)
    counting.lengths.clear()
    assert kem.decaps(sk, ct) == ss
    assert len(counting.lengths) == 1


@pytest.mark.parametrize("name,module,parser", [
    ("lwe-toy", adapters, "_lwe_parse_pk"),
    ("mceliece-toy", codecrypt, "deserialize_code_matrix"),
])
def test_encaps_parses_the_public_key_once(monkeypatch, name, module, parser):
    kem = builtin_kems()[name]
    pk, sk = kem.keypair(Random(54))
    parsed = []
    original = getattr(module, parser)
    monkeypatch.setattr(module, parser, lambda data: parsed.append(data) or original(data))
    ct, ss = kem.encaps(pk, Random(55))
    assert parsed == [pk]
    assert kem.decaps(sk, ct) == ss

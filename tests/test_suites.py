"""Every registered instance must honor the uniform KEM/signature contracts."""

import functools
import hashlib
from random import Random

import pytest
from hypothesis import example, given, strategies as st

from pqbench import codecrypt, suites
from pqbench.errors import PqbenchError
from pqbench.hashing import DEFAULT_HASH, PQH, HashFunction
from pqbench.kex import DecapsFailure
from pqbench.serialize import pack, u32, unpack
from pqbench.suites import (
    _stretch,
    builtin_kems,
    builtin_sigs,
    lamport_sig,
    sized_stub_kem,
    sized_stub_sig,
)
from pqbench.tlssim import SuiteConfig, pinned_issuer, run_handshake

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


def test_lwe_kem_shared_secret_depends_on_bits():
    kem = builtin_kems()["lwe-toy"]
    rng = Random(46)
    pk, sk = kem.keypair(rng)
    secrets = {kem.encaps(pk, rng)[1] for _ in range(20)}
    assert len(secrets) == 20  # 32 random bits should essentially never repeat


def test_lwe_kem_matches_pinned_ciphertexts():
    # two encapsulations under each of 50 seeded keys, as one digest of
    # ciphertexts and shared secrets: a faster lwe-toy must draw the same
    # samples, bits and subsets
    kem = suites.lwe_kem(PQH)
    digest = hashlib.sha256()
    for seed in range(50):
        rng = Random(seed)
        pk, sk = kem.keypair(rng)
        for _ in range(2):
            ct, ss = kem.encaps(pk, rng)
            digest.update(ct + ss)
    assert digest.hexdigest() == \
        "b59693593cfa913f74da8807994742cfc86dc8f6ad2e59a3725a4223504a2ed6"


def test_lwe_decaps_rejects_a_field_not_below_q():
    # adding q to one field of an honest ciphertext leaves it congruent, so
    # it used to decapsulate to the same key; no honest ciphertext carries
    # such a value, so decaps now refuses it and names it
    kem = builtin_kems()["lwe-toy"]
    rng = Random(48)
    pk, sk = kem.keypair(rng)
    ct, ss = kem.encaps(pk, rng)
    q, width = suites.LWE_PARAMS.q, suites.LWE_PARAMS.q.bit_length()
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
    block = counting.h.output_bytes
    blocks = -(-size // block)
    assert sum(counting.lengths) == seed_len + blocks * (block + 4)


@pytest.mark.parametrize("h", (DEFAULT_HASH, PQH), ids=lambda h: h.name)
@pytest.mark.parametrize("size", (0, 1, 32, 33, 15632))
def test_stretch_matches_the_one_shot_formula(h, size):
    seed = b"stretch seed"
    blocks = -(-size // h.output_bytes)
    want = b"".join(h(h(seed) + u32(i)) for i in range(blocks))[:size]
    assert _stretch(h, seed, size) == want


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
HASH_CALLS = {"lamport": (65, 1, 33), "wots": (161, 61, 101), "mss": (528, 2, 37)}


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
        (39, 35, 5, 751, 365, 37, 37), 509,
        "c3f70d096c9cc0797649b942b452ee2495eb1b82b36838f0d5f0300cf519ea90",
    ),
    "lwe-toy+wots": (
        (141, 225, 5, 751, 365, 37, 37), 509,
        "b9bcb18e960500cb0628b2ea7eedee7f8c489a332eabeb42a33a1cac1296555b",
    ),
    "mceliece-toy+wots": (
        (50, 58, 5, 751, 365, 37, 37), 509,
        "5e8f429118cdec78d3198b81365545c1468b61a935cf7e6ea93e57839cf71fc8",
    ),
    "stub-kem+wots": (
        (30, 30, 5, 751, 365, 37, 37), 509,
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
    ("lwe-toy", suites, "_lwe_parse_pk"),
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

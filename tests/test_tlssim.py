"""Handshake simulator tests: wire codec, key schedule, state machines,
failure modes, byte accounting, and the registry-sized stub suites."""

import socket
import sys
import threading
import time
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from pqbench import tlssim
from pqbench.bench import FakeClock
from pqbench.errors import PqbenchError
from pqbench.hashing import DEFAULT_HASH, PQH, HashFunction
from pqbench.kex import KemInstance, SigInstance
from pqbench.serialize import MalformedFrame, u32
from pqbench.suites import builtin_kems, builtin_sigs, sized_stub_kem, sized_stub_sig
from pqbench.tlssim import (
    Certificate,
    CertificateMessage,
    CertificateVerify,
    CertVerifyFailure,
    ClientHello,
    ConnectionClosed,
    EncryptedExtensions,
    FinishedClient,
    FinishedServer,
    InconsistentByteCounts,
    MacMismatch,
    MAX_FRAME_BYTES,
    MeasureAborted,
    NegotiationFailure,
    PeerTimeout,
    ServerCrashed,
    ServerHello,
    SuiteConfig,
    UnexpectedMessage,
    certificate_signing_bytes,
    client_handshake,
    decode_message,
    derive_keys,
    encode_message,
    handshake_total_bytes,
    make_identity,
    measure_handshake,
    memory_pair,
    pinned_issuer,
    read_message,
    registry_kem_suites,
    run_handshake,
    server_handshake,
    SocketConnection,
    stub_suite,
    verify_certificate,
)

H = DEFAULT_HASH
MESSAGE_ORDER = (
    "ClientHello",
    "ServerHello",
    "EncryptedExtensions",
    "CertificateMessage",
    "CertificateVerify",
    "FinishedServer",
    "FinishedClient",
)


def small_suite(label="lwe-wots"):
    kems = builtin_kems(H)
    sigs = builtin_sigs(H)
    return SuiteConfig(kems["lwe-toy"], sigs["wots"], H, label)


# --- wire codec ---


def random_message(rng):
    kind = rng.randrange(7)
    blob = lambda lo, hi: rng.randbytes(rng.randrange(lo, hi))
    label = lambda: "".join(rng.choice("abcdefgh-0123456789") for _ in range(rng.randrange(1, 12)))
    if kind == 0:
        return ClientHello(tuple(label() for _ in range(rng.randrange(4))), blob(0, 64))
    if kind == 1:
        return ServerHello(label(), blob(0, 64))
    if kind == 2:
        return EncryptedExtensions(blob(0, 32))
    if kind == 3:
        return CertificateMessage(Certificate(label(), label(), blob(0, 48), blob(0, 48)))
    if kind == 4:
        return CertificateVerify(blob(0, 96))
    if kind == 5:
        return FinishedServer(blob(0, 40))
    return FinishedClient(blob(0, 40))


def test_codec_roundtrips_random_messages():
    rng = Random(0xC0DEC)
    for _ in range(1000):
        msg = random_message(rng)
        assert decode_message(encode_message(msg)) == msg


def test_empty_encrypted_extensions_is_five_bytes():
    raw = encode_message(EncryptedExtensions())
    assert len(raw) == 5
    assert raw == b"\x03\x00\x00\x00\x00"


def test_client_hello_size_arithmetic():
    ch = ClientHello(("alpha", "beta-2"), b"\x01" * 33)
    raw = encode_message(ch)
    # tag + frame length + suite count + two prefixed labels + prefixed key
    assert len(raw) == 5 + 4 + (4 + 5) + (4 + 6) + (4 + 33)


@pytest.mark.parametrize(
    "blob",
    [
        b"",
        b"\x01\x00\x00",
        b"\x99\x00\x00\x00\x00",  # unknown tag
        b"\x03\x00\x00\x00\x05ab",  # announces 5 payload bytes, carries 2
        b"\x02\x00\x00\x00\x01x",  # ServerHello payload too short to unpack
    ],
)
def test_decode_rejects_malformed_frames(blob):
    with pytest.raises(MalformedFrame):
        decode_message(blob)


def test_decode_rejects_non_utf8_label():
    raw = encode_message(ServerHello("ok", b"ct"))
    bad = raw.replace(b"ok", b"\xff\xfe")
    with pytest.raises(MalformedFrame):
        decode_message(bad)


class ChunkedSocket:
    """Socket stand-in whose recv hands out queued chunks, at most n bytes
    at a time, then end of stream."""

    def __init__(self, *chunks):
        self.chunks = [c for c in chunks if c]
        self.asked = []

    def settimeout(self, seconds):
        pass

    def recv(self, n):
        self.asked.append(n)
        if not self.chunks:
            return b""
        head, rest = self.chunks[0][:n], self.chunks[0][n:]
        self.chunks[:1] = [rest] if rest else []
        return head


def test_read_message_reassembles_split_frames():
    raw = encode_message(ServerHello("suite", b"ciphertext"))
    client = SocketConnection(ChunkedSocket(raw[:3], raw[3:9], raw[9:]))
    msg, seen = read_message(client)
    assert msg == ServerHello("suite", b"ciphertext")
    assert seen == raw


def test_read_message_rejects_oversized_frame_before_reading_it():
    sock = ChunkedSocket(b"\x02" + u32(MAX_FRAME_BYTES + 1) + b"payload")
    with pytest.raises(MalformedFrame):
        read_message(SocketConnection(sock))
    assert sock.asked == [5]


@pytest.mark.parametrize("close", (False, True), ids=("silent", "closed"))
def test_read_message_names_the_frame_it_lost(monkeypatch, close):
    monkeypatch.setattr(tlssim, "READ_DEADLINE_S", 0.05)
    client, server = memory_pair()
    client.send(b"\x01" + u32(100) + bytes(10))  # a ClientHello cut short
    if close:
        client.close()
    with pytest.raises(ConnectionClosed) as info:
        read_message(server)
    assert isinstance(info.value, PeerTimeout) is not close
    assert type(info.value.__cause__) is type(info.value)
    for word in ("ClientHello", "100", "10 arrived"):
        assert word in str(info.value)
    client.close()
    server.close()


# --- key schedule and certificates ---


def test_derive_keys_is_deterministic_and_separated():
    keys = derive_keys(b"secret", b"transcript", H)
    again = derive_keys(b"secret", b"transcript", H)
    assert keys == again
    values = {keys.client_hs, keys.server_hs, keys.fin_c, keys.fin_s}
    assert len(values) == 4

    other_secret = derive_keys(b"secre7", b"transcript", H)
    other_transcript = derive_keys(b"secret", b"transcripT", H)
    assert other_secret != keys
    assert other_transcript != keys


def test_derive_keys_rejects_empty_secret():
    with pytest.raises(ValueError):
        derive_keys(b"", b"transcript", H)


def test_identity_verifies_and_tamper_fails():
    sig = builtin_sigs(H)["wots"]
    ident = make_identity(sig, "server", Random(11))
    assert verify_certificate(ident.certificate, sig)

    forged = Certificate(
        "server-imposter",
        ident.certificate.sig_scheme,
        ident.certificate.subject_public_key,
        ident.certificate.issuer_signature,
    )
    assert not verify_certificate(forged, sig)


def counted_keypair_sig(name="wots"):
    """A fresh SigInstance over a built-in signer whose keypair calls are counted."""
    base = builtin_sigs(H)[name]
    calls = []

    def keypair(rng):
        calls.append(name)
        return base.keypair(rng)

    return SigInstance(base.name, keypair, base.sign, base.verify), calls


def test_pinned_issuer_is_reproducible():
    # two independently built instances are distinct memo keys, so the
    # second derivation is recomputed, not served from the cache
    sig, other_build = builtin_sigs(H)["wots"], builtin_sigs(H)["wots"]
    assert sig != other_build
    assert pinned_issuer(sig) == pinned_issuer(other_build)
    other = builtin_sigs(H)["lamport"]
    assert pinned_issuer(sig) != pinned_issuer(other)


def test_pinned_issuer_is_derived_once_per_instance():
    sig, calls = counted_keypair_sig()
    cfg = SuiteConfig(builtin_kems(H)["lwe-toy"], sig, H, "lwe-wots")
    for done in range(1, 6):
        t = run_handshake(cfg, cfg, rng=Random(done))
        assert t.client_key_digest == t.server_key_digest
        # one issuer derivation in all, plus one server keypair per handshake
        assert len(calls) == 1 + done


def test_pinned_issuer_agrees_across_threads():
    sig, calls = counted_keypair_sig()
    results = [None] * 8
    barrier = threading.Barrier(len(results))

    def worker(i):
        barrier.wait(timeout=30)
        results[i] = pinned_issuer(sig)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(results))]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(old_interval)
    assert results[0] is not None
    assert all(r == results[0] for r in results)
    assert results[0] == pinned_issuer(builtin_sigs(H)["wots"])
    assert 1 <= len(calls) <= len(results)


def test_certificate_signing_bytes_exclude_issuer_signature():
    a = Certificate("s", "scheme", b"key", b"sig one")
    b = Certificate("s", "scheme", b"key", b"sig two")
    assert certificate_signing_bytes(a) == certificate_signing_bytes(b)


# --- transport ---


def test_memory_endpoint_close_unblocks_reader():
    client, server = memory_pair()
    server.send(b"abc")
    server.close()
    assert client.recv_exact(3) == b"abc"
    with pytest.raises(ConnectionClosed):
        client.recv_exact(1)
    # EOF is sticky
    with pytest.raises(ConnectionClosed):
        client.recv_exact(1)
    client.close()


def test_memory_endpoint_counts_bytes():
    client, server = memory_pair()
    client.send(b"12345")
    assert client.bytes_sent == 5
    assert server.recv_exact(2) == b"12"
    assert server.recv_exact(3) == b"345"
    assert server.bytes_received == 5
    client.close()
    server.close()


def test_memory_pair_send_after_peer_closed_raises_connection_closed():
    client, server = memory_pair()
    client.close()
    with pytest.raises(ConnectionClosed) as info:
        server.send(b"late")
    assert isinstance(info.value.__cause__, OSError)
    assert server.bytes_sent == 0
    server.close()


def test_silent_peer_raises_peer_timeout(monkeypatch):
    monkeypatch.setattr(tlssim, "READ_DEADLINE_S", 0.05)
    client, server = memory_pair()
    with pytest.raises(PeerTimeout) as info:
        client.recv_exact(1)
    assert isinstance(info.value, ConnectionClosed)
    assert isinstance(info.value.__cause__, TimeoutError)
    client.close()
    server.close()


# --- happy path ---


def test_handshake_agrees_on_keys():
    t = run_handshake(small_suite(), small_suite(), rng=Random(7))
    assert t.client_key_digest == t.server_key_digest
    assert [name for name, _ in t.messages] == list(MESSAGE_ORDER)
    assert t.client_read_bytes == sum(
        size for name, size in t.messages if name not in ("ClientHello", "FinishedClient")
    )
    assert t.client_write_bytes == sum(
        size for name, size in t.messages if name in ("ClientHello", "FinishedClient")
    )


def test_handshake_is_deterministic_under_seed():
    a = run_handshake(small_suite(), small_suite(), rng=Random(42))
    b = run_handshake(small_suite(), small_suite(), rng=Random(42))
    assert a.client_key_digest == b.client_key_digest
    assert a.messages == b.messages


# the golden values were pinned under pqh, the reference hash, and stay
# pinned to it whatever the default; "toy-default" pins the default hash
def golden_suites():
    kems = builtin_kems(PQH)
    sigs = builtin_sigs(PQH)
    return {
        "toy": SuiteConfig(kems["lwe-toy"], sigs["wots"], PQH, "toy"),
        "Kyber-768": next(c for c in registry_kem_suites(h=PQH) if c.label == "Kyber-768"),
        "mceliece-mss": SuiteConfig(kems["mceliece-toy"], sigs["mss"], PQH, "mceliece-mss"),
        "toy-default": SuiteConfig(builtin_kems(H)["lwe-toy"], builtin_sigs(H)["wots"], H, "toy"),
    }


# message sizes in wire order, client read/write, client key digest under Random(0)
GOLDEN_HANDSHAKES = {
    "toy": (
        (132, 216, 5, 751, 365, 37, 37), 1374, 169,
        "35daee7367253169f596c8ad09188e9b6c494e96e9fb79e7f27a9be93a49e906",
    ),
    "Kyber-768": (
        (1210, 1110, 5, 3767, 2425, 37, 37), 7344, 1247,
        "3d68a8e19da2ed8d4f1b8a9d1471d7c878efbbe6c343f4fb8d6d7eebdb7e5603",
    ),
    "mceliece-mss": (
        (45, 53, 5, 3665, 3608, 37, 37), 7368, 82,
        "08635abf909baa450d82f9a9b515e003afc0d940bb7a634df0eb6e264b0dfbd4",
    ),
    "toy-default": (
        (132, 216, 5, 751, 365, 37, 37), 1374, 169,
        "39baf18a1bd5c0889cd02d0cc7b2ea2ac4a99607e4c347ab6968a583bf600087",
    ),
}


@pytest.mark.parametrize("label", sorted(GOLDEN_HANDSHAKES))
def test_handshake_matches_golden_values(label):
    cfg = golden_suites()[label]
    sizes, read, write, digest = GOLDEN_HANDSHAKES[label]
    t = run_handshake(cfg, cfg, rng=Random(0))
    assert t.messages == tuple(zip(MESSAGE_ORDER, sizes))
    assert (t.client_read_bytes, t.client_write_bytes) == (read, write)
    assert t.client_key_digest.hex() == digest
    assert t.server_key_digest == t.client_key_digest


def test_buffering_hash_gives_the_golden_toy_digest():
    # a hash known only by its apply streams the transcript by buffering
    h = HashFunction(PQH.name, PQH.output_bytes, PQH.apply)
    cfg = SuiteConfig(builtin_kems(h)["lwe-toy"], builtin_sigs(h)["wots"], h, "toy")
    t = run_handshake(cfg, cfg, rng=Random(0))
    assert t.client_key_digest.hex() == GOLDEN_HANDSHAKES["toy"][3]


def test_all_builtin_suites_complete():
    kems = builtin_kems(H)
    sigs = builtin_sigs(H)
    for kem_name in ("ecdh-toy", "lwe-toy", "mceliece-toy"):
        for sig_name in ("wots", "fs-dlog"):
            cfg = SuiteConfig(kems[kem_name], sigs[sig_name], H, f"{kem_name}+{sig_name}")
            t = run_handshake(cfg, cfg, rng=Random(3))
            assert t.client_key_digest == t.server_key_digest


# --- failure modes ---


def test_negotiation_failure_sends_nothing():
    transport = memory_pair()
    client_cfg = small_suite("suite-a")
    server_cfg = small_suite("suite-b")
    with pytest.raises(NegotiationFailure):
        run_handshake(client_cfg, server_cfg, transport)
    _, server_end = transport
    assert server_end.bytes_sent == 0


def test_client_rejects_unoffered_choice():
    client, server = memory_pair()
    server.send(encode_message(ServerHello("evil-suite", b"junk")))
    with pytest.raises(NegotiationFailure):
        client_handshake(small_suite(), client, Random(0))
    server.close()


def test_out_of_order_message_rejected():
    client, server = memory_pair()
    server.send(encode_message(EncryptedExtensions(b"early")))
    with pytest.raises(UnexpectedMessage):
        client_handshake(small_suite(), client, Random(0))
    server.close()


def test_foreign_server_exception_is_wrapped_with_cause(monkeypatch):
    base = builtin_sigs(H)["wots"]
    signs = []

    def sign(secret, msg):
        signs.append(msg)
        if len(signs) > 1:  # the first call is the issuer signing the certificate
            raise ValueError("sign exploded")
        return base.sign(secret, msg)

    sig = SigInstance(base.name, base.keypair, sign, base.verify)
    cfg = SuiteConfig(builtin_kems(H)["lwe-toy"], sig, H, "lwe-wots")
    hooked = []
    monkeypatch.setattr(threading, "excepthook", hooked.append)
    with pytest.raises(ServerCrashed) as excinfo:
        run_handshake(cfg, cfg, rng=Random(12))
    assert isinstance(excinfo.value, PqbenchError)
    assert isinstance(excinfo.value.__cause__, ValueError)
    assert "sign exploded" in str(excinfo.value)
    assert hooked == []


def test_mceliece_key_share_with_t_beyond_n_is_malformed(monkeypatch):
    def oversize_t(data):
        if data[0] != 1:
            return data
        hello = decode_message(data)
        forged = hello.kem_public[:8] + u32(8) + hello.kem_public[12:]  # n is 7
        return encode_message(ClientHello(hello.offered_suites, forged))

    cfg = SuiteConfig(builtin_kems(H)["mceliece-toy"], builtin_sigs(H)["wots"], H, "mceliece-wots")
    hooked = []
    monkeypatch.setattr(threading, "excepthook", hooked.append)
    with pytest.raises(MalformedFrame):
        run_handshake(cfg, cfg, memory_pair(client_send_hook=oversize_t), rng=Random(4))
    assert hooked == []


def flip_last_byte_of(tag):
    def hook(data):
        if data and data[0] == tag:
            return data[:-1] + bytes([data[-1] ^ 0x01])
        return data
    return hook


def test_tampered_certificate_verify_rejected():
    transport = memory_pair(server_send_hook=flip_last_byte_of(5))
    with pytest.raises(CertVerifyFailure):
        run_handshake(small_suite(), small_suite(), transport, rng=Random(9))


def test_tampered_certificate_rejected():
    transport = memory_pair(server_send_hook=flip_last_byte_of(4))
    with pytest.raises(CertVerifyFailure):
        run_handshake(small_suite(), small_suite(), transport, rng=Random(9))


def test_tampered_server_finished_rejected():
    transport = memory_pair(server_send_hook=flip_last_byte_of(6))
    with pytest.raises(MacMismatch):
        run_handshake(small_suite(), small_suite(), transport, rng=Random(9))


def test_tampered_client_finished_rejected_by_server():
    transport = memory_pair(client_send_hook=flip_last_byte_of(7))
    with pytest.raises(MacMismatch):
        run_handshake(small_suite(), small_suite(), transport, rng=Random(9))


def assert_ends_in_pqbench_error(handshake):
    """Run handshake on a helper thread: within 10 s it must raise a
    PqbenchError, and neither complete nor raise anything else."""
    outcome = {}

    def attempt():
        try:
            handshake()
        except Exception as e:
            outcome["error"] = e

    helper = threading.Thread(target=attempt, daemon=True)
    helper.start()
    helper.join(timeout=10)
    assert not helper.is_alive(), "handshake still running after 10 s"
    assert isinstance(outcome.get("error"), PqbenchError), outcome


@pytest.mark.parametrize("index", range(1, 5))
@pytest.mark.parametrize("bit", (0, 7))
def test_corrupted_client_hello_length_ends_in_pqbench_error(monkeypatch, index, bit):
    # a longer announced payload leaves the server waiting for bytes the
    # client never sends, and the client waiting for a ServerHello
    monkeypatch.setattr(tlssim, "READ_DEADLINE_S", 0.3)

    def flip(data):
        if data[0] != 1:
            return data
        return data[:index] + bytes([data[index] ^ (1 << bit)]) + data[index + 1:]

    assert_ends_in_pqbench_error(lambda: run_handshake(
        small_suite(), small_suite(), memory_pair(client_send_hook=flip), rng=Random(index)))


BUILTIN_SUITES = [SuiteConfig(kem, sig, H, f"{kem.name}+{sig.name}")
                  for kem in builtin_kems(H).values() for sig in builtin_sigs(H).values()]
CLIENT_TAGS = (1, 7)  # ClientHello and FinishedClient; the server sends tags 2-6


# about a quarter of the examples wait out the read deadline, hence the cap;
# the deadline is set by hand because hypothesis reruns the body without
# resetting function-scoped fixtures such as monkeypatch
@settings(max_examples=100, deadline=None)
@given(cfg=st.sampled_from(BUILTIN_SUITES), tag=st.integers(1, 7), cut=st.booleans(),
       where=st.integers(0, 2**16), delta=st.integers(1, 255))
def test_corrupted_or_cut_frame_ends_in_pqbench_error(cfg, tag, cut, where, delta):
    # one frame, picked by its tag, loses its tail or has one byte
    # (header included) replaced by a different value
    def corrupt(data):
        if data[0] != tag:
            return data
        i = where % len(data)
        if cut:
            return data[:i]
        return data[:i] + bytes([(data[i] + delta) % 256]) + data[i + 1:]

    side = "client_send_hook" if tag in CLIENT_TAGS else "server_send_hook"
    saved = tlssim.READ_DEADLINE_S
    tlssim.READ_DEADLINE_S = 0.05
    try:
        assert_ends_in_pqbench_error(lambda: run_handshake(
            cfg, cfg, memory_pair(**{side: corrupt}), rng=Random(where)))
    finally:
        tlssim.READ_DEADLINE_S = saved


# --- measurement ---


def test_measure_constant_byte_counts():
    got = measure_handshake(small_suite(), iterations=6, rng=Random(5))
    assert got.iterations == 6
    one = run_handshake(small_suite(), small_suite(), rng=Random(5))
    assert got.bytes_read == one.client_read_bytes
    assert got.bytes_written == one.client_write_bytes


def test_measure_fake_clock_gives_zero_spread():
    clock = FakeClock()
    got = measure_handshake(small_suite(), iterations=10, rng=Random(5), clock=clock)
    assert got.mean_us == 0.0
    assert got.stddev_us == 0.0


def test_measure_aborts_with_completed_count():
    calls = {"n": 0}

    def factory():
        calls["n"] += 1
        if calls["n"] >= 3:
            return memory_pair(server_send_hook=flip_last_byte_of(6))
        return memory_pair()

    with pytest.raises(MeasureAborted) as info:
        measure_handshake(small_suite(), factory, iterations=10, rng=Random(5))
    assert info.value.completed == 2
    assert isinstance(info.value.cause, MacMismatch)


def test_wall_time_excludes_server_identity():
    clock = FakeClock()
    base_kem, base_sig = builtin_kems(H)["lwe-toy"], builtin_sigs(H)["wots"]

    def sig_keypair(rng):  # issuer and server keypairs: identity work
        clock.advance_ns(7_000_000)
        return base_sig.keypair(rng)

    def kem_keypair(rng):  # the client's key share: handshake work
        clock.advance_ns(2_000_000)
        return base_kem.keypair(rng)

    sig = SigInstance(base_sig.name, sig_keypair, base_sig.sign, base_sig.verify)
    kem = KemInstance(base_kem.name, kem_keypair, base_kem.encaps, base_kem.decaps)
    cfg = SuiteConfig(kem, sig, H, "lwe-wots")
    t = run_handshake(cfg, cfg, rng=Random(3), clock=clock)
    assert t.client_key_digest == t.server_key_digest
    assert clock() == 2 * 7_000_000 + 2_000_000
    assert t.wall_time_us == 2_000.0


def test_measure_rejects_zero_iterations():
    with pytest.raises(ValueError):
        measure_handshake(small_suite(), iterations=0)


# --- stub suites and byte accounting ---


def test_zero_size_stub_suite_completes():
    cfg = stub_suite("zero", 0, 0, sig_public_bytes=0, signature_bytes=0)
    t = run_handshake(cfg, cfg, rng=Random(0))
    assert t.client_key_digest == t.server_key_digest


def test_byte_totals_are_linear_in_wire_sizes():
    base = stub_suite("AAAA", 0, 0, sig_public_bytes=0, signature_bytes=0)
    _, _, base_total = handshake_total_bytes(base)
    for pk, ct, sp, sb in [(100, 200, 50, 75), (1184, 1088, 1312, 2420), (1, 0, 0, 3)]:
        cfg = stub_suite("BBBB", pk, ct, sig_public_bytes=sp, signature_bytes=sb)
        _, _, total = handshake_total_bytes(cfg)
        # pk in ClientHello, ct in ServerHello, subject key and issuer
        # signature in the certificate, one more signature in CertificateVerify
        assert total - base_total == pk + ct + sp + sb + sb


def test_registry_suites_rank_by_published_key_size():
    suites = registry_kem_suites()
    totals = {s.label: handshake_total_bytes(s)[2] for s in suites}
    ranked = sorted(totals, key=totals.get)
    assert ranked == [
        "SIKEp610",
        "SABER-KEM",
        "Kyber-768",
        "ntruhps4096821",
        "NewHope1024",
        "BIKE-1-CCA",
        "FrodoKEM-976",
    ]


def sized_like(real: SuiteConfig) -> SuiteConfig:
    """Stub suite with real's scheme names and measured wire sizes."""
    kem_public, _ = real.kem.keypair(Random(1))
    ciphertext, _ = real.kem.encaps(kem_public, Random(2))
    sig_public, sig_secret = real.sig.keypair(Random(3))
    signature = real.sig.sign(sig_secret, b"size probe")
    return SuiteConfig(
        sized_stub_kem(real.kem.name, len(kem_public), len(ciphertext)),
        sized_stub_sig(real.sig.name, len(sig_public), len(signature)),
        real.hash, real.label)


@pytest.mark.parametrize("kem_name", sorted(builtin_kems(H)))
@pytest.mark.parametrize("sig_name", sorted(builtin_sigs(H)))
def test_size_matched_stub_suite_reproduces_the_real_bytes(kem_name, sig_name):
    real = SuiteConfig(builtin_kems(H)[kem_name], builtin_sigs(H)[sig_name], H,
                       f"{kem_name}+{sig_name}")
    a = run_handshake(real, real, rng=Random(0))
    stub = sized_like(real)
    b = run_handshake(stub, stub, rng=Random(0))
    assert b.messages == a.messages
    assert (b.client_read_bytes, b.client_write_bytes) == (a.client_read_bytes, a.client_write_bytes)


def test_stub_total_moves_one_for_one_with_public_key():
    a = handshake_total_bytes(stub_suite("XX", 1000))[2]
    b = handshake_total_bytes(stub_suite("XX", 1250))[2]
    assert b - a == 250


# --- TCP transport ---


def tcp_pair():
    """(client, server) endpoints over one loopback TCP connection."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        client = socket.create_connection(listener.getsockname(), timeout=5)
        server, _ = listener.accept()
    return SocketConnection(client), SocketConnection(server)


def test_handshake_over_tcp():
    cfg = stub_suite("tcp-suite", 64)
    identity = make_identity(cfg.sig, "server", Random(5))
    client_end, server_end = tcp_pair()
    outcome = {}

    def serve():
        try:
            outcome["server"] = server_handshake(cfg, identity, server_end, Random(6))
        except PqbenchError as e:
            outcome["error"] = e

    worker = threading.Thread(target=serve)
    worker.start()
    client = client_handshake(cfg, client_end, Random(7))
    worker.join(timeout=5)
    assert "error" not in outcome
    assert client.key_digest == outcome["server"].key_digest


def test_tcp_server_sees_rejected_certificate_as_connection_closed():
    kem, sigs = builtin_kems(H)["lwe-toy"], builtin_sigs(H)
    server_cfg = SuiteConfig(kem, sigs["wots"], H, "lwe")
    client_cfg = SuiteConfig(kem, sigs["lamport"], H, "lwe")
    identity = make_identity(server_cfg.sig, "server", Random(5))
    client_end, server_end = tcp_pair()
    outcome = {}

    def serve():
        try:
            server_handshake(server_cfg, identity, server_end, Random(6))
        except Exception as e:
            outcome["error"] = e

    worker = threading.Thread(target=serve)
    worker.start()
    with pytest.raises(CertVerifyFailure):
        client_handshake(client_cfg, client_end, Random(7))
    worker.join(timeout=30)
    assert not worker.is_alive()
    assert isinstance(outcome["error"], ConnectionClosed)
    assert isinstance(outcome["error"].__cause__, OSError)

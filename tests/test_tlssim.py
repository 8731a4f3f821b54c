"""Handshake simulator tests: wire codec, key schedule, state machines,
failure modes, byte accounting, and the registry-sized stub suites."""

import ast
import dataclasses
import hashlib
import socket
import sys
import threading
import time
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from pqbench import hashsig, tlssim
from pqbench.bench import FakeClock
from pqbench.binmat import BinaryMatrix
from pqbench.codecrypt import serialize_code_matrix
from pqbench.errors import PqbenchError
from pqbench.hashing import DEFAULT_HASH, PQH, HashFunction
from pqbench.kex import (
    INFINITY,
    MAIN_CURVE,
    MAIN_GEN,
    DecapsFailure,
    KemInstance,
    Point,
    PointNotOnCurve,
    SigInstance,
    draws,
    encode_point,
)
from pqbench.serialize import U32_MAX, MalformedFrame, pack, pack_vector, u32, unpack
from pqbench.adapters import MSS_DEPTH, OTS_MSG_BITS
from pqbench.suites import builtin_kems, builtin_sigs, sized_stub_kem, sized_stub_sig
from pqbench.tlssim import (
    CERTIFICATE,
    CLIENT_HELLO,
    ENCRYPTED_EXTENSIONS,
    SERVER_HELLO,
    CertVerifyFailure,
    ConnectionClosed,
    InconsistentByteCounts,
    MacMismatch,
    MAX_FRAME_BYTES,
    MeasureAborted,
    NegotiationFailure,
    PeerTimeout,
    ServerCrashed,
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
    read_frame,
    registry_kem_suites,
    run_handshake,
    server_handshake,
    SocketConnection,
    stub_suite,
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


def random_frame(rng):
    """A random tag and fields to frame under it."""
    tag = rng.randrange(1, 8)
    blob = lambda lo, hi: rng.randbytes(rng.randrange(lo, hi))
    label = lambda: "".join(rng.choice("abcdefgh-0123456789") for _ in range(rng.randrange(1, 12)))
    if tag == CLIENT_HELLO:
        return tag, (tuple(label() for _ in range(rng.randrange(4))), blob(0, 64))
    if tag == SERVER_HELLO:
        return tag, (label(), blob(0, 64))
    if tag == CERTIFICATE:
        return tag, (label(), label(), blob(0, 48), blob(0, 48))
    return tag, (blob(0, 96),)


def test_codec_roundtrips_random_frames():
    rng = Random(0xC0DEC)
    tags = set()
    for _ in range(1000):
        tag, fields = random_frame(rng)
        tags.add(tag)
        got_tag, got = decode_message(encode_message(tag, *fields))
        assert got_tag == tag
        if tag == CERTIFICATE:
            # the four fields, then the prefix the issuer signs
            assert got[:4] == fields
            assert got[4] == certificate_signing_bytes(*fields[:3])
        else:
            # a one-field tag decodes to its payload itself
            assert got == (fields if len(fields) > 1 else fields[0])
    assert tags == set(range(1, 8))


def test_empty_encrypted_extensions_is_five_bytes():
    raw = encode_message(ENCRYPTED_EXTENSIONS, b"")
    assert len(raw) == 5
    assert raw == b"\x03\x00\x00\x00\x00"


def test_client_hello_size_arithmetic():
    raw = encode_message(CLIENT_HELLO, ("alpha", "beta-2"), b"\x01" * 33)
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


def test_perfbench_spells_each_message_as_it_is_logged():
    # perfbench reports tlssim.msg.<name>.bytes as messages.get(name, 0),
    # so a logged name it spells otherwise would read 0 B there, not fail;
    # its MESSAGES is read from source, without importing the benchmark
    spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    values = [node.value for node in ast.parse(spans.read_text()).body
              if isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "MESSAGES" for t in node.targets)]
    assert len(values) == 1
    assert ast.literal_eval(values[0]) == tuple(name for name, _, _ in tlssim._LAYOUTS.values())


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


def test_read_frame_reassembles_split_frames():
    raw = encode_message(SERVER_HELLO, "suite", b"ciphertext")
    client = SocketConnection(ChunkedSocket(raw[:3], raw[3:9], raw[9:]))
    tag, header, payload = read_frame(client)
    assert (tag, header, payload) == (2, raw[:5], raw[5:])
    assert decode_message(header + payload) == (SERVER_HELLO, ("suite", b"ciphertext"))


def socket_pair():
    """(client, server) endpoints over a local socket pair."""
    client, server = socket.socketpair()
    return SocketConnection(client), SocketConnection(server)


@pytest.mark.parametrize("close", (False, True), ids=("silent", "closed"))
def test_read_frame_names_the_frame_it_lost(monkeypatch, close):
    monkeypatch.setattr(tlssim, "READ_DEADLINE_S", 0.05)
    client, server = socket_pair()
    client.send(b"\x01" + u32(100) + bytes(10))  # a ClientHello cut short
    if close:
        client.close()
    with pytest.raises(ConnectionClosed) as info:
        read_frame(server)
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
    assert len(keys) == 4 and len(set(keys)) == 4

    other_secret = derive_keys(b"secre7", b"transcript", H)
    other_transcript = derive_keys(b"secret", b"transcripT", H)
    assert other_secret != keys
    assert other_transcript != keys


def test_derive_keys_rejects_empty_secret():
    with pytest.raises(ValueError):
        derive_keys(b"", b"transcript", H)


def certificate_of(identity):
    """The Certificate fields an identity's server sends: subject, scheme
    name, subject key and issuer signature."""
    payload = identity.certificate_payload
    _, fields = decode_message(bytes([CERTIFICATE]) + u32(len(payload)) + payload)
    return fields[:4]


def test_identity_verifies_and_tamper_fails():
    sig = builtin_sigs(H)["wots"]
    subject, scheme, key, issuer_signature = certificate_of(
        make_identity(sig, "server", Random(11)))
    issuer_public, _ = pinned_issuer(sig)
    signed = certificate_signing_bytes(subject, scheme, key)
    assert sig.verify(issuer_public, signed, issuer_signature)

    forged = certificate_signing_bytes("server-imposter", scheme, key)
    assert not sig.verify(issuer_public, forged, issuer_signature)


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
    # the signing bytes are the payload's prefix before the issuer signature
    signed = certificate_signing_bytes("s", "scheme", b"key")
    for signature in (b"sig one", b"sig two"):
        raw = encode_message(CERTIFICATE, "s", "scheme", b"key", signature)
        assert raw[5:] == signed + pack(signature)
    identity = make_identity(builtin_sigs(H)["wots"], "server", Random(11))
    subject, scheme, key, issuer_signature = certificate_of(identity)
    assert identity.certificate_payload == certificate_signing_bytes(
        subject, scheme, key) + pack(issuer_signature)


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


def test_memory_endpoint_delivers_bytes_in_order():
    client, server = memory_pair()
    client.send(b"12345")
    got = server.recv_exact(2)
    assert got == b"12" and type(got) is bytes
    assert server.recv_exact(3) == b"345"
    server.send(b"ok")
    assert client.recv_exact(2) == b"ok"
    client.close()
    server.close()


def test_memory_endpoint_short_read_ends_at_once(monkeypatch):
    # no deadline applies: an in-process read never waits for its peer
    monkeypatch.setattr(tlssim, "READ_DEADLINE_S", 3600)
    client, server = memory_pair()
    client.send(b"abc")
    started = time.monotonic()
    with pytest.raises(ConnectionClosed) as info:
        server.recv_exact(5)
    assert time.monotonic() - started < 1
    assert not isinstance(info.value, PeerTimeout)
    assert info.value.received == 3
    # the peer is still open: the bytes stay for a read they cover
    assert server.recv_exact(3) == b"abc"


def test_memory_send_after_peer_closed_raises_connection_closed():
    client, server = memory_pair()
    client.close()
    with pytest.raises(ConnectionClosed):
        server.send(b"late")
    with pytest.raises(ConnectionClosed):
        client.send(b"after own close")


def test_socket_send_after_peer_closed_raises_connection_closed():
    # alone, send is sendall; joined, it relays into the closed peer: a
    # send fails either way, whatever bytes the kernel took
    joined = tcp_pair()
    joined[0].relay_to(joined[1])
    for client, server in (socket_pair(), joined):
        client.close()
        with pytest.raises(ConnectionClosed) as info:
            server.send(b"late")
        assert isinstance(info.value.__cause__, OSError)
        server.close()


def test_silent_peer_raises_peer_timeout(monkeypatch):
    monkeypatch.setattr(tlssim, "READ_DEADLINE_S", 0.05)
    client, server = socket_pair()
    with pytest.raises(PeerTimeout) as info:
        client.recv_exact(1)
    assert isinstance(info.value, ConnectionClosed)
    assert isinstance(info.value.__cause__, TimeoutError)
    client.close()
    server.close()


def test_dripping_peer_cannot_stretch_a_read_past_the_deadline(monkeypatch):
    # alone, an end has one deadline for all its socket calls, not one per
    # recv: a peer that sends a payload byte every 0.05 s keeps each recv
    # short, but the read still ends once 0.2 s have passed
    monkeypatch.setattr(tlssim, "READ_DEADLINE_S", 0.2)
    peer, sock = socket.socketpair()
    server = SocketConnection(sock)
    stop = threading.Event()

    def drip():
        for _ in range(43):
            if stop.wait(0.05):
                return
            peer.sendall(b"\0")

    peer.sendall(b"\x01" + u32(43))  # a 48-byte ClientHello frame's header
    dripper = threading.Thread(target=drip)
    dripper.start()
    started = time.monotonic()
    try:
        with pytest.raises(PeerTimeout) as info:
            read_frame(server)
        assert time.monotonic() - started < 1
    finally:
        stop.set()
        dripper.join(1)
        server.close()
        peer.close()
    assert not dripper.is_alive()
    assert "ClientHello frame announced 43 payload bytes" in str(info.value)
    assert "bytes read" in str(info.value)


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
        "696c3ede9d84ccb6d8df7f723957328c500b95ab7f898414e6ead518aa94115d",
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


@pytest.mark.parametrize("label", sorted(GOLDEN_HANDSHAKES))
def test_both_drivers_give_the_same_handshake(label):
    # both drivers run the two sides in lockstep on this thread: in-process
    # endpoints pass bytes in memory, TCP endpoints relay each send through
    # the kernel
    cfg = golden_suites()[label]
    lockstep = run_handshake(cfg, cfg, rng=Random(0))
    relayed = run_handshake(cfg, cfg, tcp_pair(), rng=Random(0))
    assert dataclasses.replace(relayed, wall_time_us=0) == \
        dataclasses.replace(lockstep, wall_time_us=0)
    assert lockstep.client_key_digest.hex() == GOLDEN_HANDSHAKES[label][3]


# the eight tcp-light-suites suites under the default hash: message sizes
# in wire order, client read/write and client key digest under Random(0),
# then one SHA-256 over the client key digests under Random(1) .. Random(20);
# pinned so faster toy schemes must give the same keys, signatures and
# ciphertexts
TCP_LIGHT_HANDSHAKES = {
    "ecdh-toy+uov": (
        (38, 34, 5, 95, 11, 37, 37), 182, 75,
        "9a61b29ac5aca877d2668b1bcbfec0b480d7a51184f744368fb498a68780da7f",
        "f707b61a294dc2a67ccce1e5d6a75fcfa17317308384a62bb3a7348bf5dfb417",
    ),
    "lwe-toy+uov": (
        (140, 224, 5, 95, 11, 37, 37), 372, 177,
        "7333d82a8fabf565de609ed227677ef63430dafbed9ec9692b2aa7a742ac9862",
        "3982be3692c9e11f4a37f0ede4012102b659fb697b1d83a40d3b4301b3579aed",
    ),
    "mceliece-toy+uov": (
        (49, 57, 5, 95, 11, 37, 37), 205, 86,
        "14bd317abf0e235c08143ce905be6c3c413d9d29f5c8845de5e657b5f6beba0a",
        "0f818df8cc8e3c07bdb8f7e9dfa58af10b0ca681eb6ea23bdacb75d2b9d0ab9b",
    ),
    "stub-kem+uov": (
        (29, 29, 5, 95, 11, 37, 37), 177, 66,
        "adbc392a35e8df4b6d7979d471c62cf8caaa94326c9d2df4a11b38101043336c",
        "a2963e30880fed5bd31d11e199090b65070b196215de61ecb7cecbd7eb705630",
    ),
    "ecdh-toy+fs-dlog": (
        (42, 38, 5, 66, 29, 37, 37), 175, 79,
        "86863f13f103a24b55900dc6b4a18c3e8b8934dc768391cbf1422cc7ae8fa809",
        "cc55ebb5b1c8af94eb1e607f9a2a66ff0628a7ea4bb474bf52ed25830797c66b",
    ),
    "lwe-toy+fs-dlog": (
        (144, 228, 5, 66, 29, 37, 37), 365, 181,
        "628ff162d780bed8a6f6e0c2b8def9a99965ee9509dd4b0503fbd096d9d0134e",
        "0129028a478d6156333e63836f5aaeb3d4ff56c47c418bf175eea4fa6b1fab34",
    ),
    "mceliece-toy+fs-dlog": (
        (53, 61, 5, 66, 29, 37, 37), 198, 90,
        "722b1d1a048a6f6b27c304567e357fd758d6c2e23674b44ddc308b5e67d8368e",
        "7847f5ad9afc952b5bb34764d9fe4deda6d18a9ec2bfb3e32267033053e7dcba",
    ),
    "stub-kem+fs-dlog": (
        (33, 33, 5, 66, 29, 37, 37), 170, 70,
        "04b6d55f00f8ad05885270ba495c19466a0fedfd128e8ca10d41a0b68b6038b5",
        "8f4e1041acc20a6d3e36d0a8e7a5a08dbff3f6f43036b22937875c756abcdb08",
    ),
}


@pytest.mark.parametrize("label", sorted(TCP_LIGHT_HANDSHAKES))
def test_tcp_light_suites_match_pinned_handshakes(label):
    kem_name, sig_name = label.split("+")
    cfg = SuiteConfig(builtin_kems(H)[kem_name], builtin_sigs(H)[sig_name], H, label)
    sizes, read, write, digest, seeded = TCP_LIGHT_HANDSHAKES[label]
    for transport in (None, tcp_pair()):
        t = run_handshake(cfg, cfg, transport, rng=Random(0))
        assert t.messages == tuple(zip(MESSAGE_ORDER, sizes))
        assert (t.client_read_bytes, t.client_write_bytes) == (read, write)
        assert t.client_key_digest.hex() == digest
        assert t.server_key_digest == t.client_key_digest
    keys = hashlib.sha256()
    for seed in range(1, 21):
        t = run_handshake(cfg, cfg, rng=Random(seed))
        assert t.server_key_digest == t.client_key_digest
        keys.update(t.client_key_digest)
    assert keys.hexdigest() == seeded


# the seven registry stub suites under Random(0): message sizes in wire
# order and client read/write, the same under the default hash and pqh;
# pinned so a change to the stub filler's content keeps every wire size
REGISTRY_HANDSHAKES = {
    "BIKE-1-CCA": ((6232, 1111, 5, 3767, 2425, 37, 37), 7345, 6269),
    "FrodoKEM-976": ((15661, 1113, 5, 3767, 2425, 37, 37), 7347, 15698),
    "Kyber-768": ((1210, 1110, 5, 3767, 2425, 37, 37), 7344, 1247),
    "NewHope1024": ((1852, 1112, 5, 3767, 2425, 37, 37), 7346, 1889),
    "ntruhps4096821": ((1261, 1115, 5, 3767, 2425, 37, 37), 7349, 1298),
    "SABER-KEM": ((1018, 1110, 5, 3767, 2425, 37, 37), 7344, 1055),
    "SIKEp610": ((487, 1109, 5, 3767, 2425, 37, 37), 7343, 524),
}


@pytest.mark.parametrize("h", (DEFAULT_HASH, PQH), ids=lambda h: h.name)
def test_registry_suites_match_pinned_handshakes(h):
    suites = registry_kem_suites(h=h)
    assert sorted(cfg.label for cfg in suites) == sorted(REGISTRY_HANDSHAKES)
    for cfg in suites:
        sizes, read, write = REGISTRY_HANDSHAKES[cfg.label]
        t = run_handshake(cfg, cfg, rng=Random(0))
        assert t.messages == tuple(zip(MESSAGE_ORDER, sizes)), cfg.label
        assert (t.client_read_bytes, t.client_write_bytes) == (read, write), cfg.label
        assert t.server_key_digest == t.client_key_digest


# Python-level calls (sys.setprofile "call" events, generator resumptions
# included) of one in-memory handshake under Random(0), after a warm-up
# handshake has filled every cache; like HASH_CALLS they do not depend on
# the host, so protocol work that creeps back onto the floor shows without
# a timing run.  The codec that built a dataclass per message, framed it
# through pack and read it back through read_message made 293 and 255.
HANDSHAKE_CALLS = {"stub-kem+fs-dlog": 198, "Kyber-768": 158, "stub-kem+wots": 219}


@pytest.mark.parametrize("label", sorted(HANDSHAKE_CALLS))
def test_handshake_makes_at_most_its_pinned_python_calls(label):
    if label == "Kyber-768":
        cfg = next(c for c in registry_kem_suites() if c.label == label)
    else:
        kem, sig = label.split("+")
        cfg = SuiteConfig(builtin_kems(H)[kem], builtin_sigs(H)[sig], H, label)
    run_handshake(cfg, cfg, rng=Random(0))
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        t = run_handshake(cfg, cfg, rng=Random(0))
    finally:
        sys.setprofile(None)
    assert t.client_key_digest == t.server_key_digest
    assert len(calls) <= HANDSHAKE_CALLS[label], calls


def test_in_process_handshake_starts_no_thread_and_opens_no_socket(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an in-process handshake needs no thread or socket")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    monkeypatch.setattr(socket, "socket", refuse)
    monkeypatch.setattr(socket, "socketpair", refuse)
    t = run_handshake(small_suite(), small_suite(), rng=Random(7))
    assert t.client_key_digest == t.server_key_digest


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
    sent = []
    transport = memory_pair(None, lambda data: sent.append(data) or data)
    client_cfg = small_suite("suite-a")
    server_cfg = small_suite("suite-b")
    with pytest.raises(NegotiationFailure):
        run_handshake(client_cfg, server_cfg, transport)
    assert sent == []


def test_client_rejects_unoffered_choice():
    client, server = memory_pair()
    server.send(encode_message(SERVER_HELLO, "evil-suite", b"junk"))
    with pytest.raises(NegotiationFailure):
        client_handshake(small_suite(), client, Random(0))
    server.close()


def test_out_of_order_message_rejected():
    client, server = memory_pair()
    server.send(encode_message(ENCRYPTED_EXTENSIONS, b"early"))
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


def test_foreign_identity_exception_is_wrapped_with_cause():
    base = builtin_sigs(H)["wots"]
    keypairs = []

    def keypair(rng):
        keypairs.append(rng)
        if len(keypairs) > 1:  # the first call is pinned_issuer's, cached from then on
            raise ValueError("keypair exploded")
        return base.keypair(rng)

    sig = SigInstance(base.name, keypair, base.sign, base.verify)
    cfg = SuiteConfig(builtin_kems(H)["lwe-toy"], sig, H, "lwe-wots")
    transport = memory_pair()
    with pytest.raises(ServerCrashed, match="^server raised ValueError: keypair exploded$") as info:
        run_handshake(cfg, cfg, transport, rng=Random(12))
    assert isinstance(info.value.__cause__, ValueError)
    assert all(end.closed for end in transport)
    with pytest.raises(MeasureAborted) as info:
        measure_handshake(cfg, iterations=3, rng=Random(12))
    assert info.value.completed == 0
    assert isinstance(info.value.cause, ServerCrashed)
    assert isinstance(info.value.cause.__cause__, ValueError)


def test_mceliece_key_share_with_t_beyond_n_is_malformed(monkeypatch):
    def oversize_t(data):
        if data[0] != CLIENT_HELLO:
            return data
        _, (offered, kem_public) = decode_message(data)
        forged = kem_public[:8] + u32(8) + kem_public[12:]  # n is 7
        return encode_message(CLIENT_HELLO, offered, forged)

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
    PqbenchError, and neither complete nor raise anything else.  Returns
    the error."""
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
    return outcome["error"]


@pytest.mark.parametrize("index", range(1, 5))
@pytest.mark.parametrize("bit", (0, 7))
def test_corrupted_client_hello_length_ends_in_pqbench_error(index, bit):
    # a longer announced payload asks the server for bytes the client
    # never sends; in process that ends at once, with no deadline to wait out
    def flip(data):
        if data[0] != 1:
            return data
        return data[:index] + bytes([data[index] ^ (1 << bit)]) + data[index + 1:]

    assert_ends_in_pqbench_error(lambda: run_handshake(
        small_suite(), small_suite(), memory_pair(client_send_hook=flip), rng=Random(index)))


def test_longer_client_hello_length_ends_without_waiting(monkeypatch):
    # no deadline comes into it: the in-process server sees at once that
    # the client has nothing more to send
    monkeypatch.setattr(tlssim, "READ_DEADLINE_S", 3600)
    cfg = golden_suites()["toy-default"]  # lwe-toy+wots, labelled "toy"

    def flip(data):  # the low bit of length byte 3 adds 256 to the announced length
        return data[:3] + bytes([data[3] ^ 1]) + data[4:] if data[0] == 1 else data

    error = assert_ends_in_pqbench_error(lambda: run_handshake(
        cfg, cfg, memory_pair(client_send_hook=flip), rng=Random(0)))
    assert type(error) is ConnectionClosed
    assert "ClientHello frame announced 383 payload bytes, 127 arrived" in str(error)


BUILTIN_SUITES = [SuiteConfig(kem, sig, H, f"{kem.name}+{sig.name}")
                  for kem in builtin_kems(H).values() for sig in builtin_sigs(H).values()]
CLIENT_TAGS = (1, 7)  # ClientHello and FinishedClient; the server sends tags 2-6


# in process no example waits out the read deadline, whatever the corruption
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
    assert_ends_in_pqbench_error(lambda: run_handshake(
        cfg, cfg, memory_pair(**{side: corrupt}), rng=Random(where)))


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


def tcp_pair(buffer_bytes=None, client_send_hook=None):
    """(client, server) endpoints over one loopback TCP connection, with
    SO_SNDBUF and SO_RCVBUF set to buffer_bytes on both sockets if given."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        client = socket.socket()
        if buffer_bytes is not None:
            for sock in (listener, client):  # an accepted socket inherits the listener's
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, buffer_bytes)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, buffer_bytes)
        client.settimeout(5)
        client.connect(listener.getsockname())
        server, _ = listener.accept()
    return SocketConnection(client, client_send_hook), SocketConnection(server)


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


# --- TCP in lockstep: each send relayed through the socket pair ---


def test_relay_carries_a_flight_larger_than_the_socket_buffers():
    # a 1 MB ClientHello through 64 KiB buffers: no flight can fill them
    cfg = stub_suite("big-key", 1_000_000)
    in_memory = run_handshake(cfg, cfg, rng=Random(0))
    client_end, server_end = tcp_pair(buffer_bytes=64 * 1024)
    t = run_handshake(cfg, cfg, (client_end, server_end), rng=Random(0))
    assert dataclasses.replace(t, wall_time_us=0) == \
        dataclasses.replace(in_memory, wall_time_us=0)


def test_tcp_handshake_starts_no_thread(monkeypatch):
    transport = tcp_pair()

    def refuse(*args, **kwargs):
        raise AssertionError("a handshake over a socket pair needs no thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    t = run_handshake(small_suite(), small_suite(), transport, rng=Random(7))
    assert t.client_key_digest == t.server_key_digest


def test_longer_client_hello_length_over_tcp_ends_without_waiting():
    # the relayed bytes cannot cover the announced length, so the server's
    # read ends at once instead of waiting out the read deadline
    cfg = golden_suites()["toy-default"]

    def flip(data):  # the low bit of length byte 3 adds 256 to the announced length
        return data[:3] + bytes([data[3] ^ 1]) + data[4:] if data[0] == 1 else data

    started = time.monotonic()
    with pytest.raises(ConnectionClosed) as info:
        run_handshake(cfg, cfg, tcp_pair(client_send_hook=flip), rng=Random(0))
    assert time.monotonic() - started < tlssim.READ_DEADLINE_S / 5
    assert type(info.value) is ConnectionClosed
    assert "ClientHello frame announced 383 payload bytes, 127 arrived" in str(info.value)


def test_failing_tcp_handshake_closes_both_sockets():
    kem, sigs = builtin_kems(H)["lwe-toy"], builtin_sigs(H)
    server_cfg = SuiteConfig(kem, sigs["wots"], H, "lwe")
    client_cfg = SuiteConfig(kem, sigs["lamport"], H, "lwe")
    transport = tcp_pair()
    with pytest.raises(CertVerifyFailure):
        run_handshake(client_cfg, server_cfg, transport, rng=Random(3))
    assert [end._sock.fileno() for end in transport] == [-1, -1]


def test_relay_to_a_closed_socket_raises_connection_closed():
    transport = tcp_pair()
    transport[1].close()
    with pytest.raises(ConnectionClosed):
        run_handshake(small_suite(), small_suite(), transport, rng=Random(3))
    assert [end._sock.fileno() for end in transport] == [-1, -1]


def test_relay_that_hears_nothing_raises_peer_timeout(monkeypatch):
    # each end's peer listens on another connection: the relay's read
    # gives up after READ_DEADLINE_S
    monkeypatch.setattr(tlssim, "READ_DEADLINE_S", 0.05)
    client_end, stray_server = socket_pair()
    stray_client, server_end = socket_pair()
    client_end.relay_to(server_end)
    with pytest.raises(PeerTimeout):
        client_end.send(b"hello")
    # a handshake over such a pair ends, and closes both ends
    with pytest.raises(ConnectionClosed):
        run_handshake(small_suite(), small_suite(), (client_end, server_end), rng=Random(1))
    assert [end._sock.fileno() for end in (client_end, server_end)] == [-1, -1]
    stray_server.close()
    stray_client.close()


# --- the work a peer's bytes can cost ---
#
# every parser a peer's bytes reach, fed the widest header values it
# admits.  Each case builds its call under a hash that counts the states
# it makes, and the call must raise the named PqbenchError or return the
# value given, within a budget of kex.draws calls and hash calls made by
# the call itself.  A signature scheme's verify reads a refusal as False.
# A budget of no draws also leaves the generator untouched, so a refusal
# costs no randrange either.


def _kems(h):
    return {**builtin_kems(h), "sized-stub": sized_stub_kem("sized-stub", 1184, 1088, h)}


def _sigs(h):
    return {**builtin_sigs(h), "stub-sig": sized_stub_sig("stub-sig", 1312, 2420, h)}


def _parsed(parse, data):
    return lambda h: lambda rng: parse(data)


def _encaps(name, public):
    def build(h):
        kem = _kems(h)[name]
        return lambda rng: kem.encaps(public, rng)
    return build


def _decaps(name, ciphertext):
    def build(h):
        kem = _kems(h)[name]
        _, secret = kem.keypair(Random(1))
        return lambda rng: kem.decaps(secret, ciphertext)
    return build


def _verify(name, forge):
    """verify of forge(public, message, signature), from an honest key
    and signature of the named scheme."""
    def build(h):
        sig = _sigs(h)[name]
        public, secret = sig.keypair(Random(1))
        forged = forge(public, b"m", sig.sign(secret, b"m"))
        return lambda rng: sig.verify(*forged)
    return build


def _frame_over_cap(h):
    sock = ChunkedSocket(b"\x02" + u32(MAX_FRAME_BYTES + 1) + b"payload")

    def run(rng):
        try:
            read_frame(SocketConnection(sock))
        finally:
            assert sock.asked == [5]  # the payload is never read

    return run


def _mss_bundle_of_4096_wide_lists(h):
    # the library path, not only the suites adapter: a bundle is parsed at
    # the shape the verifier asks for, so a 4,096-entry bundle never
    # reaches mss_verify
    sig = builtin_sigs(h)["mss"]
    pk, sk = sig.keypair(Random(59))
    fields = unpack(sig.sign(sk, b"m"), 7)
    fields[1:4] = (pack(*[bytes(32)] * 4096),) * 3

    def run(rng):
        bundle = hashsig.deserialize_mss_signature(pack(*fields), OTS_MSG_BITS, MSS_DEPTH)
        hashsig.mss_verify(pk, b"m", bundle, h)

    return run


def _wider(vector):
    """A pack_vector of 32-byte elements, each element one byte wider."""
    return pack_vector([vector[i + 4:i + 36] + b"\0" for i in range(0, len(vector), 36)], 33)


def _deeper_proof(public, msg, signature):
    fields = unpack(signature, 7)
    fields[5:7] = pack(*[bytes(32)] * 4), bytes(4)
    return public, msg, pack(*fields)


def _wider_response(public, msg, signature):
    commitment, response = unpack(signature, 2)
    return public, msg, pack(commitment, b"\0" + response)


_FAR = Point(MAIN_GEN.x, MAIN_GEN.y + (U32_MAX - MAIN_GEN.y) // MAIN_CURVE.q * MAIN_CURVE.q)
_NOT_CANONICAL = rf"\({_FAR.x}, {_FAR.y}\) is not a point .* in \[0, {MAIN_CURVE.q}\)"
_HELLO = encode_message(CLIENT_HELLO, ("toy",), b"key")  # its suite count in bytes 5 to 9
_UOV_64 = bytes([31, 64, 64]) + bytes(64 * (1 + 64 + 64 * 65 // 2))  # q = 31, n = m = 64

# case: (build(h) -> call(rng), the error and message or the value, (draws, hashes))
PEER_INPUTS = {
    # the frame header and each message's own fields
    "frame-over-cap": (
        _frame_over_cap, (MalformedFrame, "16777217 payload bytes, cap is 16777216"), (0, 0)),
    "frame-of-2^32-1-bytes": (
        _parsed(lambda raw: read_frame(SocketConnection(ChunkedSocket(raw))),
                b"\x02" + u32(U32_MAX)),
        (MalformedFrame, "4294967295 payload bytes, cap"), (0, 0)),
    "client-hello-of-2^32-1-suites": (
        _parsed(decode_message, _HELLO[:5] + u32(U32_MAX) + _HELLO[9:]),
        (MalformedFrame, "expected 4294967296 chunks, found 2"), (0, 0)),
    "server-hello-label-not-utf8": (
        _parsed(decode_message,
                encode_message(SERVER_HELLO, "ok", b"ct").replace(b"ok", b"\xff\xfe")),
        (MalformedFrame, "label is not valid utf-8"), (0, 0)),
    "certificate-subject-not-utf8": (
        _parsed(decode_message, encode_message(
            CERTIFICATE, "ok", "wots", b"key", b"sig").replace(b"ok", b"\xff\xfe")),
        (MalformedFrame, "label is not valid utf-8"), (0, 0)),
    # each KEM's public key, read by the server's encaps
    "ecdh-toy-key-off-curve": (
        _encaps("ecdh-toy", encode_point(Point(1, 1))),
        (PointNotOnCurve, r"\(1, 1\) is not a point"), (0, 0)),
    "ecdh-toy-key-not-canonical": (
        _encaps("ecdh-toy", encode_point(_FAR)), (PointNotOnCurve, _NOT_CANONICAL), (0, 0)),
    "lwe-toy-key-of-7-samples": (
        _encaps("lwe-toy", pack(*[bytes(10)] * 7)),
        (MalformedFrame, "expected 8 chunks, found 7"), (0, 0)),
    "lwe-toy-key-chunk-of-2^32-1-bytes": (
        _encaps("lwe-toy", u32(U32_MAX) + bytes(10)),
        (MalformedFrame, "chunk claims 4294967295 bytes, 10 remain"), (0, 0)),
    "lwe-toy-key-value-65535": (
        _encaps("lwe-toy", pack(*[b"\xff" * 10] * 8)),
        (MalformedFrame, "LWE sample value 65535 is not below q=521"), (0, 0)),
    "mceliece-toy-key-n-2500-k-1-t-n": (
        _encaps("mceliece-toy", serialize_code_matrix(BinaryMatrix(1, 2500, [1]), 2500)),
        (MalformedFrame, "mceliece-toy public key has n=2500, expected 7"), (0, 0)),
    "mceliece-toy-key-of-2^32-1-columns": (
        _encaps("mceliece-toy", u32(U32_MAX) + u32(1) + u32(0)),
        (MalformedFrame, "expected 536870924 bytes, got 12"), (0, 0)),
    "stub-kem-key-of-any-size": (
        _encaps("stub-kem", bytes(1 << 16)), None, (1, 1)),
    "sized-stub-key-of-another-size": (
        _encaps("sized-stub", bytes(1185)),
        (DecapsFailure, "sized-stub: unexpected public key size 1185"), (0, 0)),
    # each KEM's ciphertext, read by the client's decaps
    "ecdh-toy-ciphertext-off-curve": (
        _decaps("ecdh-toy", encode_point(Point(1, 1))),
        (PointNotOnCurve, r"\(1, 1\) is not a point"), (0, 0)),
    "ecdh-toy-ciphertext-not-canonical": (
        _decaps("ecdh-toy", encode_point(_FAR)), (PointNotOnCurve, _NOT_CANONICAL), (0, 0)),
    "ecdh-toy-ciphertext-identity": (
        _decaps("ecdh-toy", encode_point(INFINITY)),
        (DecapsFailure, "shared point is the identity"), (0, 0)),
    "lwe-toy-ciphertext-value-1023": (
        _decaps("lwe-toy", b"\xff" * 200),
        (DecapsFailure, "LWE ciphertext value 1023 is not below q=521"), (0, 0)),
    "mceliece-toy-ciphertext-of-29-bytes": (
        _decaps("mceliece-toy", bytes(29)),
        (DecapsFailure, "mceliece-toy: ciphertext must be 28 bytes"), (0, 0)),
    "stub-kem-ciphertext-of-5-bytes": (
        _decaps("stub-kem", bytes(5)), (DecapsFailure, "stub-kem: ciphertext must be 4 bytes"),
        (0, 0)),
    "sized-stub-ciphertext-of-another-size": (
        _decaps("sized-stub", bytes(1089)),
        (DecapsFailure, "sized-stub: unexpected ciphertext size 1089"), (0, 0)),
    # each signature scheme's public key and signature, read by verify
    "lamport-key-of-33-byte-elements": (
        _verify("lamport", lambda pk, m, sig: (pack(*map(_wider, unpack(pk, 2))), m, sig)),
        False, (0, 0)),
    "lamport-signature-of-33-byte-elements": (
        _verify("lamport", lambda pk, m, sig: (pk, m, _wider(sig))), False, (0, 0)),
    "wots-key-of-33-byte-elements": (
        _verify("wots", lambda pk, m, sig: (_wider(pk), m, sig)), False, (0, 0)),
    "wots-signature-of-33-byte-elements": (
        _verify("wots", lambda pk, m, sig: (pk, m, _wider(sig))), False, (0, 0)),
    "fs-dlog-key-of-9-bytes": (
        _verify("fs-dlog", lambda pk, m, sig: (b"\0" + pk, m, sig)), False, (0, 0)),
    "fs-dlog-signature-of-9-byte-response": (
        _verify("fs-dlog", _wider_response), False, (0, 0)),
    "mss-proof-of-depth-4": (_verify("mss", _deeper_proof), False, (0, 0)),
    "mss-bundle-of-4096-wide-lists": (
        _mss_bundle_of_4096_wide_lists,
        (hashsig.InvalidBundle, "expected 32 elements, found 4096"), (0, 0)),
    "uov-key-q-31-n-64-m-64": (
        _verify("uov", lambda pk, m, sig: (_UOV_64, m, bytes(64))), False, (0, 4)),
    "uov-key-header-n-255-m-255": (
        _verify("uov", lambda pk, m, sig: (bytes([31, 255, 255]), m, bytes(255))), False, (0, 0)),
    "stub-sig-signature-of-another-size": (
        _verify("stub-sig", lambda pk, m, sig: (pk, m, sig + b"\0")), False, (0, 0)),
}


@pytest.mark.parametrize("case", sorted(PEER_INPUTS))
def test_peer_input_is_refused_or_completes_within_its_budget(monkeypatch, case):
    build, expected, (draw_budget, hash_budget) = PEER_INPUTS[case]
    states = []
    call = build(HashFunction(H.name, H.output_bytes, H.apply,
                              lambda: states.append(1) or H.new()))
    made = []
    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("pqbench.") and vars(mod).get("draws") is draws:
            monkeypatch.setattr(mod, "draws", lambda *args: made.append(args) or draws(*args))
    states.clear()
    rng = Random(0)
    before = rng.getstate()
    if isinstance(expected, tuple):
        with pytest.raises(expected[0], match=expected[1]):
            call(rng)
    else:
        result = call(rng)
        assert expected is None or result == expected
    assert len(made) <= draw_budget and len(states) <= hash_budget, (made, len(states))
    if draw_budget == 0:
        assert rng.getstate() == before

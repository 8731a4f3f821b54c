"""A TLS 1.3-shaped handshake over pluggable KEM and signature suites.

Seven messages cross the wire, always in this order: ClientHello,
ServerHello, EncryptedExtensions, Certificate, CertificateVerify,
server Finished, client Finished.  The client's key share rides in the
ClientHello, the server's encapsulation in the ServerHello, and both
sides derive four handshake keys from the shared secret and a hash of
the transcript.  Each side keeps a running transcript state, feeds it
every message once, and digests it at four points: after ServerHello
for the key schedule, through Certificate for the CertificateVerify
input, through CertificateVerify for the server Finished, and through
server Finished for the client Finished.  The server authenticates with
a toy certificate signed by one pinned issuer (no chains, no expiry) and
a CertificateVerify signature over the transcript; both directions
finish with a keyed-hash MAC over everything seen so far.

Wire format: every message is a frame of one type tag byte, a four-byte
big-endian payload length, and the payload; multi-field payloads carry
four-byte length prefixes per field.  Byte accounting is exact and
client-centric: the transcript reports precisely what the client wrote
and read, so handshake sizes can be compared across suites down to the
byte.  Key and ciphertext sizes of schemes this package does not
implement are modeled by honest stub suites dialed to the registry's
published sizes.

The key derivation is a labeled-hash construction, not HKDF: real TLS
1.3 expands keys via HMAC-based HKDF, but this artifact deliberately
avoids reimplementing HMAC, and the labels ("c hs", "s hs", "fin c",
"fin s") keep the four keys domain-separated.

Both sides talk through SocketConnection, over TCP or over a local
socket pair (memory_pair).  A socket call silent for READ_DEADLINE_S
raises PeerTimeout, any other socket error ConnectionClosed (the OSError
is the cause), and a frame over MAX_FRAME_BYTES MalformedFrame.  When a
payload is cut short, the error names the frame, its announced length
and the bytes that arrived.  server_handshake raises any failure that is
not a PqbenchError as ServerCrashed.  Wall time starts once the server
identity (keypair and certificate) exists.

Divergence worth knowing: here the signature suite changes the size of
CertificateVerify and of the certificate itself, so handshake totals DO
vary with the signature scheme; measurement setups whose certificates
are classical see no such variation.
"""

from __future__ import annotations

import functools
import socket
import threading
import time
from dataclasses import astuple, dataclass
from random import Random
from typing import Any, Callable

from .bench import summarize
from .errors import PqbenchError
from .hashing import DEFAULT_HASH, PQH, HashFunction
from .kex import KemInstance, SigInstance
from .registry import Kind, default_registry
from .serialize import MalformedFrame, pack, read_u32, u32, unpack
from .suites import sized_stub_kem, sized_stub_sig

KEY_LABELS = ("c hs", "s hs", "fin c", "fin s")

# wire sizes the registry does not publish, shared by every stub suite
STUB_CIPHERTEXT_BYTES = 1088
STUB_SIG_PUBLIC_BYTES = 1312
STUB_SIGNATURE_BYTES = 2420

# seconds any one socket call may wait, and the largest payload a frame may announce
READ_DEADLINE_S = 10.0
MAX_FRAME_BYTES = 1 << 24


class NegotiationFailure(PqbenchError):
    """No suite label both sides accept."""


class CertVerifyFailure(PqbenchError):
    """Certificate or CertificateVerify rejected."""


class MacMismatch(PqbenchError):
    """A Finished MAC did not match the transcript."""


class UnexpectedMessage(PqbenchError):
    """Protocol order violated."""


class ConnectionClosed(PqbenchError):
    """Peer went away mid-handshake.  received counts the bytes the failed
    recv_exact had read."""

    received = 0


class PeerTimeout(ConnectionClosed):
    """Peer sent or took nothing for READ_DEADLINE_S seconds."""


class InconsistentByteCounts(PqbenchError):
    """Byte counts varied across iterations of a fixed-size measurement."""


class ServerCrashed(PqbenchError):
    """The server side raised something other than a PqbenchError; the
    original exception is the __cause__."""


class MeasureAborted(PqbenchError):
    """A handshake failed partway through a measurement run."""

    def __init__(self, completed: int, cause: PqbenchError):
        super().__init__(f"aborted after {completed} completed iterations: {cause}")
        self.completed = completed
        self.cause = cause


# --- messages and their wire form ---


@dataclass(frozen=True)
class ClientHello:
    offered_suites: tuple[str, ...]
    kem_public: bytes


@dataclass(frozen=True)
class ServerHello:
    chosen_suite: str
    kem_ciphertext: bytes


@dataclass(frozen=True)
class EncryptedExtensions:
    payload: bytes = b""


@dataclass(frozen=True)
class Certificate:
    """Toy credential: one subject key vouched for by the pinned issuer."""

    subject: str
    sig_scheme: str
    subject_public_key: bytes
    issuer_signature: bytes


@dataclass(frozen=True)
class CertificateMessage:
    cert: Certificate


@dataclass(frozen=True)
class CertificateVerify:
    signature: bytes


@dataclass(frozen=True)
class FinishedServer:
    mac: bytes


@dataclass(frozen=True)
class FinishedClient:
    mac: bytes


_MESSAGE_TAGS = {
    ClientHello: 1,
    ServerHello: 2,
    EncryptedExtensions: 3,
    CertificateMessage: 4,
    CertificateVerify: 5,
    FinishedServer: 6,
    FinishedClient: 7,
}
_TAG_TYPES = {tag: cls for cls, tag in _MESSAGE_TAGS.items()}
_SINGLE_FIELD = (EncryptedExtensions, CertificateVerify, FinishedServer, FinishedClient)


def _decode_label(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise MalformedFrame(f"label is not valid utf-8: {e}") from e


def _encode_payload(msg) -> bytes:
    if isinstance(msg, ClientHello):
        return u32(len(msg.offered_suites)) + pack(
            *(s.encode() for s in msg.offered_suites), msg.kem_public
        )
    if isinstance(msg, ServerHello):
        return pack(msg.chosen_suite.encode(), msg.kem_ciphertext)
    if isinstance(msg, CertificateMessage):
        return certificate_signing_bytes(msg.cert) + pack(msg.cert.issuer_signature)
    if isinstance(msg, _SINGLE_FIELD):
        (payload,) = astuple(msg)
        return payload
    raise TypeError(f"not a handshake message: {msg!r}")


def encode_message(msg) -> bytes:
    payload = _encode_payload(msg)
    return bytes([_MESSAGE_TAGS[type(msg)]]) + u32(len(payload)) + payload


def decode_message(data: bytes):
    """Inverse of encode_message over a complete frame."""
    if len(data) < 5:
        raise MalformedFrame(f"frame needs at least 5 bytes, got {len(data)}")
    tag = data[0]
    plen, offset = read_u32(data, 1)
    payload = data[offset:]
    if len(payload) != plen:
        raise MalformedFrame(f"frame announces {plen} payload bytes, carries {len(payload)}")
    cls = _TAG_TYPES.get(tag)
    if cls is None:
        raise MalformedFrame(f"unknown message tag {tag}")
    if cls is ClientHello:
        count, at = read_u32(payload, 0)
        chunks = unpack(payload[at:], count + 1)
        return ClientHello(tuple(_decode_label(c) for c in chunks[:-1]), chunks[-1])
    if cls is ServerHello:
        label, ct = unpack(payload, 2)
        return ServerHello(_decode_label(label), ct)
    if cls is CertificateMessage:
        subject, scheme, key, sig = unpack(payload, 4)
        return CertificateMessage(
            Certificate(_decode_label(subject), _decode_label(scheme), key, sig)
        )
    return cls(payload)


# --- transports ---


class SocketConnection:
    """One end of a handshake's byte stream over a connected socket.

    send_hook, when set, may rewrite outgoing bytes; tests use it to
    corrupt frames in flight.  Counters track post-hook sizes.
    """

    def __init__(self, sock, send_hook=None):
        sock.settimeout(READ_DEADLINE_S)
        self._sock = sock
        self._hook = send_hook
        self.bytes_sent = 0
        self.bytes_received = 0

    def _call(self, op, arg):
        """op(arg), with a socket error raised as ConnectionClosed."""
        try:
            return op(arg)
        except TimeoutError as e:
            raise PeerTimeout(f"{op.__name__}: peer silent for {READ_DEADLINE_S} s") from e
        except OSError as e:
            raise ConnectionClosed(f"{op.__name__} failed: {e!r}") from e

    def send(self, data: bytes) -> None:
        if self._hook is not None:
            data = self._hook(data)
        self._call(self._sock.sendall, data)
        self.bytes_sent += len(data)

    def recv_exact(self, n: int) -> bytes:
        buf = b""
        try:
            while len(buf) < n:
                got = self._call(self._sock.recv, n - len(buf))
                if not got:
                    raise ConnectionClosed(f"peer closed with {len(buf)} of {n} bytes read")
                buf += got
        except ConnectionClosed as e:
            e.received = len(buf)
            raise
        self.bytes_received += n
        return buf

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


def memory_pair(client_send_hook=None, server_send_hook=None):
    """(client endpoint, server endpoint) over a local socket pair."""
    client_sock, server_sock = socket.socketpair()
    return (SocketConnection(client_sock, client_send_hook),
            SocketConnection(server_sock, server_send_hook))


def read_message(conn):
    """One framed message off the wire: (decoded message, raw frame).

    A connection lost mid-payload is raised again, as the same type with
    the original as its cause, naming the frame, its announced length and
    the payload bytes that arrived.
    """
    header = conn.recv_exact(5)
    plen, _ = read_u32(header, 1)
    if plen > MAX_FRAME_BYTES:
        raise MalformedFrame(f"frame announces {plen} payload bytes, cap is {MAX_FRAME_BYTES}")
    try:
        payload = conn.recv_exact(plen)
    except ConnectionClosed as e:
        cls = _TAG_TYPES.get(header[0])
        frame = cls.__name__ if cls else f"unknown tag {header[0]}"
        raise type(e)(f"{frame} frame announced {plen} payload bytes, "
                      f"{e.received} arrived: {e}") from e
    raw = header + payload
    return decode_message(raw), raw


# --- suites, certificates, key schedule ---


@dataclass(frozen=True)
class SuiteConfig:
    kem: KemInstance
    sig: SigInstance
    hash: HashFunction
    label: str

    def __post_init__(self):
        if not self.label:
            raise ValueError("suite label must be nonempty")


@dataclass(frozen=True)
class SessionKeys:
    client_hs: bytes
    server_hs: bytes
    fin_c: bytes
    fin_s: bytes


def derive_keys(shared_secret: bytes, transcript_hash: bytes,
                h: HashFunction) -> SessionKeys:
    """Four domain-separated handshake keys (labeled hash, not HKDF)."""
    if not shared_secret:
        raise ValueError("shared secret must be nonempty")
    return SessionKeys(
        *(h(shared_secret + transcript_hash + label.encode()) for label in KEY_LABELS)
    )


def certificate_signing_bytes(cert: Certificate) -> bytes:
    """What the issuer signs: subject, scheme name, and subject key."""
    return pack(cert.subject.encode(), cert.sig_scheme.encode(),
                cert.subject_public_key)


@functools.lru_cache(maxsize=64)
def pinned_issuer(sig: SigInstance) -> tuple[bytes, Any]:
    """The well-known issuer keypair for a signature scheme.

    Derived from a fixed seed so every party can recompute it; this is
    the single trust anchor (no chains).  The seed is hashed with pqh
    (hashing.PQH), as it was before BLAKE2b became the default, so the
    golden handshakes keep their values.  The keypair drawn from the seed
    is derived with the instance's own hash, so two parties agree on the
    anchor only when they use the same hash.  Memoised per SigInstance, so a
    handshake pays for the derivation only the first time an instance is
    used; timing the scheme's keypair itself goes through bench, which
    never sees this cache.
    """
    seed = PQH(b"pqbench pinned issuer: " + sig.name.encode())
    return sig.keypair(Random(seed))


@dataclass(frozen=True)
class Identity:
    certificate: Certificate
    sig_secret: Any  # as sig.keypair returned it


def make_identity(sig: SigInstance, subject: str, rng: Random) -> Identity:
    _, issuer_secret = pinned_issuer(sig)
    public, secret = sig.keypair(rng)
    body = Certificate(subject, sig.name, public, b"")
    issuer_sig = sig.sign(issuer_secret, certificate_signing_bytes(body))
    return Identity(Certificate(subject, sig.name, public, issuer_sig), secret)


def verify_certificate(cert: Certificate, sig: SigInstance) -> bool:
    issuer_public, _ = pinned_issuer(sig)
    return sig.verify(issuer_public, certificate_signing_bytes(cert),
                      cert.issuer_signature)


# --- the two state machines ---


@dataclass(frozen=True)
class SideResult:
    key_digest: bytes
    messages: tuple[tuple[str, int], ...]
    read_bytes: int
    write_bytes: int


class _Side:
    """One end of a handshake over conn: sends and expects messages,
    keeping the wire-order log, the byte counts and a running hash state
    of the transcript (RFC 8446 section 4.4.1)."""

    def __init__(self, cfg: SuiteConfig, conn):
        self.h = cfg.hash
        self.conn = conn
        self.messages: list[tuple[str, int]] = []
        self.state = cfg.hash.new()
        self.read = 0
        self.write = 0

    def _log(self, msg, raw: bytes) -> None:
        self.messages.append((type(msg).__name__, len(raw)))
        self.state.update(raw)

    def send(self, msg) -> None:
        raw = encode_message(msg)
        self.conn.send(raw)
        self._log(msg, raw)
        self.write += len(raw)

    def expect(self, cls):
        msg, raw = read_message(self.conn)
        if not isinstance(msg, cls):
            raise UnexpectedMessage(f"wanted {cls.__name__}, got {type(msg).__name__}")
        self._log(msg, raw)
        self.read += len(raw)
        return msg

    def transcript_hash(self) -> bytes:
        return self.state.digest()

    def finished_mac(self, key: bytes) -> bytes:
        return self.h(key + self.transcript_hash())

    def result(self, keys: SessionKeys) -> SideResult:
        digest = self.h(keys.client_hs + keys.server_hs + keys.fin_c + keys.fin_s)
        return SideResult(digest, tuple(self.messages), self.read, self.write)


def client_handshake(cfg: SuiteConfig, conn, rng: Random) -> SideResult:
    """Drive the client side to mutual Finished over conn."""
    side = _Side(cfg, conn)
    try:
        kem_public, kem_secret = cfg.kem.keypair(rng)
        side.send(ClientHello((cfg.label,), kem_public))
        sh = side.expect(ServerHello)
        if sh.chosen_suite != cfg.label:
            raise NegotiationFailure(f"server chose unoffered suite {sh.chosen_suite!r}")
        shared = cfg.kem.decaps(kem_secret, sh.kem_ciphertext)
        keys = derive_keys(shared, side.transcript_hash(), cfg.hash)
        side.expect(EncryptedExtensions)
        cert = side.expect(CertificateMessage).cert
        if cert.sig_scheme != cfg.sig.name:
            raise CertVerifyFailure(
                f"certificate carries {cert.sig_scheme!r}, suite uses {cfg.sig.name!r}"
            )
        if not verify_certificate(cert, cfg.sig):
            raise CertVerifyFailure("issuer signature rejected")
        sign_input = side.transcript_hash()
        cv = side.expect(CertificateVerify)
        if not cfg.sig.verify(cert.subject_public_key, sign_input, cv.signature):
            raise CertVerifyFailure("CertificateVerify signature rejected")
        server_mac = side.finished_mac(keys.fin_s)
        if side.expect(FinishedServer).mac != server_mac:
            raise MacMismatch("server Finished MAC rejected")
        side.send(FinishedClient(side.finished_mac(keys.fin_c)))
        return side.result(keys)
    finally:
        conn.close()


def server_handshake(cfg: SuiteConfig, identity: Identity, conn,
                     rng: Random) -> SideResult:
    """Drive the server side; sends nothing if negotiation fails.  A
    failure that is not a PqbenchError is raised as ServerCrashed, with
    the original as its cause."""
    side = _Side(cfg, conn)
    try:
        ch = side.expect(ClientHello)
        if cfg.label not in ch.offered_suites:
            raise NegotiationFailure(
                f"no common suite in {ch.offered_suites!r} (serving {cfg.label!r})"
            )
        ciphertext, shared = cfg.kem.encaps(ch.kem_public, rng)
        side.send(ServerHello(cfg.label, ciphertext))
        keys = derive_keys(shared, side.transcript_hash(), cfg.hash)
        side.send(EncryptedExtensions())
        side.send(CertificateMessage(identity.certificate))
        side.send(CertificateVerify(cfg.sig.sign(identity.sig_secret, side.transcript_hash())))
        side.send(FinishedServer(side.finished_mac(keys.fin_s)))
        client_mac = side.finished_mac(keys.fin_c)
        if side.expect(FinishedClient).mac != client_mac:
            raise MacMismatch("client Finished MAC rejected")
        return side.result(keys)
    except PqbenchError:
        raise
    except Exception as e:
        raise ServerCrashed(f"server raised {type(e).__name__}: {e}") from e
    finally:
        conn.close()


# --- orchestration ---


@dataclass(frozen=True)
class HandshakeTranscript:
    messages: tuple[tuple[str, int], ...]
    client_read_bytes: int
    client_write_bytes: int
    wall_time_us: float
    client_key_digest: bytes
    server_key_digest: bytes


def run_handshake(client_cfg: SuiteConfig, server_cfg: SuiteConfig,
                  transport=None, rng: Random | None = None,
                  clock: Callable[[], int] = time.monotonic_ns) -> HandshakeTranscript:
    """One complete handshake, server on a helper thread.

    transport is a (client endpoint, server endpoint) pair, by default a
    fresh memory_pair.  Failures on either side unblock the peer by
    closing the transport; the server's error wins when both sides fail,
    since the client usually just sees the connection drop.  The clock
    starts after make_identity, which a server does once, not per connection.
    """
    rng = rng if rng is not None else Random()
    client_end, server_end = transport if transport is not None else memory_pair()
    client_rng = Random(rng.randrange(2**63))
    server_rng = Random(rng.randrange(2**63))
    identity_rng = Random(rng.randrange(2**63))

    identity = make_identity(server_cfg.sig, "server", identity_rng)
    start = clock()
    outcome: dict = {}

    def serve():
        try:
            outcome["result"] = server_handshake(server_cfg, identity, server_end, server_rng)
        except PqbenchError as e:  # reaches the caller, not threading.excepthook
            outcome["error"] = e

    worker = threading.Thread(target=serve, name="tls-server")
    worker.start()
    try:
        client_result = client_handshake(client_cfg, client_end, client_rng)
    except PqbenchError as client_error:
        worker.join()
        server_error = outcome.get("error")
        if isinstance(client_error, ConnectionClosed) and server_error is not None:
            raise server_error
        raise
    worker.join()
    end = clock()
    if "error" in outcome:
        raise outcome["error"]
    server_result = outcome["result"]

    return HandshakeTranscript(
        messages=client_result.messages,
        client_read_bytes=client_result.read_bytes,
        client_write_bytes=client_result.write_bytes,
        wall_time_us=(end - start) / 1000,
        client_key_digest=client_result.key_digest,
        server_key_digest=server_result.key_digest,
    )


@dataclass(frozen=True)
class MeasureResult:
    iterations: int
    mean_us: float
    stddev_us: float
    bytes_read: int
    bytes_written: int


def measure_handshake(cfg: SuiteConfig, transport_factory=memory_pair,
                      iterations: int = 50, rng: Random | None = None,
                      clock: Callable[[], int] = time.monotonic_ns) -> MeasureResult:
    """Run the handshake repeatedly with fresh keys and report client-side
    wall-time statistics plus the (constant) byte counts."""
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    rng = rng if rng is not None else Random()
    durations = []
    reads, writes = set(), set()
    for completed in range(iterations):
        try:
            t = run_handshake(cfg, cfg, transport_factory(), rng, clock)
        except PqbenchError as e:
            raise MeasureAborted(completed, e) from e
        if t.client_key_digest != t.server_key_digest:
            raise MeasureAborted(completed, PqbenchError("key digests diverged"))
        durations.append(t.wall_time_us)
        reads.add(t.client_read_bytes)
        writes.add(t.client_write_bytes)
    if len(reads) != 1 or len(writes) != 1:
        raise InconsistentByteCounts(
            f"read sizes {sorted(reads)}, write sizes {sorted(writes)}"
        )
    stats = summarize(durations, sum(durations))
    return MeasureResult(
        iterations=stats.n,
        mean_us=stats.mean_us,
        stddev_us=stats.stddev_us,
        bytes_read=reads.pop(),
        bytes_written=writes.pop(),
    )


# --- registry-sized stub suites ---


def stub_suite(label: str, public_key_bytes: int,
               ciphertext_bytes: int = STUB_CIPHERTEXT_BYTES, *,
               sig_public_bytes: int = STUB_SIG_PUBLIC_BYTES,
               signature_bytes: int = STUB_SIGNATURE_BYTES,
               h: HashFunction = DEFAULT_HASH) -> SuiteConfig:
    """Honest stub suite with externally dialed wire sizes."""
    return SuiteConfig(
        kem=sized_stub_kem(f"{label}-kem", public_key_bytes, ciphertext_bytes, h),
        sig=sized_stub_sig("stub-sig", sig_public_bytes, signature_bytes, h),
        hash=h,
        label=label,
    )


def registry_kem_suites(h: HashFunction = DEFAULT_HASH) -> list[SuiteConfig]:
    """One stub suite per KEM of the default registry, public key sized per
    the registry and ciphertext fixed at the shared stub size.  Handshake
    totals then rank the KEMs purely by published key size."""
    return [
        stub_suite(m.name, m.public_key_bytes, h=h)
        for m in default_registry().schemes(Kind.KEM)
    ]


def handshake_total_bytes(cfg: SuiteConfig) -> tuple[int, int, int]:
    """(client read, client write, total) for one handshake of cfg under
    Random(0)."""
    t = run_handshake(cfg, cfg, rng=Random(0))
    return t.client_read_bytes, t.client_write_bytes, t.client_read_bytes + t.client_write_bytes

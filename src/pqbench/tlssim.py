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

Wire format: a frame is one type tag byte, a four-byte big-endian
payload length and the payload.  Each tag has one field layout, with one
encoder and one decoder: ClientHello is a suite count, the suite labels
and the key share; ServerHello the chosen label and the ciphertext;
Certificate the subject, scheme name, subject key and issuer signature,
each field after its four-byte length; every other message's one field
is its whole payload.  A message is only its (tag, fields): the sides
send and read that, and so do encode_message and decode_message.
make_identity encodes a Certificate payload once, and the client checks
its issuer signature over the payload's prefix as it arrived.  Byte
accounting is exact and client-centric; stub suites dialed to the
registry's published sizes model the schemes this package lacks.

The key derivation is a labeled-hash construction, not HKDF: real TLS
1.3 expands keys via HMAC-based HKDF, but this artifact deliberately
avoids reimplementing HMAC, and the labels ("c hs", "s hs", "fin c",
"fin s") keep the four keys domain-separated.

Each side is a generator that yields at the end of its flight: the
client after ClientHello, the server after its Finished.  run_handshake
runs both in lockstep on the caller's thread and starts no thread, so a
read the delivered bytes cannot cover ends at once in ConnectionClosed.
Every endpoint is a MemoryConnection: reads come from an inbox its
peer's sends fill, and whoever drives a side closes its endpoint.  A
SocketConnection joined to its peer relays each send through the kernel
one chunk at a time, so no message can stall in full buffers; alone, as
tls-serve and tls-client hold it, it uses sendall and blocking reads.
A joined socket call silent for READ_DEADLINE_S, or an alone connection
still at it READ_DEADLINE_S after it was built, raises PeerTimeout, and
any other socket error ConnectionClosed (the OSError is the cause).  A
frame over MAX_FRAME_BYTES is MalformedFrame, and a cut payload's error
names the frame, its announced length and the bytes that arrived.  The
server side, its identity included, raises any failure that is not a
PqbenchError as ServerCrashed.  Wall time starts after make_identity.

Divergence worth knowing: here the signature suite changes the size of
CertificateVerify and of the certificate itself, so handshake totals DO
vary with the signature scheme; measurement setups whose certificates
are classical see no such variation.
"""

from __future__ import annotations

import functools
import struct
import time
from dataclasses import dataclass
from random import Random
from typing import Any, Callable

from .errors import PqbenchError
from .hashing import DEFAULT_HASH, PQH, HashFunction
from .kex import KemInstance, SigInstance
from .registry import Kind, default_registry
from .serialize import MalformedFrame, pack, read_u32, u32, unpack
from .suites import sized_stub_kem, sized_stub_sig

KEY_LABELS = (b"c hs", b"s hs", b"fin c", b"fin s")

# wire sizes the registry does not publish, shared by every stub suite
STUB_CIPHERTEXT_BYTES = 1088
STUB_SIG_PUBLIC_BYTES = 1312
STUB_SIGNATURE_BYTES = 2420

# a joined socket call's or an alone connection's time limit, and the largest frame payload
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
    """A joined socket call waited READ_DEADLINE_S seconds, or an alone
    connection was still at it READ_DEADLINE_S after it was built."""


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


def _decode_label(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise MalformedFrame(f"label is not valid utf-8: {e}") from e


def certificate_signing_bytes(subject: str, sig_scheme: str, subject_public_key: bytes) -> bytes:
    """What the issuer signs, and how a Certificate payload begins:
    subject, scheme name, and subject key."""
    return pack(subject.encode(), sig_scheme.encode(), subject_public_key)


def _encode_client_hello(offered_suites, kem_public: bytes) -> bytes:
    return u32(len(offered_suites)) + pack(*[s.encode() for s in offered_suites], kem_public)


def _decode_client_hello(payload: bytes):
    count, at = read_u32(payload)
    *labels, kem_public = unpack(payload, count + 1, at)
    return tuple(map(_decode_label, labels)), kem_public


def _encode_server_hello(chosen_suite: str, kem_ciphertext: bytes) -> bytes:
    return pack(chosen_suite.encode(), kem_ciphertext)


def _decode_server_hello(payload: bytes):
    label, kem_ciphertext = unpack(payload, 2)
    return _decode_label(label), kem_ciphertext


def _encode_certificate(subject, sig_scheme, key, issuer_signature) -> bytes:
    return certificate_signing_bytes(subject, sig_scheme, key) + pack(issuer_signature)


def _decode_certificate(payload: bytes):
    """The four Certificate fields, then the prefix the issuer signed."""
    subject, scheme, key, signature = unpack(payload, 4)
    signed = payload[:len(payload) - 4 - len(signature)]
    return _decode_label(subject), _decode_label(scheme), key, signature, signed


(CLIENT_HELLO, SERVER_HELLO, ENCRYPTED_EXTENSIONS, CERTIFICATE, CERTIFICATE_VERIFY,
 FINISHED_SERVER, FINISHED_CLIENT) = range(1, 8)
# each tag's name as logged, encoder of its fields and decoder of its
# payload; a message whose one field is its whole payload has neither
_LAYOUTS = {
    CLIENT_HELLO: ("ClientHello", _encode_client_hello, _decode_client_hello),
    SERVER_HELLO: ("ServerHello", _encode_server_hello, _decode_server_hello),
    ENCRYPTED_EXTENSIONS: ("EncryptedExtensions", None, None),
    CERTIFICATE: ("CertificateMessage", _encode_certificate, _decode_certificate),
    CERTIFICATE_VERIFY: ("CertificateVerify", None, None),
    FINISHED_SERVER: ("FinishedServer", None, None),
    FINISHED_CLIENT: ("FinishedClient", None, None),
}
_NAMES = {tag: name for tag, (name, _, _) in _LAYOUTS.items()}
_HEADER = struct.Struct(">BI")  # tag, payload length


def _decode(tag: int, payload: bytes):
    """A payload's fields under its tag's layout (a one-field payload as it is)."""
    if tag not in _LAYOUTS:
        raise MalformedFrame(f"unknown message tag {tag}")
    decode = _LAYOUTS[tag][2]
    return payload if decode is None else decode(payload)


def encode_message(tag: int, *fields) -> bytes:
    """tag's frame of fields, through its encoder; a one-field tag's field is its payload."""
    encode = _LAYOUTS[tag][1]
    payload = fields[0] if encode is None else encode(*fields)
    return _HEADER.pack(tag, len(payload)) + payload


def decode_message(data: bytes):
    """(tag, fields) of a complete frame, as a side's expect decodes them."""
    if len(data) < 5:
        raise MalformedFrame(f"frame needs at least 5 bytes, got {len(data)}")
    tag, plen = _HEADER.unpack_from(data)
    payload = data[5:]
    if len(payload) != plen:
        raise MalformedFrame(f"frame announces {plen} payload bytes, carries {len(payload)}")
    return tag, _decode(tag, payload)


# --- transports ---


class MemoryConnection:
    """One end of a handshake's byte stream: the endpoint every transport
    builds on, joined in process by memory_pair.

    send applies send_hook, which may rewrite outgoing bytes (tests use it
    to corrupt frames in flight), and delivers the result into the peer's
    inbox.  recv_exact takes from this end's inbox and never waits: in
    lockstep a side reads only once its peer has sent all it can before
    hearing back, so a read the inbox cannot cover ends at once in
    ConnectionClosed.
    """

    def __init__(self, send_hook=None):
        self._hook = send_hook
        self._inbox = bytearray()
        self._peer: MemoryConnection | None = None
        self.closed = False

    def relay_to(self, peer: MemoryConnection) -> None:
        """Join this end and peer, the other end of its connection, so that
        each end's send delivers into the other's inbox."""
        self._peer, peer._peer = peer, self

    def send(self, data: bytes) -> None:
        if self._hook is not None:
            data = self._hook(data)
        self._deliver(data)

    def _deliver(self, data: bytes) -> None:
        if self.closed or self._peer.closed:
            raise ConnectionClosed("send: connection closed")
        self._peer._inbox += data

    def recv_exact(self, n: int) -> bytes:
        have = len(self._inbox)
        if have < n:
            e = ConnectionClosed(f"peer has nothing more to send: {have} of {n} bytes read")
            e.received = have
            raise e
        # one copy, out of a view that is gone before the inbox shrinks
        data = memoryview(self._inbox)[:n].tobytes()
        del self._inbox[:n]
        return data

    def close(self) -> None:
        self.closed = True


class SocketConnection(MemoryConnection):
    """A MemoryConnection whose bytes cross a connected socket.

    Joined by run_handshake (relay_to), send relays through the kernel
    into the peer's inbox before it returns, so both sides can run in
    lockstep on one thread.  Alone, as tls-serve and tls-client hold it,
    send is sendall and recv_exact fills the inbox with blocking reads
    until it covers the read, all by READ_DEADLINE_S after it was built.
    """

    def __init__(self, sock, send_hook=None):
        super().__init__(send_hook)
        sock.settimeout(READ_DEADLINE_S)
        self._sock = sock
        self._built = time.monotonic()

    def _call(self, op, arg):
        """op(arg), with a socket error raised as ConnectionClosed; alone,
        op may wait only for what remains of the deadline."""
        try:
            if self._peer is None:
                left = self._built + READ_DEADLINE_S - time.monotonic()
                if left <= 0:
                    raise TimeoutError
                self._sock.settimeout(left)
            return op(arg)
        except TimeoutError as e:
            waited = time.monotonic() - self._built
            raise PeerTimeout(f"{op.__name__}: timed out {waited:.2f} s after connecting, "
                              f"{len(self._inbox)} bytes read") from e
        except OSError as e:
            raise ConnectionClosed(f"{op.__name__} failed: {e!r}") from e

    def _deliver(self, data: bytes) -> None:
        """Joined, send data one chunk at a time: this socket takes what
        fits in its buffer, and the peer reads all of it out into its inbox
        before the next chunk goes, so no message can fill the buffers and
        stall."""
        peer = self._peer
        if peer is None:
            self._call(self._sock.sendall, data)
            return
        rest = memoryview(data)
        while rest:
            sent = self._call(self._sock.send, rest)
            rest = rest[sent:]
            peer._fill(len(peer._inbox) + sent)

    def _fill(self, n: int) -> None:
        """Read the socket until the inbox holds n bytes; a failure's
        received is what the inbox holds."""
        inbox = self._inbox
        try:
            while len(inbox) < n:
                got = self._call(self._sock.recv, n - len(inbox))
                if not got:
                    raise ConnectionClosed(f"peer closed with {len(inbox)} of {n} bytes read")
                inbox += got
        except ConnectionClosed as e:
            e.received = len(inbox)
            raise

    def recv_exact(self, n: int) -> bytes:
        if self._peer is None:
            self._fill(n)
        return super().recv_exact(n)

    def close(self) -> None:
        super().close()
        try:
            self._sock.close()
        except OSError:
            pass


def memory_pair(client_send_hook=None, server_send_hook=None):
    """(client endpoint, server endpoint) joined in process: no socket and
    no thread."""
    client, server = MemoryConnection(client_send_hook), MemoryConnection(server_send_hook)
    client.relay_to(server)
    return client, server


def read_frame(conn) -> tuple[int, bytes, bytes]:
    """One frame off the wire as (tag, header, payload), its header parsed
    once.  A connection lost mid-payload is raised again, as the same type
    with the original as its cause, naming the frame, its announced length
    and the payload bytes that arrived."""
    header = conn.recv_exact(5)
    tag, plen = _HEADER.unpack(header)
    if plen > MAX_FRAME_BYTES:
        raise MalformedFrame(f"frame announces {plen} payload bytes, cap is {MAX_FRAME_BYTES}")
    try:
        payload = conn.recv_exact(plen)
    except ConnectionClosed as e:
        frame = _NAMES.get(tag) or f"unknown tag {tag}"
        raise type(e)(f"{frame} frame announced {plen} payload bytes, "
                      f"{e.received} arrived: {e}") from e
    return tag, header, payload


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


def derive_keys(shared_secret: bytes, transcript_hash: bytes, h: HashFunction) -> list[bytes]:
    """One handshake key per KEY_LABELS label, in order (labeled hash, not HKDF)."""
    if not shared_secret:
        raise ValueError("shared secret must be nonempty")
    base = shared_secret + transcript_hash
    return h.each([base + label for label in KEY_LABELS])


@functools.lru_cache(maxsize=64)
def pinned_issuer(sig: SigInstance) -> tuple[bytes, Any]:
    """The well-known issuer keypair for a signature scheme: the single
    trust anchor (no chains), drawn from a fixed seed so every party can
    recompute it.  The seed is hashed with pqh (hashing.PQH), as before
    BLAKE2b became the default, so the golden handshakes keep their values;
    the keypair is derived with the instance's own hash, so two parties
    agree on the anchor only under the same hash.  Memoised per SigInstance:
    a handshake pays for the derivation only the first time an instance is
    used, and bench, which times keypair itself, never sees this cache.
    """
    seed = PQH(b"pqbench pinned issuer: " + sig.name.encode())
    return sig.keypair(Random(seed))


@dataclass(frozen=True)
class Identity:
    certificate_payload: bytes  # the Certificate message's payload, encoded once
    sig_secret: Any  # as sig.keypair returned it


def make_identity(sig: SigInstance, subject: str, rng: Random) -> Identity:
    """A server keypair and its Certificate payload, signed by the pinned issuer."""
    _, issuer_secret = pinned_issuer(sig)
    public, secret = sig.keypair(rng)
    signed = certificate_signing_bytes(subject, sig.name, public)
    return Identity(signed + pack(sig.sign(issuer_secret, signed)), secret)


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

    def send(self, tag: int, payload: bytes) -> None:
        frame = _HEADER.pack(tag, len(payload)) + payload
        self.conn.send(frame)
        self.messages.append((_NAMES[tag], len(frame)))
        self.state.update(frame)
        self.write += len(frame)

    def expect(self, tag: int):
        """The next frame's fields; it must decode, then carry tag."""
        got, header, payload = read_frame(self.conn)
        fields = _decode(got, payload)
        if got != tag:
            raise UnexpectedMessage(f"wanted {_NAMES[tag]}, got {_NAMES[got]}")
        size = 5 + len(payload)
        self.messages.append((_NAMES[tag], size))
        self.state.update(header)
        self.state.update(payload)
        self.read += size
        return fields

    def finished_mac(self, key: bytes) -> bytes:
        return self.h(key + self.state.digest())

    def result(self, keys: list[bytes]) -> SideResult:
        return SideResult(self.h(b"".join(keys)), tuple(self.messages), self.read, self.write)


def _client_flights(cfg: SuiteConfig, conn, rng: Random):
    """The client side as a generator: it yields once, after ClientHello,
    and returns its SideResult."""
    side = _Side(cfg, conn)
    kem_public, kem_secret = cfg.kem.keypair(rng)
    side.send(CLIENT_HELLO, _encode_client_hello((cfg.label,), kem_public))
    yield
    chosen, ciphertext = side.expect(SERVER_HELLO)
    if chosen != cfg.label:
        raise NegotiationFailure(f"server chose unoffered suite {chosen!r}")
    shared = cfg.kem.decaps(kem_secret, ciphertext)
    keys = derive_keys(shared, side.state.digest(), cfg.hash)
    side.expect(ENCRYPTED_EXTENSIONS)
    _, scheme, public, issuer_signature, signed = side.expect(CERTIFICATE)
    if scheme != cfg.sig.name:
        raise CertVerifyFailure(f"certificate carries {scheme!r}, suite uses {cfg.sig.name!r}")
    if not cfg.sig.verify(pinned_issuer(cfg.sig)[0], signed, issuer_signature):
        raise CertVerifyFailure("issuer signature rejected")
    sign_input = side.state.digest()
    signature = side.expect(CERTIFICATE_VERIFY)
    if not cfg.sig.verify(public, sign_input, signature):
        raise CertVerifyFailure("CertificateVerify signature rejected")
    _, _, fin_c, fin_s = keys
    server_mac = side.finished_mac(fin_s)
    if side.expect(FINISHED_SERVER) != server_mac:
        raise MacMismatch("server Finished MAC rejected")
    side.send(FINISHED_CLIENT, side.finished_mac(fin_c))
    return side.result(keys)


def _server_flights(cfg: SuiteConfig, identity: Identity, conn, rng: Random):
    """The server side as a generator: it yields once, after its Finished,
    and returns its SideResult.  It sends nothing if negotiation fails."""
    side = _Side(cfg, conn)
    try:
        offered, kem_public = side.expect(CLIENT_HELLO)
        if cfg.label not in offered:
            raise NegotiationFailure(f"no common suite in {offered!r} (serving {cfg.label!r})")
        ciphertext, shared = cfg.kem.encaps(kem_public, rng)
        side.send(SERVER_HELLO, _encode_server_hello(cfg.label, ciphertext))
        keys = derive_keys(shared, side.state.digest(), cfg.hash)
        _, _, fin_c, fin_s = keys
        side.send(ENCRYPTED_EXTENSIONS, b"")
        side.send(CERTIFICATE, identity.certificate_payload)
        side.send(CERTIFICATE_VERIFY, cfg.sig.sign(identity.sig_secret, side.state.digest()))
        side.send(FINISHED_SERVER, side.finished_mac(fin_s))
        yield
        client_mac = side.finished_mac(fin_c)
        if side.expect(FINISHED_CLIENT) != client_mac:
            raise MacMismatch("client Finished MAC rejected")
        return side.result(keys)
    except Exception as e:
        raise _server_error(e)


def _server_error(e: Exception) -> PqbenchError:
    """e as the server raises it: a PqbenchError as it is, else ServerCrashed."""
    if isinstance(e, PqbenchError):
        return e
    crashed = ServerCrashed(f"server raised {type(e).__name__}: {e}")
    crashed.__cause__ = e
    return crashed


def _finish(flights, conn):
    """Run one side's generator to its end over conn, then close conn,
    however the side ended; its SideResult."""
    try:
        while True:
            next(flights)
    except StopIteration as done:
        return done.value
    finally:
        conn.close()


def client_handshake(cfg: SuiteConfig, conn, rng: Random) -> SideResult:
    """Drive the client side to mutual Finished over conn, reading with
    conn's own blocking reads, and close conn when it ends."""
    return _finish(_client_flights(cfg, conn, rng), conn)


def server_handshake(cfg: SuiteConfig, identity: Identity, conn,
                     rng: Random) -> SideResult:
    """Drive the server side over conn and close it when it ends, as
    client_handshake does.  A failure that is not a PqbenchError is raised
    as ServerCrashed, with the original as its cause."""
    return _finish(_server_flights(cfg, identity, conn, rng), conn)


# --- orchestration ---


@dataclass(frozen=True)
class HandshakeTranscript:
    messages: tuple[tuple[str, int], ...]
    client_read_bytes: int
    client_write_bytes: int
    wall_time_us: float
    client_key_digest: bytes
    server_key_digest: bytes


def _in_lockstep(client, server):
    """Both sides on this thread, each run to its next yield in turn,
    client first, until both have ended.  Each side's outcome is its
    SideResult or the exception it ended in."""
    outcomes = {}
    while len(outcomes) < 2:
        for side in (client, server):
            if side not in outcomes:
                try:
                    next(side)
                except StopIteration as done:
                    outcomes[side] = done.value
                except Exception as e:
                    outcomes[side] = e
    return outcomes[client], outcomes[server]


def run_handshake(client_cfg: SuiteConfig, server_cfg: SuiteConfig,
                  transport=None, rng: Random | None = None,
                  clock: Callable[[], int] = time.monotonic_ns) -> HandshakeTranscript:
    """One complete handshake, both sides in lockstep on the caller's thread.

    transport is a (client endpoint, server endpoint) pair, by default a
    fresh memory_pair.  A pair of SocketConnections, whose reads would
    block, is joined first (relay_to): each send then relays its bytes
    through the kernel into the peer's inbox, chunk by chunk, so a message
    of any size crosses without a second thread.  When a side fails, its
    peer's next read finds its inbox short and ends at once; both
    endpoints are closed when the handshake ends, however it ends.  The
    server's error wins when both sides fail, since the client usually
    just sees the connection drop.  Each call makes one server identity
    (make_identity) before the clock starts, so wall_time_us leaves it
    out, but a caller timing around the call counts it, and a failure in
    it ends the call as one on the server side does.
    """
    rng = rng if rng is not None else Random()
    client_end, server_end = transport if transport is not None else memory_pair()
    if isinstance(client_end, SocketConnection) and isinstance(server_end, SocketConnection):
        client_end.relay_to(server_end)
    client_rng = Random(rng.randrange(2**63))
    server_rng = Random(rng.randrange(2**63))
    identity_rng = Random(rng.randrange(2**63))

    try:
        try:
            identity = make_identity(server_cfg.sig, "server", identity_rng)
        except Exception as e:
            raise _server_error(e)
        start = clock()
        client, server = _in_lockstep(
            _client_flights(client_cfg, client_end, client_rng),
            _server_flights(server_cfg, identity, server_end, server_rng))
    finally:
        client_end.close()
        server_end.close()
    end = clock()
    if isinstance(client, Exception):
        if isinstance(client, ConnectionClosed) and isinstance(server, PqbenchError):
            raise server
        raise client
    if isinstance(server, Exception):
        raise server

    return HandshakeTranscript(
        messages=client.messages,
        client_read_bytes=client.read_bytes,
        client_write_bytes=client.write_bytes,
        wall_time_us=(end - start) / 1000,
        client_key_digest=client.key_digest,
        server_key_digest=server.key_digest,
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
    # the timing harness loads only when a measurement is asked for
    from .bench import summarize

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

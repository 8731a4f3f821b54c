"""The three handshake workloads: suite mixes, transports and pinned sizes.

Each workload is a closed loop with one client: the caller thread runs the
client side and run_handshake starts one server thread per handshake.  A
run is a fixed number of complete passes over the workload's suite mix, in
a fixed order, so both sides of a comparison time the same handshakes.
"""

from __future__ import annotations

import socket
import struct
from dataclasses import dataclass

from pqbench import suites, tlssim
from pqbench.hashing import DEFAULT_HASH

import spans

MEMORY = "memory"
TCP = "tcp"

TRANSPORT_NOTE = {
    MEMORY: "in-memory queues between two threads of one process; no link",
    TCP: "loopback TCP on 127.0.0.1, one fresh connection per handshake; no real link",
}

# (client read, client write) bytes per suite, pinned from pqbench at
# commit 2a92f76; the label rides in ClientHello, so its length counts
PINNED_BYTES = {
    "SABER-KEM": (7344, 1055),
    "Kyber-768": (7344, 1247),
    "FrodoKEM-976": (7347, 15698),
    "NewHope1024": (7346, 1889),
    "ntruhps4096821": (7349, 1298),
    "BIKE-1-CCA": (7345, 6269),
    "SIKEp610": (7343, 524),
    "ecdh-toy+lamport": (4735, 79),
    "lwe-toy+lamport": (4925, 181),
    "mceliece-toy+lamport": (4758, 90),
    "stub-kem+lamport": (4730, 70),
    "ecdh-toy+wots": (1193, 76),
    "lwe-toy+wots": (1383, 178),
    "mceliece-toy+wots": (1216, 87),
    "stub-kem+wots": (1188, 67),
    "ecdh-toy+mss": (7349, 75),
    "lwe-toy+mss": (7539, 177),
    "mceliece-toy+mss": (7372, 86),
    "stub-kem+mss": (7344, 66),
    "ecdh-toy+uov": (182, 75),
    "lwe-toy+uov": (372, 177),
    "mceliece-toy+uov": (205, 86),
    "stub-kem+uov": (177, 66),
    "ecdh-toy+fs-dlog": (175, 79),
    "lwe-toy+fs-dlog": (365, 181),
    "mceliece-toy+fs-dlog": (198, 90),
    "stub-kem+fs-dlog": (170, 70),
}

# criterion 7's published ranking, smallest handshake first
REGISTRY_SIZE_ORDER = ("SIKEp610", "SABER-KEM", "Kyber-768", "ntruhps4096821",
                       "NewHope1024", "BIKE-1-CCA", "FrodoKEM-976")


@dataclass(frozen=True)
class Spec:
    transport: str
    # complete passes per second of --seconds; a constant, never measured,
    # so a faster commit times exactly as many handshakes as a slower one
    passes_per_second: float
    sigs: tuple[str, ...] = ()  # empty: the registry suites


SPECS = {
    "registry-stubs": Spec(MEMORY, 7 / 15),
    "hashsig-suites": Spec(MEMORY, 1.2, ("lamport", "wots", "mss")),
    "tcp-light-suites": Spec(TCP, 24.0, ("uov", "fs-dlog")),
}


def passes_for(name: str, seconds: float) -> int:
    return max(1, round(seconds * SPECS[name].passes_per_second))


def build_suites(spec: Spec, h) -> list[tlssim.SuiteConfig]:
    if not spec.sigs:
        return tlssim.registry_kem_suites(h=h)
    kems = suites.builtin_kems(h)
    sigs = suites.builtin_sigs(h)
    return [tlssim.SuiteConfig(kems[k], sigs[s], h, f"{k}+{s}")
            for s in spec.sigs for k in spans.KEM_SCHEMES]


class Workload:
    """A built suite mix plus its transport; close() releases the listener."""

    def __init__(self, name: str, rec: spans.Recorder | None = None):
        self.spec = SPECS[name]
        self.rec = rec
        h = DEFAULT_HASH if rec is None else spans.traced_hash(DEFAULT_HASH, rec)
        mix = build_suites(self.spec, h)
        if rec is not None:
            mix = [tlssim.SuiteConfig(spans.traced_kem(c.kem, rec),
                                      spans.traced_sig(c.sig, rec), h, c.label)
                   for c in mix]
        self.mix = mix
        self.hash_name = h.name
        self._timed_connect = None if rec is None else rec.timed(spans.CONNECT, self.connect)
        self._listener = None
        if self.spec.transport == TCP:
            self._listener = socket.create_server(("127.0.0.1", 0), backlog=16)

    def connect(self):
        """A fresh (client, server) endpoint pair."""
        if self._listener is None:
            return tlssim.memory_pair()
        client = socket.create_connection(self._listener.getsockname(), timeout=10)
        try:
            server, _ = self._listener.accept()
        except OSError:
            client.close()
            raise
        # abortive close after the handshake: no TIME-WAIT entry per connection,
        # so the ephemeral port range never runs dry
        server.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        return tlssim.SocketConnection(client), tlssim.SocketConnection(server)

    def transport(self):
        """connect(), with a span and endpoint proxies when tracing."""
        if self.rec is None:
            return self.connect()
        client, server = self._timed_connect()
        return spans.TracedEndpoint(client, self.rec), spans.TracedEndpoint(server, self.rec)

    def close(self) -> None:
        if self._listener is not None:
            self._listener.close()
            self._listener = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

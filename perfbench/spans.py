"""In-memory span recording around the calls pqbench makes into each layer.

Nothing here reaches inside pqbench: the recorder is fed by wrappers built
from the public contracts (a HashFunction whose apply is timed, Kem/Sig
instances whose callables are timed, and an endpoint proxy around
send/recv_exact).  Each span keeps its name, its thread, wall time
(perf_counter_ns) and thread CPU time (thread_time_ns); wall minus CPU is
time spent waiting for the interpreter lock or for the peer.

Spans from the caller thread and the handshake's server thread overlap in
wall time, so shares and residuals are computed from the union of span
intervals, never from their sum.
"""

from __future__ import annotations

import threading
from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate
from time import perf_counter_ns, thread_time_ns

from pqbench.hashing import HashFunction
from pqbench.kex import KemInstance, SigInstance

HASH = "hashing"
OP = "op"
CONNECT = "tlssim.connect"
SEND = "tlssim.transport.send"
RECV = "tlssim.transport.recv"

# which pqbench module implements each registered scheme
SCHEME_LAYER = {
    "ecdh-toy": "kex",
    "lwe-toy": "lattice",
    "mceliece-toy": "codecrypt",
    "stub-kem": "suites",
    "lamport": "hashsig",
    "wots": "hashsig",
    "mss": "hashsig",
    "uov": "mq",
    "fs-dlog": "sigma",
    "stub-sig": "suites",
    "sized-kem": "suites",
}
KEM_OPS = ("keypair", "encaps", "decaps")
SIG_OPS = ("keypair", "sign", "verify")
KEM_SCHEMES = ("ecdh-toy", "lwe-toy", "mceliece-toy", "stub-kem")
SIG_SCHEMES = ("lamport", "wots", "mss", "uov", "fs-dlog")
# the registry suites' KEMs are one sized stub, named "<suite>-kem" each
SIZED_KEM = "sized-kem"
MESSAGES = ("ClientHello", "ServerHello", "EncryptedExtensions",
            "CertificateMessage", "CertificateVerify", "FinishedServer",
            "FinishedClient")


def scheme_span_prefix(scheme: str) -> str:
    """'<module>.<scheme>' for a KEM or signature instance name."""
    if scheme not in SCHEME_LAYER and scheme.endswith("-kem"):
        scheme = SIZED_KEM
    return f"{SCHEME_LAYER[scheme]}.{scheme}"


def scheme_op_spans() -> list[tuple[str, str]]:
    """(span prefix, op) for every scheme op the workloads can reach."""
    kems = [*KEM_SCHEMES, SIZED_KEM]
    sigs = [*SIG_SCHEMES, "stub-sig"]
    return ([(scheme_span_prefix(k), op) for k in kems for op in KEM_OPS]
            + [(scheme_span_prefix(s), op) for s in sigs for op in SIG_OPS])


def per_layer_metric_names() -> list[str]:
    """Every metric a traced run prints, in print order."""
    names = [f"{HASH}.calls_per_op", f"{HASH}.bytes_per_op",
             f"{HASH}.busy_ms_per_op", f"{HASH}.wait_ms_per_op", f"{HASH}.share"]
    for prefix, op in scheme_op_spans():
        names += [f"{prefix}.{op}.calls_per_op", f"{prefix}.{op}.self_ms_per_op"]
    names += ["tlssim.transport.frames_per_op", "tlssim.transport.bytes_per_op",
              "tlssim.transport.send_ms_per_op", "tlssim.transport.recv_wait_ms_per_op",
              "tlssim.connect_ms_per_op", "tlssim.residual_ms_per_op"]
    names += [f"tlssim.msg.{m}.bytes" for m in MESSAGES]
    names.append("trace.overhead")
    return names


class _Buffer:
    """Spans of one thread, in the order they ended."""

    __slots__ = ("name", "amount", "w0", "w1", "c0", "c1")

    def __init__(self):
        self.name = array("H")
        self.amount = array("q")
        self.w0 = array("q")
        self.w1 = array("q")
        self.c0 = array("q")
        self.c1 = array("q")


class Recorder:
    """Spans kept in memory, one append-only buffer per thread."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # a thread identifier can be reused only after its thread ended,
        # so threads sharing a buffer never overlap in time
        self._buffers: dict[int, _Buffer] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, name_id: int, amount: int, w0: int, w1: int, c0: int, c1: int) -> None:
        ident = threading.get_ident()
        buf = self._buffers.get(ident)
        if buf is None:
            buf = self._buffers[ident] = _Buffer()
        buf.name.append(name_id)
        buf.amount.append(amount)
        buf.w0.append(w0)
        buf.w1.append(w1)
        buf.c0.append(c0)
        buf.c1.append(c1)

    def buffers(self) -> list[_Buffer]:
        return list(self._buffers.values())

    def timed(self, name: str, fn):
        """fn wrapped so that every call records one span."""
        sid = self.name_id(name)
        add = self.add

        def call(*args):
            w0 = perf_counter_ns()
            c0 = thread_time_ns()
            try:
                return fn(*args)
            finally:
                c1 = thread_time_ns()
                add(sid, 0, w0, perf_counter_ns(), c0, c1)

        return call


def traced_hash(h: HashFunction, rec: Recorder) -> HashFunction:
    """Same name, length and outputs as h; every call is a span whose
    amount is the input length."""
    sid = rec.name_id(HASH)
    apply = h.apply
    add = rec.add

    def timed_apply(data: bytes) -> bytes:
        w0 = perf_counter_ns()
        c0 = thread_time_ns()
        out = apply(data)
        c1 = thread_time_ns()
        add(sid, len(data), w0, perf_counter_ns(), c0, c1)
        return out

    return HashFunction(h.name, h.output_bytes, timed_apply)


def traced_kem(kem: KemInstance, rec: Recorder) -> KemInstance:
    prefix = scheme_span_prefix(kem.name)
    return KemInstance(kem.name, *(rec.timed(f"{prefix}.{op}", getattr(kem, op))
                                   for op in KEM_OPS))


def traced_sig(sig: SigInstance, rec: Recorder) -> SigInstance:
    prefix = scheme_span_prefix(sig.name)
    return SigInstance(sig.name, *(rec.timed(f"{prefix}.{op}", getattr(sig, op))
                                   for op in SIG_OPS))


class TracedEndpoint:
    """Endpoint proxy: send and recv_exact become spans whose amount is
    the byte count moved."""

    def __init__(self, inner, rec: Recorder):
        self._inner = inner
        self._rec = rec
        self._send = rec.name_id(SEND)
        self._recv = rec.name_id(RECV)

    def send(self, data: bytes) -> None:
        w0 = perf_counter_ns()
        c0 = thread_time_ns()
        try:
            self._inner.send(data)
        finally:
            c1 = thread_time_ns()
            self._rec.add(self._send, len(data), w0, perf_counter_ns(), c0, c1)

    def recv_exact(self, n: int) -> bytes:
        w0 = perf_counter_ns()
        c0 = thread_time_ns()
        try:
            return self._inner.recv_exact(n)
        finally:
            c1 = thread_time_ns()
            self._rec.add(self._recv, n, w0, perf_counter_ns(), c0, c1)

    def close(self) -> None:
        self._inner.close()


# --- interval arithmetic ---


def merge(intervals) -> list[tuple[int, int]]:
    """Union of (start, end) intervals as sorted disjoint intervals."""
    out: list[list[int]] = []
    for a, b in sorted(intervals):
        if out and a <= out[-1][1]:
            if b > out[-1][1]:
                out[-1][1] = b
        else:
            out.append([a, b])
    return [(a, b) for a, b in out]


class Coverage:
    """Answers 'how much of [a, b] do these intervals cover' in log time."""

    def __init__(self, intervals):
        merged = merge(intervals)
        self.starts = [a for a, _ in merged]
        self.ends = [b for _, b in merged]
        self.prefix = [0, *accumulate(b - a for a, b in merged)]

    @property
    def total(self) -> int:
        return self.prefix[-1]

    def within(self, a: int, b: int) -> int:
        if b <= a:
            return 0
        lo = bisect_right(self.ends, a)  # first interval ending after a
        hi = bisect_left(self.starts, b)  # intervals from here start at or after b
        if lo >= hi:
            return 0
        covered = self.prefix[hi] - self.prefix[lo]
        covered -= max(0, a - self.starts[lo])
        covered -= max(0, self.ends[hi - 1] - b)
        return covered


def self_time(span: tuple[int, int], children: Coverage) -> int:
    """A span's wall time minus the part of it its children cover."""
    a, b = span
    return (b - a) - children.within(a, b)


def intersection(x: Coverage, intervals) -> int:
    """Measure of x's union intersected with the union of intervals."""
    return sum(x.within(a, b) for a, b in merge(intervals))


# --- aggregation ---


def summarize(rec: Recorder, messages: dict[str, int], ops: int) -> dict[str, float]:
    """Per-op layer metrics from a finished recording.

    messages holds total bytes per handshake message name over the ops.
    trace.overhead is left to the caller, which alone has the untraced run.
    """
    if ops < 1:
        raise ValueError("no ops to normalise by")
    ms = 1e-6 / ops
    ids = {name: i for i, name in enumerate(rec.names)}
    buffers = rec.buffers()
    hash_id = ids.get(HASH, -1)
    op_id = ids.get(OP, -1)

    calls: dict[str, int] = {}
    amount: dict[str, int] = {}
    wall: dict[str, int] = {}
    cpu: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    op_intervals: list[tuple[int, int]] = []
    child_intervals: list[tuple[int, int]] = []
    hash_intervals: list[tuple[int, int]] = []

    for buf in buffers:
        own_hash = Coverage((buf.w0[i], buf.w1[i]) for i in range(len(buf.name))
                            if buf.name[i] == hash_id)
        for i, sid in enumerate(buf.name):
            name = rec.names[sid]
            span = (buf.w0[i], buf.w1[i])
            if sid == op_id:
                op_intervals.append(span)
                continue
            child_intervals.append(span)
            if sid == hash_id:
                hash_intervals.append(span)
            calls[name] = calls.get(name, 0) + 1
            amount[name] = amount.get(name, 0) + buf.amount[i]
            wall[name] = wall.get(name, 0) + span[1] - span[0]
            cpu[name] = cpu.get(name, 0) + buf.c1[i] - buf.c0[i]
            self_ns[name] = self_ns.get(name, 0) + self_time(span, own_hash)

    op_wall = Coverage(op_intervals).total
    out = {
        f"{HASH}.calls_per_op": calls.get(HASH, 0) / ops,
        f"{HASH}.bytes_per_op": amount.get(HASH, 0) / ops,
        f"{HASH}.busy_ms_per_op": cpu.get(HASH, 0) * ms,
        f"{HASH}.wait_ms_per_op": (wall.get(HASH, 0) - cpu.get(HASH, 0)) * ms,
        f"{HASH}.share": Coverage(hash_intervals).total / op_wall if op_wall else 0.0,
    }
    for prefix, op in scheme_op_spans():
        name = f"{prefix}.{op}"
        out[f"{name}.calls_per_op"] = calls.get(name, 0) / ops
        out[f"{name}.self_ms_per_op"] = self_ns.get(name, 0) * ms
    out["tlssim.transport.frames_per_op"] = calls.get(SEND, 0) / ops
    out["tlssim.transport.bytes_per_op"] = amount.get(SEND, 0) / ops
    out["tlssim.transport.send_ms_per_op"] = wall.get(SEND, 0) * ms
    out["tlssim.transport.recv_wait_ms_per_op"] = wall.get(RECV, 0) * ms
    out["tlssim.connect_ms_per_op"] = wall.get(CONNECT, 0) * ms
    covered = intersection(Coverage(child_intervals), op_intervals)
    out["tlssim.residual_ms_per_op"] = (op_wall - covered) * ms
    for m in MESSAGES:
        out[f"tlssim.msg.{m}.bytes"] = messages.get(m, 0) / ops
    return out

"""Self-tests for the handshake benchmark: tracing changes no byte, the
interval arithmetic is right on hand-built spans, and the tail rule picks
the percentile it promises.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path
from random import Random

import pytest

import run
import spans
import workloads
from pqbench import tlssim

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def _handshake(cfg, wrap, seed):
    """Frames on the wire in send order, plus everything in the transcript
    but its wall time."""
    frames = []

    def capture(data):
        frames.append(data)
        return data

    client, server = tlssim.memory_pair(capture, capture)
    t = tlssim.run_handshake(cfg, cfg, (wrap(client), wrap(server)), Random(seed))
    return (frames, t.messages, t.client_read_bytes, t.client_write_bytes,
            t.client_key_digest, t.server_key_digest)


@pytest.mark.parametrize("name, labels", [
    ("registry-stubs", ["SIKEp610"]),
    ("hashsig-suites", ["stub-kem+lamport", "stub-kem+wots", "stub-kem+mss"]),
    ("tcp-light-suites", sorted(l for l in workloads.PINNED_BYTES if "+" in l
                                and l.split("+")[1] in ("uov", "fs-dlog"))),
])
def test_tracing_changes_no_byte(name, labels):
    rec = spans.Recorder()
    with workloads.Workload(name) as plain, workloads.Workload(name, rec) as traced:
        plain_mix = {c.label: c for c in plain.mix}
        traced_mix = {c.label: c for c in traced.mix}
        assert sorted(plain_mix) == sorted(traced_mix)
        for i, label in enumerate(labels):
            want = _handshake(plain_mix[label], lambda e: e, 100 + i)
            got = _handshake(traced_mix[label], lambda e: spans.TracedEndpoint(e, rec), 100 + i)
            assert got == want, label
            assert got[-2] == got[-1]
    names = set(rec.names)
    assert {spans.HASH, spans.SEND, spans.RECV} <= names


def test_tracing_changes_no_byte_over_tcp():
    rec = spans.Recorder()
    with workloads.Workload("tcp-light-suites") as plain, \
            workloads.Workload("tcp-light-suites", rec) as traced:
        for p, t in zip(plain.mix, traced.mix):
            want = tlssim.run_handshake(p, p, plain.transport(), Random(7))
            got = tlssim.run_handshake(t, t, traced.transport(), Random(7))
            assert (got.messages, got.client_key_digest, got.server_key_digest) == \
                (want.messages, want.client_key_digest, want.server_key_digest)
    assert spans.CONNECT in rec.names


def test_pinned_table_covers_every_suite():
    labels = set()
    for name in run.WORKLOADS:
        with workloads.Workload(name) as wl:
            labels |= {c.label for c in wl.mix}
    assert labels == set(workloads.PINNED_BYTES)
    assert len(labels) == 27
    assert set(workloads.REGISTRY_SIZE_ORDER) <= labels


def test_coverage_within():
    cov = spans.Coverage([(20, 30), (0, 10), (25, 28)])
    assert cov.total == 20
    assert cov.within(5, 25) == 10
    assert cov.within(10, 20) == 0
    assert cov.within(12, 18) == 0
    assert cov.within(22, 28) == 6
    assert cov.within(-5, 100) == 20
    assert cov.within(30, 5) == 0
    assert spans.Coverage([]).within(0, 10) == 0
    assert spans.merge([(5, 7), (0, 3), (3, 4), (6, 9)]) == [(0, 4), (5, 9)]
    assert spans.self_time((0, 40), spans.Coverage([(5, 15), (10, 20), (30, 35)])) == 20


def test_summarize_on_hand_built_spans():
    """Two threads whose hashing overlaps in wall time: shares use the
    union, self time subtracts only the same thread's hashing."""
    rec = spans.Recorder()
    op = rec.name_id(spans.OP)
    h = rec.name_id(spans.HASH)
    keypair = rec.name_id("kex.ecdh-toy.keypair")
    sign = rec.name_id("hashsig.mss.sign")

    # (name, amount, wall start, wall end, cpu start, cpu end)
    caller = [(h, 8, 20, 30, 0, 5), (h, 8, 35, 45, 5, 10), (keypair, 0, 10, 50, 0, 20),
              (h, 4, 60, 70, 20, 30), (op, 0, 0, 100, 0, 0)]
    server = [(h, 2, 25, 40, 0, 15), (h, 2, 55, 65, 15, 25), (sign, 0, 50, 90, 0, 40)]
    for span in caller:
        rec.add(*span)
    worker = threading.Thread(target=lambda: [rec.add(*s) for s in server])
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()

    m = spans.summarize(rec, {"ClientHello": 120}, ops=1)
    ns = 1e-6  # ms per ns
    assert m["hashing.calls_per_op"] == 5
    assert m["hashing.bytes_per_op"] == 24
    assert m["hashing.busy_ms_per_op"] == pytest.approx(45 * ns)
    assert m["hashing.wait_ms_per_op"] == pytest.approx((55 - 45) * ns)
    # union [20, 45] + [55, 70] = 40 of the op's 100; the sum would say 55
    assert m["hashing.share"] == pytest.approx(0.40)
    assert m["kex.ecdh-toy.keypair.calls_per_op"] == 1
    assert m["kex.ecdh-toy.keypair.self_ms_per_op"] == pytest.approx(20 * ns)
    assert m["hashsig.mss.sign.self_ms_per_op"] == pytest.approx(30 * ns)
    # children cover [10, 90]
    assert m["tlssim.residual_ms_per_op"] == pytest.approx(20 * ns)
    assert m["tlssim.msg.ClientHello.bytes"] == 120
    assert m["mq.uov.sign.calls_per_op"] == 0


def test_traced_counts_repeat_exactly():
    def counts(seed):
        rec = spans.Recorder()
        with workloads.Workload("tcp-light-suites", rec) as wl:
            out = run.run_loop(wl, 1, seed, rec)
        assert out.correct, out.failures + out.check_errors
        m = spans.summarize(rec, out.message_bytes, out.attempted)
        return {k: v for k, v in m.items()
                if k.endswith(("calls_per_op", "frames_per_op", ".bytes"))
                or k == "hashing.bytes_per_op"}

    first = counts(5)
    assert first == counts(5)
    assert first["tlssim.transport.frames_per_op"] == 7
    assert first["mq.uov.sign.calls_per_op"] == 1  # half the suites, two signs each


@pytest.mark.parametrize("n, p, value", [(100, 90, 90), (1000, 99, 990), (35, 71, 25), (11, 9, 1)])
def test_tail_percentile(n, p, value):
    samples = list(range(n, 0, -1))
    assert run.tail_percentile(samples) == (p, value)
    assert sum(1 for s in samples if s > value) == 10


def test_tail_percentile_needs_eleven_samples():
    with pytest.raises(ValueError):
        run.tail_percentile(list(range(10)))


def test_benchmark_json_matches_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [m["name"] for m in spec["per_layer"]] == spans.per_layer_metric_names()
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hashsig-suites",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout

"""Handshake benchmark for pqbench: end-to-end figures and a per-layer trace.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload registry-stubs --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

--trace 0 prints the end-to-end metrics of one untraced run.  --trace 1
makes an untraced and then a traced run with the same seed, each half as
long, and prints the per-layer metrics of the traced one.  --seconds sets
how many complete passes over the workload's suite mix are timed, through
a constant rate per workload, so both sides of a comparison time the same
handshakes.  Times are scaled to a reference speed of the host (see
REFERENCE_NS); the unscaled wall-clock figures are printed as well.

Every handshake is checked: key digests agree, client byte counts equal
the pinned table, and registry suites keep the published size ranking.  A
failed check counts into the failures and makes the exit code 1.  The last
line of output is one JSON object with the keys correct, attempted, failed
and metrics.  The benchmark imports pqbench from the checkout's src/
directory only, and refuses to run without it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from random import Random

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("registry-stubs", "hashsig-suites", "tcp-light-suites")
SETUP_PROBES = 5
MAX_REPORTED_FAILURES = 10
# The host's speed swings by up to 1.8x for seconds at a time, in step for
# all pure-Python code.  A fixed loop is timed before the first handshake and
# after every handshake, and each handshake's wall time is scaled to the
# speed at which that loop takes REFERENCE_NS, from the mean of the two loop
# timings that bracket it.  Wider windows of loop timings spread more.
REFERENCE_ROUNDS = 800
REFERENCE_NS = 1_000_000
_REFERENCE_INPUT = bytes(range(256)) * 4
_MASK64 = (1 << 64) - 1

E2E_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "handshake_bytes": "B",
    "success_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith(("calls_per_op", "frames_per_op")):
        return "count"
    if name.endswith(("bytes_per_op", ".bytes")):
        return "B"
    if name.endswith("_ms_per_op"):
        return "ms"
    return "ratio"


def tail_percentile(samples) -> tuple[int, float]:
    """(p, value): the highest whole percentile with at least ten samples
    above it, by nearest rank."""
    n = len(samples)
    if n < 11:
        raise ValueError(f"a tail needs at least 11 samples, got {n}")
    ordered = sorted(samples)
    for p in range(99, 0, -1):
        rank = -(-p * n // 100)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    raise AssertionError("unreachable for n >= 11")


def reference_ns() -> int:
    """Wall time of a fixed pure-Python loop that calls nothing in pqbench.

    It is shaped like pqbench's default hash (64-bit multiply and shift
    rounds over byte slices), because host slowdowns hit that kind of code
    harder than a plain integer loop."""
    t0 = time.perf_counter_ns()
    lanes = [1, 2, 3, 4]
    out = bytearray()
    for i in range(REFERENCE_ROUNDS):
        at = (i * 8) & 1016
        x = lanes[i & 3] ^ int.from_bytes(_REFERENCE_INPUT[at:at + 8], "big")
        x ^= x >> 30
        x = (x * 0xBF58476D1CE4E5B9) & _MASK64
        x ^= x >> 27
        x = (x * 0x94D049BB133111EB) & _MASK64
        x ^= x >> 31
        lanes[i & 3] = x
        out += x.to_bytes(8, "big")
    return time.perf_counter_ns() - t0


@dataclass
class Outcome:
    """What one timed loop saw."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)  # one per failed op
    check_errors: list[str] = field(default_factory=list)  # run-level checks
    wall_ms: list[float] = field(default_factory=list)  # per successful op
    ref_index: list[int] = field(default_factory=list)  # loop timing just before it
    reference_ns: list[int] = field(default_factory=list)
    handshake_bytes: list[int] = field(default_factory=list)
    message_bytes: dict[str, int] = field(default_factory=dict)
    totals: dict[str, int] = field(default_factory=dict)

    @property
    def latencies_ms(self) -> list[float]:
        """Per-op latency at reference speed."""
        refs = self.reference_ns
        return [ms * 2 * REFERENCE_NS / (refs[i] + refs[i + 1])
                for ms, i in zip(self.wall_ms, self.ref_index)]

    @property
    def ops_per_s(self) -> float:
        """Closed-loop throughput at reference speed; 0 with no successful op."""
        return len(self.wall_ms) / (sum(self.latencies_ms) / 1e3) if self.wall_ms else 0.0

    @property
    def wall_ops_per_s(self) -> float:
        """The same throughput, unscaled."""
        return len(self.wall_ms) / (sum(self.wall_ms) / 1e3)

    @property
    def correct(self) -> bool:
        return not self.failures and not self.check_errors


def set_up(name: str, seed: int):
    """Everything before the first timed op: import, registry load, suite
    construction, listener bind and one warm-up handshake."""
    import workloads
    from pqbench import tlssim

    wl = workloads.Workload(name)
    try:
        cfg = wl.mix[0]
        tlssim.run_handshake(cfg, cfg, wl.transport(), Random(f"{seed}/warm-up"))
    except BaseException:
        wl.close()
        raise
    return wl


def run_loop(wl, passes: int, seed: int, rec=None) -> Outcome:
    """Time `passes` complete round-robin passes over the workload's mix."""
    from pqbench import tlssim
    from pqbench.errors import PqbenchError

    import spans
    import workloads

    out = Outcome()
    master = Random(seed)
    op_id = rec.name_id(spans.OP) if rec is not None else None
    out.reference_ns.append(reference_ns())
    for _ in range(passes):
        for cfg in wl.mix:
            rng = Random(master.randrange(2**63))
            out.attempted += 1
            t0 = time.perf_counter_ns()
            try:
                t = tlssim.run_handshake(cfg, cfg, wl.transport(), rng)
            except (PqbenchError, OSError) as e:
                out.failures.append(f"{cfg.label}: {type(e).__name__}: {e}")
                continue
            finally:
                t1 = time.perf_counter_ns()
                out.reference_ns.append(reference_ns())
            if rec is not None:
                rec.add(op_id, 0, t0, t1, 0, 0)
            got = (t.client_read_bytes, t.client_write_bytes)
            if t.client_key_digest != t.server_key_digest:
                out.failures.append(f"{cfg.label}: client and server key digests differ")
                continue
            if got != workloads.PINNED_BYTES[cfg.label]:
                out.failures.append(f"{cfg.label}: client read/write bytes {got}, "
                                    f"pinned {workloads.PINNED_BYTES[cfg.label]}")
                continue
            out.wall_ms.append((t1 - t0) / 1e6)
            out.ref_index.append(len(out.reference_ns) - 2)
            out.handshake_bytes.append(sum(got))
            out.totals[cfg.label] = sum(got)
            for msg, size in t.messages:
                out.message_bytes[msg] = out.message_bytes.get(msg, 0) + size
    if not wl.spec.sigs:
        observed = sorted(out.totals, key=out.totals.get)
        if observed != list(workloads.REGISTRY_SIZE_ORDER):
            out.check_errors.append(f"registry suites rank {observed}, "
                                    f"published {list(workloads.REGISTRY_SIZE_ORDER)}")
    return out


def probe_setup(name: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to the end of its set-up,
    at reference speed.

    CLOCK_MONOTONIC is one clock for every process on the host, so the
    child's reading can be compared with the parent's."""
    before = reference_ns()
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    wall = float(done.stdout.strip().splitlines()[-1]) - started
    return wall * REFERENCE_NS / statistics.fmean((before, reference_ns()))


def environment(name: str, seed: int, passes: int, suites: int, hash_name: str) -> list[str]:
    import workloads

    transport = workloads.SPECS[name].transport
    clock = time.get_clock_info("perf_counter")
    return [
        f"env python={platform.python_version()} hash={hash_name} seed={seed} "
        f"nproc={len(os.sched_getaffinity(0))} perf_counter_resolution_s={clock.resolution}",
        f"env workload={name} transport={transport} "
        f"({workloads.TRANSPORT_NOTE[transport]})",
        f"env closed loop, one client; {passes} passes x {suites} suites = "
        f"{passes * suites} handshakes",
    ]


def report_failures(out: Outcome) -> None:
    for line in out.check_errors + out.failures[:MAX_REPORTED_FAILURES]:
        print(f"failure: {line}", file=sys.stderr)
    if len(out.failures) > MAX_REPORTED_FAILURES:
        print(f"failure: ... {len(out.failures) - MAX_REPORTED_FAILURES} more ops",
              file=sys.stderr)


def end_to_end(name: str, seed: int, seconds: int) -> tuple[list[str], Outcome, dict]:
    import workloads

    setup_s = statistics.median(probe_setup(name, seed) for _ in range(SETUP_PROBES))
    passes = workloads.passes_for(name, seconds)
    with set_up(name, seed) as wl:
        out = run_loop(wl, passes, seed)
        lines = environment(name, seed, passes, len(wl.mix), wl.hash_name)
    report_failures(out)
    latencies = out.latencies_ms
    n = len(latencies)
    # with no successful op the latency figures read 0 and correct is false
    metrics = {
        "ops_per_s": out.ops_per_s,
        "op_p50_ms": statistics.median(latencies) if n else 0.0,
        "op_tail_ms": 0.0,
        "handshake_bytes": statistics.fmean(out.handshake_bytes) if n else 0.0,
        "success_rate": n / out.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if n >= 11:
        p, metrics["op_tail_ms"] = tail_percentile(latencies)
        lines.append(f"op_tail_ms is p{p} of {n} handshake samples")
    if n:
        lines.append(
            f"wall clock, unscaled: {out.wall_ops_per_s} handshakes/s, "
            f"p50 {statistics.median(out.wall_ms)} ms; reference loop median "
            f"{statistics.median(out.reference_ns) / 1e6} ms, scaled to {REFERENCE_NS / 1e6} ms")
    lines.append(f"error_rate = {len(out.failures) / out.attempted} "
                 f"({len(out.failures)} failed of {out.attempted} attempted)")
    return lines, out, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}


def per_layer(name: str, seed: int, seconds: int) -> tuple[list[str], Outcome, dict]:
    import spans
    import workloads

    passes = workloads.passes_for(name, seconds / 2)
    with set_up(name, seed) as wl:
        plain = run_loop(wl, passes, seed)
    rec = spans.Recorder()
    with workloads.Workload(name, rec) as wl:
        traced = run_loop(wl, passes, seed, rec)
        lines = environment(name, seed, passes, len(wl.mix), wl.hash_name)
    if plain.handshake_bytes != traced.handshake_bytes:
        traced.check_errors.append("traced handshakes moved other bytes than untraced ones")
    traced.failures += plain.failures
    traced.check_errors += plain.check_errors
    traced.attempted += plain.attempted
    report_failures(traced)
    metrics = spans.summarize(rec, traced.message_bytes, passes * len(wl.mix))
    metrics["trace.overhead"] = plain.ops_per_s / traced.ops_per_s if traced.wall_ms else 0.0
    lines.append(f"traced {passes * len(wl.mix)} handshakes; "
                 f"untraced {plain.ops_per_s:.3f}/s, traced {traced.ops_per_s:.3f}/s")
    return lines, traced, {k: (v, layer_unit(k)) for k, v in metrics.items()}


def run_all(args) -> int:
    """Each workload in its own process, so set-up and peak RSS stay its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"] and done.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (SRC / "pqbench" / "__init__.py").is_file():
        print(f"error: no pqbench sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pqbench

    if Path(pqbench.__file__).resolve().parent != SRC / "pqbench":
        print(f"error: imported pqbench from {pqbench.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        wl = set_up(args.workload, args.seed)
        ready = time.monotonic()
        wl.close()
        print(repr(ready))
        return 0

    measure = per_layer if args.trace else end_to_end
    lines, out, metrics = measure(args.workload, args.seed, args.seconds)
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": len(out.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())

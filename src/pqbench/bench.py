"""Interval benchmarking harness with plaintext reports.

The measurement style mirrors the reference C library's built-in speed
tests: run one operation back to back for a set interval (default three
seconds), record per-call durations, and report the arithmetic mean and
sample standard deviation.  When the interval yields too few samples the
run is repeated once with an interval stretched to fit min_samples calls
plus 25% headroom, which guarantees n >= min_samples for operations
whose duration is stable within that margin.

Clocks are injectable: anything callable returning monotonic nanoseconds
works, and FakeClock gives tests exact control of elapsed time.

The text format is one record per line:

    <scheme> | <operation> | n=<int> | mean_us=<dec> | stddev_us=<dec> | cycles=<int|->

parse_text also accepts the raw three-column cycle tables this package
ships as fixtures (a `Cipher Dec Enc Keygen` or `Cipher Keypair Sign
Verify` header followed by `name value value value` rows); each such row
expands to three records carrying only cycle counts.
"""

from __future__ import annotations

import itertools
import math
import statistics
import sys
import time
from dataclasses import dataclass, field, replace
from importlib import resources
from random import Random
from typing import Callable, Iterable

from .errors import PqbenchError
from .kex import KemInstance, SigInstance

KEM_OPS = ("keygen", "encaps", "decaps")
SIG_OPS = ("keypair", "sign", "verify")

# appendix-style table headers -> operation per numeric column
_TABLE_HEADERS = {
    ("Cipher", "Dec", "Enc", "Keygen"): ("decaps", "encaps", "keygen"),
    ("Cipher", "Keypair", "Sign", "Verify"): ("keypair", "sign", "verify"),
}


class BenchFailure(PqbenchError):
    """The operation under test raised; partial timings are discarded."""


class ParseError(PqbenchError):
    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class FakeClock:
    """Deterministic nanosecond clock; time passes only when told to."""

    def __init__(self, start_ns: int = 0):
        self.now_ns = start_ns

    def __call__(self) -> int:
        return self.now_ns

    def advance_ns(self, ns: int) -> None:
        if ns < 0:
            raise ValueError("time only moves forward")
        self.now_ns += ns


@dataclass(frozen=True)
class BenchConfig:
    interval_seconds: float = 3.0
    min_samples: int = 30
    clock: Callable[[], int] = time.monotonic_ns

    def __post_init__(self):
        # the harness times in whole nanoseconds, so the interval must be
        # a positive, finite count of them (this also rejects nan)
        if not 0 < self.interval_seconds * 1e9 < math.inf:
            raise ValueError("interval_seconds must be positive and finite")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        # adaptive_bench scales the interval by min_samples as a float
        if self.min_samples > sys.float_info.max:
            raise ValueError("min_samples is too large to become a float")


@dataclass(frozen=True)
class BenchStats:
    n: int
    mean_us: float
    stddev_us: float
    # derived bookkeeping, not carried by the text format
    total_elapsed_us: float = field(compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        # no measurement yields a negative or non-finite duration
        if not 0 <= self.mean_us < math.inf:
            raise ValueError("mean must be finite and >= 0")
        if not 0 <= self.stddev_us < math.inf:
            raise ValueError("stddev must be finite and >= 0")
        if self.mean_us * self.n > self.total_elapsed_us * (1 + 1e-9) + 1e-6:
            raise ValueError("mean * n exceeds total elapsed time")


@dataclass(frozen=True)
class BenchRecord:
    scheme: str
    operation: str
    stats: BenchStats
    cycles: int | None = None

    def __post_init__(self):
        if self.operation not in KEM_OPS + SIG_OPS:
            raise ValueError(f"unknown operation {self.operation!r}")
        if self.cycles is not None and self.cycles < 0:
            raise ValueError("cycles must be >= 0")


def summarize(durations_us: list[float], total_elapsed_us: float) -> BenchStats:
    """Sample statistics of per-call durations: mean and sample stddev
    (0 for a single call)."""
    return BenchStats(
        n=len(durations_us),
        mean_us=statistics.fmean(durations_us),
        stddev_us=statistics.stdev(durations_us) if len(durations_us) > 1 else 0.0,
        total_elapsed_us=total_elapsed_us,
    )


def run_timed(op: Callable[[], object], config: BenchConfig) -> BenchStats:
    """Call op until the interval expires; a call that begins before the
    cutoff is completed and counted.  At least one call always happens."""
    clock = config.clock
    durations_ns: list[int] = []
    region_start = clock()
    deadline = region_start + round(config.interval_seconds * 1e9)
    while True:
        t0 = clock()
        if durations_ns and t0 >= deadline:
            region_end = t0
            break
        try:
            op()
        except Exception as e:
            raise BenchFailure(f"benchmarked op raised {type(e).__name__}: {e}") from e
        durations_ns.append(clock() - t0)
    return summarize([d / 1000 for d in durations_ns], (region_end - region_start) / 1000)


def adaptive_bench(op: Callable[[], object], config: BenchConfig) -> BenchStats:
    """run_timed, rerun once at a stretched interval when undersampled.

    The rerun replaces the first pass rather than pooling with it, so the
    reported statistics come from a single homogeneous run.
    """
    first = run_timed(op, config)
    if first.n >= config.min_samples or first.mean_us <= 0:
        return first
    stretched = first.mean_us * config.min_samples * 1.25 / 1e6
    if not stretched * 1e9 < math.inf:
        raise ValueError(f"min_samples={config.min_samples} would stretch the interval "
                         f"to {stretched:g} s, too long to time")
    return run_timed(op, replace(config, interval_seconds=stretched))


def bench_kem(kem: KemInstance, config: BenchConfig,
              rng: Random | None = None) -> list[BenchRecord]:
    """Time keygen, then encaps and decaps against one fixed keypair.

    Decapsulation runs over a pool of pre-generated ciphertexts so the
    timed region contains nothing but decaps calls.
    """
    rng = rng if rng is not None else Random(0)
    records = [BenchRecord(kem.name, "keygen",
                           adaptive_bench(lambda: kem.keypair(rng), config))]
    public, secret = kem.keypair(rng)
    records.append(BenchRecord(kem.name, "encaps",
                               adaptive_bench(lambda: kem.encaps(public, rng), config)))
    pool = itertools.cycle([kem.encaps(public, rng)[0] for _ in range(32)])
    records.append(BenchRecord(kem.name, "decaps",
                               adaptive_bench(lambda: kem.decaps(secret, next(pool)), config)))
    return records


def bench_sig(sig: SigInstance, config: BenchConfig,
              rng: Random | None = None) -> list[BenchRecord]:
    """Time keypair, then sign (with the secret keypair returned, so no
    key rebuild) and verify against one fixed keypair; verification runs
    over pre-computed message/signature pairs."""
    rng = rng if rng is not None else Random(0)
    records = [BenchRecord(sig.name, "keypair",
                           adaptive_bench(lambda: sig.keypair(rng), config))]
    public, secret = sig.keypair(rng)
    messages = itertools.cycle([b"bench message %d" % i for i in range(32)])
    records.append(BenchRecord(sig.name, "sign",
                               adaptive_bench(lambda: sig.sign(secret, next(messages)), config)))
    pairs = itertools.cycle(
        [(m, sig.sign(secret, m)) for m in (b"bench message %d" % i for i in range(32))]
    )
    def verify_one():
        m, s = next(pairs)
        sig.verify(public, m, s)
    records.append(BenchRecord(sig.name, "verify", adaptive_bench(verify_one, config)))
    return records


# --- text formats ---


def emit_text(records: Iterable[BenchRecord]) -> str:
    lines = []
    for r in records:
        cycles = "-" if r.cycles is None else str(r.cycles)
        lines.append(
            f"{r.scheme} | {r.operation} | n={r.stats.n}"
            f" | mean_us={r.stats.mean_us:.3f} | stddev_us={r.stats.stddev_us:.3f}"
            f" | cycles={cycles}"
        )
    return "".join(line + "\n" for line in lines)


def _parse_field(line_no: int, text: str, key: str) -> str:
    prefix = key + "="
    if not text.startswith(prefix):
        raise ParseError(line_no, f"expected {prefix}<value>, got {text!r}")
    return text[len(prefix):]


def _parse_pipe_line(line_no: int, line: str) -> BenchRecord:
    parts = [p.strip() for p in line.split("|")]
    if len(parts) != 6:
        raise ParseError(line_no, f"expected 6 pipe-separated fields, got {len(parts)}")
    scheme, operation = parts[0], parts[1]
    if not scheme:
        raise ParseError(line_no, "empty scheme name")
    try:
        n = int(_parse_field(line_no, parts[2], "n"))
        mean_us = float(_parse_field(line_no, parts[3], "mean_us"))
        stddev_us = float(_parse_field(line_no, parts[4], "stddev_us"))
        raw_cycles = _parse_field(line_no, parts[5], "cycles")
        cycles = None if raw_cycles == "-" else int(raw_cycles)
    except ValueError as e:
        raise ParseError(line_no, f"bad numeric field: {e}") from e
    try:
        stats = BenchStats(n, mean_us, stddev_us, total_elapsed_us=mean_us * n)
        return BenchRecord(scheme, operation, stats, cycles)
    except ValueError as e:
        raise ParseError(line_no, str(e)) from e


def parse_text(text: str) -> list[BenchRecord]:
    """Inverse of emit_text, plus appendix-style cycle tables (see module
    docstring).  Raises ParseError carrying the offending line number."""
    records: list[BenchRecord] = []
    column_ops: tuple[str, str, str] | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "|" in line:
            records.append(_parse_pipe_line(line_no, line))
            continue
        tokens = line.split()
        header = _TABLE_HEADERS.get(tuple(tokens))
        if header is not None:
            column_ops = header
            continue
        if len(tokens) != 4:
            raise ParseError(line_no, f"expected `name v v v` row, got {len(tokens)} tokens")
        if column_ops is None:
            raise ParseError(line_no, "cycle row before any table header")
        empty = BenchStats(1, 0.0, 0.0, total_elapsed_us=0.0)
        try:
            records += [BenchRecord(tokens[0], op_name, empty, int(cycles))
                        for op_name, cycles in zip(column_ops, tokens[1:])]
        except ValueError as e:
            raise ParseError(line_no, f"bad cycle count: {e}") from e
    return records


def emit_csv(records: Iterable[BenchRecord]) -> str:
    lines = ["scheme,operation,n,mean_us,stddev_us"]
    for r in records:
        lines.append(
            f"{r.scheme},{r.operation},{r.stats.n}"
            f",{r.stats.mean_us:.3f},{r.stats.stddev_us:.3f}"
        )
    return "".join(line + "\n" for line in lines)


def emit_chart_data(records: Iterable[BenchRecord]) -> str:
    """`operation value` lines grouped under a `# scheme` line; value is
    the mean in microseconds.

    Schemes keep first-seen order, records keep input order inside each
    scheme, so the data-line count always equals the record count.
    """
    groups: dict[str, list[BenchRecord]] = {}
    for r in records:
        groups.setdefault(r.scheme, []).append(r)
    blocks = []
    for scheme, rs in groups.items():
        lines = [f"# {scheme}"]
        for r in rs:
            lines.append(f"{r.operation} {r.stats.mean_us:.3f}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


def fixture_text(name: str) -> str:
    """Read one of the packaged benchmark fixture files by bare name."""
    return (resources.files("pqbench") / "data" / name).read_text()

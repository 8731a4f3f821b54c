"""Harness behavior under a fake clock, plus the text format grammar."""

import csv
import io
import math
from random import Random

import pytest

from pqbench.bench import (
    BenchConfig,
    BenchFailure,
    BenchRecord,
    BenchStats,
    FakeClock,
    ParseError,
    adaptive_bench,
    bench_kem,
    bench_sig,
    emit_chart_data,
    emit_csv,
    emit_text,
    fixture_text,
    parse_text,
    run_timed,
)
from pqbench.kex import KemInstance, SigInstance
from pqbench.suites import builtin_kems, sized_stub_kem, sized_stub_sig

MS = 1_000_000  # ns


def ticking_op(clock, ns):
    def op():
        clock.advance_ns(ns)
    return op


def cfg(clock, interval=3.0, min_samples=30):
    return BenchConfig(interval_seconds=interval, min_samples=min_samples, clock=clock)


def test_config_validation():
    with pytest.raises(ValueError):
        BenchConfig(interval_seconds=0)
    with pytest.raises(ValueError):
        BenchConfig(min_samples=0)
    # the harness counts whole nanoseconds: no infinite, overflowing or nan interval
    for interval in (math.inf, 1e300, math.nan):
        with pytest.raises(ValueError):
            BenchConfig(interval_seconds=interval)


def test_stats_validation():
    with pytest.raises(ValueError):
        BenchStats(0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        BenchStats(1, 1.0, -0.1, 1.0)
    with pytest.raises(ValueError):
        BenchStats(10, 5.0, 0.0, 4.0)  # mean*n > total


def test_constant_one_ms_op_gives_three_thousand_samples():
    clock = FakeClock()
    stats = run_timed(ticking_op(clock, MS), cfg(clock))
    assert stats.n == 3000
    assert stats.mean_us == 1000.0
    assert stats.stddev_us == 0.0
    assert stats.total_elapsed_us == 3_000_000.0


def test_call_beginning_before_cutoff_is_counted():
    clock = FakeClock()
    stats = run_timed(ticking_op(clock, 2000 * MS), cfg(clock))
    assert stats.n == 2  # second call began at 2.0s, before the 3.0s cutoff


def test_at_least_one_call_even_when_op_exceeds_interval():
    clock = FakeClock()
    stats = run_timed(ticking_op(clock, 5000 * MS), cfg(clock))
    assert stats.n == 1
    assert stats.stddev_us == 0.0


def test_alternating_durations_match_hand_computed_stddev():
    clock = FakeClock()
    state = {"flip": False}

    def op():
        state["flip"] = not state["flip"]
        clock.advance_ns(MS if state["flip"] else 3 * MS)

    stats = run_timed(op, cfg(clock))
    assert stats.n == 1500
    assert stats.mean_us == 2000.0
    # sample stddev of a balanced two-point set {1000, 3000}: d*sqrt(n/(n-1))
    expected = 1000.0 * math.sqrt(1500 / 1499)
    assert stats.stddev_us == pytest.approx(expected, rel=1e-12)


def test_op_exception_becomes_bench_failure():
    clock = FakeClock()

    def op():
        raise RuntimeError("kaput")

    with pytest.raises(BenchFailure):
        run_timed(op, cfg(clock))


@pytest.mark.parametrize("duration_ms", [50, 100, 200, 500])
def test_adaptive_reaches_min_samples(duration_ms):
    clock = FakeClock()
    stats = adaptive_bench(ticking_op(clock, duration_ms * MS), cfg(clock))
    assert stats.n >= 30
    assert stats.stddev_us == 0.0


def test_adaptive_rerun_interval_is_mean_times_min_times_125_percent():
    clock = FakeClock()
    stats = adaptive_bench(ticking_op(clock, 200 * MS), cfg(clock))
    # 3s pass gives n=15; rerun at 0.2s*30*1.25 = 7.5s -> calls at 0..7.4s
    assert stats.n == 38


def test_adaptive_no_rerun_at_min_samples_one():
    clock = FakeClock()
    stats = adaptive_bench(ticking_op(clock, 2000 * MS), cfg(clock, min_samples=1))
    assert stats.n == 2


def test_adaptive_enough_samples_first_try():
    clock = FakeClock()
    stats = adaptive_bench(ticking_op(clock, MS), cfg(clock, min_samples=30, interval=0.05))
    assert stats.n == 50


def _instrumented_kem(clock):
    base = sized_stub_kem("instrumented", public_bytes=16, ciphertext_bytes=16)

    def keypair(rng):
        clock.advance_ns(3 * MS)
        return base.keypair(rng)

    def encaps(pk, rng):
        clock.advance_ns(2 * MS)
        return base.encaps(pk, rng)

    def decaps(sk, ct):
        clock.advance_ns(5 * MS)
        return base.decaps(sk, ct)

    return KemInstance("instrumented", keypair, encaps, decaps)


def test_bench_kem_records_and_decaps_accounting():
    clock = FakeClock()
    records = bench_kem(_instrumented_kem(clock), cfg(clock, interval=0.1, min_samples=5))
    assert [r.operation for r in records] == ["keygen", "encaps", "decaps"]
    assert all(r.scheme == "instrumented" for r in records)
    decaps = records[2]
    # only decaps calls advance the clock inside the timed region
    assert decaps.stats.total_elapsed_us == decaps.stats.n * 5000.0
    assert decaps.stats.mean_us == 5000.0
    assert all(r.stats.n >= 5 for r in records)


def test_bench_kem_is_reproducible_under_fake_clock():
    runs = []
    for _ in range(2):
        clock = FakeClock()
        runs.append(bench_kem(_instrumented_kem(clock), cfg(clock, interval=0.05, min_samples=3)))
    assert runs[0] == runs[1]


def test_bench_sig_records():
    clock = FakeClock()
    base = sized_stub_sig("sgn", public_bytes=8, signature_bytes=8)

    def tick(f, ns):
        def wrapped(*args):
            clock.advance_ns(ns)
            return f(*args)
        return wrapped

    sig = SigInstance("sgn", tick(base.keypair, MS), tick(base.sign, 2 * MS),
                      tick(base.verify, MS))
    records = bench_sig(sig, cfg(clock, interval=0.02, min_samples=4))
    assert [r.operation for r in records] == ["keypair", "sign", "verify"]
    assert records[1].stats.mean_us == 2000.0


def test_bench_kem_integration_with_real_scheme():
    records = bench_kem(builtin_kems()["lwe-toy"],
                        BenchConfig(interval_seconds=0.05, min_samples=3),
                        Random(5))
    assert [r.operation for r in records] == ["keygen", "encaps", "decaps"]
    assert all(r.stats.n >= 3 for r in records)
    assert all(r.stats.mean_us > 0 for r in records)
    assert all(r.cycles is None for r in records)


# --- text formats ---


def random_records(rng, count):
    ops = ["keygen", "encaps", "decaps", "keypair", "sign", "verify"]
    out = []
    for _ in range(count):
        n = rng.randint(1, 5000)
        mean = rng.randint(0, 10**9) / 1000  # quantized to the printed precision
        stddev = rng.randint(0, 10**7) / 1000
        stats = BenchStats(n, mean, stddev, total_elapsed_us=mean * n)
        cycles = rng.randint(1, 10**10) if rng.randrange(2) else None
        out.append(BenchRecord(f"scheme-{rng.randrange(40)}", rng.choice(ops), stats, cycles))
    return out


def test_emit_parse_roundtrip_on_random_records():
    rng = Random(60)
    for _ in range(100):
        records = random_records(rng, rng.randint(0, 12))
        assert parse_text(emit_text(records)) == records


def test_emit_text_format_is_exact():
    stats = BenchStats(30, 1234.5, 6.75, total_elapsed_us=37035.0)
    line = emit_text([BenchRecord("Kyber768", "keygen", stats, 889439)])
    assert line == "Kyber768 | keygen | n=30 | mean_us=1234.500 | stddev_us=6.750 | cycles=889439\n"
    line = emit_text([BenchRecord("x", "sign", BenchStats(1, 0.0, 0.0, 0.0))])
    assert line.endswith("cycles=-\n")


def test_parse_skips_comments_and_blanks():
    text = "# header\n\nKyber768 | keygen | n=1 | mean_us=0.000 | stddev_us=0.000 | cycles=5\n"
    assert len(parse_text(text)) == 1
    assert parse_text("") == []
    assert parse_text("# only a comment\n") == []


def test_parse_error_carries_line_number():
    text = "# fine\nKyber768 | keygen | n=1 | mean_us=0.000 | stddev_us=0.000 | cycles=5\nbroken | row | n=x | mean_us=0 | stddev_us=0 | cycles=-\n"
    with pytest.raises(ParseError) as e:
        parse_text(text)
    assert e.value.line_no == 3
    with pytest.raises(ParseError):
        parse_text("a | b | c\n")  # wrong field count
    with pytest.raises(ParseError):
        parse_text("a | nosuchop | n=1 | mean_us=0.0 | stddev_us=0.0 | cycles=-\n")
    with pytest.raises(ParseError):
        parse_text("a | keygen | n=1 | wrongkey=0.0 | stddev_us=0.0 | cycles=-\n")


def test_parse_appendix_style_rows():
    text = (
        "Cipher Dec Enc Keygen\n"
        "Kyber768 1315578 1082738 889439\n"
        "Cipher Keypair Sign Verify\n"
        "DILITHIUM_2 955260 9448237 1160875\n"
    )
    records = parse_text(text)
    assert len(records) == 6
    by_key = {(r.scheme, r.operation): r.cycles for r in records}
    assert by_key[("Kyber768", "decaps")] == 1315578
    assert by_key[("Kyber768", "encaps")] == 1082738
    assert by_key[("Kyber768", "keygen")] == 889439
    assert by_key[("DILITHIUM_2", "keypair")] == 955260
    assert by_key[("DILITHIUM_2", "sign")] == 9448237
    assert by_key[("DILITHIUM_2", "verify")] == 1160875
    assert all(r.stats.n == 1 and r.stats.mean_us == 0.0 for r in records)


def test_cycle_row_before_header_is_an_error():
    with pytest.raises(ParseError) as e:
        parse_text("Kyber768 1315578 1082738 889439\n")
    assert "header" in str(e.value)
    with pytest.raises(ParseError):
        parse_text("Cipher Dec Enc Keygen\nKyber768 10 20\n")


def test_shipped_pipe_fixtures():
    kem_records = parse_text(fixture_text("oqs_kem_cycles.txt"))
    sig_records = parse_text(fixture_text("oqs_sig_cycles.txt"))
    assert len(kem_records) == 31
    assert len(sig_records) == 53
    spot = {(r.scheme, r.operation): r.cycles for r in kem_records + sig_records}
    assert spot[("Kyber768", "keygen")] == 889439
    assert spot[("DILITHIUM_2", "keypair")] == 955260


def test_shipped_full_table_fixtures():
    kem_records = parse_text(fixture_text("oqs_kem_cycles_full.txt"))
    sig_records = parse_text(fixture_text("oqs_sig_cycles_full.txt"))
    assert len(kem_records) == 93  # 31 schemes x 3 operations
    assert len(sig_records) == 159  # 53 schemes x 3 operations
    spot = {(r.scheme, r.operation): r.cycles for r in kem_records + sig_records}
    assert spot[("Kyber768", "keygen")] == 889439
    assert spot[("Sike-p751", "decaps")] == 5656069525
    assert spot[("qTESLA_III_speed", "verify")] == 1250011
    # keygen/keypair columns agree with the one-record-per-scheme fixtures
    kem_short = parse_text(fixture_text("oqs_kem_cycles.txt"))
    for r in kem_short:
        assert spot[(r.scheme, "keygen")] == r.cycles


def test_emit_csv():
    recs = [
        BenchRecord("a", "keygen", BenchStats(2, 10.5, 0.5, 21.0), 99),
        BenchRecord("b", "sign", BenchStats(1, 0.0, 0.0, 0.0)),
    ]
    text = emit_csv(recs)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["scheme", "operation", "n", "mean_us", "stddev_us"]
    assert rows[1] == ["a", "keygen", "2", "10.500", "0.500"]
    assert len(rows) == 3
    # reparse equals input on the carried fields
    for row, rec in zip(rows[1:], recs):
        assert row == [rec.scheme, rec.operation, str(rec.stats.n),
                       f"{rec.stats.mean_us:.3f}", f"{rec.stats.stddev_us:.3f}"]


def test_chart_data_grouping_preserves_every_record():
    rng = Random(61)
    records = random_records(rng, 20)
    text = emit_chart_data(records)
    data_lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    assert len(data_lines) == len(records)
    assert emit_chart_data([]) == ""

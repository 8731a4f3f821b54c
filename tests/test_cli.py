"""CLI tests driven through main(argv) plus one subprocess sanity check."""

import gc
import re
import shutil
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from pqbench import bench, cli, tlssim
from pqbench.kex import KemInstance
from pqbench.tlssim import CLIENT_HELLO, encode_message

KEM_FIXTURE = Path(__file__).parent.parent / "src/pqbench/data/oqs_kem_cycles.txt"
SIG_FIXTURE = Path(__file__).parent.parent / "src/pqbench/data/oqs_sig_cycles.txt"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- dispatch and exit codes ---


def test_bogus_verb_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "bogus-verb")
    assert code == 1
    assert out == ""
    assert "usage" in err.lower()


def test_missing_verb_is_usage_error(capsys):
    code, _, err = run_cli(capsys)
    assert code == 1
    assert "usage" in err.lower()


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "demo", "--frobnicate")
    assert code == 1


def test_help_exits_zero():
    with pytest.raises(SystemExit) as info:
        cli.main(["--help"])
    assert info.value.code == 0


# --- assess ---


def test_assess_known_scheme_exact_line(capsys):
    code, out, err = run_cli(capsys, "assess", "Saber")
    assert code == 0
    assert out == "Saber|14|y|n|y|y\n"


def test_assess_multiple_schemes(capsys):
    code, out, _ = run_cli(capsys, "assess", "Saber", "Kyber")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("Saber|")
    assert lines[1].startswith("Kyber|")


def test_assess_unknown_scheme_is_runtime_error(capsys):
    code, out, err = run_cli(capsys, "assess", "NoSuchScheme")
    assert code == 2
    assert out == ""
    assert "NoSuchScheme" in err


def test_assess_honors_registry_env(capsys, tmp_path, monkeypatch):
    src = KEM_FIXTURE.parent
    for name in ("registry.kem", "registry.sig", "registry.assess"):
        shutil.copy(src / name, tmp_path / name)
    assess = tmp_path / "registry.assess"
    assess.write_text(assess.read_text().replace("Saber|14|", "Saber|99|"))
    monkeypatch.setenv("PQBENCH_REGISTRY", str(tmp_path))
    code, out, _ = run_cli(capsys, "assess", "Saber")
    assert code == 0
    assert out == "Saber|99|y|n|y|y\n"


# --- report ---


def test_report_csv_row_per_kem_table_row(capsys):
    code, out, _ = run_cli(capsys, "report", "--in", str(KEM_FIXTURE), "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "scheme,operation,n,mean_us,stddev_us"
    assert len(lines) == 1 + 31


def test_report_csv_row_per_sig_table_row(capsys):
    code, out, _ = run_cli(capsys, "report", "--in", str(SIG_FIXTURE), "--format", "csv")
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 53


def test_report_text_reemits_parseable_records(capsys):
    code, out, _ = run_cli(capsys, "report", "--in", str(KEM_FIXTURE))
    assert code == 0
    assert bench.parse_text(out) == bench.parse_text(KEM_FIXTURE.read_text())


def test_report_chart_output(capsys):
    code, out, _ = run_cli(capsys, "report", "--in", str(KEM_FIXTURE), "--format", "chart")
    assert code == 0
    assert out.startswith("# ")


def test_report_missing_file_is_runtime_error(capsys):
    code, _, err = run_cli(capsys, "report", "--in", "/no/such/file")
    assert code == 2
    assert "no/such/file" in err


def test_report_unparseable_file_is_runtime_error(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("this is | not | a | valid | record | line\n")
    code, _, err = run_cli(capsys, "report", "--in", str(bad))
    assert code == 2
    assert "line" in err


# --- benchmarks ---


def test_bench_kem_unknown_scheme_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "bench-kem", "--scheme", "nope")
    assert code == 1
    assert "nope" in err


def test_bench_kem_bad_interval_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "bench-kem", "--scheme", "lwe-toy", "--interval", "0")
    assert code == 1


@pytest.mark.parametrize("verb,scheme", (("bench-kem", "lwe-toy"), ("bench-sig", "wots")))
@pytest.mark.parametrize("interval", ("inf", "1e300", "nan"))
def test_bench_non_finite_interval_is_usage_error(capsys, verb, scheme, interval):
    code, out, err = run_cli(capsys, verb, "--scheme", scheme, "--interval", interval)
    assert code == 1
    assert out == ""
    assert err.startswith("usage error:")


def test_bench_min_samples_beyond_a_float_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "bench-kem", "--scheme", "stub-kem", "--interval",
                             "0.001", "--min-samples", "1" + "0" * 400)
    assert code == 1
    assert out == ""
    assert err.startswith("usage error:")


def test_bench_kem_emits_three_records(capsys):
    code, out, err = run_cli(
        capsys, "bench-kem", "--scheme", "lwe-toy",
        "--interval", "0.02", "--min-samples", "2", "--seed", "1")
    assert code == 0
    records = bench.parse_text(out)
    assert [r.operation for r in records] == ["keygen", "encaps", "decaps"]
    assert all(r.scheme == "lwe-toy" for r in records)
    # data and diagnostics stay on their own streams
    assert "benchmarking" in err
    assert "benchmarking" not in out


def test_bench_sig_emits_three_records(capsys):
    code, out, _ = run_cli(
        capsys, "bench-sig", "--scheme", "fs-dlog",
        "--interval", "0.02", "--min-samples", "2", "--seed", "1")
    assert code == 0
    records = bench.parse_text(out)
    assert [r.operation for r in records] == ["keypair", "sign", "verify"]


def test_bench_kem_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "bench-kem", "--scheme", "stub-kem",
        "--interval", "0.01", "--min-samples", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "scheme,operation,n,mean_us,stddev_us"
    assert len(lines) == 4


def test_bench_kem_chart_format(capsys):
    code, out, _ = run_cli(
        capsys, "bench-kem", "--scheme", "stub-kem",
        "--interval", "0.01", "--min-samples", "1", "--format", "chart")
    assert code == 0
    assert out.startswith("# stub-kem")


# --- tls-measure ---

MEASURE_LINE = re.compile(
    r"^toy \| handshake \| n=3 \| mean_us=\d+\.\d{3} "
    r"\| stddev_us=\d+\.\d{3} \| read=\d+ \| write=\d+$")


def test_tls_measure_single_suite_line_format(capsys):
    code, out, _ = run_cli(capsys, "tls-measure", "--suite", "toy", "--iterations", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1
    assert MEASURE_LINE.match(lines[0])


def test_tls_measure_byte_fields_deterministic(capsys):
    argv = ("tls-measure", "--suite", "toy", "--iterations", "2", "--seed", "9")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    take = lambda s: [f for f in s.split(" | ") if f.startswith(("read=", "write="))]
    assert take(first) == take(second)
    assert take(first)


def test_tls_measure_all_registry_suites_csv(capsys):
    code, out, _ = run_cli(
        capsys, "tls-measure", "--iterations", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "suite,n,mean_us,stddev_us,bytes_read,bytes_written"
    assert len(lines) == 1 + 7


def test_tls_measure_unknown_suite_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "tls-measure", "--suite", "nope")
    assert code == 1


def test_tls_measure_zero_iterations_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "tls-measure", "--suite", "toy", "--iterations", "0")
    assert code == 1


# --- demo ---


def test_demo_reproduces_strength_rows_and_agrees_on_keys(capsys):
    code, out, _ = run_cli(capsys, "demo")
    assert code == 0
    assert "RSA-1024: 80/0" in out
    assert "ECC-384: 256/0" in out
    assert "SHA-512: 256/170" in out
    assert "level 5: symmetric-256" in out
    assert "digests_match=True" in out


def test_demo_is_deterministic_under_seed(capsys):
    _, first, _ = run_cli(capsys, "demo", "--seed", "123")
    _, second, _ = run_cli(capsys, "demo", "--seed", "123")
    assert first == second
    _, other, _ = run_cli(capsys, "demo", "--seed", "124")
    assert first != other


# --- tls-serve / tls-client over loopback TCP ---


def free_port():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def test_serve_and_client_complete_a_handshake(capsys):
    port = free_port()
    server_code = {}

    def serve():
        server_code["rc"] = cli.main(
            ["tls-serve", "--listen", f"127.0.0.1:{port}",
             "--suite", "toy", "--iterations", "1", "--seed", "4"])

    worker = threading.Thread(target=serve)
    worker.start()
    client_rc = None
    for _ in range(100):  # wait out the listener's startup
        client_rc = cli.main(
            ["tls-client", "--connect", f"127.0.0.1:{port}",
             "--suite", "toy", "--seed", "5"])
        if client_rc == 0:
            break
        time.sleep(0.05)
    worker.join(timeout=10)
    out = capsys.readouterr().out
    assert client_rc == 0
    assert server_code["rc"] == 0
    digests = re.findall(r"digest=([0-9a-f]{16})", out)
    assert len(digests) == 2
    assert digests[0] == digests[1]


@pytest.mark.parametrize("verb,flag", [("tls-serve", "--listen"), ("tls-client", "--connect")])
# str.isdigit accepts a superscript 2, which int() cannot read
@pytest.mark.parametrize("port", ["70000", "65536", "\u00b2"])
def test_port_not_in_0_to_65535_is_usage_error(capsys, verb, flag, port):
    code, out, err = run_cli(capsys, verb, flag, f"127.0.0.1:{port}")
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: ")


@pytest.mark.parametrize("iterations", ["0", "-1"])
def test_serve_without_iterations_is_usage_error_before_binding(capsys, iterations):
    code, _, err = run_cli(capsys, "tls-serve", "--listen", "127.0.0.1:0",
                           "--iterations", iterations)
    assert code == 1
    assert "--iterations must be >= 1" in err
    assert "listening" not in err


def test_serve_on_a_port_in_use_exits_2_and_closes_its_socket(capsys):
    # a listener left open when bind fails trips the ResourceWarning filter
    with socket.socket() as holder:
        holder.bind(("127.0.0.1", 0))
        holder.listen(1)
        port = holder.getsockname()[1]
        code, out, err = run_cli(capsys, "tls-serve", "--listen", f"127.0.0.1:{port}")
        gc.collect()
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "listening" not in err


def serve_bad_then_good_client(capsys, bad_bytes):
    """tls-serve for two connections: one sending bad_bytes, then tls-client.
    Returns (server exit code, client exit code, captured output)."""
    port = free_port()
    server_code = {}

    def serve():
        server_code["rc"] = cli.main(
            ["tls-serve", "--listen", f"127.0.0.1:{port}",
             "--suite", "toy", "--iterations", "2", "--seed", "4"])

    worker = threading.Thread(target=serve)
    worker.start()
    for _ in range(100):  # wait out the listener's startup
        try:
            bad = socket.create_connection(("127.0.0.1", port), timeout=10)
            break
        except ConnectionRefusedError:
            time.sleep(0.05)
    with bad:
        bad.sendall(bad_bytes)
    client_rc = cli.main(["tls-client", "--connect", f"127.0.0.1:{port}",
                          "--suite", "toy", "--seed", "5"])
    worker.join(timeout=10)
    assert not worker.is_alive()
    return server_code["rc"], client_rc, capsys.readouterr()


def test_serve_reports_a_failed_connection_and_keeps_serving(capsys):
    server_rc, client_rc, captured = serve_bad_then_good_client(
        capsys, b"\xee\x00\x00\x00\x01!")  # no such message type
    assert client_rc == 0
    assert server_rc == 1
    assert re.search(r"^error: MalformedFrame: ", captured.err, re.MULTILINE)
    assert len(re.findall(r"digest=([0-9a-f]{16})", captured.out)) == 2


def test_serve_reports_a_foreign_failure_as_server_crashed(capsys, monkeypatch):
    tls_suites = cli._tls_suites

    def with_fragile_kem():
        table = tls_suites()
        kem = table["toy"].kem

        def encaps(public, rng):
            if public == b"boom":
                raise IndexError("encaps exploded")
            return kem.encaps(public, rng)

        fragile = KemInstance(kem.name, kem.keypair, encaps, kem.decaps)
        table["toy"] = tlssim.SuiteConfig(fragile, table["toy"].sig, table["toy"].hash, "toy")
        return table

    monkeypatch.setattr(cli, "_tls_suites", with_fragile_kem)
    server_rc, client_rc, captured = serve_bad_then_good_client(
        capsys, encode_message(CLIENT_HELLO, ("toy",), b"boom"))
    assert client_rc == 0
    assert server_rc == 1
    assert re.search(r"^error: ServerCrashed: server raised IndexError: encaps exploded$",
                     captured.err, re.MULTILINE)
    assert len(re.findall(r"digest=([0-9a-f]{16})", captured.out)) == 2


# --- console entry point ---


def test_module_invocation_via_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "pqbench.cli", "assess", "Saber"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == "Saber|14|y|n|y|y\n"

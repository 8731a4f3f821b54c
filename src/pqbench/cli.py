"""Command-line frontend.

Verbs:
  bench-kem     time keygen/encaps/decaps of a built-in KEM
  bench-sig     time keypair/sign/verify of a built-in signature scheme
  tls-serve     answer simulated handshakes over TCP
  tls-client    run one simulated handshake against a server
  tls-measure   profile handshake time and bytes for one or all suites
  assess        print registry security-assessment lines
  report        re-emit a benchmark text file as text, CSV, or chart data
  demo          small deterministic tour of the toolkit

Exit codes: 0 success, 1 usage error, 2 runtime failure.  Results go to
standard output; diagnostics go to standard error, never interleaved.
Every verb is deterministic for a fixed --seed.  The PQBENCH_REGISTRY
environment variable points the registry at an alternate data directory.
"""

from __future__ import annotations

import socket
import sys
from argparse import ArgumentParser
from pathlib import Path
from random import Random

from . import registry, suites, tlssim
from .errors import PqbenchError
from .hashing import DEFAULT_HASH
from .registry import AlgoClass, AlgoClassKind


class UsageError(Exception):
    pass


class _Parser(ArgumentParser):
    # argparse would sys.exit(2) on bad flags; route through our policy instead
    def error(self, message):
        raise UsageError(message)


def _add_seed(p):
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")


def _add_format(p):
    p.add_argument("--format", dest="fmt", choices=("text", "csv", "chart"),
                   default="text", help="output format (default text)")


def build_parser() -> _Parser:
    parser = _Parser(prog="pqbench", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", metavar="VERB", parser_class=_Parser)

    for verb, what, schemes, run, noun in (
            ("bench-kem", "a KEM", suites.builtin_kems, "bench_kem", "KEM"),
            ("bench-sig", "a signature scheme", suites.builtin_sigs, "bench_sig",
             "signature scheme")):
        p = sub.add_parser(verb, help=f"benchmark {what}")
        p.add_argument("--scheme", required=True, help="built-in scheme name")
        p.add_argument("--interval", type=float, default=3.0,
                       help="timing interval in seconds (default 3.0)")
        p.add_argument("--min-samples", dest="min_samples", type=int, default=30,
                       help="adaptive sample floor (default 30)")
        _add_seed(p)
        _add_format(p)
        p.set_defaults(func=cmd_bench, schemes=schemes, run=run, noun=noun)

    p = sub.add_parser("tls-serve", help="serve simulated handshakes")
    p.add_argument("--listen", required=True, metavar="HOST:PORT")
    p.add_argument("--suite", default="toy", help="suite label (default toy)")
    p.add_argument("--iterations", type=int, default=1,
                   help="connections to serve before exiting (default 1)")
    _add_seed(p)
    p.set_defaults(func=cmd_tls_serve)

    p = sub.add_parser("tls-client", help="run one handshake as the client")
    p.add_argument("--connect", required=True, metavar="HOST:PORT")
    p.add_argument("--suite", default="toy", help="suite label (default toy)")
    _add_seed(p)
    p.set_defaults(func=cmd_tls_client)

    p = sub.add_parser("tls-measure", help="profile handshake cost")
    p.add_argument("--suite", default=None,
                   help="one suite label; default measures every registry suite")
    p.add_argument("--iterations", type=int, default=50,
                   help="handshakes per suite (default 50)")
    _add_seed(p)
    _add_format(p)
    p.set_defaults(func=cmd_tls_measure)

    p = sub.add_parser("assess", help="print security assessment lines")
    p.add_argument("names", nargs="+", metavar="SCHEME")
    p.set_defaults(func=cmd_assess)

    p = sub.add_parser("report", help="re-emit a benchmark text file")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    _add_format(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("demo", help="deterministic end-to-end tour")
    _add_seed(p)
    p.set_defaults(func=cmd_demo)

    return parser


def _emit(records, fmt):
    from . import bench

    if fmt == "csv":
        sys.stdout.write(bench.emit_csv(records))
    elif fmt == "chart":
        sys.stdout.write(bench.emit_chart_data(records))
    else:
        sys.stdout.write(bench.emit_text(records))


def _pick(table, name, what):
    if name not in table:
        raise UsageError(f"unknown {what} {name!r} (have: {', '.join(sorted(table))})")
    return table[name]


def cmd_bench(ns) -> int:
    """bench-kem and bench-sig: ns carries the verb's scheme table, its
    runner's name in bench and the noun that names a scheme in a usage error."""
    from . import bench

    inst = _pick(ns.schemes(DEFAULT_HASH), ns.scheme, ns.noun)
    try:
        cfg = bench.BenchConfig(interval_seconds=ns.interval, min_samples=ns.min_samples)
    except ValueError as e:
        raise UsageError(str(e)) from e
    print(f"benchmarking {ns.scheme} over {cfg.interval_seconds}s intervals",
          file=sys.stderr)
    _emit(getattr(bench, ns.run)(inst, cfg, Random(ns.seed)), ns.fmt)
    return 0


def _tls_suites():
    table = {s.label: s for s in tlssim.registry_kem_suites()}
    kems = suites.builtin_kems(DEFAULT_HASH)
    sigs = suites.builtin_sigs(DEFAULT_HASH)
    table["toy"] = tlssim.SuiteConfig(kems["lwe-toy"], sigs["wots"], DEFAULT_HASH, "toy")
    return table


def _hostport(text) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not host or not (port.isascii() and port.isdigit()) or int(port) > 65535:
        raise UsageError(f"expected HOST:PORT with a port in 0-65535, got {text!r}")
    return host, int(port)


def _result_line(label, verb, result) -> str:
    return (f"{label} | {verb} | read={result.read_bytes} | write={result.write_bytes} "
            f"| digest={result.key_digest.hex()[:16]}")


def cmd_tls_serve(ns) -> int:
    host, port = _hostport(ns.listen)
    if ns.iterations < 1:
        raise UsageError("--iterations must be >= 1")
    cfg = _pick(_tls_suites(), ns.suite, "suite")
    rng = Random(ns.seed)
    identity = tlssim.make_identity(cfg.sig, "server", Random(rng.randrange(2**63)))
    failed = 0
    with socket.create_server((host, port), backlog=4) as listener:
        bound = listener.getsockname()
        print(f"listening on {bound[0]}:{bound[1]}", file=sys.stderr, flush=True)
        for _ in range(ns.iterations):
            sock, peer = listener.accept()
            print(f"connection from {peer[0]}:{peer[1]}", file=sys.stderr, flush=True)
            try:
                result = tlssim.server_handshake(
                    cfg, identity, tlssim.SocketConnection(sock),
                    Random(rng.randrange(2**63)))
            except PqbenchError as e:
                # one bad peer must not end the server
                failed += 1
                print(f"error: {type(e).__name__}: {e}", file=sys.stderr, flush=True)
                continue
            print(_result_line(cfg.label, "tls-serve", result), flush=True)
    return 1 if failed else 0


def cmd_tls_client(ns) -> int:
    host, port = _hostport(ns.connect)
    cfg = _pick(_tls_suites(), ns.suite, "suite")
    sock = socket.create_connection((host, port), timeout=10)
    result = tlssim.client_handshake(cfg, tlssim.SocketConnection(sock),
                                     Random(ns.seed))
    print(_result_line(cfg.label, "tls-client", result))
    return 0


def cmd_tls_measure(ns) -> int:
    if ns.iterations < 1:
        raise UsageError("--iterations must be >= 1")
    if ns.suite is not None:
        chosen = [_pick(_tls_suites(), ns.suite, "suite")]
    else:
        chosen = tlssim.registry_kem_suites()
    rows = []
    for cfg in chosen:
        print(f"measuring {cfg.label}: {ns.iterations} handshakes", file=sys.stderr)
        m = tlssim.measure_handshake(cfg, iterations=ns.iterations,
                                     rng=Random(ns.seed))
        rows.append((cfg.label, m))
    if ns.fmt == "csv":
        print("suite,n,mean_us,stddev_us,bytes_read,bytes_written")
        for label, m in rows:
            print(f"{label},{m.iterations},{m.mean_us:.3f},{m.stddev_us:.3f},"
                  f"{m.bytes_read},{m.bytes_written}")
    elif ns.fmt == "chart":
        print("# handshake bytes by suite")
        for label, m in rows:
            print(f"{label} {m.bytes_read + m.bytes_written}")
    else:
        for label, m in rows:
            print(f"{label} | handshake | n={m.iterations} "
                  f"| mean_us={m.mean_us:.3f} | stddev_us={m.stddev_us:.3f} "
                  f"| read={m.bytes_read} | write={m.bytes_written}")
    return 0


def cmd_assess(ns) -> int:
    reg = registry.default_registry()
    for name in ns.names:
        print(registry.assessment_line(name, reg.assess(name)))
    return 0


def cmd_report(ns) -> int:
    from . import bench

    records = bench.parse_text(Path(ns.infile).read_text())
    print(f"parsed {len(records)} records from {ns.infile}", file=sys.stderr)
    _emit(records, ns.fmt)
    return 0


_STRENGTH_ROWS = [
    ("RSA-1024", AlgoClass(AlgoClassKind.FACTORING_PK, 1024)),
    ("RSA-2048", AlgoClass(AlgoClassKind.FACTORING_PK, 2048)),
    ("ECC-256", AlgoClass(AlgoClassKind.DISCRETE_LOG_PK, 256)),
    ("ECC-384", AlgoClass(AlgoClassKind.DISCRETE_LOG_PK, 384)),
    ("AES-128", AlgoClass(AlgoClassKind.SYMMETRIC, 128)),
    ("AES-256", AlgoClass(AlgoClassKind.SYMMETRIC, 256)),
    ("SHA-256", AlgoClass(AlgoClassKind.HASH, 256)),
    ("SHA-512", AlgoClass(AlgoClassKind.HASH, 512)),
]


def cmd_demo(ns) -> int:
    rng = Random(ns.seed)
    h = DEFAULT_HASH

    print("# security levels: classical/post-quantum bits")
    for label, algo in _STRENGTH_ROWS:
        c = registry.classical_security_bits(algo)
        q = registry.postquantum_security_bits(algo)
        print(f"{label}: {c}/{q}")

    print()
    print("# NIST levels: defining attack")
    for level in range(1, 6):
        a = registry.nist_level_equivalent(level)
        print(f"level {level}: {a.kind.value}-{a.size_bits}")

    print()
    print("# signature roundtrip: wots")
    sig = suites.builtin_sigs(h)["wots"]
    public, secret = sig.keypair(rng)
    message = b"pqbench demo message"
    signature = sig.sign(secret, message)
    print(f"wots: pk={len(public)}B sig={len(signature)}B "
          f"verified={sig.verify(public, message, signature)}")

    print()
    print("# KEM roundtrip: lwe-toy")
    kem = suites.builtin_kems(h)["lwe-toy"]
    kem_public, kem_secret = kem.keypair(rng)
    ciphertext, shared = kem.encaps(kem_public, rng)
    print(f"lwe-toy: pk={len(kem_public)}B ct={len(ciphertext)}B "
          f"shared_match={kem.decaps(kem_secret, ciphertext) == shared}")

    print()
    print("# TLS handshake: toy suite over in-memory transport")
    toy = _tls_suites()["toy"]
    t = tlssim.run_handshake(toy, toy, rng=rng)
    for name, size in t.messages:
        print(f"{name}: {size}B")
    print(f"digests_match={t.client_key_digest == t.server_key_digest} "
          f"read={t.client_read_bytes} write={t.client_write_bytes} "
          f"digest={t.client_key_digest.hex()[:16]}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        if getattr(ns, "func", None) is None:
            raise UsageError("a verb is required")
        return ns.func(ns)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except (PqbenchError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

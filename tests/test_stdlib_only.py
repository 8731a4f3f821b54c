"""The runtime imports nothing outside the standard library, and not
hashlib either; a run loads a package module only when its handshakes or
its set-up use it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pqbench

PACKAGE = Path(pqbench.__file__).parent


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    foreign = {
        f"{path.relative_to(PACKAGE)}: {name}"
        for path in modules
        for name in absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names
    }
    assert foreign == set()


def test_importing_the_package_leaves_hashlib_unloaded():
    # hashlib loads OpenSSL's _hashlib, about 3.6 MB of resident memory;
    # the default hash comes from _blake2 directly to stay clear of it
    probe = ("import sys, pqbench.cli, pqbench.tlssim, pqbench.suites; "
             "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))")
    assert run_probe(probe) == "[]"


def test_registry_handshakes_leave_sha3_unloaded():
    # _sha3 adds resident memory the package has no use for; the registry
    # suites make the most stub filler, so they would load it if any did
    probe = ("import sys, pqbench.cli, pqbench.tlssim, pqbench.suites\n"
             "from random import Random\n"
             "for cfg in pqbench.tlssim.registry_kem_suites():\n"
             "    pqbench.tlssim.run_handshake(cfg, cfg, rng=Random(0))\n"
             "print('_sha3' in sys.modules)")
    assert run_probe(probe) == "False"


SCHEME_MODULES = ["codecrypt", "hashsig", "lattice", "mq", "sigma"]

REGISTRY_RUN_PROBE = """
import contextlib, io, sys
from random import Random
from pqbench import cli, suites, tlssim

def loaded(names):
    return [name for name in names if "pqbench." + name in sys.modules]

with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["assess", "Saber"]) == 0
for cfg in tlssim.registry_kem_suites():
    tlssim.run_handshake(cfg, cfg, rng=Random(0))
print(loaded(%r))
suites.builtin_kems()
suites.builtin_sigs()
print(loaded(%r))
""" % (["bench", "binmat", *SCHEME_MODULES], SCHEME_MODULES)


def test_registry_handshakes_load_no_scheme_module():
    # nor does the assess verb load bench: cli imports it only in the
    # functions that time or emit records
    registry_run, built_in = run_probe(REGISTRY_RUN_PROBE).splitlines()
    assert registry_run == "[]"
    assert built_in == str(SCHEME_MODULES)


# in this process every module is already loaded, so the probe runs in a
# fresh interpreter, where an import in a handshake would show
TIMED_PATH_PROBE = """
import socket, sys
from random import Random
from pqbench import suites, tlssim
from pqbench.hashing import DEFAULT_HASH

def tcp_pair():
    with socket.create_server(("127.0.0.1", 0)) as listener:
        client = socket.create_connection(listener.getsockname(), timeout=5)
        server, _ = listener.accept()
    return tlssim.SocketConnection(client), tlssim.SocketConnection(server)

kems, sigs = suites.builtin_kems(), suites.builtin_sigs()
configs = tlssim.registry_kem_suites() + [
    tlssim.SuiteConfig(kem, sig, DEFAULT_HASH, kem.name + "+" + sig.name)
    for sig in sigs.values() for kem in kems.values()]
for cfg in configs:
    tlssim.run_handshake(cfg, cfg, rng=Random(0))
# connected first: resolving the loopback address loads encodings.idna,
# a cost of this probe's connect and not of a handshake
over_tcp = [(cfg, tcp_pair()) for cfg in configs if cfg.sig.name in ("uov", "fs-dlog")]
before = set(sys.modules)
for cfg in configs:
    tlssim.run_handshake(cfg, cfg, rng=Random(1))
for cfg, transport in over_tcp:
    tlssim.run_handshake(cfg, cfg, transport, rng=Random(2))
print(len(configs), len(over_tcp), sorted(set(sys.modules) - before))
"""


def test_no_module_loads_on_the_timed_path():
    # a lazy import belongs in set-up, where setup_s counts it, not in a
    # timed handshake after the warm-up
    assert run_probe(TIMED_PATH_PROBE) == "27 8 []"


def run_probe(source: str) -> str:
    """The stripped stdout of source, run in a fresh interpreter that
    imports pqbench from this checkout."""
    done = subprocess.run([sys.executable, "-c", source], capture_output=True,
                          text=True, timeout=60, check=True,
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    return done.stdout.strip()

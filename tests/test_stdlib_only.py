"""The runtime imports nothing outside the standard library, and not
hashlib either."""

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
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60, check=True,
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert done.stdout.strip() == "[]"


def test_registry_handshakes_leave_sha3_unloaded():
    # _sha3 adds resident memory the package has no use for; the registry
    # suites make the most stub filler, so they would load it if any did
    probe = ("import sys, pqbench.cli, pqbench.tlssim, pqbench.suites\n"
             "from random import Random\n"
             "for cfg in pqbench.tlssim.registry_kem_suites():\n"
             "    pqbench.tlssim.run_handshake(cfg, cfg, rng=Random(0))\n"
             "print('_sha3' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60, check=True,
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert done.stdout.strip() == "False"

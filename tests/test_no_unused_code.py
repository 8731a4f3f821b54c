"""Program code reaches every function, class and method the package
defines; a definition that only its own tests call is dead weight.

The scan is by name, anywhere in src/pqbench or perfbench/, their tests
left out.  A method counts as used when its name appears as an attribute
(x.name).  Any other definition counts as used when its name appears as
a bare name, an imported name, a string, or an attribute of a package
module (tlssim.name).  A shared name can hide unused code, but a
definition that is used never fails the test.
"""

import ast
import importlib
import sys
from pathlib import Path
from random import Random

import pytest

from pqbench.hashing import DEFAULT_HASH, PQH
from pqbench.suites import builtin_kems, builtin_sigs
from pqbench.tlssim import SuiteConfig, registry_kem_suites, run_handshake

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pqbench"
PROGRAM = [PACKAGE, ROOT / "perfbench"]
MODULES = {path.stem for path in PACKAGE.glob("*.py")}

# definitions that only tests call, kept on purpose
KEEP = {
    "bench.FakeClock": "a hook that lets a test substitute the clock (criterion 5)",
    "bench.FakeClock.advance_ns": "a hook that lets a test substitute the clock (criterion 5)",
    "bench.fixture_text": "criterion 6 reads the packaged cycle tables through it",
    "binmat.BinaryMatrix.zero": "a test reference builder",
    "binmat.BinaryMatrix.from_bits": "a test reference builder",
    "binmat.BinaryMatrix.identity": "a test reference builder, and the identity scramble",
    "codecrypt.brute_force_decode": "a brute-force oracle (criterion 4)",
    "codecrypt.mceliece_decrypt": "the per-word reference criterion 3 and mceliece_decrypt_words are checked against",
    "kex.enumerate_points": "checks the MAIN_ORDER that ecdh-toy runs on",
    "kex.point_order": "checks the MAIN_ORDER that ecdh-toy runs on",
    "kex.ecdh_exchange": "criterion 3 runs ECDH through it",
    "lattice.lwe_encrypt_bit": "the per-bit reference lwe_encrypt_bits and lwe-toy are checked against",
    "lattice.lwe_decrypt_bit": "the per-bit reference lwe-toy's inline decryption is checked against",
    "lattice.sis_brute_force": "a brute-force oracle (criterion 4)",
    "lattice.svp_brute_force": "a brute-force oracle (criterion 4)",
    "mq.brute_force_preimages": "a brute-force oracle (criterion 4)",
    "mq.compose_trapdoor": "a test reference: checks the UOV substitution pointwise",
    "mq.identity_map": "a test reference builder",
    "registry.Registry.lookup": "the registry's name mapping (ROADMAP item 9) needs it",
    "tlssim.handshake_total_bytes": "criterion 7 orders the suites by it",
}


def program_modules():
    for top in PROGRAM:
        for path in sorted(top.rglob("*.py")):
            if "tests" not in path.relative_to(top).parts:
                yield path


def definitions(path):
    """(qualified name, bare name, is a method) of every def and class in
    one module."""
    module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)

    def walk(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield f"{prefix}.{child.name}", child.name, in_class
                yield from walk(child, f"{prefix}.{child.name}",
                                isinstance(child, ast.ClassDef))
            else:
                yield from walk(child, prefix, in_class)

    yield from walk(ast.parse(path.read_text(), str(path)), module, False)


def uses(path):
    """(is an attribute, name) of every name one module uses: True for
    x.name, False for a bare name, an imported name, a string or a name
    looked up on a package module (tlssim.name)."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            yield False, node.id
        elif isinstance(node, ast.Attribute):
            on_module = isinstance(node.value, ast.Name) and node.value.id in MODULES
            yield not on_module, node.attr
        elif isinstance(node, ast.alias):
            yield False, node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield False, node.value


def package_definitions():
    return [d for path in sorted(PACKAGE.rglob("*.py")) for d in definitions(path)]


def test_every_definition_has_a_program_caller():
    used = {use for path in program_modules() for use in uses(path)}
    unused = sorted(
        qualified
        for qualified, name, is_method in package_definitions()
        if not (name.startswith("__") and name.endswith("__"))  # the language calls these
        and (is_method, name) not in used
        and qualified not in KEEP
    )
    assert unused == []


def kept_definitions():
    """(qualified name, owner, name) of every KEEP definition, where owner
    is its class for a method and its module otherwise."""
    for qualified in KEEP:
        module, *path, name = qualified.split(".")
        owner = importlib.import_module(f"pqbench.{module}")
        for part in path:
            owner = getattr(owner, part)
        yield qualified, owner, name


def record_calls(monkeypatch, qualified, owner, name, calls):
    """Replace one definition with a wrapper that notes qualified in calls,
    then runs it: on its class for a method, else wherever a package
    module binds it."""
    original = vars(owner)[name]
    target = getattr(original, "__func__", original)  # a classmethod's function

    def recorder(*args, **kwargs):
        calls.append(qualified)
        return target(*args, **kwargs)

    if isinstance(owner, type):
        is_classmethod = isinstance(original, classmethod)
        monkeypatch.setattr(owner, name, classmethod(recorder) if is_classmethod else recorder)
        return
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.partition(".")[0] == "pqbench":
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, recorder)


@pytest.mark.parametrize("h", (DEFAULT_HASH, PQH), ids=lambda h: h.name)
def test_no_handshake_reaches_a_kept_definition(monkeypatch, h):
    # KEEP is for what only tests call: one handshake of every built-in
    # KEM with every built-in signature, and of every registry suite,
    # must reach none of it (decaps must not fall back to a reference)
    calls = []
    # every owner is looked up before any definition is replaced, since a
    # replaced class (bench.FakeClock) no longer holds its methods
    for definition in list(kept_definitions()):
        record_calls(monkeypatch, *definition, calls)
    kems, sigs = builtin_kems(h), builtin_sigs(h)
    configs = [SuiteConfig(kem, sig, h, f"{kem.name}+{sig.name}")
               for kem in kems.values() for sig in sigs.values()]
    configs += registry_kem_suites(h)
    assert len(configs) == 27
    for cfg in configs:
        t = run_handshake(cfg, cfg, rng=Random(0))
        assert t.server_key_digest == t.client_key_digest, cfg.label
    assert calls == []


def test_keep_names_only_real_definitions():
    assert set(KEEP) <= {qualified for qualified, _, _ in package_definitions()}

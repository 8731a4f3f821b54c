"""Program code reaches every function, class and method the package
defines; a definition that only its own tests call is dead weight.

The scan is by name, anywhere in src/pqbench or perfbench/, their tests
left out.  A method counts as used when its name appears as an attribute
(x.name).  Any other definition counts as used when its name appears as
a bare name, an imported name, a string, or an attribute of a package
module (tlssim.name).  A shared name can hide unused code, but a
definition that is used never fails the test.  The profile of every
handshake closes that gap for methods: each one either runs in a
handshake or names its caller outside one.
"""

import ast
import importlib
import socket
import sys
from pathlib import Path
from random import Random

import pytest

from pqbench import codecrypt
from pqbench.hashing import DEFAULT_HASH, PQH, HashFunction
from pqbench.suites import builtin_kems, builtin_sigs
from pqbench.tlssim import (
    SocketConnection,
    SuiteConfig,
    registry_kem_suites,
    run_handshake,
)

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
    "codecrypt.mceliece_encrypt": "the per-message reference criterion 3 and mceliece_encrypt_bits are checked against",
    "kex.enumerate_points": "checks the MAIN_ORDER that ecdh-toy runs on",
    "kex.point_order": "checks the MAIN_ORDER that ecdh-toy runs on",
    "kex.ecdh_exchange": "criterion 3 runs ECDH through it",
    "lattice.lwe_encrypt_bit": "the per-bit reference lwe_encrypt_bits and lwe-toy are checked against",
    "lattice.lwe_decrypt_bit": "the per-bit reference lwe-toy's inline decryption is checked against",
    "lattice.sis_brute_force": "a brute-force oracle (criterion 4)",
    "lattice.svp_brute_force": "a brute-force oracle (criterion 4)",
    "mq.brute_force_preimages": "a brute-force oracle (criterion 4)",
    "mq.compose_trapdoor": "a test reference: checks the UOV substitution pointwise",
    "mq.AffineMap.apply": "a test reference: T(x) that apply_inverse and the substitution are checked against",
    "mq.identity_map": "a test reference builder",
    "registry.Registry.lookup": "the registry's name mapping (ROADMAP item 9) needs it",
    "tlssim.decode_message": "a frame's (tag, fields), through the decoder a side reads with",
    "tlssim.encode_message": "the frame of (tag, fields), through the encoder a side sends with",
    "tlssim.handshake_total_bytes": "criterion 7 orders the suites by it",
}

# methods no handshake runs that program code outside a handshake calls:
# (caller, reason)
CALLED_OUTSIDE_A_HANDSHAKE = {
    "binmat.BinaryMatrix.inverse": (
        "codecrypt.mceliece_keygen", "inverts a scramble passed to its scramble= hook"),
    "cli._Parser.error": ("cli.main", "argparse reports a bad command line through it"),
    "codecrypt.LinearCode.encode": (
        "codecrypt.brute_force_decode", "the nearest-codeword oracle (criterion 4)"),
    "hashing.HashFunction.wrong_length": (
        "hashing.HashFunction.__call__", "the failure of a digest of another length"),
    "hashing.HashState.digest": ("hashing.HashFunction", "a protocol stub the states implement"),
    "hashing.HashState.update": ("hashing.HashFunction", "a protocol stub the states implement"),
    "lattice.LweParams.is_guaranteed_correct": (
        "lattice.guaranteed_params", "checks adapters.LWE_PARAMS once, at import"),
    "lattice.SisInstance.m": ("lattice.sis_brute_force", "a brute-force oracle (criterion 4)"),
    "mq.MqSystem.m": ("mq.brute_force_preimages", "a brute-force oracle (criterion 4)"),
    "mq.QuadPoly.coefficients": (
        "mq.eval_system", "the evaluation mq.brute_force_preimages searches with"),
    "registry.Registry.assess": ("cli.cmd_assess", "the assess verb"),
}


def program_modules():
    for top in PROGRAM:
        for path in sorted(top.rglob("*.py")):
            if "tests" not in path.relative_to(top).parts:
                yield path


def definitions(path):
    """(qualified name, bare name, is a method, first line) of every def
    and class in one module; the first line is a decorated definition's
    first decorator, where its code object starts."""
    module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)

    def walk(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                yield f"{prefix}.{child.name}", child.name, in_class, first
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
        for qualified, name, is_method, _ in package_definitions()
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


def every_suite(h):
    """Every built-in KEM with every built-in signature, then every
    registry suite, under h."""
    kems, sigs = builtin_kems(h), builtin_sigs(h)
    configs = [SuiteConfig(kem, sig, h, f"{kem.name}+{sig.name}")
               for kem in kems.values() for sig in sigs.values()]
    return configs + registry_kem_suites(h)


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
    configs = every_suite(h)
    assert len(configs) == 27
    for cfg in configs:
        t = run_handshake(cfg, cfg, rng=Random(0))
        assert t.server_key_digest == t.client_key_digest, cfg.label
    assert calls == []


def test_keep_names_only_real_definitions():
    assert set(KEEP) <= {qualified for qualified, *_ in package_definitions()}


def test_every_method_runs_in_a_handshake_or_names_its_caller():
    # a method the name scan passes only because another class shares its
    # name (BinaryMatrix.get beside dict.get) shows here: every handshake
    # of test_no_handshake_reaches_a_kept_definition under both hashes,
    # one over a socket pair and one under a hash built from apply alone,
    # run under a profiler, must run every method but KEEP's and those
    # whose caller outside a handshake the table names
    ran = set()

    def profile(frame, event, arg):
        if event == "call":
            ran.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    # decode_table is cached on hamming_code's code; a handshake builds it
    codecrypt.hamming_code.cache_clear()
    apply_only = HashFunction(DEFAULT_HASH.name, DEFAULT_HASH.output_bytes, DEFAULT_HASH.apply)
    sockets = socket.socketpair()
    sys.setprofile(profile)
    try:
        runs = [(cfg, None) for h in (DEFAULT_HASH, PQH) for cfg in every_suite(h)]
        runs.append((every_suite(DEFAULT_HASH)[0], tuple(map(SocketConnection, sockets))))
        runs.append((every_suite(apply_only)[0], None))
        for cfg, transport in runs:
            t = run_handshake(cfg, cfg, transport, rng=Random(0))
            assert t.server_key_digest == t.client_key_digest, cfg.label
    finally:
        sys.setprofile(None)
        for sock in sockets:
            sock.close()

    ran = {(str(Path(filename).resolve()), line) for filename, line in ran}
    not_run = {qualified
               for path in sorted(PACKAGE.rglob("*.py"))
               for qualified, name, is_method, first in definitions(path)
               if is_method and not (name.startswith("__") and name.endswith("__"))
               and (str(path), first) not in ran}
    assert sorted(not_run - set(KEEP)) == sorted(CALLED_OUTSIDE_A_HANDSHAKE)
    callers = {qualified for qualified, *_ in package_definitions()}
    assert {caller for caller, _ in CALLED_OUTSIDE_A_HANDSHAKE.values()} <= callers

"""Program code reaches every function, class and method the package
defines; a definition that only its own tests call is dead weight.

The scan is by bare name: a definition counts as used when its name
appears as a name, an attribute, an imported name or a string anywhere
in src/pqbench or perfbench/, their tests left out.  A shared name can
hide unused code, but a definition that is used never fails the test.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pqbench"
PROGRAM = [PACKAGE, ROOT / "perfbench"]

# definitions that only tests call, kept on purpose
KEEP = {
    "bench.FakeClock": "a hook that lets a test substitute the clock (criterion 5)",
    "bench.FakeClock.advance_ns": "a hook that lets a test substitute the clock (criterion 5)",
    "bench.fixture_text": "criterion 6 reads the packaged cycle tables through it",
    "binmat.BinaryMatrix.zero": "a test reference builder",
    "binmat.BinaryMatrix.from_bits": "a test reference builder",
    "codecrypt.brute_force_decode": "a brute-force oracle (criterion 4)",
    "kex.enumerate_points": "checks the MAIN_ORDER that ecdh-toy runs on",
    "kex.point_order": "checks the MAIN_ORDER that ecdh-toy runs on",
    "kex.ecdh_exchange": "criterion 3 runs ECDH through it",
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
    """(qualified name, bare name) of every def and class in one module."""
    module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield f"{prefix}.{child.name}", child.name
                yield from walk(child, f"{prefix}.{child.name}")
            else:
                yield from walk(child, prefix)

    yield from walk(ast.parse(path.read_text(), str(path)), module)


def used_names(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def package_definitions():
    return [d for path in sorted(PACKAGE.rglob("*.py")) for d in definitions(path)]


def test_every_definition_has_a_program_caller():
    used = {name for path in program_modules() for name in used_names(path)}
    unused = sorted(
        qualified
        for qualified, name in package_definitions()
        if not (name.startswith("__") and name.endswith("__"))  # the language calls these
        and name not in used
        and qualified not in KEEP
    )
    assert unused == []


def test_keep_names_only_real_definitions():
    assert set(KEEP) <= {qualified for qualified, _ in package_definitions()}

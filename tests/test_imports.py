"""Every import in the library sits at the top of its module, the library
loads no test-only package, the exact lane imports nothing of the float
lane, and it makes a float only at a few listed sites.

An import inside a function runs its lookup on every call, which costs
more than the rest of a small hot function such as the float lane's step.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import trianglecf

SOURCES = sorted(Path(trianglecf.__file__).parent.glob("*.py"))
SRC = Path(trianglecf.__file__).resolve().parent.parent
# the modules that never load numpy, and the modules that may
EXACT_LANE = ("errors", "field", "group", "quadratic", "dynamics", "planar",
              "measure", "dioph", "verify")
FLOAT_LANE = ("numeric", "ergodic")


def _imports_in_functions(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    found.append(f"{path.name}:{inner.lineno} in {node.name}")
    return found


def test_no_import_inside_a_function():
    assert SOURCES
    found = sorted({hit for path in SOURCES for hit in _imports_in_functions(path)})
    assert found == []


def test_cli_does_not_load_mpmath():
    # mpmath is a test-only oracle; no check of the library needs it
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(
        [sys.executable, "-c",
         "import trianglecf.cli, sys; assert 'mpmath' not in sys.modules"],
        env=env, check=True)


def _imports(path, wanted):
    """Import statements in `path` that would load a module for which
    `wanted` is true; a relative import names its module under trianglecf."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "trianglecf" if node.level else ""
            module = ".".join(filter(None, [base, node.module]))
            names = [module, *(f"{module}.{alias.name}" for alias in node.names)]
        else:
            continue
        if any(wanted(name) for name in names):
            found.append(f"{path.name}:{node.lineno}")
    return found


def _float_lane(module):
    return module.split(".")[0] == "numpy" or module in {f"trianglecf.{m}" for m in FLOAT_LANE}


def test_exact_lane_imports_nothing_of_the_float_lane():
    # numpy loads on the first use of a float-lane name, through the
    # package's __getattr__; an eager import here would load it always
    package = Path(trianglecf.__file__).parent
    paths = [package / f"{m}.py" for m in (*EXACT_LANE, "__init__", "cli")]
    assert all(path.is_file() for path in paths)
    found = [hit for path in paths for hit in _imports(path, _float_lane)]
    assert found == []
    # the check itself sees the imports the float lane does make
    assert _imports(package / "ergodic.py", _float_lane)


def test_every_module_is_in_a_lane():
    # a module outside both lists would escape the numpy check above
    assert {path.stem for path in SOURCES} == {*EXACT_LANE, *FLOAT_LANE, "__init__", "cli"}


# the math functions that are exact on integers
EXACT_MATH = {"gcd", "lcm", "isqrt"}
# the only places the exact lane makes a float: lambda's first bracket and
# the conjugates' (from 2cos(k pi/n)), the bracket of a root, a printed
# value, the sign filter's estimates, and the first guess of a digit
FLOAT_SITES = {
    ("field", "NumberField.__init__"),
    ("field", "NumberField.conjugate_enclosures"),
    ("field", "_bracket_root_near"),
    ("field", "_ExactReal.__float__"),
    ("field", "FieldElement._float_estimate"),
    ("quadratic", "QuadExt._float_estimate"),
    ("dynamics", "_guess_position"),
}


def _makes_a_float(node):
    """A float call, a float literal, or a use of math beyond EXACT_MATH."""
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id == "float"
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.Attribute):
        return (isinstance(node.value, ast.Name) and node.value.id == "math"
                and node.attr not in EXACT_MATH)
    if isinstance(node, ast.ImportFrom):
        return node.module == "math" and bool({a.name for a in node.names} - EXACT_MATH)
    return False


def _float_work(path):
    """(module, qualified name of the enclosing def or class, line) of each
    node of `path` that makes a float; the name is "" at module level."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if _makes_a_float(child):
                found.append((path.stem, ".".join(scope), child.lineno))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
            else:
                visit(child, scope)

    visit(tree, ())
    return found


def _site(module, scope):
    """The entry of FLOAT_SITES whose def encloses `scope`, or None."""
    parts = scope.split(".")
    for i in range(1, len(parts) + 1):
        if (module, ".".join(parts[:i])) in FLOAT_SITES:
            return module, ".".join(parts[:i])
    return None


def _unlisted(found):
    return [hit for hit in found if _site(*hit[:2]) is None]


def test_exact_lane_makes_floats_only_where_listed(tmp_path):
    # regions, maps, expansions and identities are exact; their floats are
    # made in measure, the CLI or the float lane
    package = Path(trianglecf.__file__).parent
    found = [hit for m in EXACT_LANE if m != "measure"
             for hit in _float_work(package / f"{m}.py")]
    assert _unlisted(found) == []
    # every listed site still makes a float: the list names no dead place
    assert {_site(module, scope) for module, scope, _ in found} == FLOAT_SITES
    # the check itself sees each form, and lets exact math and the listed
    # sites, with the defs nested in them, through
    probe = tmp_path / "field.py"
    probe.write_text("import math\n"
                     "from math import log, gcd\n"
                     "x = float(1)\n"
                     "y = 0.5\n"
                     "z = math.sqrt(2) + math.isqrt(2) + math.gcd(4, 6)\n"
                     "from math import lcm\n"
                     "class NumberField:\n"
                     "    def __init__(self):\n"
                     "        def inner():\n"
                     "            return math.cos(1.0)\n"
                     "    def other(self):\n"
                     "        return float(self)\n")
    assert _unlisted(_float_work(probe)) == [
        ("field", "", 2), ("field", "", 3), ("field", "", 4), ("field", "", 5),
        ("field", "NumberField.other", 12)]


def _dataclasses(module):
    return module.split(".")[0] == "dataclasses"


def test_library_does_not_import_dataclasses(tmp_path):
    # importing dataclasses loads inspect, ast, dis and tokenize, and each
    # @dataclass compiles its methods at import: a cold start pays for both
    assert SOURCES
    found = [hit for path in SOURCES for hit in _imports(path, _dataclasses)]
    assert found == []
    # the check itself sees both forms of the import
    probe = tmp_path / "probe.py"
    probe.write_text("import dataclasses\nfrom dataclasses import dataclass\n")
    assert _imports(probe, _dataclasses) == ["probe.py:1", "probe.py:2"]

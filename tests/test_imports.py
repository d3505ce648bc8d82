"""Every import in the library sits at the top of its module, the library
loads no test-only package, and the exact lane imports nothing of the
float lane.

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


def _float_work(path):
    """Imports of math or fractions, and calls of float, in `path`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = _imports(path, lambda m: m.split(".")[0] in ("math", "fractions"))
    found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"]
    return found


def test_planar_computes_no_float(tmp_path):
    # regions, maps and tilings are exact; their masses are measure's
    package = Path(trianglecf.__file__).parent
    assert _float_work(package / "planar.py") == []
    # the check itself sees each form
    probe = tmp_path / "probe.py"
    probe.write_text("import math\nfrom fractions import Fraction\nx = float(1)\n")
    assert _float_work(probe) == ["probe.py:1", "probe.py:2", "probe.py:3"]


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

"""Every import in the library sits at the top of its module, and the
library loads no test-only package.

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

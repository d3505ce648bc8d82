"""Every import in the library sits at the top of its module.

An import inside a function runs its lookup on every call, which costs
more than the rest of a small hot function such as the float lane's step.
"""

import ast
from pathlib import Path

import trianglecf

SOURCES = sorted(Path(trianglecf.__file__).parent.glob("*.py"))


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

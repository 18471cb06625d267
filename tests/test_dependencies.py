"""gclab imports only what pyproject.toml declares: the standard library and numpy."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "gclab").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "gclab"}


def imported_modules(tree):
    """The top-level module of every absolute import in tree, those inside functions included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_the_walk_sees_imports_inside_functions():
    tree = ast.parse("import os\ndef f():\n    import scipy.linalg\n    from pytest_benchmark import plugin\n")
    assert list(imported_modules(tree)) == ["os", "scipy", "pytest_benchmark"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_the_standard_library_and_numpy(path):
    found = set(imported_modules(ast.parse(path.read_text(encoding="utf-8"))))
    assert found <= ALLOWED, f"{path.name} imports undeclared {sorted(found - ALLOWED)}"

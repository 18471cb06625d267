"""gclab imports only what pyproject.toml declares, the standard library and numpy, and the tests
only that, the test extra (pytest and hypothesis) and the helper modules beside them."""

import ast
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SOURCES = sorted((TESTS.parent / "src" / "gclab").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "gclab"}
HELPERS = {"composed_primitives", "dense_oracles", "reference_samplers", "reference_writers"}
TEST_ALLOWED = ALLOWED | {"pytest", "hypothesis"} | HELPERS


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


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")), ids=lambda path: path.name)
def test_tests_import_only_declared_test_dependencies(path):
    found = set(imported_modules(ast.parse(path.read_text(encoding="utf-8"))))
    assert found <= TEST_ALLOWED, f"tests/{path.name} imports undeclared {sorted(found - TEST_ALLOWED)}"

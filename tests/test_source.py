"""Source hygiene: every module under src/maflow uses the names it imports, and
only the column walk and the exponent fold call the evaluator."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "maflow"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read; a line marked
    ``# noqa: F401`` is a deliberate re-export."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if "# noqa: F401" not in lines[alias.lineno - 1]:
                imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import_and_honours_noqa():
    source = "import math\nfrom os import path, sep  # noqa: F401\nfrom sys import argv\nargv\n"
    assert unused_imports(source) == ["math (line 1)"]


def evaluator_calls(path: Path) -> set[tuple[str, str]]:
    """(module, enclosing function) of each call of ``taylor.evaluate`` in a module."""
    tree = ast.parse(path.read_text())
    names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "taylor"
        for alias in node.names
        if alias.name == "evaluate"
    }
    module = str(path.relative_to(PACKAGE))
    calls = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if (isinstance(callee, ast.Name) and callee.id in names) or (
                isinstance(callee, ast.Attribute)
                and callee.attr == "evaluate"
                and isinstance(callee.value, ast.Name)
                and callee.value.id == "taylor"
            ):
                calls.add((module, func.name))
    return calls


def test_a_point_reaches_the_evaluator_only_as_a_one_row_sample():
    """Only the column walk and the parser's constant-exponent fold call
    ``taylor.evaluate``, so no per-point float walk can come back."""
    modules = [p for p in PACKAGE.rglob("*.py") if p.name != "taylor.py"]
    calls = set().union(*map(evaluator_calls, modules))
    assert calls == {("fieldexpr/field.py", "_walk"), ("fieldexpr/parse.py", "power")}

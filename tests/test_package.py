"""Tests for the package's public API and its modules' imports."""

import ast
from pathlib import Path

import pytest

import hardy3q

PACKAGE_DIR = Path(hardy3q.__file__).parent


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from hardy3q import *", namespace)
    for name in hardy3q.__all__:
        assert namespace[name] is getattr(hardy3q, name)


def imported_but_unused(source: str) -> list[str]:
    """Names a module imports and never reads (``__all__`` entries count as read)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize(
    "path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name
)
def test_module_imports_only_names_it_uses(path):
    assert imported_but_unused(path.read_text(encoding="utf-8")) == []


def test_unused_import_check_sees_unused_names():
    source = "from __future__ import annotations\nimport os, sys as system\nfrom . import a, b\nprint(a.x)\n"
    assert imported_but_unused(source) == ["line 2: os", "line 2: system", "line 3: b"]

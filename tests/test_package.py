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


def unreferenced_functions(sources: dict[str, str], exported=()) -> list[str]:
    """Functions and methods that no source reads by name and ``exported`` does not list.

    ``sources`` maps a module name to its text; a name counts as read when
    any source uses it (``f``) or an attribute of that name (``x.f``).
    Dunder methods are called by the language, not by name, and pass.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set(exported)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = []
    for module, tree in trees.items():
        scopes = [(tree, module)]
        while scopes:
            scope, prefix = scopes.pop()
            for node in ast.iter_child_nodes(scope):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    scopes.append((node, f"{prefix}.{node.name}"))
                    dunder = node.name.startswith("__") and node.name.endswith("__")
                    if not isinstance(node, ast.ClassDef) and not dunder and node.name not in read:
                        unread.append(f"{prefix}.{node.name}")
    return sorted(unread)


def test_every_function_in_the_package_is_called_or_exported():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE_DIR.glob("*.py")}
    assert unreferenced_functions(sources, hardy3q.__all__) == []


def test_unreferenced_function_check_sees_unread_definitions():
    sources = {
        "a": "def used():\n    pass\n\ndef exported():\n    pass\n\ndef unused():\n"
        "    def inner():\n        pass\n\nclass K:\n    def __init__(self):\n        pass\n\n"
        "    def method(self):\n        pass\n\n    def called(self):\n        pass\n",
        "b": "from .a import used\nused()\nK().called()\n",
    }
    assert unreferenced_functions(sources, ["exported"]) == [
        "a.K.method", "a.unused", "a.unused.inner"
    ]


def package_imports(source: str) -> set[str]:
    """The package members a module imports, relatively or as ``hardy3q.<name>``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "hardy3q":
                    continue
                module = module.partition(".")[2]
            if module:
                found.add(module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("hardy3q.")
            )
    return found


def test_visibility_imports_only_the_minimizer_layers():
    source = (PACKAGE_DIR / "visibility.py").read_text(encoding="utf-8")
    assert package_imports(source) <= {"bell", "errors", "linalg", "observables"}


def test_no_package_module_imports_cli():
    importers = [
        path.name
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if "cli" in package_imports(path.read_text(encoding="utf-8"))
    ]
    assert importers == []


def test_package_import_check_sees_every_form():
    source = (
        "from __future__ import annotations\nimport os, hardy3q.cli\n"
        "from . import linalg, __version__\nfrom .bell import x\n"
        "from hardy3q import states\nfrom hardy3q.hardy import y\nfrom numpy import z\n"
    )
    assert package_imports(source) == {"cli", "linalg", "__version__", "bell", "states", "hardy"}

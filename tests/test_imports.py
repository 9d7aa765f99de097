"""Leftovers of deleted code: every import of the package and the tests is
used, and every private name the package defines is referenced."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "conicsteps").glob("*.py"))
FILES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by imports and never read in the file.

    Imports at any depth count: a deferred import in a function body, or one
    under ``if TYPE_CHECKING``.

    A string constant in ``__all__`` counts as read (it is re-exported), and
    ``from __future__`` imports are compiler directives, not bindings.  A
    star import binds ``<module>.__all__``: it counts as read only where the
    file reads that attribute, that is, where it republishes the list.
    """
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*":
                    name = node.module.rpartition(".")[2] + ".__all__"
                else:
                    name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            used.add(f"{node.value.id}.{node.attr}")
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(c.value for c in ast.walk(node.value)
                        if isinstance(c, ast.Constant) and isinstance(c.value, str))
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_finds_an_unused_import():
    source = "from __future__ import annotations\nimport math\nimport os\n__all__ = ['os']\n"
    assert unused_imports(source) == ["line 2: math"]


def test_scan_finds_a_star_import_never_republished():
    source = "from .a import *\nfrom .c import f\nfrom .b import *\n__all__ = ['f', *a.__all__]\n"
    assert unused_imports(source) == ["line 3: b.__all__"]


def test_scan_finds_a_nested_unused_import():
    source = ("from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    import os\n"
              "def f():\n    import math\n    return math.pi\n")
    assert unused_imports(source) == ["line 3: os"]


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _bound(node: ast.stmt) -> list[str]:
    """The names a module- or class-body statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Private names defined at module or class level in ``sources`` (file name
    -> text) that no other line of them references.

    A reference is a read of the name, an attribute of that name (so a method
    counts wherever any object's attribute of its name is read), an imported
    name, or a keyword argument of that name.
    """
    defined: list[tuple[str, int, str]] = []
    refs: dict[str, set[tuple[str, int]]] = {}
    for file, source in sources.items():
        tree = ast.parse(source)
        for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, ast.ClassDef))]:
            for node in scope.body:
                defined += [(file, node.lineno, name) for name in _bound(node) if _private(name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            elif isinstance(node, ast.keyword) and node.arg:
                name = node.arg
            else:
                continue
            refs.setdefault(name, set()).add((file, node.lineno))
    return [f"{file} line {line}: {name}" for file, line, name in defined
            if not refs.get(name, set()) - {(file, line)}]


def test_no_unreferenced_private_names():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert unreferenced_private_names(sources) == []


def test_scan_finds_an_unreferenced_private_name():
    sources = {
        "a.py": ("_LIMIT = 1\n_SPARE = 2\nclass _Doc:\n    def _grow(self): pass\n"
                 "    def _shrink(self): pass\n    def __init__(self): pass\n"),
        "b.py": "from .a import _LIMIT, _Doc\n_Doc()._grow(limit=_LIMIT)\n",
    }
    assert unreferenced_private_names(sources) == ["a.py line 2: _SPARE",
                                                   "a.py line 5: _shrink"]

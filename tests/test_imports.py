"""Every module-level import of the package and the tests is used."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "conicsteps").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports and never read.

    A string constant in ``__all__`` counts as read (it is re-exported), and
    ``from __future__`` imports are compiler directives, not bindings.  A
    star import binds ``<module>.__all__``: it counts as read only where the
    file reads that attribute, that is, where it republishes the list.
    """
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in tree.body:
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

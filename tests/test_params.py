"""Every parameter of a package function is read by that function."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "conicsteps").glob("*.py"))

#: (module, qualified function, parameter) kept unread on purpose.
ALLOWED = {
    # every shape's gradient kernel takes (x, y); the parabola's is free of y
    ("_kernels_py", "parabola_gradient", "y"),
}


def unread_params(source: str) -> list[str]:
    """``qualname(param)`` for each parameter its function body never names.

    ``self``, ``cls`` and ``_``-prefixed parameters are exempt.  A name read
    by a nested function counts as read by the enclosing one.
    """
    found: list[str] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                a = child.args
                params = [p.arg for p in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs,
                                          a.kwarg) if p is not None]
                named = {n.id for stmt in child.body for n in ast.walk(stmt)
                         if isinstance(n, ast.Name)}
                found.extend(f"{qualname}({p})" for p in params
                             if p not in named and p not in ("self", "cls")
                             and not p.startswith("_"))
                visit(child, f"{qualname}.")

    visit(ast.parse(source), "")
    return found


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    # an allowlisted parameter that is now read, or gone, fails here too
    allowed = sorted(f"{func}({param})" for module, func, param in ALLOWED
                     if module == path.stem)
    assert sorted(unread_params(path.read_text(encoding="utf-8"))) == allowed


def test_scan_finds_an_unread_parameter():
    source = (
        "def f(a, b, *args, c, _d, **kw):\n"
        "    def g():\n"
        "        return a\n"
        "    return g, kw\n"
        "class K:\n"
        "    def m(self, x):\n"
        "        return None\n"
    )
    assert unread_params(source) == ["f(b)", "f(args)", "f(c)", "K.m(x)"]

"""The numbers the README quotes match a real run, so a stale value fails.

Library quick-start lines of the form ``expression  # value`` are evaluated
and every number in the comment is checked against the result.  Each
``$ conicsteps ...`` console example is run, and its shown output lines
must appear in the real output, in order.  In both, a number written with
a trailing ``...`` is a truncated prefix of the value, any other number is
the value rounded to the digits shown, and a bare ``...`` line stands for
output left out.
"""
from __future__ import annotations

import ast
import re
import shlex
from pathlib import Path

import pytest

from conicsteps import Direction, Point
from conicsteps.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?(?:\.\.\.)?")


def _blocks(lang: str, section: str) -> list[str]:
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{lang}\n(.*?)```", body, re.S)


def _flat(value) -> list[float]:
    if isinstance(value, (Point, Direction)):
        return [value.x, value.y]
    if isinstance(value, tuple):
        return [v for item in value for v in _flat(item)]
    return [value]


def _matches(value: float, quoted: str) -> bool:
    if quoted.endswith("..."):
        return repr(value).startswith(quoted[:-3])
    mantissa = quoted.split("e")[0].lstrip("-").replace(".", "").lstrip("0")
    return float("%.*g" % (max(len(mantissa), 1), value)) == float(quoted)


def _quoted(line: str) -> tuple[str, list[str]]:
    """The code of a quick-start line, and the numbers its comment quotes
    for the code's value (none unless the code is a bare expression)."""
    code, _, comment = line.partition("  #")
    code = code.strip()
    tree = ast.parse(code).body
    if tree and isinstance(tree[0], ast.Expr):
        return code, _NUMBER.findall(comment)
    return code, []


QUICK_START = _blocks("python", "Quick start (library)")


def test_quick_start_quotes_values():
    lines = [line for block in QUICK_START for line in block.splitlines()]
    assert sum(bool(_quoted(line)[1]) for line in lines) >= 5


@pytest.mark.parametrize("block", QUICK_START, ids=range(len(QUICK_START)))
def test_quick_start_values(block, capsys):
    namespace: dict = {}
    for line in block.splitlines():
        code, quoted = _quoted(line)
        if not quoted:
            exec(code, namespace)
            continue
        got = _flat(eval(code, namespace))
        assert len(got) == len(quoted), (code, got, quoted)
        for value, text in zip(got, quoted):
            assert _matches(value, text), f"{code}: README says {text}, got {value!r}"


def _console_examples() -> list[tuple[str, list[str]]]:
    examples = []
    for block in _blocks("console", "Command line"):
        lines = block.replace("\\\n", " ").splitlines()
        command = lines[0].removeprefix("$ ")
        shown = [line.partition("  #")[0].rstrip() for line in lines[1:]]
        examples.append((command, shown))
    return examples


def test_console_examples_cover_walk_reflect_and_trace():
    commands = {shlex.split(command)[1] for command, _ in _console_examples()}
    assert {"walk", "reflect", "trace"} <= commands


@pytest.mark.parametrize("command, shown", _console_examples(),
                         ids=[c.split()[1] for c, _ in _console_examples()])
def test_console_example_output(command, shown, capsys, monkeypatch, tmp_path):
    argv = shlex.split(command)
    assert argv[0] == "conicsteps"
    if "--svg" in argv:
        argv[argv.index("--svg") + 1] = str(tmp_path / "out.svg")
    monkeypatch.chdir(ROOT)
    assert main(argv[1:]) == 0
    out = iter(capsys.readouterr().out.splitlines())
    for line in shown:
        if line == "...":
            continue
        head, dots, _ = line.partition("...")
        want = head.rstrip() if dots else line
        assert any((got.startswith(want) if dots else got == want) for got in out), (
            f"README line {line!r} not in the output of {command!r}, in order")

"""What each entry point loads: ``construction`` and ``convergence`` load on first use.

Tracing a scene, the CLI's cold-start path, calls neither module, so a
fresh interpreter must not import them for it; the package's public names
must still all resolve, to the objects their defining modules hold.  Each
check runs in a fresh interpreter, because the test process has already
imported every module.
"""
from __future__ import annotations

from pathlib import Path

import pytest

import conicsteps
import conicsteps.config
import conicsteps.convergence
from conicsteps.cli import main
from conftest import fresh

ROOT = Path(__file__).resolve().parent.parent
SCENE = ROOT / "src" / "conicsteps" / "scenes" / "cassegrain.json"
DEFERRED = ("conicsteps.construction", "conicsteps.convergence")


def loaded_by_cli(argv: list[str]) -> tuple[int, list[str]]:
    """Exit code of ``main(argv)`` in a fresh interpreter, and which deferred modules it loaded."""
    return tuple(fresh(
        "from conicsteps.cli import main\n"
        f"code = main({argv!r})\n"
        f"result = [code, [m for m in {DEFERRED!r} if m in sys.modules]]"
    ))


class TestImportSet:
    def test_trace_loads_neither_deferred_module(self, tmp_path):
        argv = ["trace", str(SCENE), "--svg", str(tmp_path / "out.svg")]
        assert loaded_by_cli(argv) == (0, [])
        assert (tmp_path / "out.svg").read_text(encoding="utf-8").startswith("<?xml")

    def test_optics_does_not_load_convergence(self):
        assert fresh("import conicsteps.optics\n"
                     "result = 'conicsteps.convergence' in sys.modules") is False

    @pytest.mark.parametrize("argv, needs", [
        (["walk", "--ellipse", "5,3", "--anchor-param", "1.1", "--delta", "0.1",
          "--exact-return"], ["conicsteps.construction"]),
        (["converge", "--ellipse", "5,3", "--anchor-param", "1.1", "--delta0", "0.1",
          "--halvings", "6"], ["conicsteps.construction", "conicsteps.convergence"]),
        (["figure", "ellipse-two-step"], ["conicsteps.construction"]),
    ], ids=["walk", "converge", "figure"])
    def test_commands_load_what_they_call(self, argv, needs):
        assert loaded_by_cli(argv) == (0, needs)


class TestLazyExports:
    def test_every_public_name_resolves_to_its_defining_object(self):
        # Constants carry no __module__; name the module that defines each.
        homes = {"BACKEND": "_backend", "DEFAULT": "config", "METRICS": "config",
                 "FIGURE_IDS": "svgout", "REQUIRED_ELEMENTS": "svgout"}
        mismatched = fresh(
            "import importlib\n"
            "import conicsteps\n"
            "undir = sorted(set(conicsteps.__all__) - set(dir(conicsteps)))\n"
            f"homes = {homes!r}\n"
            "bad = []\n"
            "for name in conicsteps.__all__:\n"
            "    if name == '__version__':\n"
            "        continue\n"
            "    obj = getattr(conicsteps, name)\n"
            "    home = 'conicsteps.' + homes[name] if name in homes else obj.__module__\n"
            "    if getattr(importlib.import_module(home), name) is not obj:\n"
            "        bad.append(name)\n"
            "result = [undir, bad]"
        )
        assert mismatched == [[], []]

    def test_star_import_binds_every_public_name(self):
        unbound = fresh(
            "import conicsteps\n"
            "ns = {}\n"
            "exec('from conicsteps import *', ns)\n"
            "result = sorted(set(conicsteps.__all__) - set(ns))"
        )
        assert unbound == []

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="module 'conicsteps' has no attribute 'no_such_name'"):
            conicsteps.no_such_name  # noqa: B018

    def test_metrics_is_one_tuple(self):
        assert conicsteps.METRICS is conicsteps.convergence.METRICS is conicsteps.config.METRICS

    def test_converge_help_lists_every_metric(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["converge", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert all(name in out for name in conicsteps.METRICS)
        assert len(conicsteps.METRICS) == 5

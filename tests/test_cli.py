"""Command-line interface: output formats, exit codes, error categories."""
from __future__ import annotations

import dataclasses
import errno
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from conicsteps import (
    Conic,
    Ellipse,
    exact_return,
    load_scene,
    save_scene,
    spot_report,
    trace_svg,
)
from conicsteps import _kernels_py
from conicsteps.cli import main
from conftest import count_traces


def bundled_scene(name: str) -> str:
    return str(resources.files("conicsteps").joinpath("scenes", name))


def run(capsys, *argv: str) -> tuple[int, str, str]:
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage failures
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestResidual:
    def test_on_curve(self, capsys):
        code, out, _ = run(capsys, "residual", "--ellipse", "5,3", "--point", "0,3")
        assert code == 0
        assert out == "0\n"

    def test_center(self, capsys):
        code, out, _ = run(capsys, "residual", "--ellipse", "5,3", "--point", "0,0")
        assert code == 0
        assert out == "-2\n"

    def test_parabola_vertex(self, capsys):
        code, out, _ = run(capsys, "residual", "--parabola", "1", "--point", "0,0")
        assert code == 0
        assert out == "0\n"

    def test_hyperbola_axis_error(self, capsys):
        code, _, err = run(capsys, "residual", "--hyperbola", "3,4", "--point", "0,1")
        assert code == 2
        assert err.startswith("error: no-branch:")


class TestTangentAndReflect:
    def test_tangent_top(self, capsys):
        code, out, _ = run(capsys, "tangent", "--ellipse", "5,3", "--point", "0,3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("tangent ")
        assert lines[1] == "normal 0 1"

    def test_tangent_by_param(self, capsys):
        code, out, _ = run(
            capsys, "tangent", "--parabola", "1", "--param", "0"
        )
        assert code == 0
        assert out.splitlines()[1] == "normal 0 -1"

    def test_tangent_far_out_on_a_thin_hyperbola(self, capsys):
        # x / a^2 overflowed in the gradient, and this exited 2
        code, out, _ = run(capsys, "tangent", "--hyperbola", "1e-100,1", "--param", "480")
        assert code == 0
        assert out.splitlines()[1] == "normal 1 -1e-100"

    def test_reflect(self, capsys):
        code, out, _ = run(
            capsys, "reflect", "--ellipse", "5,3", "--point", "0,3",
            "--incoming", "0.8,0.6",
        )
        assert code == 0
        assert out == "outgoing 0.8 -0.6\n"

    def test_off_curve_categorized(self, capsys):
        code, _, err = run(
            capsys, "tangent", "--ellipse", "5,3", "--point", "0,3.5"
        )
        assert code == 2
        assert err.startswith("error: off-curve:")

    def test_off_curve_on_a_small_conic(self, capsys):
        # 8% outside the vertex; the bound is in the conic's length unit
        code, _, err = run(
            capsys, "tangent", "--ellipse", "5e-9,3e-9", "--point", "5.4e-9,0"
        )
        assert code == 2
        assert err.startswith("error: off-curve:")

    @pytest.mark.parametrize("argv", [
        ("tangent", "--ellipse", "5,3", "--point", "0,4"),
        ("reflect", "--ellipse", "5,3", "--point", "0,4", "--incoming", "0,-1"),
    ])
    def test_nan_tol_is_value_error(self, capsys, argv):
        # (0, 4) has residual 1.31; a NaN tolerance must not wave it through
        code, out, err = run(capsys, *argv, "--tol", "nan")
        assert code == 2
        assert out == ""
        assert err.startswith("error: value: on_curve")


class TestWalk:
    def test_worked_example(self, capsys):
        code, out, _ = run(
            capsys, "walk", "--ellipse", "5,3",
            "--anchor-param", repr(math.pi / 2), "--delta", "0.1",
        )
        assert code == 0
        rows = dict(
            (line.split()[0], [float(v) for v in line.split()[1:]])
            for line in out.splitlines()
        )
        assert rows["D"][0] == pytest.approx(0.08, abs=1e-12)
        assert rows["D"][1] == pytest.approx(3.06, abs=1e-12)
        assert rows["B"][0] == pytest.approx(0.15882682037346207, rel=1e-9)
        assert rows["residual_B"][0] == pytest.approx(-2.3093224278625257e-05, rel=1e-6)

    def test_degenerate_notice(self, capsys):
        code, out, _ = run(
            capsys, "walk", "--parabola", "1", "--anchor-param", "0", "--delta", "0.1"
        )
        assert code == 0
        assert out.splitlines()[-1] == "degenerate retraced walk: B == A"

    def test_invalid_delta_is_value_error(self, capsys):
        code, _, err = run(
            capsys, "walk", "--ellipse", "5,3", "--anchor-param", "1",
            "--delta", "-0.1",
        )
        assert code == 2
        assert err.startswith("error: value:")

    def test_missing_conic_is_usage_error(self, capsys):
        code, _, err = run(capsys, "walk", "--anchor-param", "1", "--delta", "0.1")
        assert code == 2
        assert err.startswith("error: usage:")

    def test_huge_ellipse(self, capsys):
        # the walk's residual squared a and b in the caller's frame: the
        # start point was refused as off the curve, with a NaN residual
        code, out, err = run(capsys, "walk", "--ellipse", "1e180,6e179", "--anchor-param", "0.7",
                             "--delta", "1e178")
        assert (code, err) == (0, "")
        assert "nan" not in out

    def test_exact_return(self, capsys):
        code, out, _ = run(
            capsys, "walk", "--ellipse", "5,3", "--anchor-param", "1.1",
            "--delta", "0.1", "--exact-return",
        )
        assert code == 0
        conic = Conic(Ellipse(5, 3))
        res = exact_return(conic, conic.point_at(1.1), 0.1)
        lines = out.splitlines()
        assert lines[0] == f"A {res.triangle.A.x:.15g} {res.triangle.A.y:.15g}"
        assert lines[4:] == [f"t_star {res.t_star:.15g}", f"gap {res.gap:.15g}"]

    def test_backward_orientation_accepted(self, capsys):
        code, out, _ = run(
            capsys, "walk", "--ellipse", "5,3", "--anchor-param", "1.1",
            "--delta", "0.1", "--orientation", "backward",
        )
        assert code == 0
        assert out.startswith("A ")


class TestConverge:
    def test_csv_on_stdout(self, capsys):
        code, out, _ = run(
            capsys, "converge", "--ellipse", "5,3", "--anchor-param", "1.1",
            "--delta0", "0.1", "--halvings", "3",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == (
            "delta,residual_B,chord_tangent_angle,apex_curve_distance,"
            "parallelism_error,exact_return_gap"
        )
        assert len(lines) == 1 + 4 + 3
        assert lines[-3].startswith("order,")

    def test_metric_subset(self, capsys):
        code, out, _ = run(
            capsys, "converge", "--ellipse", "5,3", "--anchor-param", "1.1",
            "--delta0", "0.1", "--halvings", "3", "--metrics", "residual_B",
        )
        assert code == 0
        assert out.splitlines()[0] == "delta,residual_B"

    def test_csv_file_deterministic(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        args = (
            "converge", "--ellipse", "5,3", "--anchor-param", "1.1",
            "--delta0", "0.1", "--halvings", "4", "--csv", str(target),
        )
        assert run(capsys, *args)[0] == 0
        first = target.read_bytes()
        assert run(capsys, *args)[0] == 0
        assert target.read_bytes() == first
        assert b"\r" not in first

    def test_too_few_halvings_is_value_error(self, capsys):
        code, _, err = run(
            capsys, "converge", "--ellipse", "5,3", "--anchor-param", "1.1",
            "--delta0", "0.1", "--halvings", "1",
        )
        assert code == 2
        assert err.startswith("error: value:")
        assert "halving" in err

    def test_overflowing_halvings_is_value_error(self, capsys):
        # 2.0**2000 overflowed inside run_sweep and printed a traceback
        code, _, err = run(
            capsys, "converge", "--ellipse", "5,3", "--anchor-param", "1.1",
            "--delta0", "0.1", "--halvings", "2000",
        )
        assert code == 2
        assert err.startswith("error: value:")
        assert "halvings" in err

    @pytest.mark.parametrize("argv", [
        # the parabola's samples squared t = 7e199 in the caller's frame, so
        # the anchor was not finite, and the sweep exited 2
        ("--parabola", "1e200", "--anchor-param", "7e199", "--delta0", "1e199"),
        # delta**2 overflowed in the sweep's constants: a traceback, exit 1
        ("--ellipse", "1e180,1e179", "--anchor-param", "0.7", "--delta0", "1e178"),
        ("--ellipse", "5e-169,3e-169", "--anchor-param", "0.7", "--delta0", "1e-170"),
    ])
    def test_conic_far_from_unit_size(self, capsys, argv):
        code, out, err = run(capsys, "converge", *argv, "--halvings", "4")
        assert (code, err) == (0, "")
        assert out.splitlines()[-1].startswith("constant,")
        assert "inf" not in out and "nan" not in out

    def test_truncation_note_on_stderr(self, capsys):
        code, out, err = run(
            capsys, "converge", "--ellipse", "1,0.8", "--anchor-param", "0.3",
            "--delta0", "8", "--halvings", "3", "--metrics", "exact_return_gap",
        )
        assert code == 0
        assert "level 0" in err

    def test_unknown_metric_is_value_error(self, capsys):
        code, _, err = run(
            capsys, "converge", "--ellipse", "5,3", "--anchor-param", "1.1",
            "--delta0", "0.1", "--halvings", "3", "--metrics", "wobble",
        )
        assert code == 2
        assert err.startswith("error: value:")
        assert "wobble" in err

    def test_duplicate_metric_is_value_error(self, capsys):
        code, out, err = run(
            capsys, "converge", "--ellipse", "5,3", "--anchor-param", "1.1",
            "--delta0", "0.1", "--halvings", "4", "--metrics", "residual_B,residual_B",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: value:")
        assert "distinct" in err


class TestTrace:
    def test_bundled_cassegrain_spot(self, capsys):
        code, out, _ = run(capsys, "trace", bundled_scene("cassegrain.json"))
        assert code == 0
        lines = out.splitlines()
        ray_lines = [l for l in lines if l.startswith("ray ")]
        assert len(ray_lines) == 100
        assert all(" bounces 2" in l for l in ray_lines)
        spot = {}
        for line in lines:
            if line.startswith("spot "):
                parts = line.split()[1:]
                if parts[0] in ("max", "rms"):
                    spot[parts[0]] = float(parts[1])
                elif parts[0] == "rays":
                    spot.update(zip(parts[::2], parts[1::2]))
        assert spot["max"] <= 1e-9
        assert spot["rms"] <= spot["max"]
        assert int(spot["focused"]) == 100
        assert int(spot["blocked"]) == 0

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "trace", str(tmp_path / "nope.json"))
        assert code == 2
        assert err.startswith("error: io:")

    def test_malformed_scene_reports_position(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"conics": [}', encoding="utf-8")
        code, _, err = run(capsys, "trace", str(bad))
        assert code == 2
        assert err.startswith("error: scene-format:")
        assert "line 1" in err

    def test_non_string_kind_is_scene_format_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"conics": [{"kind": [], "a": 5, "b": 3}]}', encoding="utf-8")
        code, out, err = run(capsys, "trace", str(bad))
        assert (code, out) == (2, "")
        assert err.startswith("error: scene-format: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_scene_without_rays(self, capsys, tmp_path):
        quiet = tmp_path / "empty.json"
        quiet.write_text('{"conics": [{"kind": "ellipse", "a": 5, "b": 3}]}')
        code, out, _ = run(capsys, "trace", str(quiet))
        assert code == 0
        assert out == ""

    def test_max_bounces_checked_without_rays(self, capsys, tmp_path):
        # the flag was checked only when a ray was traced, so a scene
        # without rays accepted any value
        quiet = tmp_path / "empty.json"
        quiet.write_text('{"conics": [{"kind": "ellipse", "a": 5, "b": 3}]}')
        code, out, err = run(capsys, "trace", str(quiet), "--max-bounces", "0")
        assert (code, out) == (2, "")
        assert err.startswith("error: value:")
        assert "max_bounces" in err

    def test_svg_output(self, capsys, tmp_path):
        target = tmp_path / "trace.svg"
        code, _, _ = run(
            capsys, "trace", bundled_scene("ellipse.json"), "--svg", str(target)
        )
        assert code == 0
        assert target.read_text().startswith("<?xml")
        assert "<svg" in target.read_text()

    def test_each_ray_traced_once(self, capsys, tmp_path, monkeypatch):
        path = bundled_scene("cassegrain.json")
        target = tmp_path / "trace.svg"
        calls = count_traces(monkeypatch)
        code, out, _ = run(capsys, "trace", path, "--svg", str(target))
        assert code == 0
        assert calls == [1, 100]
        monkeypatch.undo()
        scene = load_scene(path)
        assert target.read_text(encoding="utf-8") == trace_svg(scene)
        rep = spot_report(scene, scene.rays)
        assert f"spot max {rep.max_distance:.15g}" in out.splitlines()

    def test_file_cap_given_as_flag_traced_once(self, capsys, monkeypatch):
        path = bundled_scene("cassegrain.json")
        calls = count_traces(monkeypatch)
        code, out, _ = run(capsys, "trace", path, "--max-bounces", "2")
        assert code == 0
        assert calls == [1, 100]
        monkeypatch.undo()
        assert run(capsys, "trace", path)[1] == out

    def test_cap_below_file_cap_traced_once(self, capsys, tmp_path, monkeypatch):
        # the spot report reads the first file-cap bounces of the same
        # trace; it used to trace every ray again at the file's cap
        path = bundled_scene("cassegrain.json")
        target = tmp_path / "trace.svg"
        calls = count_traces(monkeypatch)
        code, out, _ = run(capsys, "trace", path, "--max-bounces", "1", "--svg", str(target))
        assert code == 0
        assert calls == [1, 100]
        monkeypatch.undo()
        scene = load_scene(path)
        capped = dataclasses.replace(scene, max_bounces=1)
        assert target.read_text(encoding="utf-8") == trace_svg(capped)
        lines = out.splitlines()
        assert all(l.endswith(" bounces 1") for l in lines if l.startswith("ray "))
        assert "spot rays 100 focused 100 blocked 0 missed 0" in lines

    def test_cap_above_file_cap_traced_once(self, capsys, tmp_path, monkeypatch):
        path = bundled_scene("cassegrain.json")
        target = tmp_path / "trace.svg"
        calls = count_traces(monkeypatch)
        code, out, _ = run(capsys, "trace", path, "--max-bounces", "5", "--svg", str(target))
        assert code == 0
        assert calls == [1, 100]
        monkeypatch.undo()
        scene = load_scene(path)
        assert scene.max_bounces < 5
        deeper = dataclasses.replace(scene, max_bounces=5)
        assert target.read_text(encoding="utf-8") == trace_svg(deeper)
        spot = [l for l in run(capsys, "trace", path)[1].splitlines() if l.startswith("spot ")]
        assert [l for l in out.splitlines() if l.startswith("spot ")] == spot


class TestClosedStdout:
    """A reader that stops early (``| head``) is not an error of the command:
    exit 1, nothing on stderr."""

    def test_broken_pipe_is_not_an_io_error(self, capsys, monkeypatch, tmp_path):
        with open(tmp_path / "stdout", "w") as backing:

            class ClosedPipe:
                def write(self, text: str) -> int:
                    raise BrokenPipeError(errno.EPIPE, "Broken pipe")

                def flush(self) -> None:
                    pass

                def fileno(self) -> int:
                    return backing.fileno()

            monkeypatch.setattr(sys, "stdout", ClosedPipe())
            code = main(["trace", bundled_scene("cassegrain.json")])
            # the descriptor now writes to devnull, so the flush at exit is quiet
            assert os.path.samestat(os.fstat(backing.fileno()), os.stat(os.devnull))
        assert code == 1
        assert capsys.readouterr().err == ""

    def test_pipe_closed_after_the_first_line(self, tmp_path):
        # far more output than a pipe holds, so the command is still writing
        # when the pipe is closed
        scene = load_scene(bundled_scene("cassegrain.json"))
        path = tmp_path / "many.json"
        save_scene(dataclasses.replace(scene, rays=scene.rays * 20), path)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        with subprocess.Popen([sys.executable, "-m", "conicsteps", "trace", str(path)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            assert proc.stdout.readline() == b"ray 0 bounces 2\n"
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert (code, err) == (1, b"")


class TestFigure:
    def test_svg_to_stdout(self, capsys):
        code, out, _ = run(capsys, "figure", "isosceles")
        assert code == 0
        assert out.startswith("<?xml")
        assert 'id="triangle"' in out

    def test_svg_file_deterministic(self, capsys, tmp_path):
        target = tmp_path / "fig.svg"
        args = ("figure", "cassegrain", "--svg", str(target))
        assert run(capsys, *args)[0] == 0
        first = target.read_bytes()
        assert run(capsys, *args)[0] == 0
        assert target.read_bytes() == first

    @pytest.mark.parametrize("figure_id", ["parabola", "hyperbola"])
    def test_vertex_anchor_is_degenerate_triangle(self, capsys, figure_id):
        # the walk from a vertex retraces (B == A); the reflector used to be
        # drawn along direction(A, B) and failed as a zero-length direction
        code, out, err = run(capsys, "figure", figure_id, "--anchor-param", "0")
        assert code == 2
        assert out == ""
        assert err.startswith("error: degenerate-triangle: a retraced walk (B == A)")
        assert err.count("\n") == 1

    def test_unknown_figure_is_value_error(self, capsys):
        code, _, err = run(capsys, "figure", "torus")
        assert code == 2
        assert err.startswith("error: value:")
        assert "isosceles" in err and "cassegrain" in err

    @pytest.mark.parametrize("figure_id", ["isosceles", "cassegrain"])
    def test_unused_figure_option_is_value_error(self, capsys, figure_id):
        code, out, err = run(capsys, "figure", figure_id, "--delta", "0.3",
                             "--anchor-param", "9")
        assert code == 2
        assert out == ""
        assert err.startswith("error: value:")
        assert figure_id in err

    @pytest.mark.parametrize("option", ["--width", "--height"])
    def test_non_positive_size_is_value_error(self, capsys, option):
        code, out, err = run(capsys, "figure", "isosceles", option, "0")
        assert code == 2
        assert out == ""
        assert err == f"error: value: {option[2:]} must be an integer >= 1, got 0\n"


class TestOneCheckEach:
    """argparse reports input that is missing, conflicting or unparsable as a
    usage error; the library reports a parsed value out of range under its
    own category, whichever flag carried it."""

    WALK = ("walk", "--ellipse", "5,3", "--anchor-param", "1")
    CONVERGE = ("converge", "--ellipse", "5,3", "--anchor-param", "1.1")

    @pytest.mark.parametrize("argv, category", [
        ((*WALK, "--delta", "-0.1"), "value"),
        ((*WALK, "--delta", "nan"), "value"),
        ((*CONVERGE, "--delta0", "0", "--halvings", "3"), "value"),
        ((*CONVERGE, "--delta0", "inf", "--halvings", "3"), "value"),
        ((*CONVERGE, "--delta0", "0.1", "--halvings", "1"), "value"),
        (("residual", "--ellipse", "5,3", "--point", "nan,3"), "value"),
        (("tangent", "--ellipse", "nan,3", "--param", "1"), "value"),
        (("tangent", "--ellipse", "5,3", "--param", "1", "--translate", "inf,0"), "value"),
        (("reflect", "--ellipse", "5,3", "--param", "1", "--incoming", "inf,0"),
         "degenerate-direction"),
        (("tangent", "--param", "1"), "usage"),
        (("reflect", "--ellipse", "5,3", "--incoming", "0,-1"), "usage"),
        (("tangent", "--ellipse", "5,3", "--point", "0,3", "--param", "1"), "usage"),
        (("residual", "--ellipse", "5,3", "--point", "1"), "usage"),
        # b/a = 1e-170: the smaller length squared underflows in the unit
        (("tangent", "--ellipse", "1,1e-170", "--param", "0.7"), "value"),
        ((*CONVERGE[:2], "1,1e-170", "--anchor-param", "0.7", "--delta0", "0.01",
          "--halvings", "3"), "value"),
        # the point's residual is inf; the on-curve bound there is finite
        (("tangent", "--ellipse", "1,1", "--point", "1.5e308,1.5e308"), "off-curve"),
    ])
    def test_category(self, capsys, argv, category):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {category}: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_failed_search_truncates_a_sweep(self, capsys, monkeypatch):
        monkeypatch.setattr(_kernels_py, "_MAX_STEPS", 1)
        code, out, err = run(capsys, *self.CONVERGE, "--delta0", "0.1", "--halvings", "3",
                             "--metrics", "apex_curve_distance")
        assert code == 0
        assert err.startswith("note: sweep truncated at level 0: IterationError: ")
        assert out.startswith("delta,apex_curve_distance\norder,")

    def test_pair_of_non_numbers_is_usage_error(self, capsys):
        code, out, err = run(capsys, "residual", "--ellipse", "5,3", "--point", "a,3")
        assert (code, out) == (2, "")
        assert err.startswith("error: usage: ")
        assert "expected numbers" in err

    @pytest.mark.parametrize("argv", [
        ("tangent", "--hyperbola", "3,4", "--param", "1e300"),
        ("walk", "--hyperbola", "3,4", "--anchor-param", "800", "--delta", "0.1"),
        ("figure", "hyperbola", "--anchor-param", "800"),
        ("converge", "--hyperbola", "3,4", "--anchor-param", "-800", "--delta0", "0.1",
         "--halvings", "4"),
    ])
    def test_hyperbola_param_past_the_float_range(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: value: ")
        assert err.count("\n") == 1 and err.endswith("\n")


class TestTolScope:
    """--tol exists only on the commands that read a tolerance."""

    @pytest.mark.parametrize("argv", [
        ("residual", "--ellipse", "5,3", "--point", "0,3"),
        ("trace", bundled_scene("ellipse.json")),
        ("figure", "isosceles"),
    ])
    def test_tol_is_usage_error_where_unused(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--tol", "1e-3")
        assert code == 2
        assert out == ""
        assert err.startswith("error: usage:")

    @pytest.mark.parametrize("argv", [
        ("tangent", "--ellipse", "5,3", "--point", "0,3.0001"),
        ("reflect", "--ellipse", "5,3", "--point", "0,3.0001", "--incoming", "0,-1"),
        ("walk", "--ellipse", "5,3", "--anchor-param", "1", "--delta", "0.1"),
        ("converge", "--ellipse", "5,3", "--anchor-param", "1", "--delta0", "0.1",
         "--halvings", "2"),
    ])
    def test_tol_accepted_where_read(self, capsys, argv):
        code, _, err = run(capsys, *argv, "--tol", "1e-3")
        assert code == 0, err

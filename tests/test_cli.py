"""Command-line interface: output formats, exit codes, error categories."""
from __future__ import annotations

import math
from importlib import resources

import pytest

from conicsteps.cli import main


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

    def test_invalid_delta_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "walk", "--ellipse", "5,3", "--anchor-param", "1",
            "--delta", "-0.1",
        )
        assert code == 2
        assert err.startswith("error: usage:")

    def test_missing_conic_is_usage_error(self, capsys):
        code, _, err = run(capsys, "walk", "--anchor-param", "1", "--delta", "0.1")
        assert code == 2
        assert err.startswith("error: usage:")

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

    def test_too_few_halvings_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "converge", "--ellipse", "5,3", "--anchor-param", "1.1",
            "--delta0", "0.1", "--halvings", "1",
        )
        assert code == 2
        assert err.startswith("error: usage:")
        assert "halving" in err

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

    def test_scene_without_rays(self, capsys, tmp_path):
        quiet = tmp_path / "empty.json"
        quiet.write_text('{"conics": [{"kind": "ellipse", "a": 5, "b": 3}]}')
        code, out, _ = run(capsys, "trace", str(quiet))
        assert code == 0
        assert out == ""

    def test_svg_output(self, capsys, tmp_path):
        target = tmp_path / "trace.svg"
        code, _, _ = run(
            capsys, "trace", bundled_scene("ellipse.json"), "--svg", str(target)
        )
        assert code == 0
        assert target.read_text().startswith("<?xml")
        assert "<svg" in target.read_text()


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

    def test_unknown_figure_is_value_error(self, capsys):
        code, _, err = run(capsys, "figure", "torus")
        assert code == 2
        assert err.startswith("error: value:")
        assert "isosceles" in err and "cassegrain" in err

"""Command-line interface.

Subcommands::

    residual   signed curve residual at a point
    tangent    analytic tangent/normal at a point or parameter
    walk       the two-equal-steps construction (optionally exact-return)
    converge   halving sweep -> CSV convergence report
    reflect    reflect an incoming direction at a curve point
    trace      trace a scene file's rays; optional SVG
    figure     render a named construction figure as SVG

Conics are selected with ``--ellipse a,b``, ``--parabola p`` or
``--hyperbola a,b [--branch 1|-1]``, optionally posed with
``--translate x,y --rotate r``.  Human-facing numbers use 15 significant
digits; CSV and scene files keep full precision.  Every failure exits 2
with one line ``error: <category>: <reason>`` on stderr: ``usage`` when
argparse finds input missing, conflicting or unparsable, else the category
of the one library check that rejected the parsed value.  A reader that
closes stdout early (``| head``) is not a failure: the command exits 1
with nothing on stderr.
``walk`` and ``converge`` import the construction and the sweep when they
run, so the other commands start without loading either.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .config import DEFAULT, METRICS, Tolerances
from .conics import Conic, Ellipse, Hyperbola, Parabola, Placement
from .errors import (
    BracketError,
    ConicError,
    DegenerateDirectionError,
    DegenerateTriangleError,
    IterationError,
    NoBranchError,
    OffCurveError,
    SceneFormatError,
    UnsupportedVariantError,
)
from .geometry import Direction, Point
from .optics import _spot_report, _trace_xy, reflect_at
from .sceneio import load_scene
from .svgout import FIGURE_IDS, _trace_svg, figure_svg

__all__ = ["main"]

_CATEGORIES = (
    (SceneFormatError, "scene-format"),
    (OffCurveError, "off-curve"),
    (NoBranchError, "no-branch"),
    (DegenerateTriangleError, "degenerate-triangle"),
    (DegenerateDirectionError, "degenerate-direction"),
    (UnsupportedVariantError, "unsupported-variant"),
    (BracketError, "bracket"),
    (IterationError, "iteration"),
    (ConicError, "conic"),
    (ValueError, "value"),
    (OSError, "io"),
)


def _g(v: float) -> str:
    return "%.15g" % v


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.exit(2, f"error: usage: {message}\n")


def _pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'x,y', got {text!r}")
    try:
        return (float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected numbers in {text!r}") from exc


def _add_conic_args(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--ellipse", type=_pair, metavar="A,B")
    group.add_argument("--parabola", type=float, metavar="P")
    group.add_argument("--hyperbola", type=_pair, metavar="A,B")
    p.add_argument("--branch", type=int, choices=(1, -1), default=1)
    p.add_argument("--translate", type=_pair, metavar="X,Y", default=(0.0, 0.0))
    p.add_argument("--rotate", type=float, metavar="RAD", default=0.0)


def _add_location_args(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--point", type=_pair, metavar="X,Y")
    group.add_argument("--param", type=float, metavar="T")


def _conic_from(args: argparse.Namespace) -> Conic:
    placement = Placement(tx=args.translate[0], ty=args.translate[1], rotate=args.rotate)
    if args.ellipse is not None:
        return Conic(Ellipse(*args.ellipse), placement)
    if args.parabola is not None:
        return Conic(Parabola(args.parabola), placement)
    return Conic(Hyperbola(args.hyperbola[0], args.hyperbola[1], args.branch), placement)


def _point_from(args: argparse.Namespace, conic: Conic) -> Point:
    if args.point is not None:
        return Point(*args.point)
    return conic.point_at(args.param)


def _tolerances(args: argparse.Namespace) -> Tolerances:
    return DEFAULT if args.tol is None else replace(DEFAULT, on_curve=args.tol)


def _write_or_print(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> _Parser:
    parser = _Parser(prog="conicsteps", description=__doc__.splitlines()[0])
    # --tol only where the command reads a tolerance.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=None,
                        help="override the on-curve tolerance")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("residual", help="signed curve residual at a point")
    _add_conic_args(p)
    p.add_argument("--point", type=_pair, required=True, metavar="X,Y")

    p = sub.add_parser("tangent", parents=[common],
                       help="analytic tangent and normal at a curve point")
    _add_conic_args(p)
    _add_location_args(p)

    p = sub.add_parser("walk", parents=[common],
                       help="two-equal-steps construction from an anchor")
    _add_conic_args(p)
    p.add_argument("--anchor-param", type=float, required=True, metavar="T")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--orientation", choices=("forward", "backward"), default="forward")
    p.add_argument("--exact-return", action="store_true")

    p = sub.add_parser("converge", parents=[common],
                       help="halving sweep and CSV convergence report")
    _add_conic_args(p)
    p.add_argument("--anchor-param", type=float, required=True, metavar="T")
    p.add_argument("--delta0", type=float, required=True)
    p.add_argument("--halvings", type=int, required=True)
    p.add_argument("--metrics", type=str, default=None,
                   help=f"comma-separated subset of: {', '.join(METRICS)}")
    p.add_argument("--orientation", choices=("forward", "backward"), default="forward")
    p.add_argument("--csv", type=str, default=None, metavar="PATH")

    p = sub.add_parser("reflect", parents=[common],
                       help="reflect a direction at a curve point")
    _add_conic_args(p)
    _add_location_args(p)
    p.add_argument("--incoming", type=_pair, required=True, metavar="DX,DY")

    p = sub.add_parser("trace", help="trace all rays of a scene file")
    p.add_argument("scene", type=str, help="scene JSON path")
    p.add_argument("--max-bounces", type=int, default=None)
    p.add_argument("--svg", type=str, default=None, metavar="PATH")

    p = sub.add_parser("figure", help="render a construction figure as SVG")
    p.add_argument("figure_id", type=str, metavar="FIGURE",
                   help=f"one of: {', '.join(FIGURE_IDS)}")
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--anchor-param", type=float, default=None)
    p.add_argument("--width", type=int, default=640)
    p.add_argument("--height", type=int, default=480)
    p.add_argument("--svg", type=str, default=None, metavar="PATH")
    return parser


def _cmd_residual(args) -> int:
    conic = _conic_from(args)
    print(_g(conic.residual(Point(*args.point))))
    return 0


def _cmd_tangent(args) -> int:
    conic = _conic_from(args)
    q = _point_from(args, conic)
    tangent, normal = conic.tangent_normal(q, _tolerances(args))
    print(f"tangent {_g(tangent.x)} {_g(tangent.y)}")
    print(f"normal {_g(normal.x)} {_g(normal.y)}")
    return 0


def _cmd_walk(args) -> int:
    from .construction import exact_return, two_step

    conic = _conic_from(args)
    anchor = conic.point_at(args.anchor_param)
    tols = _tolerances(args)
    if args.exact_return:
        result = exact_return(conic, anchor, args.delta, args.orientation, tols)
        tri = result.triangle
    else:
        result = None
        tri = two_step(conic, anchor, args.delta, args.orientation, tols)
    print(f"A {_g(tri.A.x)} {_g(tri.A.y)}")
    print(f"D {_g(tri.D.x)} {_g(tri.D.y)}")
    print(f"B {_g(tri.B.x)} {_g(tri.B.y)}")
    print(f"residual_B {_g(tri.residual_b)}")
    if result is not None:
        print(f"t_star {_g(result.t_star)}")
        print(f"gap {_g(result.gap)}")
    if tri.degenerate:
        print("degenerate retraced walk: B == A")
    return 0


def _cmd_converge(args) -> int:
    from .convergence import SweepConfig, run_sweep

    conic = _conic_from(args)
    metrics = tuple(args.metrics.split(",")) if args.metrics else None
    cfg = SweepConfig(
        conic=conic,
        anchor=conic.point_at(args.anchor_param),
        delta0=args.delta0,
        halvings=args.halvings,
        metrics=metrics,
        orientation=args.orientation,
    )
    report = run_sweep(cfg, _tolerances(args))
    if report.failure is not None:
        print(
            f"note: sweep truncated at level {report.failed_level}: {report.failure}",
            file=sys.stderr,
        )
    _write_or_print(report.to_csv(), args.csv)
    return 0


def _cmd_reflect(args) -> int:
    conic = _conic_from(args)
    q = _point_from(args, conic)
    out = reflect_at(conic, q, Direction(*args.incoming), _tolerances(args))
    print(f"outgoing {_g(out.x)} {_g(out.y)}")
    return 0


def _cmd_trace(args) -> int:
    scene = load_scene(args.scene)
    # Each ray is traced once, at the larger cap: the listing and the SVG read
    # its first --max-bounces bounces, the spot report its first file-cap ones
    # (a trace at cap k is the first k bounces of one at any larger cap).
    capped = scene if args.max_bounces is None else replace(scene, max_bounces=args.max_bounces)
    deepest = max(scene, capped, key=lambda s: s.max_bounces)
    bounces = [_trace_xy(deepest, r.origin.x, r.origin.y, r.dir.x, r.dir.y) for r in scene.rays]
    listed = [b[:capped.max_bounces] for b in bounces]
    for i, (r, ray_bounces) in enumerate(zip(scene.rays, listed)):
        print(f"ray {i} bounces {len(ray_bounces)}")
        x, y, dx, dy = r.origin.x, r.origin.y, r.dir.x, r.dir.y
        for index, _, x, y, dx, dy in ray_bounces:
            print(f"  hit {index} {_g(x)} {_g(y)}")
        print(f"  final {_g(x)} {_g(y)} dir {_g(dx)} {_g(dy)}")
    if scene.telescope_pair() is not None and scene.rays:
        rep = _spot_report(scene, [b[:scene.max_bounces] for b in bounces])
        print(f"spot target {_g(rep.target.x)} {_g(rep.target.y)}")
        print(
            f"spot rays {rep.n_rays} focused {rep.n_focused} "
            f"blocked {rep.n_blocked} missed {rep.n_missed}"
        )
        print(f"spot max {_g(rep.max_distance)}")
        print(f"spot rms {_g(rep.rms_distance)}")
    if args.svg:
        _write_or_print(_trace_svg(capped, listed), args.svg)
    return 0


def _cmd_figure(args) -> int:
    svg = figure_svg(
        args.figure_id,
        delta=args.delta,
        anchor_param=args.anchor_param,
        width=args.width,
        height=args.height,
    )
    _write_or_print(svg, args.svg)
    return 0


_DISPATCH = {
    "residual": _cmd_residual,
    "tangent": _cmd_tangent,
    "walk": _cmd_walk,
    "converge": _cmd_converge,
    "reflect": _cmd_reflect,
    "trace": _cmd_trace,
    "figure": _cmd_figure,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _DISPATCH[args.command](args)
        sys.stdout.flush()  # so a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader stopped early (``| head``), which is not an I/O failure
        # of the command.  As the SIGPIPE note in the ``signal`` docs shows,
        # point stdout at devnull, so the flush at exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except tuple(cls for cls, _ in _CATEGORIES) as exc:
        for cls, category in _CATEGORIES:
            if isinstance(exc, cls):
                print(f"error: {category}: {exc}", file=sys.stderr)
                return 2
        raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())

"""Properties checked on generated inputs, shrunk to a minimal case on failure."""
from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import os
import re
import tempfile

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conicsteps import (
    DEFAULT,
    Conic,
    ConicError,
    Direction,
    Ellipse,
    Hyperbola,
    Parabola,
    Placement,
    Point,
    Ray,
    Scene,
    SpotReport,
    SweepConfig,
    Tolerances,
    exact_return,
    parse_scene,
    ray_line_distance,
    reflect_at,
    run_sweep,
    serialize_scene,
    spot_report,
    trace,
    trace_svg,
    translate,
)
from conicsteps.cli import main
from conicsteps.svgout import _CURVE_SAMPLES, _curve, _SvgDoc, default_cassegrain_scene
from conftest import pose_scene

EPS = 2.220446049250313e-16
SAMPLES = 256


def _floats(lo: float, hi: float):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def posed_conics(draw) -> Conic:
    kind = draw(st.sampled_from(("ellipse", "parabola", "hyperbola")))
    if kind == "ellipse":
        a = draw(_floats(0.1, 10.0))
        shape = Ellipse(a, a * draw(_floats(0.05, 1.0)))
    elif kind == "parabola":
        shape = Parabola(draw(_floats(0.1, 5.0)))
    else:
        shape = Hyperbola(draw(_floats(0.1, 6.0)), draw(_floats(0.1, 6.0)),
                          draw(st.sampled_from((1, -1))))
    return Conic(shape, Placement(draw(_floats(-10.0, 10.0)), draw(_floats(-10.0, 10.0)),
                                  draw(_floats(-math.pi, math.pi))))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(conic=posed_conics(), t=_floats(-3.0, 3.0), angle=_floats(0.0, 2.0 * math.pi),
       mantissa=_floats(0.0, 1.0), exponent=st.integers(-9, 2))
def test_projection_is_no_farther_than_any_sample(conic, t, angle, mantissa, exponent):
    # q lies near the curve or far from it; a wrong root or a wrong branch
    # would lose to one of the samples, which the fixed oracle points can miss
    r = mantissa * 10.0 ** exponent
    p = conic.point_at(t)
    q = Point(p.x + r * math.cos(angle), p.y + r * math.sin(angle))
    proj = conic.project_to_curve(q)
    if conic.kind == "ellipse":
        params = [2.0 * math.pi * k / SAMPLES for k in range(SAMPLES)]
    else:
        span = abs(t) + 2.0 + r
        params = [span * (2.0 * k / (SAMPLES - 1) - 1.0) for k in range(SAMPLES)]
    best = min(q.distance_to(conic.point_at(s)) for s in params)
    assert proj.distance <= best + 4.0 * EPS * (1.0 + conic.scale)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(conic=posed_conics(), t=_floats(-3.0, 3.0), angle=_floats(0.0, 2.0 * math.pi),
       mantissa=_floats(0.0, 1.0), exponent=st.integers(-9, 2))
def test_curve_operations_do_not_depend_on_pose(conic, t, angle, mantissa, exponent):
    # a posed conic at the scene point q gives the unposed conic's residual
    # and nearest distance at the canonical point p, up to the rounding of
    # the placement, which works at the size of the coordinates in both
    # frames.  The normal is left out: its error grows with the curvature.
    canonical = Conic(conic.shape)
    r = mantissa * 10.0 ** exponent
    c = canonical.point_at(t)
    p = Point(c.x + r * math.cos(angle), c.y + r * math.sin(angle))
    assume(not (conic.kind == "hyperbola" and p.x == 0.0))  # between the branches
    q = conic.placement.to_scene(p)
    bound = 4.0 * EPS * (1.0 + conic.scale + abs(p.x) + abs(p.y) + abs(q.x) + abs(q.y))
    assert abs(conic.residual(q) - canonical.residual(p)) <= bound
    distance = conic.project_to_curve(q).distance
    assert abs(distance - canonical.project_to_curve(p).distance) <= bound + 4.0 * EPS * r


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(conic=posed_conics(), t=_floats(-3.0, 3.0), angle=_floats(0.0, 2.0 * math.pi))
def test_reflection_is_an_involution(conic, t, angle):
    # reflecting twice across the same tangent gives the direction back
    q = conic.point_at(t)
    d = Direction(math.cos(angle), math.sin(angle))
    back = reflect_at(conic, q, reflect_at(conic, q, d))
    assert abs(back.x - d.x) <= 8.0 * EPS
    assert abs(back.y - d.y) <= 8.0 * EPS


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(conic=posed_conics(), t0=_floats(-700.0, 700.0), t1=_floats(-700.0, 700.0))
def test_batch_samples_are_the_pointwise_samples(conic, t0, t1):
    # a curve sampled in one batch, as the figures draw it, gives every
    # sample bit for bit as point_at and the scalar kernel do one at a time;
    # the drawn polyline is their formatting, and its extent their min/max
    n = _CURVE_SAMPLES
    ts = [t0 + (t1 - t0) * i / n for i in range(n + 1)]
    pointwise = [(p.x, p.y) for p in map(conic.point_at, ts)]
    assert [conic.placement._xy_to_scene(*conic.shape._point(t)) for t in ts] == pointwise
    assert conic._xys_at(ts) == pointwise
    doc = _SvgDoc()
    doc.polyline_text("curve", *_curve(conic, t0, t1))
    text = " ".join("%.8g,%.8g" % (x, -y) for x, y in pointwise)
    assert doc._items == [("polyline", "curve", text, False, False)]
    xs, ys = zip(*pointwise)
    assert doc._extent == (min(xs), max(xs), min(ys), max(ys))


@st.composite
def rays(draw) -> Ray:
    dx, dy = draw(_floats(-10.0, 10.0)), draw(_floats(-10.0, 10.0))
    assume(math.hypot(dx, dy) > 1e-3)
    return Ray(Point(draw(_floats(-100.0, 100.0)), draw(_floats(-100.0, 100.0))),
               Direction(dx, dy))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mirrors=st.lists(posed_conics(), max_size=3), ray_list=st.lists(rays(), max_size=3),
       max_bounces=st.integers(1, 64), on_curve=_floats(1e-15, 1.0),
       confocal=_floats(1e-15, 1.0))
def test_scene_file_round_trip(mirrors, ray_list, max_bounces, on_curve, confocal):
    # a normalized direction is normalized again when parsed, which moves
    # the last bit of about one direction in five unless parsing keeps it
    scene = Scene(mirrors=tuple(mirrors), rays=tuple(ray_list), max_bounces=max_bounces,
                  tolerances=Tolerances(on_curve=on_curve, confocal=confocal))
    assert parse_scene(serialize_scene(scene)) == scene


def _sweep_and_return(conic, anchor, delta, orientation):
    report = run_sweep(SweepConfig(conic=conic, anchor=anchor, delta0=delta, halvings=4,
                                   orientation=orientation))
    try:
        res = exact_return(conic, anchor, delta, orientation)
        ret = (res.t_star, res.gap)
    except ConicError as exc:
        ret = (type(exc).__name__, str(exc))
    return (report.deltas, report.values, report.orders, report.constants,
            report.failed_level, report.failure, ret)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(conic=posed_conics(), t=_floats(-3.0, 3.0),
       orientation=st.sampled_from(("forward", "backward")),
       mantissa=_floats(1.0, 10.0), exponent=st.integers(-4, -1))
def test_sweep_and_exact_return_do_not_depend_on_pose(conic, t, orientation, mantissa,
                                                      exponent):
    # the walk is measured in the canonical frame, so a placed conic gives
    # the values of the unplaced one at the anchor's canonical coordinates
    anchor = conic.point_at(t)
    ac = conic._require_on_curve(anchor.x, anchor.y, DEFAULT)
    delta = mantissa * 10.0 ** exponent
    assert (_sweep_and_return(conic, anchor, delta, orientation)
            == _sweep_and_return(Conic(conic.shape), Point(*ac), delta, orientation))


def _offsets(lo: float, hi: float, min_size: int):
    """Signed offsets with magnitudes in ``[lo, hi]``."""
    signed = st.tuples(st.sampled_from((1.0, -1.0)), _floats(lo, hi)).map(lambda p: p[0] * p[1])
    return st.lists(signed, min_size=min_size, max_size=3)


@st.composite
def posed_telescopes(draw) -> Scene:
    """The stock telescope moved as a whole by a drawn rigid motion, with
    rays aimed down at the aperture (focused), down into the secondary's
    shadow (blocked) and up, away from both mirrors (missed), in a drawn
    order and at a drawn bounce cap."""
    down, up = Direction(0.0, -1.0), Direction(0.0, 1.0)
    rays = ([Ray(Point(x, 8.0), down) for x in draw(_offsets(3.7, 5.0, 0))]
            + [Ray(Point(x, 8.0), down) for x in draw(_offsets(0.0, 3.5, 1))]
            + [Ray(Point(x, 8.0), up) for x in draw(_offsets(3.7, 5.0, 1))])
    scene = dataclasses.replace(default_cassegrain_scene(), rays=tuple(draw(st.permutations(rays))),
                                max_bounces=draw(st.integers(1, 3)))
    motion = Placement(draw(_floats(-10.0, 10.0)), draw(_floats(-10.0, 10.0)),
                       draw(_floats(-math.pi, math.pi)))
    return pose_scene(scene, motion)


def _spot_from_paths(scene: Scene) -> SpotReport:
    """``spot_report``'s statistics built by hand from public ``trace`` paths."""
    primary = scene.roles.index("primary")
    secondary = scene.roles.index("secondary")
    target = scene.mirrors[secondary].focus_points()[1]
    paths = [trace(scene, ray) for ray in scene.rays]
    hit = [p for p in paths if p.hits]
    distances = tuple(ray_line_distance(p.final, target) for p in hit)
    return SpotReport(
        target=target,
        n_rays=len(paths),
        n_focused=sum(1 for p in hit if p.hits[0].mirror_index == primary
                      and len(p.hits) >= 2 and p.hits[1].mirror_index == secondary),
        n_blocked=sum(1 for p in hit if p.hits[0].mirror_index == secondary),
        n_missed=len(paths) - len(hit),
        max_distance=max(distances, default=0.0),
        rms_distance=(math.sqrt(math.fsum(d * d for d in distances) / len(distances))
                      if distances else 0.0),
        distances=distances,
    )


def _bits(report: SpotReport) -> str:
    """Every field of ``report``; float reprs round-trip, so equal strings
    are equal bits."""
    return repr([getattr(report, f.name) for f in dataclasses.fields(report)])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(scene=posed_telescopes())
def test_spot_report_is_the_statistics_of_the_traced_paths(scene):
    # spot_report reads the float bounce loop without building per-ray
    # objects; it must agree, field for field and bit for bit, with the
    # statistics of the public TracePaths of the same rays
    report = spot_report(scene, scene.rays)
    assert _bits(report) == _bits(_spot_from_paths(scene))
    assert report.n_blocked >= 1 and report.n_missed >= 1


def _ray_polyline(path) -> str:
    """The ``points`` of a traced ray's SVG polyline, built from its public
    ``TracePath``: the origin, each hit, and 3 units past the last bounce."""
    pts = ([path.ray.origin] + [h.point for h in path.hits]
           + [translate(path.final.origin, path.final.dir, 3.0)])
    return " ".join("%.8g,%.8g" % (p.x, -p.y) for p in pts)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(scene=posed_telescopes())
def test_svg_rays_are_the_traced_paths(scene):
    # the SVG reads the float bounce loop; each ray's polyline must be the
    # one drawn from the public TracePath, misses included
    drawn = dict(re.findall(r'<polyline id="(ray-\d+)" points="([^"]*)"', trace_svg(scene)))
    assert drawn == {f"ray-{i}": _ray_polyline(trace(scene, ray))
                     for i, ray in enumerate(scene.rays)}


def _listing(scene: Scene) -> list[str]:
    """The CLI ``trace`` listing of the scene's rays, from ``trace`` paths."""
    g = "%.15g"
    lines = []
    for i, ray in enumerate(scene.rays):
        path = trace(scene, ray)
        lines.append(f"ray {i} bounces {len(path.hits)}")
        lines += [f"  hit {h.mirror_index} {g % h.point.x} {g % h.point.y}" for h in path.hits]
        f = path.final
        lines.append(f"  final {g % f.origin.x} {g % f.origin.y} dir {g % f.dir.x} {g % f.dir.y}")
    return lines


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(scene=posed_telescopes())
def test_cli_listing_is_the_traced_paths(scene):
    # at a flag cap below the file's and at one above it, the listing is
    # that of trace at the flag's cap, and the spot lines stay at the file's
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scene.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(serialize_scene(scene))
        for cap in (scene.max_bounces - 1, scene.max_bounces + 1):
            if cap < 1:
                continue
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["trace", path, "--max-bounces", str(cap)]) == 0
            lines = out.getvalue().splitlines()
            listed = [l for l in lines if not l.startswith("spot ")]
            assert listed == _listing(dataclasses.replace(scene, max_bounces=cap))
            rep = spot_report(scene, scene.rays)
            assert lines[len(listed):] == [
                f"spot target {rep.target.x:.15g} {rep.target.y:.15g}",
                f"spot rays {rep.n_rays} focused {rep.n_focused} "
                f"blocked {rep.n_blocked} missed {rep.n_missed}",
                f"spot max {rep.max_distance:.15g}",
                f"spot rms {rep.rms_distance:.15g}",
            ]

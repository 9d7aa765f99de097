"""Properties checked on generated inputs, shrunk to a minimal case on failure."""
from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import os
import re
import sys
import tempfile
from importlib import resources

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conicsteps import (
    DEFAULT,
    Conic,
    ConicError,
    Direction,
    Ellipse,
    Hyperbola,
    OffCurveError,
    Parabola,
    Placement,
    Point,
    Ray,
    Scene,
    SpotReport,
    SweepConfig,
    Tolerances,
    exact_return,
    focal_change_error,
    focal_property_error,
    intersect_ray,
    load_scene,
    parse_scene,
    ray_line_distance,
    reflect_at,
    run_sweep,
    serialize_scene,
    spot_report,
    trace,
    trace_svg,
    translate,
    two_step,
)
from conicsteps.cli import main
from conicsteps.optics import _ray_xy, _trace_xy
from conicsteps.svgout import (
    _CURVE_SAMPLES,
    _canonical_curve,
    _curve,
    _SvgDoc,
    default_cassegrain_scene,
)
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


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(conic=posed_conics(), t=_floats(-3.0, 3.0))
def test_focal_property_error_does_not_depend_on_pose(conic, t):
    # the error is measured in the canonical frame, at the canonical point
    # of the one on-curve check, so a posed conic gives, bit for bit, the
    # unposed conic's error at that point
    q = conic.point_at(t)
    assert focal_property_error(conic, q) == focal_property_error(
        Conic(conic.shape), conic.placement.to_canonical(q))


def _textbook_point(shape, t: float) -> tuple[float, float]:
    """The canonical point at ``t``, written out as the parametrization reads."""
    if isinstance(shape, Ellipse):
        return shape.a * math.cos(t), shape.b * math.sin(t)
    if isinstance(shape, Parabola):
        return t, t * t / (4.0 * shape.p)
    return shape.branch * shape.a * math.cosh(t), shape.b * math.sinh(t)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(conic=posed_conics(), t0=_floats(-700.0, 700.0), t1=_floats(-700.0, 700.0))
def test_batch_samples_are_the_pointwise_samples(conic, t0, t1):
    # a curve sampled in one batch, as the figures draw it, gives every
    # sample bit for bit as point_at does one at a time and as the textbook
    # parametrization does (the parabola's square is taken in its unit), as
    # its x and y columns; the drawn polyline is their formatting, and its
    # extent their min/max
    n = _CURVE_SAMPLES
    ts = [t0 + (t1 - t0) * i / n for i in range(n + 1)]
    pointwise = [(p.x, p.y) for p in map(conic.point_at, ts)]
    assert [conic.placement._xy_to_scene(*_textbook_point(conic.shape, t)) for t in ts] == pointwise
    xs, ys = conic._xys_at(ts)
    assert repr(list(zip(xs, ys))) == repr(pointwise)
    _canonical_curve.cache_clear()
    doc = _SvgDoc()
    doc.polyline("curve", *_curve(conic, t0, t1))
    text = " ".join("%.8g,%.8g" % (x, -y) for x, y in pointwise)
    assert doc._items == [("polyline", "curve", text, False, False)]
    xs, ys = zip(*pointwise)
    assert doc._extent == (min(xs), max(xs), min(ys), max(ys))
    # drawn again, the canonical columns come from the memo, and the
    # drawing is the cold one bit for bit (repr tells signed zeros apart)
    warm = _SvgDoc()
    warm.polyline("curve", *_curve(conic, t0, t1))
    assert _canonical_curve.cache_info().hits == 1
    assert repr((warm._items, warm._extent)) == repr((doc._items, doc._extent))


#: coordinates at the edges of the format and of min/max: signed zeros,
#: subnormals, the least normal, far and largest values
_EDGE_COORDS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310,
                                2.2250738585072014e-308, 1e300, -1e300,
                                1.7976931348623157e308, -1.7976931348623157e308])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(xy=st.lists(st.tuples(*[st.one_of(_EDGE_COORDS, _floats(-1e9, 1e9),
                                          st.floats(allow_nan=False, allow_infinity=False))] * 2),
                   min_size=1, max_size=20))
@example(xy=[(0.0, -0.0), (-0.0, 0.0)])
@example(xy=[(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)])
@example(xy=[(1e300, -1e300), (-1e300, 1e300)])
def test_polyline_is_the_per_vertex_text_and_extent(xy):
    # one format operation over the interleaved columns gives the text of
    # one "%.8g,%.8g" per vertex, y flipped, and the extent is the min/max
    # of the vertex pairs; repr tells signed zeros apart
    xs, ys = zip(*xy)
    text = " ".join(["%.8g,%.8g" % (x, -y) for x, y in xy])
    extent = repr((min(xs), max(xs), min(ys), max(ys)))
    for columns in ((xs, ys), (list(xs), list(ys))):
        doc = _SvgDoc()
        doc.polyline("p", *columns)
        assert doc._items == [("polyline", "p", text, False, False)]
        assert repr(doc._extent) == extent


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


def _signed(lo: float, hi: float):
    """A float of either sign with its magnitude in ``[lo, hi]``."""
    return st.tuples(st.sampled_from((1.0, -1.0)), _floats(lo, hi)).map(lambda p: p[0] * p[1])


#: the rungs of a that take the near-limit conics toward Parabola(_LIMIT_P); at
#: 1e6 the placement's rounding (about 6e-17 * a) is still far below every gap
_LIMIT_A = (1e2, 1e4, 1e6)
_LIMIT_P = 1.0
#: the parabola's orientation -> the near-limit kind and orientation whose two
#: steps it takes: its directrix step is the far focus's step at a = infinity
_LIMIT_WALKS = {"forward": ("ellipse", "backward"), "backward": ("hyperbola", "backward")}


def _limit_conic(kind: str, a: float, p: float) -> Conic:
    """The ellipse or hyperbola of size ``a`` with Parabola(p)'s vertex (the
    origin) and near focus ``(0, p)``; its far focus recedes along the axis."""
    if kind == "ellipse":
        return Conic(Ellipse(a, math.sqrt(2.0 * a * p - p * p)), Placement(0.0, a, math.pi / 2))
    return Conic(Hyperbola(a, math.sqrt(2.0 * a * p + p * p), 1),
                 Placement(0.0, -a, math.pi / 2))


def _limit_probe(conic: Conic, A: Point, delta: float, orientation: str, ray: Ray,
                 q: Point) -> dict[str, tuple[float, ...]]:
    """What the cross-kind property compares: the walk's step B - A, the exact
    return's, the tangent at A, the foot of q, the first hit of the ray and
    the parallelism of the walk."""
    tri = two_step(conic, A, delta, orientation)
    ret = exact_return(conic, A, delta, orientation).triangle
    tangent, _ = conic.tangent_normal(A)
    sign = math.copysign(1.0, tangent.x)  # tangents are undirected: compare them up to sign
    foot = conic.project_to_curve(q).foot
    hit = intersect_ray(conic, ray)[0][1]
    return {"two_step": (tri.B.x - tri.A.x, tri.B.y - tri.A.y),
            "exact_return": (ret.B.x - ret.A.x, ret.B.y - ret.A.y),
            "tangent_normal": (sign * tangent.x, sign * tangent.y),
            "project_to_curve": (foot.x, foot.y),
            "intersect_ray": (hit.x, hit.y),
            "parallelism_error": (focal_change_error(conic, tri).parallelism_error,)}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(x=_signed(0.3, 2.0), delta=_floats(0.05, 0.2), orientation=st.sampled_from(("forward", "backward")),
       tilt=_floats(-0.4, 0.4), reach=_floats(0.5, 2.0), offset=_floats(-0.5, 0.5))
def test_parabola_is_the_limit_of_ellipses_and_hyperbolas(x, delta, orientation, tilt, reach,
                                                           offset):
    # One step rule for all three conics: each operation on the near-limit
    # ellipse or hyperbola of size a differs from the parabola's by O(p / a).
    # A wrong pairing of the walks keeps its step more than 6e-4 away at
    # every a, so a parabola step rule that is not the limit fails here.
    p = _LIMIT_P
    parabola = Conic(Parabola(p))
    A = parabola.point_at(x)
    u = Direction(-math.sin(tilt), math.cos(tilt))  # within 0.4 rad of the axis
    ray = Ray(Point(A.x - reach * u.x, A.y - reach * u.y), u)  # from outside, aimed at A
    _, n = parabola.tangent_normal(A)
    q = Point(A.x + offset * n.x, A.y + offset * n.y)  # its foot is A, as 0.5 < 2 p
    want = _limit_probe(parabola, A, delta, orientation, ray, q)
    kind, limit_orientation = _LIMIT_WALKS[orientation]
    gaps = []
    for a in _LIMIT_A:
        conic = _limit_conic(kind, a, p)
        got = _limit_probe(conic, conic.project_to_curve(A).foot, delta, limit_orientation,
                           ray, q)
        gaps.append({m: math.dist(got[m], want[m]) for m in want})
    for m in want:
        g = [row[m] for row in gaps]
        # at most 2 p / a on every rung: it falls at least 10x per decade
        assert all(gk <= 2.0 * p / a for gk, a in zip(g, _LIMIT_A)), (m, g)
        if m != "parallelism_error":
            # and no faster: about 10x per decade.  The parallelism gap is a
            # signed angle whose 1/a coefficient changes sign near |x| = 1.5,
            # where its rate is undefined, so it has the bound alone.
            assert 0.9 <= math.log10(g[1] / g[2]) / 2.0 <= 1.1, (m, g)


def _offsets(lo: float, hi: float, min_size: int):
    """Signed offsets with magnitudes in ``[lo, hi]``."""
    return st.lists(_signed(lo, hi), min_size=min_size, max_size=3)


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


def _traced(scene: Scene, rays) -> object:
    """``_trace_xy`` of the bundle, or the type and message of what it raised;
    a float repr round-trips, so equal strings are equal bits."""
    try:
        return repr(_trace_xy(scene, rays))
    except (ConicError, ValueError) as exc:
        return type(exc), str(exc)


#: float rays that fail a check wherever they start: two non-finite origins
#: and a zero direction.
BAD_RAYS = ((math.inf, 8.0, 0.0, -1.0), (0.0, math.nan, 0.0, -1.0), (4.0, 8.0, 0.0, 0.0))


@st.composite
def bundles(draw) -> tuple[Scene, list]:
    """A posed telescope at a drawn on-curve bound, tight enough that some
    hits fail it, and its rays as floats with up to two bad rays mixed in."""
    scene = dataclasses.replace(draw(posed_telescopes()), tolerances=Tolerances(
        on_curve=10.0 ** draw(_floats(-16.5, -14.0))))
    rays = [_ray_xy(r) for r in scene.rays]
    for bad in draw(st.lists(st.sampled_from(BAD_RAYS), max_size=2)):
        rays.insert(draw(st.integers(0, len(rays))), bad)
    return scene, rays


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(scene=posed_telescopes())
def test_bundle_is_the_rays_traced_one_by_one(scene):
    # one call on the bundle gives, bit for bit, each ray's own bounces
    rays = [_ray_xy(r) for r in scene.rays]
    alone = [b for ray in rays for b in _trace_xy(scene, [ray])]
    assert repr(_trace_xy(scene, rays)) == repr(alone)
    paths = [trace(scene, r) for r in scene.rays]
    assert repr(alone) == repr([[(h.mirror_index, h.t, h.point.x, h.point.y, h.outgoing.x,
                                  h.outgoing.y) for h in p.hits] for p in paths])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(bundle=bundles())
def test_bundle_raises_as_its_first_failing_ray(bundle):
    # rays are traced in order, each through all its bounces, so the bundle
    # raises what its first failing ray raises traced alone
    scene, rays = bundle
    alone = [_traced(scene, [ray]) for ray in rays]
    failed = [outcome for outcome in alone if isinstance(outcome, tuple)]
    expected = failed[0] if failed else repr([b for ray in rays for b in _trace_xy(scene, [ray])])
    assert _traced(scene, rays) == expected


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(scene=posed_telescopes())
@example(scene=load_scene(resources.files("conicsteps").joinpath("scenes", "ellipse.json")))
def test_first_bounce_is_the_nearest_hit_over_the_mirrors(scene):
    # the bounce loop searches every mirror for hits in one call; its first
    # bounce is the nearest of each mirror's intersect_ray hits, the lower
    # mirror index on a tie, with t and the point bit for bit
    for ray in scene.rays:
        found = [(t, index, q) for index, mirror in enumerate(scene.mirrors)
                 for t, q in intersect_ray(mirror, ray)]
        hits = trace(scene, ray).hits
        if not found:
            assert hits == ()
            continue
        t, index, q = min(found, key=lambda hit: hit[:2])
        assert repr((hits[0].t, hits[0].mirror_index, hits[0].point)) == repr((t, index, q))


@st.composite
def posed_default_telescopes(draw) -> Scene:
    """The stock telescope with a drawn number of rays, moved as a whole by a
    drawn rigid motion, at a drawn bounce cap: past its second bounce a ray
    leaves the secondary for the primary again."""
    scene = pose_scene(default_cassegrain_scene(draw(st.integers(1, 12))), Placement(
        draw(_floats(-10.0, 10.0)), draw(_floats(-10.0, 10.0)), draw(_floats(-math.pi, math.pi))))
    return dataclasses.replace(scene, max_bounces=draw(st.integers(2, 8)))


@st.composite
def aimed_rays(draw, lo: float, hi: float) -> Scene:
    """One posed conic and a ray aimed at a point far out along it (up to
    1e12 along a parabola, to a parameter of 25 along a hyperbola, anywhere
    on an ellipse), from a drawn side and from 10**lo to 10**hi times its
    scale away."""
    conic = draw(posed_conics())
    if conic.kind == "ellipse":
        t = draw(_floats(0.0, 2.0 * math.pi))
    else:
        size = (10.0 ** draw(_floats(0.0, 12.0)) if conic.kind == "parabola"
                else draw(_floats(0.0, 25.0)))
        t = draw(st.sampled_from((1.0, -1.0))) * size
    p = conic.point_at(t)
    angle = draw(_floats(0.0, 2.0 * math.pi))
    r = conic.scale * 10.0 ** draw(_floats(lo, hi))
    c, s = math.cos(angle), math.sin(angle)
    ray = Ray(Point(p.x + r * c, p.y + r * s), Direction(-c, -s))
    return Scene(mirrors=(conic,), rays=(ray,), max_bounces=8)


def _check_bounces_leave_their_mirrors(scene: Scene) -> None:
    # a bounce starts on the point it left; the next one must be farther
    # along the ray than that point's rounding, and elsewhere, or the ray
    # has hit its own origin again
    for bounces in _trace_xy(scene, map(_ray_xy, scene.rays)):
        for (_, _, ox, oy, _, _), (_, t, x, y, _, _) in zip(bounces, bounces[1:]):
            assert t > 4.0 * EPS * (abs(ox) + abs(oy))
            assert (x, y) != (ox, oy)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(scene=st.one_of(posed_default_telescopes(), aimed_rays(-2.0, 2.0)))
def test_each_bounce_leaves_its_mirror(scene):
    _check_bounces_leave_their_mirrors(scene)


@pytest.mark.xfail(strict=True, raises=OffCurveError, reason=(
    "ROADMAP item 6: from more than about 100 times its scale away, the ray's "
    "quadratic loses its hit to cancellation, and the hit fails the on-curve check"))
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(scene=aimed_rays(2.0, 6.0))
@example(scene=Scene(mirrors=(Conic(Ellipse(1.0, 1.0)),), rays=(
    Ray(Point(1081.6046117362796, 1682.941969615793),
        Direction(-0.5403023058681398, -0.8414709848078965)),)))
def test_each_bounce_of_a_ray_from_far_leaves_its_mirror(scene):
    _check_bounces_leave_their_mirrors(scene)


def _scaled(conic: Conic, f: float) -> Conic:
    """``conic`` with every length multiplied by ``f``: its shape, its
    placement's translation."""
    s, pl = conic.shape, conic.placement
    lengths = {"p": s.p * f} if isinstance(s, Parabola) else {"a": s.a * f, "b": s.b * f}
    return Conic(dataclasses.replace(s, **lengths), Placement(pl.tx * f, pl.ty * f, pl.rotate))


def _outcome(call) -> object:
    """What ``call`` returns, or the type of the error it raises."""
    try:
        return call()
    except (ConicError, ValueError) as exc:
        return type(exc)


@st.composite
def mirror_scenes(draw) -> Scene:
    return Scene(mirrors=tuple(draw(st.lists(posed_conics(), min_size=1, max_size=2))),
                 rays=tuple(draw(st.lists(rays(), min_size=1, max_size=3))), max_bounces=8)


def _exact_at(f: float, values) -> bool:
    """Whether multiplying each of ``values`` by the power of two ``f`` is
    exact: each is zero, or normal and still normal and finite once scaled.
    A subnormal has fewer bits than its scaled image, so an unscaled value
    that rounds into the subnormals cannot be its own scaled image divided
    by ``f``, and neither can a value whose scaled image does."""
    tiny = sys.float_info.min
    return all(v == 0.0 or (tiny <= abs(v) and tiny <= abs(v * f) < math.inf) for v in values)


#: the sweep metrics that are lengths; the others are angles
_LENGTH_METRICS = ("residual_B", "apex_curve_distance", "exact_return_gap")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(scene=st.one_of(posed_telescopes(), mirror_scenes()), k=st.integers(-900, 1000),
       t=_floats(-3.0, 3.0), offset=_floats(-3e-9, 3e-9),
       gap=_floats(0.0, 2e-9))
def test_power_of_two_scaling_is_exact(scene, k, t, offset, gap):
    # the paper's construction has no preferred unit, and a scale by 2^k is
    # exact in floats: every length, every gate's unit and every rounding
    # scale with it.  Each shape runs its kernels in its own unit, so they
    # see the same bits at every scale.  So a scaled scene traces the same
    # bounces, its points and t scaled by exactly 2^k and its directions bit
    # for bit, every tolerance gate gives the same answer, and every curve
    # operation gives its own result scaled by 2^k.  That holds over the
    # float range, short of the subnormals: examples with a compared value
    # that is subnormal, unscaled or scaled, are left out (_exact_at).
    f = math.ldexp(1.0, k)
    big = dataclasses.replace(
        scene, mirrors=tuple(_scaled(m, f) for m in scene.mirrors),
        rays=tuple(Ray(Point(r.origin.x * f, r.origin.y * f), r.dir) for r in scene.rays))
    rays = [_ray_xy(r) for r in scene.rays]
    traced = _outcome(lambda: _trace_xy(scene, rays))
    if isinstance(traced, list):
        assume(_exact_at(f, [v for b in traced for _, s, x, y, _, _ in b for v in (s, x, y)]))
        traced = repr([[(i, t * f, x * f, y * f, dx, dy) for i, t, x, y, dx, dy in b]
                       for b in traced])
    big_traced = _outcome(lambda: _trace_xy(big, [_ray_xy(r) for r in big.rays]))
    assert (repr(big_traced) if isinstance(big_traced, list) else big_traced) == traced
    for conic, scaled in zip(scene.mirrors, big.mirrors):
        assert scaled.focus_points() == tuple(Point(q.x * f, q.y * f)
                                              for q in conic.focus_points())
        # a curve point, a point near the bound of is_on_curve, and an anchor
        # that may be a vertex, where the walk retraces itself; the
        # parabola's parameter is its x, a length, so it scales too
        big_t = t * f if isinstance(conic.shape, Parabola) else t
        p = conic.point_at(t)
        assert scaled.point_at(big_t) == Point(p.x * f, p.y * f)
        assert conic.is_on_curve(p) and scaled.is_on_curve(Point(p.x * f, p.y * f))
        q = Point(p.x + offset * conic.scale, p.y)
        assert scaled.is_on_curve(Point(q.x * f, q.y * f)) == conic.is_on_curve(q)
        delta = 0.01 * conic.scale
        tri = two_step(conic, p, delta)
        assume(_exact_at(f, (tri.B.x, tri.B.y)))
        big_tri = two_step(scaled, Point(p.x * f, p.y * f), delta * f)
        assert big_tri.degenerate == tri.degenerate
        assert (big_tri.B.x, big_tri.B.y) == (tri.B.x * f, tri.B.y * f)
        # the nearest point from off the curve, for all three kinds
        r = Point(p.x + 0.25 * conic.scale, p.y - 0.5 * conic.scale)
        proj = _outcome(lambda: conic.project_to_curve(r))
        if not isinstance(proj, type):
            assume(_exact_at(f, (proj.foot.x, proj.foot.y, proj.distance)))
            proj = (proj.foot.x * f, proj.foot.y * f,
                    proj.param * f if isinstance(conic.shape, Parabola) else proj.param,
                    proj.distance * f)
        big_proj = _outcome(lambda: scaled.project_to_curve(Point(r.x * f, r.y * f)))
        if not isinstance(big_proj, type):
            big_proj = (big_proj.foot.x, big_proj.foot.y, big_proj.param, big_proj.distance)
        assert big_proj == proj
        ts = [t + i / 4.0 for i in range(-4, 5)]
        big_ts = [u * f for u in ts] if isinstance(conic.shape, Parabola) else ts
        xs, ys = conic._xys_at(ts)
        assume(_exact_at(f, xs + ys))
        assert scaled._xys_at(big_ts) == ([x * f for x in xs], [y * f for y in ys])
    if scene.telescope_pair() is not None:
        # the confocal gate, with the secondary moved by a gap near its bound
        def displaced(s: Scene, g: float) -> Scene:
            primary, secondary = s.mirrors
            pl = secondary.placement
            return dataclasses.replace(s, mirrors=(primary, Conic(
                secondary.shape, Placement(pl.tx, pl.ty + g, pl.rotate))))
        assert _outcome(lambda: type(displaced(big, gap * f))) == _outcome(
            lambda: type(displaced(scene, gap)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(conic=posed_conics(), t=_floats(-3.0, 3.0), k=st.sampled_from((-990, -600, 600, 1000)),
       orientation=st.sampled_from(("forward", "backward")))
def test_sweep_scales_exactly(conic, t, k, orientation):
    # a halving sweep of a conic scaled by 2^k measures every length metric
    # scaled by 2^k and every angle bit for bit, and fits the same orders to
    # all of them: the lengths against a floor scaled by 2^k too, the angles
    # against a floor of their own.  At 2^-990 the chord B - A is too short
    # to normalize, so the chord angle must come from the unit steps.
    f = math.ldexp(1.0, k)
    scaled = _scaled(conic, f)
    big_t = t * f if isinstance(conic.shape, Parabola) else t
    p = conic.point_at(t)
    delta = 0.01 * conic.scale
    report = run_sweep(SweepConfig(conic, p, delta, 6, orientation=orientation))
    big = run_sweep(SweepConfig(scaled, scaled.point_at(big_t), delta * f, 6,
                                orientation=orientation))
    assume(_exact_at(f, [v for values in report.values.values() for v in values]))
    assert big.deltas == tuple(d * f for d in report.deltas)
    assert big.failed_level == report.failed_level
    for m, values in report.values.items():
        scale = f if m in _LENGTH_METRICS else 1.0
        assert big.values[m] == tuple(v * scale for v in values), m
        assert big.orders[m] == report.orders[m], m
        assert big.constants[m] is None or math.isfinite(big.constants[m])


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

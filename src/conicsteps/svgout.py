"""Deterministic SVG output: construction figures and traced scenes.

World coordinates are y-up; the y axis is negated only when elements are
serialized, so geometry code stays in math conventions and labels render
upright.  The viewBox is fitted to the drawn content with a 10% margin.
Output is plain SVG 1.1 geometry (no scripts, no CSS), and byte-identical
for identical inputs.

``figure_svg`` renders the six named construction figures;
``REQUIRED_ELEMENTS`` lists, per figure, the element ids a structural
check should find in the document.  Traced rays are drawn from the float
bounces of ``optics._trace_xy``; this module builds no trace objects.

Only the triangle of a figure depends on ``delta`` and ``anchor_param``;
its curves are fixed.  Each fixed curve is sampled and formatted by the
first render that draws it, and later renders in the same process reuse
that text.  A scene's mirrors come from the caller and are drawn afresh
on every ``trace_svg`` call.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from typing import TYPE_CHECKING

from .conics import Conic, Ellipse, Hyperbola, Parabola, Placement
from .geometry import Direction, Point, _require_count, scalar_projection, translate
from .optics import Ray, Scene, _Bounce, _trace_xy

if TYPE_CHECKING:
    from .construction import StepTriangle

__all__ = ["FIGURE_IDS", "REQUIRED_ELEMENTS", "figure_svg", "trace_svg"]

REQUIRED_ELEMENTS: dict[str, frozenset[str]] = {
    "isosceles": frozenset({"triangle", "reflector", "beam-in", "beam-out"}),
    "ellipse-two-step": frozenset(
        {"curve", "focus-1", "focus-2", "triangle", "reflector", "beam-in", "beam-out"}
    ),
    "projection": frozenset(
        {"curve", "focus-1", "focus-2", "triangle", "proj-1", "proj-2"}
    ),
    "parabola": frozenset(
        {"curve", "directrix", "focus-1", "triangle", "reflector", "beam-in", "beam-out"}
    ),
    "hyperbola": frozenset(
        {"curve", "focus-1", "focus-2", "triangle", "reflector", "beam-in", "beam-out"}
    ),
    "cassegrain": frozenset({"curve", "curve-2", "focus-1", "focus-2", "ray-0", "ray-1"}),
}

_CURVE_SAMPLES = 512


def _f(v: float) -> str:
    return "%.8g" % v


def _require_size(width: int, height: int) -> None:
    """Raise ValueError unless the document size is two positive ints."""
    _require_count("width", width, 1)
    _require_count("height", height, 1)


#: The x and y range of some drawn vertices: ``(xmin, xmax, ymin, ymax)``.
_Extent = tuple[float, float, float, float]


def _points_text(xy: Sequence[tuple[float, float]]) -> str:
    """A polyline's ``points`` attribute: the vertices y-flipped, in absolute coordinates."""
    return " ".join(["%.8g,%.8g" % (x, -y) for x, y in xy])


def _extent_of(xy: Sequence[tuple[float, float]]) -> _Extent:
    xs, ys = zip(*xy)
    return min(xs), max(xs), min(ys), max(ys)


class _SvgDoc:
    """Collects world-coordinate primitives and renders them y-flipped.

    A polyline's ``points`` text is formatted when it is added, and only the
    extent of its vertices is kept for the viewBox; coordinates are absolute,
    so neither depends on the rest of the document.
    """

    def __init__(self) -> None:
        self._items: list[tuple] = []
        self._extent: _Extent | None = None  # of polyline and marker vertices

    def _grow(self, xmin: float, xmax: float, ymin: float, ymax: float) -> None:
        # min and max keep the first of equal values, as one pass over every
        # vertex in drawing order would, so a signed zero lands the same way.
        e = self._extent
        self._extent = (xmin, xmax, ymin, ymax) if e is None else (
            min(e[0], xmin), max(e[1], xmax), min(e[2], ymin), max(e[3], ymax))

    def polyline_text(
        self, elem_id: str, points: str, extent: _Extent, closed: bool = False,
        dashed: bool = False,
    ) -> None:
        """Add a polyline whose ``points`` text and vertex extent are already made."""
        self._grow(*extent)
        self._items.append(("polyline", elem_id, points, closed, dashed))

    def polyline_xy(
        self, elem_id: str, xy: list[tuple[float, float]], closed: bool = False,
        dashed: bool = False,
    ) -> None:
        self.polyline_text(elem_id, _points_text(xy), _extent_of(xy), closed, dashed)

    def polyline(
        self, elem_id: str, pts: list[Point], closed: bool = False, dashed: bool = False
    ) -> None:
        self.polyline_xy(elem_id, [(p.x, p.y) for p in pts], closed, dashed)

    def segment(self, elem_id: str, p1: Point, p2: Point, dashed: bool = False) -> None:
        self.polyline(elem_id, [p1, p2], dashed=dashed)

    def marker(self, elem_id: str, center: Point) -> None:
        self._grow(center.x, center.x, center.y, center.y)
        self._items.append(("marker", elem_id, center.x, center.y))

    def label(self, text: str, anchor: Point) -> None:
        self._items.append(("label", text, anchor.x, anchor.y))

    def emit(self, width: int, height: int) -> str:
        xmin, xmax, ymin, ymax = self._extent or (0.0, 1.0, 0.0, 1.0)
        w = xmax - xmin
        h = ymax - ymin
        mx = 0.1 * w if w > 0.0 else 1.0
        my = 0.1 * h if h > 0.0 else 1.0
        vb = (xmin - mx, -ymax - my, w + 2.0 * mx, h + 2.0 * my)
        size = max(vb[2], vb[3])
        stroke = 0.004 * size
        radius = 0.011 * size
        font = 0.045 * size
        body: list[str] = []
        for item in self._items:
            if item[0] == "polyline":
                _, elem_id, coords, closed, dashed = item
                tag = "polygon" if closed else "polyline"
                dash = f' stroke-dasharray="{_f(3.0 * stroke)},{_f(2.0 * stroke)}"' if dashed else ""
                body.append(
                    f'<{tag} id="{elem_id}" points="{coords}" fill="none" '
                    f'stroke="black" stroke-width="{_f(stroke)}"{dash}/>'
                )
            elif item[0] == "marker":
                _, elem_id, x, y = item
                body.append(
                    f'<circle id="{elem_id}" cx="{_f(x)}" cy="{_f(-y)}" '
                    f'r="{_f(radius)}" fill="black"/>'
                )
            else:
                _, text, x, y = item
                body.append(
                    f'<text x="{_f(x + 1.2 * radius)}" y="{_f(-y - 1.2 * radius)}" '
                    f'font-family="serif" font-size="{_f(font)}">{text}</text>'
                )
        head = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{width}" height="{height}" '
            f'viewBox="{_f(vb[0])} {_f(vb[1])} {_f(vb[2])} {_f(vb[3])}">'
        )
        return head + "\n" + "\n".join(body) + "\n</svg>\n"


def _curve(conic: Conic, t0: float, t1: float) -> tuple[str, _Extent]:
    """``conic`` over ``[t0, t1]`` as ``_CURVE_SAMPLES`` chords: the ``points``
    text and extent, from one ``Conic._xys_at`` call, so its finiteness checks
    and messages apply."""
    n = _CURVE_SAMPLES
    xy = conic._xys_at([t0 + (t1 - t0) * i / n for i in range(n + 1)])
    return _points_text(xy), _extent_of(xy)


#: ``_curve`` of the figures' fixed curves, rendered once per process.  Only
#: the figure drawers call it, each with this module's own constants, so it
#: holds one entry per distinct fixed curve and needs no size limit; scenes
#: come from the caller and go through ``_curve`` uncached.  A call that
#: raises stores nothing.
_fixed_curve = functools.cache(_curve)


def _figure_triangle(conic: Conic, delta: float, anchor_param: float) -> StepTriangle:
    """The forward two-step walk a figure draws, anchored at ``anchor_param``."""
    # Imported here so that tracing a scene does not load the construction.
    from .construction import two_step

    return two_step(conic, conic.point_at(anchor_param), delta)


def _mark_foci(doc: _SvgDoc, f1: Point, f2: Point) -> None:
    doc.marker("focus-1", f1)
    doc.marker("focus-2", f2)
    doc.label("F1", f1)
    doc.label("F2", f2)


def _draw_path(doc: _SvgDoc, i: int, x: float, y: float, dx: float, dy: float,
               bounces: Sequence[_Bounce]) -> None:
    """The ray from ``(x, y)`` along ``(dx, dy)``, read from its ``_trace_xy`` bounces, as a
    polyline run on 3 units past its last bounce (past its origin for a miss)."""
    xy = [(x, y)]
    for _, _, x, y, dx, dy in bounces:
        xy.append((x, y))
    doc.polyline_xy(f"ray-{i}", xy + [(x + 3.0 * dx, y + 3.0 * dy)])


def _draw_triangle(doc: _SvgDoc, tri: StepTriangle, with_reflector: bool = True) -> None:
    doc.polyline("triangle", [tri.A, tri.D, tri.B], closed=True)
    if with_reflector:
        # Imported here so that tracing a scene does not load the construction.
        from .construction import apex_reflector

        m = apex_reflector(tri).direction
        half = 1.6 * tri.delta
        doc.segment("reflector", translate(tri.D, m, -half), translate(tri.D, m, half),
                    dashed=True)
    doc.label("A", tri.A)
    doc.label("D", tri.D)
    doc.label("B", tri.B)


def _figure_isosceles(doc: _SvgDoc) -> None:
    a, b, d = Point(-1.0, 0.0), Point(1.0, 0.0), Point(0.0, 1.0)
    doc.polyline("triangle", [a, d, b], closed=True)
    doc.segment("reflector", Point(-0.8, 1.0), Point(0.8, 1.0), dashed=True)
    doc.segment("beam-in", a, d)
    doc.segment("beam-out", d, b)
    doc.label("A", a)
    doc.label("D", d)
    doc.label("B", b)


def _figure_ellipse(doc: _SvgDoc, delta: float, anchor_param: float) -> None:
    conic = Conic(Ellipse(5.0, 3.0))
    doc.polyline_text("curve", *_fixed_curve(conic, 0.0, 2.0 * math.pi), closed=True)
    f1, f2 = conic.focus_points()
    _mark_foci(doc, f1, f2)
    tri = _figure_triangle(conic, delta, anchor_param)
    doc.segment("beam-in", f1, tri.D)
    doc.segment("beam-out", tri.D, f2)
    _draw_triangle(doc, tri)


def _figure_projection(doc: _SvgDoc, delta: float, anchor_param: float) -> None:
    conic = Conic(Ellipse(5.0, 3.0))
    doc.polyline_text("curve", *_fixed_curve(conic, 0.0, 2.0 * math.pi), closed=True)
    f1, f2 = conic.focus_points()
    _mark_foci(doc, f1, f2)
    tri = _figure_triangle(conic, delta, anchor_param)
    u1, u2 = tri.leg1_dir, tri.leg2_dir
    foot1 = translate(tri.D, u2, scalar_projection(tri.A - tri.D, u2))
    foot2 = translate(tri.D, u1, scalar_projection(tri.B - tri.D, u1))
    doc.segment("proj-1", tri.A, foot1, dashed=True)
    doc.segment("proj-2", tri.B, foot2, dashed=True)
    _draw_triangle(doc, tri, with_reflector=False)


def _figure_parabola(doc: _SvgDoc, delta: float, anchor_param: float) -> None:
    conic = Conic(Parabola(1.0))
    doc.polyline_text("curve", *_fixed_curve(conic, -2.5, 2.5))
    focus = conic.focus_points()[0]
    doc.marker("focus-1", focus)
    doc.label("F", focus)
    doc.segment("directrix", Point(-2.5, -1.0), Point(2.5, -1.0), dashed=True)
    tri = _figure_triangle(conic, delta, anchor_param)
    top = max(tri.A.y + 1.0, 1.8)
    doc.segment("beam-in", Point(tri.A.x, top), tri.D)
    doc.segment("beam-out", tri.D, focus)
    _draw_triangle(doc, tri)


def _figure_hyperbola(doc: _SvgDoc, delta: float, anchor_param: float) -> None:
    conic = Conic(Hyperbola(3.0, 4.0, 1))
    doc.polyline_text("curve", *_fixed_curve(conic, -1.6, 1.6))
    other = Conic(Hyperbola(3.0, 4.0, -1))
    doc.polyline_text("curve-2", *_fixed_curve(other, -1.6, 1.6))
    near, far = conic.focus_points()
    _mark_foci(doc, near, far)
    tri = _figure_triangle(conic, delta, anchor_param)
    doc.segment("beam-in", near, tri.D)
    doc.segment("beam-out", tri.D, translate(tri.B, tri.leg2_dir, 1.0))
    _draw_triangle(doc, tri)


def default_cassegrain_scene(n_rays: int = 0) -> Scene:
    """The stock confocal two-mirror layout used by figures and bundled data.

    Parabola p=1 opening upward as the primary; hyperbola a=0.5, b=0.6
    rotated to open downward, translated so its near focus sits exactly on
    the parabola's focus (0, 1); the far focus below the primary's vertex
    is the composition's aim point.  Optionally bundles ``n_rays``
    axis-parallel rays split over both sides of the aperture.
    """
    c_h = math.sqrt(0.61)
    primary = Conic(Parabola(1.0))
    secondary = Conic(
        Hyperbola(0.5, 0.6, -1),
        Placement(tx=0.0, ty=1.0 - c_h, rotate=-0.5 * math.pi),
    )
    down = Direction(0.0, -1.0)
    rays: list[Ray] = []
    for sign, count in ((1.0, n_rays // 2), (-1.0, n_rays - n_rays // 2)):
        for i in range(count):
            x = 3.7 if count == 1 else 3.7 + (5.0 - 3.7) * i / (count - 1)
            rays.append(Ray(Point(sign * x, 8.0), down))
    return Scene(
        mirrors=(primary, secondary),
        roles=("primary", "secondary"),
        rays=tuple(rays),
        max_bounces=2,
    )


def _figure_cassegrain(doc: _SvgDoc) -> None:
    scene = default_cassegrain_scene()
    primary, secondary = scene.mirrors
    doc.polyline_text("curve", *_fixed_curve(primary, -5.2, 5.2))
    doc.polyline_text("curve-2", *_fixed_curve(secondary, -2.6, 2.6))
    _mark_foci(doc, primary.focus_points()[0], secondary.focus_points()[1])
    offsets = (3.8, 4.4, 5.0, -3.8, -4.4, -5.0)
    for i, x in enumerate(offsets):
        _draw_path(doc, i, x, 8.0, 0.0, -1.0, _trace_xy(scene, x, 8.0, 0.0, -1.0))


#: figure id -> (drawer, default (delta, anchor_param)), or None for a
#: figure drawn at fixed values.
_FIGURES = {
    "isosceles": (_figure_isosceles, None),
    "ellipse-two-step": (_figure_ellipse, (0.5, 1.0)),
    "projection": (_figure_projection, (0.8, 1.0)),
    "parabola": (_figure_parabola, (0.4, 1.2)),
    "hyperbola": (_figure_hyperbola, (0.4, 0.5)),
    "cassegrain": (_figure_cassegrain, None),
}
FIGURE_IDS = tuple(_FIGURES)


def figure_svg(
    figure_id: str,
    delta: float | None = None,
    anchor_param: float | None = None,
    width: int = 640,
    height: int = 480,
) -> str:
    """Render one of the named construction figures as an SVG document."""
    if figure_id not in FIGURE_IDS:
        raise ValueError(
            f"unknown figure id {figure_id!r}; valid ids: {', '.join(FIGURE_IDS)}"
        )
    draw, defaults = _FIGURES[figure_id]
    if defaults is None and (delta, anchor_param) != (None, None):
        raise ValueError(f"figure {figure_id!r} is drawn at fixed values; "
                         "it takes no delta or anchor_param")
    _require_size(width, height)
    doc = _SvgDoc()
    if defaults is None:
        draw(doc)
    else:
        draw(doc, defaults[0] if delta is None else delta,
             defaults[1] if anchor_param is None else anchor_param)
    return doc.emit(width, height)


def trace_svg(scene: Scene, width: int = 640, height: int = 480) -> str:
    """Draw a scene's mirrors and all its bundled rays, traced at its own cap."""
    _require_size(width, height)
    return _trace_svg(scene, [_trace_xy(scene, r.origin.x, r.origin.y, r.dir.x, r.dir.y)
                              for r in scene.rays], width, height)


def _trace_svg(
    scene: Scene, bounces: Sequence[Sequence[_Bounce]], width: int = 640, height: int = 480
) -> str:
    """``trace_svg`` of the scene's rays already traced by ``_trace_xy``, one list of
    float bounces per ray, at a checked size."""
    doc = _SvgDoc()
    for i, mirror in enumerate(scene.mirrors):
        elem_id = "curve" if i == 0 else f"curve-{i + 1}"
        s = mirror.shape
        if isinstance(s, Ellipse):
            t0, t1, closed = 0.0, 2.0 * math.pi, True
        elif isinstance(s, Parabola):
            t0, t1, closed = -6.0 * s.p, 6.0 * s.p, False
        else:
            t0, t1, closed = -2.6, 2.6, False
        doc.polyline_text(elem_id, *_curve(mirror, t0, t1), closed)
    pair = scene.telescope_pair()
    if pair is not None:
        doc.marker("focus-1", pair[0].focus_points()[0])
        doc.marker("focus-2", pair[1].focus_points()[1])
    for i, (r, ray_bounces) in enumerate(zip(scene.rays, bounces)):
        _draw_path(doc, i, r.origin.x, r.origin.y, r.dir.x, r.dir.y, ray_bounces)
    return doc.emit(width, height)

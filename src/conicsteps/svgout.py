"""Deterministic SVG output: construction figures and traced scenes.

World coordinates are y-up; the y axis is negated only when elements are
serialized, so geometry code stays in math conventions and labels render
upright.  The viewBox is fitted to the drawn content with a 10% margin.
Drawn coordinates stay in float columns, ``xs`` and ``ys``, from the curve
kernels to ``_SvgDoc.polyline``, the one place a vertex list becomes SVG
text, which formats a polyline's vertices in one operation; every other
element is one format operation too.
Output is plain SVG 1.1 geometry (no scripts, no CSS), and byte-identical
for identical inputs.

``figure_svg`` renders the six named construction figures;
``REQUIRED_ELEMENTS`` lists, per figure, the element ids a structural
check should find in the document.  A figure is a frame (its curves, foci
and directrix; all of ``isosceles`` and ``cassegrain``) plus, on the four
walk figures, the two-step walk, the only part that depends on ``delta``
and ``anchor_param``.  A bundle of traced rays is drawn from the float
bounces of one ``optics._trace_xy`` call, never from trace objects.

Two caches keep work that repeats, and a hit gives the bytes of a fresh
drawing:

* ``_frame`` holds each figure's frame, keyed on its drawer: one entry per
  frame, five in all.  A walk is drawn on a copy of the frame.
* ``_canonical_curve`` holds a drawn curve's canonical columns, keyed on the
  shape's value and the exact bits of the parameter range, never on a
  placement, conic or scene; it keeps at most ``_CURVE_MEMO_SIZE`` entries,
  the least recently used going first.  ``_curve`` only places and formats
  them, so ``trace_svg`` samples each value-equal mirror shape once per
  process, at any placement, and traces the scene's rays on every call.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING

from .conics import Conic, Ellipse, Hyperbola, Parabola, Placement, Shape, _all_finite
from .geometry import Direction, Point, _require_count, scalar_projection, translate
from .optics import Ray, Scene, _Bounce, _ray_xy, _trace_xy

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


def _require_size(width: int, height: int) -> None:
    """Raise ValueError unless the document size is two positive ints."""
    _require_count("width", width, 1)
    _require_count("height", height, 1)


#: The x and y range of some drawn vertices: ``(xmin, xmax, ymin, ymax)``.
_Extent = tuple[float, float, float, float]


class _SvgDoc:
    """Collects world-coordinate primitives and renders them y-flipped.

    Vertices enter only through ``polyline`` (``segment`` is its two-point
    call), as float columns; their ``points`` text is formatted when they are
    added, and only their extent is kept for the viewBox.  Coordinates are
    absolute, so neither depends on the rest of the document.  ``emit`` and
    ``copy`` only read the document, so one drawing can be emitted at any
    number of sizes, or drawn on further in a copy.
    """

    def __init__(self) -> None:
        self._items: list[tuple] = []
        self._extent: _Extent | None = None  # of polyline and marker vertices

    def copy(self) -> _SvgDoc:
        """A new document holding this one's elements, to draw more on."""
        doc = _SvgDoc()
        doc._items = self._items.copy()
        doc._extent = self._extent
        return doc

    def _grow(self, xmin: float, xmax: float, ymin: float, ymax: float) -> None:
        # min and max keep the first of equal values, as one pass over every
        # vertex in drawing order would, so a signed zero lands the same way.
        e = self._extent
        self._extent = (xmin, xmax, ymin, ymax) if e is None else (
            min(e[0], xmin), max(e[1], xmax), min(e[2], ymin), max(e[3], ymax))

    def polyline(
        self, elem_id: str, xs: Sequence[float], ys: Sequence[float], closed: bool = False,
        dashed: bool = False,
    ) -> None:
        """Add the polyline through the vertices ``(xs[i], ys[i])``: their
        ``points`` text, y-flipped and formatted in one operation, and their
        extent, the ``min`` and ``max`` of each column."""
        n = len(xs)
        flat = [0.0] * (2 * n)
        flat[::2] = xs
        flat[1::2] = [-y for y in ys]
        self._grow(min(xs), max(xs), min(ys), max(ys))
        self._items.append(("polyline", elem_id, " ".join(["%.8g,%.8g"] * n) % tuple(flat),
                            closed, dashed))

    def segment(self, elem_id: str, p1: Point, p2: Point, dashed: bool = False) -> None:
        self.polyline(elem_id, (p1.x, p2.x), (p1.y, p2.y), dashed=dashed)

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
        offset = 1.2 * radius
        # The attribute text every element of a kind shares is formatted once;
        # each element is then one % operation.
        stroke_attr = 'fill="none" stroke="black" stroke-width="%.8g"' % stroke
        dash_attr = ' stroke-dasharray="%.8g,%.8g"' % (3.0 * stroke, 2.0 * stroke)
        circle = '<circle id="%%s" cx="%%.8g" cy="%%.8g" r="%.8g" fill="black"/>' % radius
        label = ('<text x="%%.8g" y="%%.8g" font-family="serif" font-size="%.8g">%%s</text>'
                 % (0.045 * size))
        body: list[str] = []
        for item in self._items:
            if item[0] == "polyline":
                _, elem_id, coords, closed, dashed = item
                body.append('<%s id="%s" points="%s" %s%s/>' % (
                    "polygon" if closed else "polyline", elem_id, coords, stroke_attr,
                    dash_attr if dashed else ""))
            elif item[0] == "marker":
                _, elem_id, x, y = item
                body.append(circle % (elem_id, x, -y))
            else:
                _, text, x, y = item
                body.append(label % (x + offset, -y - offset, text))
        head = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            'width="%s" height="%s" viewBox="%.8g %.8g %.8g %.8g">' % (width, height, *vb)
        )
        return head + "\n" + "\n".join(body) + "\n</svg>\n"


def _params(t0: float, t1: float) -> list[float]:
    """The ``_CURVE_SAMPLES + 1`` parameters of a drawn curve, evenly over ``[t0, t1]``."""
    n = _CURVE_SAMPLES
    return [t0 + (t1 - t0) * i / n for i in range(n + 1)]


#: The most (shape, range) entries ``_canonical_curve`` holds, each about 33 kB.
_CURVE_MEMO_SIZE = 32


@functools.lru_cache(maxsize=_CURVE_MEMO_SIZE)
def _canonical_curve(shape: Shape, t0: str, t1: str) -> tuple[tuple[float, ...], ...]:
    """The canonical columns of ``shape`` at ``_params`` of the range given as
    ``float.hex`` text, so that the key holds its exact bits (``-0.0`` is not
    ``0.0``): the half of a drawn curve that depends on the shape and range
    alone, made once per value-equal (shape, range).

    A range whose samples raise or are not finite raises, so it stores
    nothing; ``_curve`` then draws it through ``Conic._xys_at``.
    """
    xs, ys = shape._points(_params(float.fromhex(t0), float.fromhex(t1)))
    if not _all_finite(xs, ys):
        raise OverflowError("a sample of the range is not finite")
    return tuple(xs), tuple(ys)


def _curve(conic: Conic, t0: float, t1: float) -> tuple[list[float], list[float]]:
    """``conic`` over the float range ``[t0, t1]`` as ``_CURVE_SAMPLES`` chords:
    the x and y columns of ``Conic._xys_at`` at ``_params``, bit for bit.

    The canonical columns come from ``_canonical_curve``, and only their
    placing, ``Conic._place``, runs per call, so a shape drawn again at any
    placement gives the bytes of its first drawing.  A range that fails,
    canonically or once placed, is drawn through ``Conic._xys_at``, so its
    finiteness checks and messages apply."""
    try:
        xcs, ycs = _canonical_curve(conic.shape, t0.hex(), t1.hex())
    except (OverflowError, ValueError):  # a sample raised or is not finite
        pass
    else:
        xs, ys = conic._place(xcs, ycs)
        if _all_finite(xs, ys):
            return xs, ys
    return conic._xys_at(_params(t0, t1))


def _mark_foci(doc: _SvgDoc, f1: Point, f2: Point) -> None:
    doc.marker("focus-1", f1)
    doc.marker("focus-2", f2)
    doc.label("F1", f1)
    doc.label("F2", f2)


def _draw_path(doc: _SvgDoc, i: int, x: float, y: float, dx: float, dy: float,
               bounces: Sequence[_Bounce]) -> None:
    """The ray from ``(x, y)`` along ``(dx, dy)``, read from its ``_trace_xy`` bounces, as a
    polyline run on 3 units past its last bounce (past its origin for a miss)."""
    xs, ys = [x], [y]
    for _, _, x, y, dx, dy in bounces:
        xs.append(x)
        ys.append(y)
    xs.append(x + 3.0 * dx)
    ys.append(y + 3.0 * dy)
    doc.polyline(f"ray-{i}", xs, ys)


def _draw_triangle(doc: _SvgDoc, tri: StepTriangle, with_reflector: bool = True) -> None:
    doc.polyline("triangle", (tri.A.x, tri.D.x, tri.B.x), (tri.A.y, tri.D.y, tri.B.y),
                 closed=True)
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


#: The conics the walk figures are drawn on.
_ELLIPSE = Conic(Ellipse(5.0, 3.0))
_PARABOLA = Conic(Parabola(1.0))
_HYPERBOLA = Conic(Hyperbola(3.0, 4.0, 1))


def _figure_isosceles(doc: _SvgDoc) -> None:
    a, b, d = Point(-1.0, 0.0), Point(1.0, 0.0), Point(0.0, 1.0)
    doc.polyline("triangle", (a.x, d.x, b.x), (a.y, d.y, b.y), closed=True)
    doc.segment("reflector", Point(-0.8, 1.0), Point(0.8, 1.0), dashed=True)
    doc.segment("beam-in", a, d)
    doc.segment("beam-out", d, b)
    doc.label("A", a)
    doc.label("D", d)
    doc.label("B", b)


def _ellipse_frame(doc: _SvgDoc) -> None:
    doc.polyline("curve", *_curve(_ELLIPSE, 0.0, 2.0 * math.pi), closed=True)
    _mark_foci(doc, *_ELLIPSE.focus_points())


def _ellipse_walk(doc: _SvgDoc, tri: StepTriangle) -> None:
    f1, f2 = _ELLIPSE.focus_points()
    doc.segment("beam-in", f1, tri.D)
    doc.segment("beam-out", tri.D, f2)
    _draw_triangle(doc, tri)


def _projection_walk(doc: _SvgDoc, tri: StepTriangle) -> None:
    u1, u2 = tri.leg1_dir, tri.leg2_dir
    foot1 = translate(tri.D, u2, scalar_projection(tri.A - tri.D, u2))
    foot2 = translate(tri.D, u1, scalar_projection(tri.B - tri.D, u1))
    doc.segment("proj-1", tri.A, foot1, dashed=True)
    doc.segment("proj-2", tri.B, foot2, dashed=True)
    _draw_triangle(doc, tri, with_reflector=False)


def _parabola_frame(doc: _SvgDoc) -> None:
    doc.polyline("curve", *_curve(_PARABOLA, -2.5, 2.5))
    focus = _PARABOLA.focus_points()[0]
    doc.marker("focus-1", focus)
    doc.label("F", focus)
    doc.segment("directrix", Point(-2.5, -1.0), Point(2.5, -1.0), dashed=True)


def _parabola_walk(doc: _SvgDoc, tri: StepTriangle) -> None:
    top = max(tri.A.y + 1.0, 1.8)
    doc.segment("beam-in", Point(tri.A.x, top), tri.D)
    doc.segment("beam-out", tri.D, _PARABOLA.focus_points()[0])
    _draw_triangle(doc, tri)


def _hyperbola_frame(doc: _SvgDoc) -> None:
    doc.polyline("curve", *_curve(_HYPERBOLA, -1.6, 1.6))
    doc.polyline("curve-2", *_curve(Conic(Hyperbola(3.0, 4.0, -1)), -1.6, 1.6))
    _mark_foci(doc, *_HYPERBOLA.focus_points())


def _hyperbola_walk(doc: _SvgDoc, tri: StepTriangle) -> None:
    doc.segment("beam-in", _HYPERBOLA.focus_points()[0], tri.D)
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
    doc.polyline("curve", *_curve(primary, -5.2, 5.2))
    doc.polyline("curve-2", *_curve(secondary, -2.6, 2.6))
    _mark_foci(doc, primary.focus_points()[0], secondary.focus_points()[1])
    rays = [(x, 8.0, 0.0, -1.0) for x in (3.8, 4.4, 5.0, -3.8, -4.4, -5.0)]
    for i, (ray, bounces) in enumerate(zip(rays, _trace_xy(scene, rays))):
        _draw_path(doc, i, *ray, bounces)


#: figure id -> (frame drawer, walk drawer, the conic walked, default
#: (delta, anchor_param)); the last three are None for a figure drawn at
#: fixed values, which is all frame.
_FIGURES = {
    "isosceles": (_figure_isosceles, None, None, None),
    "ellipse-two-step": (_ellipse_frame, _ellipse_walk, _ELLIPSE, (0.5, 1.0)),
    "projection": (_ellipse_frame, _projection_walk, _ELLIPSE, (0.8, 1.0)),
    "parabola": (_parabola_frame, _parabola_walk, _PARABOLA, (0.4, 1.2)),
    "hyperbola": (_hyperbola_frame, _hyperbola_walk, _HYPERBOLA, (0.4, 0.5)),
    "cassegrain": (_figure_cassegrain, None, None, None),
}
FIGURE_IDS = tuple(_FIGURES)


@functools.cache
def _frame(draw: Callable[[_SvgDoc], None]) -> _SvgDoc:
    """The drawing of the frame drawer ``draw``, made once per process.

    Only ``figure_svg`` calls it, with a drawer of ``_FIGURES``, so it holds
    one entry per frame; the two ellipse figures share theirs.  ``emit`` and
    ``copy`` only read the drawing, so every render shares it.  A drawer
    that raises stores nothing.
    """
    doc = _SvgDoc()
    draw(doc)
    return doc


def figure_svg(
    figure_id: str,
    delta: float | None = None,
    anchor_param: float | None = None,
    width: int = 640,
    height: int = 480,
) -> str:
    """Render one of the named construction figures as an SVG document.

    The figure's frame is drawn by the first render in the process that
    needs it.  A figure drawn at fixed values is all frame, so later renders
    only emit it at their own size; a walk figure draws its triangle on a
    copy of the frame, so no render changes what the next one starts from."""
    if figure_id not in FIGURE_IDS:
        raise ValueError(
            f"unknown figure id {figure_id!r}; valid ids: {', '.join(FIGURE_IDS)}"
        )
    frame, walk, conic, defaults = _FIGURES[figure_id]
    if defaults is None and (delta, anchor_param) != (None, None):
        raise ValueError(f"figure {figure_id!r} is drawn at fixed values; "
                         "it takes no delta or anchor_param")
    _require_size(width, height)
    doc = _frame(frame)
    if walk is not None:
        # Imported here so that tracing a scene does not load the construction.
        from .construction import two_step

        anchor = conic.point_at(defaults[1] if anchor_param is None else anchor_param)
        tri = two_step(conic, anchor, defaults[0] if delta is None else delta)
        doc = doc.copy()
        walk(doc, tri)
    return doc.emit(width, height)


def trace_svg(scene: Scene, width: int = 640, height: int = 480) -> str:
    """Draw a scene's mirrors and all its bundled rays, traced at its own cap."""
    _require_size(width, height)
    return _trace_svg(scene, _trace_xy(scene, map(_ray_xy, scene.rays)), width, height)


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
        doc.polyline(elem_id, *_curve(mirror, t0, t1), closed)
    pair = scene.telescope_pair()
    if pair is not None:
        doc.marker("focus-1", pair[0].focus_points()[0])
        doc.marker("focus-2", pair[1].focus_points()[1])
    for i, (r, ray_bounces) in enumerate(zip(scene.rays, bounces)):
        _draw_path(doc, i, *_ray_xy(r), ray_bounces)
    return doc.emit(width, height)

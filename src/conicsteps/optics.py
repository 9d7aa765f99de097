"""Analytic ray tracing on conic mirrors and the two-mirror telescope scene.

This is the ground truth the two-step construction converges to: rays are
intersected with conics by solving the implicit quadratic exactly and are
reflected across the analytic tangent.  A scene is an ordered list of
conic mirrors with role tags; tagging one parabola ``primary`` and one
hyperbola ``secondary`` makes a telescope pair, validated to be confocal
(the hyperbola's near focus sits on the parabola's focus).

The telescope composition: axis-parallel rays reflect off the parabola
toward its focus; because the hyperbola is confocal, the converging beam
reflects off it along the line through the hyperbola's second focus.  With
full (unbounded) analytic mirrors the converging beam meets the secondary
on its concave side after passing the common focus, so the second focus
acts as a virtual image: the outgoing ray's supporting line passes through
it exactly, on the far side of the bounce.  Spot statistics therefore
measure the distance from the second focus to that outgoing line.

The work is done in floats: one bounce loop, ``_trace_xy``, traces a bundle
of ``(ox, oy, dx, dy)`` rays, each through all its bounces before the next,
and returns each bounce as a tuple.  A bounce is one call to the one private
hit finder, ``_hits``, which tests every mirror and drops the origin's root
on the mirror the ray leaves, and one to the one private reflector; both
read each mirror from a float record (``_mirror``), built once per call,
that holds the shape's own methods, its ray solve ``_ray_roots`` among them,
run in its unit.
``intersect_ray`` and ``reflect_at`` wrap the same two functions, and
``trace`` the loop; only these build trace objects, and only ``trace`` builds
``Hit`` and ``TracePath``.  Every check the objects made (finite points,
normalizable directions, the on-curve check) is made on the floats, in the
same order and with the same arithmetic, so results are bit-identical; a
normalization divides inline, and leaves a direction it cannot normalize to
``geometry._normalized``, the one place that raises (a normal, to
``conics._unit_gradient``, which first retakes an overflowed gradient).
Tracing reads its bounce cap and its bounds from the scene
(``Scene.max_bounces`` and ``Scene.tolerances``), the one trace policy;
functions without a scene take a ``Tolerances`` argument.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, replace

from .config import DEFAULT, Tolerances
from .conics import Conic, Hyperbola, Parabola, Shape, _require_thick, _unit_gradient, as_conic
from .errors import UnsupportedVariantError
from .geometry import (
    _MIN_DIRECTION_NORM,
    Direction,
    Line,
    Point,
    _angle_xy,
    _normalized,
    _reflect_xy,
    _require_count,
    _require_finite,
    _require_type,
    _unit_unchecked,
)

__all__ = [
    "Ray",
    "Hit",
    "TracePath",
    "Scene",
    "SpotReport",
    "intersect_ray",
    "reflect_at",
    "focal_property_error",
    "trace",
    "spot_report",
    "cassegrain_spot",
    "ray_line_distance",
]

ROLES = ("mirror", "primary", "secondary")
#: the largest ``Scene.max_bounces``: a trace keeps every bounce up to the cap
#: (a ray inside an ellipse never leaves it), so this bounds the work of a ray.
MAX_BOUNCES = 10_000

#: intersection parameters below this, in the mirror's unit, are the ray's own origin.
_SELF_HIT = 1e-9
#: quadratic roots closer than this, in the mirror's unit, merge into one tangency hit.
_ROOT_MERGE = 1e-7
#: intersection parameters beyond this, in the mirror's unit, are cancellation
#: noise from near-degenerate (almost linear) quadratics and are discarded.
_MAX_RAY_T = 1e12

_RayXY = tuple[float, float, float, float]  #: (ox, oy, dx, dy): origin, unit direction
_Mirror = tuple  #: one mirror as the float tracer reads it, built by ``_mirror``
#: one bounce of the float tracer: (mirror_index, t, x, y, dx, dy), the hit
#: point and the unit outgoing direction.
_Bounce = tuple[int, float, float, float, float, float]


@dataclass(frozen=True)
class Ray:
    """Half-line from ``origin`` along the unit direction ``dir``."""

    origin: Point
    dir: Direction

    def __post_init__(self) -> None:
        if not (isinstance(self.origin, Point) and isinstance(self.dir, Direction)):
            raise TypeError(f"a Ray needs a Point origin and a Direction dir, got {self!r}")


@dataclass(frozen=True)
class Hit:
    """One bounce of a traced ray.

    ``t`` is the ray parameter along the segment that produced the bounce
    (so ``segment origin + t * segment dir == point``); ``outgoing`` is the
    reflected direction leaving ``point``.
    """

    mirror_index: int
    point: Point
    t: float
    outgoing: Direction


@dataclass(frozen=True)
class TracePath:
    """A traced ray: the input ray, its bounces, and the final free ray."""

    ray: Ray
    hits: tuple[Hit, ...]
    final: Ray


@dataclass(frozen=True)
class Scene:
    """Immutable collection of conic mirrors, with optional bundled rays.

    Bare shapes are taken as conics at the identity placement.
    ``roles`` tags each mirror as plain ``mirror`` or as the telescope
    ``primary`` (a parabola) / ``secondary`` (a hyperbola).  When both
    telescope roles are present the pair must be confocal: the secondary's
    near focus must coincide with the primary's focus within
    ``tolerances.confocal`` in the larger length unit of the two mirrors
    (each shape's ``_unit``), so the check does not depend on the units of the
    scene.  The default is tight (1e-9); misalignment studies may widen it
    deliberately to trace an imperfect pair.  ``max_bounces``, the cap of
    every trace of the scene, is an integer from 1 to ``MAX_BOUNCES``
    (10,000), so the work of one ray is bounded.
    """

    mirrors: tuple[Conic, ...]
    roles: tuple[str, ...] = ()
    rays: tuple[Ray, ...] = ()
    max_bounces: int = 8
    tolerances: Tolerances = DEFAULT

    def __post_init__(self) -> None:
        object.__setattr__(self, "mirrors", tuple(as_conic(m) for m in self.mirrors))
        object.__setattr__(self, "rays", tuple(self.rays))
        for ray in self.rays:
            _ray_xy(ray)
        roles = tuple(self.roles) or tuple("mirror" for _ in self.mirrors)
        object.__setattr__(self, "roles", roles)
        if len(self.roles) != len(self.mirrors):
            raise ValueError(
                f"{len(self.mirrors)} mirrors but {len(self.roles)} roles"
            )
        for role in self.roles:
            if role not in ROLES:
                raise ValueError(f"unknown role {role!r}; expected one of {ROLES}")
        _require_count("max_bounces", self.max_bounces, 1)
        if self.max_bounces > MAX_BOUNCES:
            raise ValueError(f"max_bounces must be at most {MAX_BOUNCES} (optics.MAX_BOUNCES), "
                             f"got {self.max_bounces!r}")
        _require_type("tolerances", self.tolerances, Tolerances)
        if self.roles.count("primary") > 1 or self.roles.count("secondary") > 1:
            raise ValueError("at most one primary and one secondary mirror allowed")
        for mirror, role in zip(self.mirrors, self.roles):
            if role == "primary" and not isinstance(mirror.shape, Parabola):
                raise ValueError("the primary mirror must be a parabola")
            if role == "secondary" and not isinstance(mirror.shape, Hyperbola):
                raise ValueError("the secondary mirror must be a hyperbola")
        pair = self.telescope_pair()
        if pair is not None:
            primary, secondary = pair
            pf = primary.focus_points()[0]
            hf_near = secondary.focus_points()[0]
            gap = pf.distance_to(hf_near)
            limit = self.tolerances.confocal * max(primary.shape._unit, secondary.shape._unit)
            if gap > limit:
                raise ValueError(
                    f"primary/secondary pair is not confocal: focus gap {gap!r} "
                    f"exceeds {limit!r}"
                )

    def telescope_pair(self) -> tuple[Conic, Conic] | None:
        """(primary, secondary) conics if both roles are present, else None."""
        if "primary" in self.roles and "secondary" in self.roles:
            return (
                self.mirrors[self.roles.index("primary")],
                self.mirrors[self.roles.index("secondary")],
            )
        return None


@dataclass(frozen=True)
class SpotReport:
    """Focus statistics for a bundle of traced rays.

    ``target`` is the aim point (the secondary's far focus).  Every ray
    with at least one bounce contributes the distance from ``target`` to
    its final outgoing line; ``n_focused`` counts rays that completed the
    primary-then-secondary path, ``n_blocked`` rays whose first bounce was
    the secondary's back, ``n_missed`` rays that hit nothing.
    """

    target: Point
    n_rays: int
    n_focused: int
    n_blocked: int
    n_missed: int
    max_distance: float
    rms_distance: float
    distances: tuple[float, ...] = field(repr=False)


def _ray_xy(ray: Ray) -> _RayXY:
    """``ray`` as the float tracer takes it; the one check that a traced item is a Ray."""
    if not isinstance(ray, Ray):
        raise TypeError(f"rays must be Rays, got {ray!r}")
    return ray.origin.x, ray.origin.y, ray.dir.x, ray.dir.y


def _mirror(conic: Conic, tolerances: Tolerances) -> _Mirror:
    """``conic`` as ``_hits`` and ``_reflect`` read it: (cos, sin, tx, ty, unit, the shape's
    ray_roots (roots on its curve only), gradient and residual, the on-curve bound at the
    canonical origin (the smallest; ``_reflect`` re-checks a point over it), conic,
    tolerances).  A shape too thin for its ray solve is refused by ``_require_thick``."""
    pl, shape = conic.placement, conic.shape
    _require_thick(shape)
    return (pl._cos, pl._sin, pl.tx, pl.ty, shape._unit, shape._ray_roots, shape._gradient,
            shape._residual, conic._on_curve_limit(0.0, 0.0, tolerances), conic, tolerances)


def _hits(
    mirrors: Sequence[_Mirror], ox: float, oy: float, dx: float, dy: float, leave: int = -1
) -> list[tuple[float, float, float, int]]:
    """``intersect_ray`` on floats, over every mirror in one call: ``(t, x, y, index)`` for
    each forward hit of the ray from ``(ox, oy)`` along ``(dx, dy)``, in scene coordinates,
    ``index`` the mirror's place in ``mirrors``; mirror by mirror, each one's nearest first.

    The ray is solved in each mirror's canonical frame, where its direction is
    renormalized, and in its unit, by the shape's ``_ray_roots``, which returns only
    the roots on the curve (none on a hyperbola's other branch); each root is
    multiplied back, exactly.  The ray's origin lies on the mirror ``leave``, the
    one it just left, so that mirror's root nearest 0, or its single merged root,
    is the origin and is dropped.  The ``_SELF_HIT``/``_MAX_RAY_T`` window and the
    ``_ROOT_MERGE`` merge, both in that unit, are applied here and nowhere else.
    """
    isfinite, hypot, inf, min_norm = math.isfinite, math.hypot, math.inf, _MIN_DIRECTION_NORM
    hits = []
    for index, (c, s, tx, ty, unit, ray_roots, _, _, _, _, _) in enumerate(mirrors):
        # the tracer's innermost loop: Placement transforms inline, helpers only to raise
        x, y = ox - tx, oy - ty
        ocx, ocy = x * c + y * s, -x * s + y * c
        if not (isfinite(ocx) and isfinite(ocy)):
            _require_finite(ocx, ocy)
        dcx, dcy = dx * c + dy * s, -dx * s + dy * c
        n = hypot(dcx, dcy)
        if min_norm <= n < inf:  # _normalized's common case, inline
            dcx, dcy = dcx / n, dcy / n
        else:
            dcx, dcy = _normalized(dcx, dcy)
        roots, r0, r1 = ray_roots(ocx, ocy, dcx, dcy, _ROOT_MERGE)
        if index == leave and roots:  # drop the root at the origin, keep the other
            roots -= 1
            if abs(r0) <= abs(r1):
                r0 = r1
        for t in (r0, r1)[:roots]:
            if not (_SELF_HIT < t <= _MAX_RAY_T):
                continue
            t *= unit
            xc = ocx + t * dcx
            yc = ocy + t * dcy
            if not (isfinite(xc) and isfinite(yc)):
                if t == inf:  # the root is past the window once multiplied back
                    continue
                _require_finite(xc, yc)
            x = xc * c - yc * s + tx
            y = xc * s + yc * c + ty
            if not (isfinite(x) and isfinite(y)):
                _require_finite(x, y)
            hits.append((t, x, y, index))
    return hits


def intersect_ray(conic: Conic | Shape, ray: Ray) -> tuple[tuple[float, Point], ...]:
    """All forward intersections of ``ray`` with the conic, nearest first.

    Returns (t, point) pairs with ``1e-9 u < t <= 1e12 u``, ``u`` the conic's
    length unit (nearer is the ray's own origin, farther is cancellation
    noise), solved from the canonical implicit quadratic with a
    cancellation-free formula.  Root pairs closer than ``1e-7 u`` collapse to
    the single tangency point.  A hyperbola is one branch: the shape's ray solve
    returns no root on the other, nor a merged root between the two.
    A ray that starts on the conic is kept from its own origin by the window
    alone; ``trace``, which knows the mirror a bounce leaves, drops that
    mirror's root at the origin instead.
    """
    found = _hits([_mirror(as_conic(conic), DEFAULT)], *_ray_xy(ray))
    return tuple((t, Point(x, y)) for t, x, y, _ in found)


def _reflect(mirror: _Mirror, x: float, y: float, dx: float, dy: float) -> tuple[float, float]:
    """``reflect_at`` on floats: the unit direction leaving the scene point
    ``(x, y)`` for the incoming direction ``(dx, dy)``, across the tangent of
    ``Conic.tangent_normal``; a point off the curve is raised by ``_require_on_curve``."""
    c, s, tx, ty, _, _, gradient, residual, on_curve, conic, tolerances = mirror
    x0, y0 = x - tx, y - ty
    xc, yc = x0 * c + y0 * s, -x0 * s + y0 * c
    if not (math.isfinite(xc) and math.isfinite(yc)) or not abs(residual(xc, yc)) <= on_curve:
        conic._require_on_curve(x, y, tolerances)
    gx, gy = gradient(xc, yc)
    n = math.hypot(gx, gy)
    if _MIN_DIRECTION_NORM <= n < math.inf:  # _unit_gradient's common case, inline
        gx, gy = gx / n, gy / n
    else:
        gx, gy = _unit_gradient(conic.shape, xc, yc)
    nx, ny = gx * c - gy * s, gx * s + gy * c
    n = math.hypot(nx, ny)  # a unit vector turned: 1 to within a few ulps
    nx, ny = nx / n, ny / n
    return _reflect_xy(dx, dy, ny, -nx)  # across the tangent: the normal turned by -pi/2


def reflect_at(
    conic: Conic | Shape, q: Point, incoming: Direction, tolerances: Tolerances = DEFAULT
) -> Direction:
    """Reflect ``incoming`` across the analytic tangent line at ``q``."""
    _require_type("q", q, Point)
    _require_type("incoming", incoming, Direction)
    return _unit_unchecked(*_reflect(_mirror(as_conic(conic), tolerances),
                                     q.x, q.y, incoming.x, incoming.y))


def focal_property_error(
    conic: Conic | Shape, q: Point, tolerances: Tolerances = DEFAULT
) -> float:
    """Angular error of the conic's focal reflection property at ``q``.

    The incoming beam is the two-step walk's first step at ``q`` and the
    expected outgoing beam its second: a beam from one ellipse focus reflects
    toward the other, an axis-parallel beam toward the parabola's focus, and a
    beam from the near hyperbola focus away from the far one.  The angle is
    zero up to rounding for every on-curve point; an off-curve ``q``, a focus
    included, raises OffCurveError.  It is measured in the canonical frame,
    at the canonical point of the one on-curve check, so it does not depend
    on the conic's placement: a rotation preserves angles.
    """
    _require_type("q", q, Point)
    conic = as_conic(conic)
    shape = conic.shape
    xc, yc = conic._require_on_curve(q.x, q.y, tolerances)
    _require_thick(shape)
    gx, gy = _unit_gradient(shape, xc, yc)
    # reflected across the tangent: the unit normal turned by -pi/2
    outgoing = _reflect_xy(*shape._step(xc, yc, False, True), gy, -gx)
    return _angle_xy(*outgoing, *shape._step(xc, yc, True, True))


def _trace_xy(scene: Scene, rays: Iterable[_RayXY]) -> list[list[_Bounce]]:
    """``trace`` on floats, the one bounce loop: a list of bounces per ray, each
    mirror's record built once per call, and one ``_hits`` call over them all per
    bounce, told the mirror the ray leaves.  Each ray makes all its bounces
    before the next starts, so the first ray to fail a check raises as if
    traced alone."""
    mirrors = [_mirror(m, scene.tolerances) for m in scene.mirrors]
    traced = []
    for ox, oy, dx, dy in rays:
        bounces: list[_Bounce] = []
        index = -1  # the mirror the ray leaves: none, on its first segment
        for _ in range(scene.max_bounces):
            found = _hits(mirrors, ox, oy, dx, dy, index)
            if not found:
                break
            t, ox, oy, index = found[0]
            for hit in found:  # the nearest; a tie goes to the lower index
                if hit[0] < t:
                    t, ox, oy, index = hit
            dx, dy = _reflect(mirrors[index], ox, oy, dx, dy)
            bounces.append((index, t, ox, oy, dx, dy))
        traced.append(bounces)
    return traced


def trace(scene: Scene, ray: Ray) -> TracePath:
    """Trace ``ray`` through the scene, always taking the nearest bounce.

    Stops when no mirror lies ahead or ``scene.max_bounces`` is reached; ties
    on hit distance go to the lower mirror index.  Each bounce leaves its
    mirror by its known root: the mirror's root nearest 0, or its one merged
    root, is the bounce point itself and is dropped, so the rounding of a
    bounce far out on a mirror cannot make it bounce there again; the first
    segment and the other mirrors keep the ``1e-9 u`` window.  ``final`` is
    the free ray leaving the last bounce (the input ray itself for a clean miss).  The
    on-curve bound of each reflection comes from ``scene.tolerances``.  To
    trace at another cap, trace ``dataclasses.replace(scene, max_bounces=k)``.
    ``ray`` goes through ``_trace_xy`` as a bundle of one.
    """
    (bounces,) = _trace_xy(scene, [_ray_xy(ray)])
    hits = tuple(Hit(mirror_index=index, point=Point(x, y), t=t, outgoing=_unit_unchecked(dx, dy))
                 for index, t, x, y, dx, dy in bounces)
    final = Ray(hits[-1].point, hits[-1].outgoing) if hits else ray
    return TracePath(ray=ray, hits=hits, final=final)


def ray_line_distance(ray: Ray, q: Point) -> float:
    """Distance from ``q`` to the supporting line of ``ray``."""
    _require_type("ray", ray, Ray)
    _require_type("q", q, Point)
    return Line(ray.origin, ray.dir).distance_to(q)


def _require_pair(scene: Scene) -> tuple[Conic, Conic]:
    pair = scene.telescope_pair()
    if pair is None:
        raise UnsupportedVariantError(
            "spot statistics need a scene with 'primary' and 'secondary' mirrors"
        )
    return pair


def spot_report(scene: Scene, rays: Iterable[Ray]) -> SpotReport:
    """Trace ``rays`` and measure how tightly they aim at the second focus.

    Each ray with at least one bounce contributes the distance from the
    secondary's far focus to its final outgoing line (the focus is a
    virtual image behind the secondary, so the supporting line is what
    passes through it).  Missed rays are counted, never dropped.
    """
    _require_pair(scene)
    return _spot_report(scene, _trace_xy(scene, map(_ray_xy, rays)))


def _spot_report(scene: Scene, bounces: Sequence[Sequence[_Bounce]]) -> SpotReport:
    """``spot_report`` of rays already traced by ``_trace_xy`` at the scene's
    bounce cap, one list of bounces per ray."""
    _, secondary = _require_pair(scene)
    target = secondary.focus_points()[1]
    qx, qy = target.x, target.y
    secondary_index = scene.roles.index("secondary")
    primary_index = scene.roles.index("primary")
    distances: list[float] = []
    n_focused = n_blocked = n_missed = 0
    for ray_bounces in bounces:
        if not ray_bounces:
            n_missed += 1
            continue
        first = ray_bounces[0][0]
        if first == secondary_index:
            n_blocked += 1
        elif (
            first == primary_index
            and len(ray_bounces) >= 2
            and ray_bounces[1][0] == secondary_index
        ):
            n_focused += 1
        # Line.distance_to of the final outgoing line, on floats.
        _, _, x, y, dx, dy = ray_bounces[-1]
        distances.append(abs((qx - x) * dy - (qy - y) * dx))
    if distances:
        max_d = max(distances)
        rms = math.sqrt(math.fsum(d * d for d in distances) / len(distances))
    else:
        max_d = rms = 0.0
    return SpotReport(
        target=target,
        n_rays=len(bounces),
        n_focused=n_focused,
        n_blocked=n_blocked,
        n_missed=n_missed,
        max_distance=max_d,
        rms_distance=rms,
        distances=tuple(distances),
    )


def cassegrain_spot(scene: Scene, n_rays: int, aperture: float) -> SpotReport:
    """Spot statistics for axis-parallel rays filling the aperture.

    Generates ``n_rays`` rays parallel to the primary's axis, spread
    uniformly over offsets up to ``aperture`` on both sides but outside
    the central shadow of the secondary (found by bisection).  A single
    ray is taken on-axis instead: it bounces straight back off the
    secondary's outer side and its line still passes through the target.
    """
    _require_count("n_rays", n_rays, 1)
    if not (math.isfinite(aperture) and aperture > 0.0):
        raise ValueError(f"aperture must be positive, got {aperture}")
    primary, _ = _require_pair(scene)
    secondary_index = scene.roles.index("secondary")
    p = primary.shape.p  # type: ignore[union-attr]
    y_top = aperture * aperture / (4.0 * p) + 2.0 * p + 1.0
    dx, dy = _normalized(*primary.placement._rotate_to_scene(0.0, -1.0))
    first_bounce = replace(scene, max_bounces=1)

    def ray(x: float) -> _RayXY:
        _require_finite(x, y_top)
        return (*primary.placement._xy_to_scene(x, y_top), dx, dy)

    def blocked(x: float) -> bool:  # is the first bounce off the secondary?
        return any(index == secondary_index for index, *_ in _trace_xy(first_bounce, [ray(x)])[0])

    if n_rays == 1:
        return _spot_report(scene, _trace_xy(scene, [ray(0.0)]))

    if blocked(aperture):
        # The whole aperture is shadowed; report the blocked bundle as-is.
        xs = [aperture * (i + 1) / n_rays for i in range(n_rays)]
        return _spot_report(scene, _trace_xy(scene, map(ray, xs)))

    shadow = 0.0  # nothing shadows the axis unless the near-axis ray is blocked
    if blocked(1e-12 * aperture):
        lo, hi = 0.0, aperture
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if blocked(mid):
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-12 * aperture:
                break
        shadow = hi
    inner = shadow + 0.02 * (aperture - shadow)
    n_pos = (n_rays + 1) // 2
    n_neg = n_rays // 2
    xs = [
        inner + (aperture - inner) * (i / (n_pos - 1) if n_pos > 1 else 0.5)
        for i in range(n_pos)
    ]
    xs += [-x for x in xs[:n_neg]]
    return _spot_report(scene, _trace_xy(scene, map(ray, xs)))

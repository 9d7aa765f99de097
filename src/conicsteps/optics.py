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
"""
from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

from ._backend import kernels
from .config import DEFAULT, Tolerances
from .conics import Conic, Ellipse, Hyperbola, Parabola, Shape, as_conic
from .errors import UnsupportedVariantError
from .geometry import Direction, Line, Point, angle_between, direction, translate

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


@dataclass(frozen=True)
class Ray:
    """Half-line from ``origin`` along the unit direction ``dir``."""

    origin: Point
    dir: Direction


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

    ``roles`` tags each mirror as plain ``mirror`` or as the telescope
    ``primary`` (a parabola) / ``secondary`` (a hyperbola).  When both
    telescope roles are present the pair must be confocal: the secondary's
    near focus must coincide with the primary's focus within
    ``confocal_tol``.  The default tolerance is tight (1e-9); misalignment
    studies may widen it deliberately to trace an imperfect pair.
    """

    mirrors: tuple[Conic, ...]
    roles: tuple[str, ...] = ()
    rays: tuple[Ray, ...] = ()
    max_bounces: int = 8
    on_curve_tol: float = DEFAULT.on_curve
    confocal_tol: float = DEFAULT.confocal

    def __post_init__(self) -> None:
        object.__setattr__(self, "mirrors", tuple(self.mirrors))
        object.__setattr__(self, "rays", tuple(self.rays))
        roles = tuple(self.roles) if self.roles else tuple("mirror" for _ in self.mirrors)
        object.__setattr__(self, "roles", roles)
        if len(self.roles) != len(self.mirrors):
            raise ValueError(
                f"{len(self.mirrors)} mirrors but {len(self.roles)} roles"
            )
        for role in self.roles:
            if role not in ROLES:
                raise ValueError(f"unknown role {role!r}; expected one of {ROLES}")
        if self.max_bounces < 1:
            raise ValueError(f"max_bounces must be >= 1, got {self.max_bounces}")
        if not (math.isfinite(self.on_curve_tol) and self.on_curve_tol > 0.0):
            raise ValueError(f"on_curve_tol must be positive, got {self.on_curve_tol}")
        if not (math.isfinite(self.confocal_tol) and self.confocal_tol > 0.0):
            raise ValueError(f"confocal_tol must be positive, got {self.confocal_tol}")
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
            if gap > self.confocal_tol:
                raise ValueError(
                    f"primary/secondary pair is not confocal: focus gap {gap!r} "
                    f"exceeds {self.confocal_tol!r}"
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


def intersect_ray(
    conic: Conic | Shape, ray: Ray, tolerances: Tolerances = DEFAULT
) -> tuple[tuple[float, Point], ...]:
    """All forward intersections of ``ray`` with the conic, nearest first.

    Returns (t, point) pairs with ``t`` above the self-hit guard, solved
    from the canonical implicit quadratic with a cancellation-free formula.
    Nearly coincident root pairs (separation below the merge tolerance)
    collapse to the single tangency point.  Hyperbola hits on the other
    branch are discarded.
    """
    conic = as_conic(conic)
    oc = conic.placement.to_canonical(ray.origin)
    dc = conic.placement.dir_to_canonical(ray.dir)
    s = conic.shape
    if isinstance(s, Ellipse):
        A, B, C = kernels.ellipse_ray_coeffs(s.a, s.b, oc.x, oc.y, dc.x, dc.y)
    elif isinstance(s, Parabola):
        A, B, C = kernels.parabola_ray_coeffs(s.p, oc.x, oc.y, dc.x, dc.y)
    else:
        A, B, C = kernels.hyperbola_ray_coeffs(s.a, s.b, oc.x, oc.y, dc.x, dc.y)
    n, r0, r1 = kernels.quadratic_roots(A, B, C, tolerances.root_merge)
    hits: list[tuple[float, Point]] = []
    for t in (r0, r1)[:n]:
        if not (tolerances.self_hit < t <= tolerances.max_ray_t):
            continue
        pc = Point(oc.x + t * dc.x, oc.y + t * dc.y)
        if isinstance(s, Hyperbola):
            if pc.x == 0.0 or (pc.x > 0.0) != (s.branch > 0):
                continue
        hits.append((t, conic.placement.to_scene(pc)))
    return tuple(hits)


def reflect_at(
    conic: Conic | Shape,
    q: Point,
    incoming: Direction,
    tol: float | None = None,
) -> Direction:
    """Reflect ``incoming`` across the analytic tangent line at ``q``."""
    conic = as_conic(conic)
    tangent, _ = conic.tangent_normal(q, tol)
    s = incoming.x * tangent.x + incoming.y * tangent.y
    return Direction(2.0 * s * tangent.x - incoming.x, 2.0 * s * tangent.y - incoming.y)


def focal_property_error(
    conic: Conic | Shape, q: Point, tol: float | None = None
) -> float:
    """Angular error of the conic's focal reflection property at ``q``.

    Ellipse: a beam from one focus reflects toward the other.  Parabola:
    an axis-parallel beam reflects toward the focus.  Hyperbola: a beam
    from the near focus reflects along the line away from the far focus.
    The returned angle is zero up to rounding for every on-curve point.
    """
    conic = as_conic(conic)
    s = conic.shape
    if isinstance(s, Parabola):
        incoming = conic.placement.dir_to_scene(Direction(0.0, -1.0))
        expected = direction(q, conic.focus_points()[0])
    else:
        f1, f2 = conic.focus_points()
        incoming = direction(f1, q)
        if isinstance(s, Ellipse):
            expected = direction(q, f2)
        else:
            expected = direction(f2, q)
    outgoing = reflect_at(conic, q, incoming, tol)
    return angle_between(outgoing, expected)


def trace(
    scene: Scene,
    ray: Ray,
    max_bounces: int | None = None,
    tolerances: Tolerances = DEFAULT,
) -> TracePath:
    """Trace ``ray`` through the scene, always taking the nearest bounce.

    Stops when no mirror lies ahead or the bounce cap is reached; ties on
    hit distance go to the lower mirror index.  ``final`` is the free ray
    leaving the last bounce (the input ray itself for a clean miss).
    """
    if max_bounces is None:
        max_bounces = scene.max_bounces
    if max_bounces < 1:
        raise ValueError(f"max_bounces must be >= 1, got {max_bounces}")
    hits: list[Hit] = []
    current = ray
    for _ in range(max_bounces):
        best: tuple[float, int, Point] | None = None
        for index, mirror in enumerate(scene.mirrors):
            found = intersect_ray(mirror, current, tolerances)
            if found and (best is None or found[0][0] < best[0]):
                best = (found[0][0], index, found[0][1])
        if best is None:
            break
        t, index, point = best
        outgoing = reflect_at(scene.mirrors[index], point, current.dir, scene.on_curve_tol)
        hits.append(Hit(mirror_index=index, point=point, t=t, outgoing=outgoing))
        current = Ray(point, outgoing)
    return TracePath(ray=ray, hits=tuple(hits), final=current)


def ray_line_distance(ray: Ray, q: Point) -> float:
    """Distance from ``q`` to the supporting line of ``ray``."""
    return Line(ray.origin, ray.dir).distance_to(q)


def _require_pair(scene: Scene) -> tuple[Conic, Conic]:
    pair = scene.telescope_pair()
    if pair is None:
        raise UnsupportedVariantError(
            "spot statistics need a scene with 'primary' and 'secondary' mirrors"
        )
    return pair


def spot_report(
    scene: Scene,
    rays: Iterable[Ray],
    tolerances: Tolerances = DEFAULT,
) -> SpotReport:
    """Trace ``rays`` and measure how tightly they aim at the second focus.

    Each ray with at least one bounce contributes the distance from the
    secondary's far focus to its final outgoing line (the focus is a
    virtual image behind the secondary, so the supporting line is what
    passes through it).  Missed rays are counted, never dropped.
    """
    rays = tuple(rays)
    _, secondary = _require_pair(scene)
    target = secondary.focus_points()[1]
    secondary_index = scene.roles.index("secondary")
    primary_index = scene.roles.index("primary")
    distances: list[float] = []
    n_focused = n_blocked = n_missed = 0
    for ray in rays:
        path = trace(scene, ray, tolerances=tolerances)
        if not path.hits:
            n_missed += 1
            continue
        first = path.hits[0].mirror_index
        if first == secondary_index:
            n_blocked += 1
        elif (
            first == primary_index
            and len(path.hits) >= 2
            and path.hits[1].mirror_index == secondary_index
        ):
            n_focused += 1
        distances.append(ray_line_distance(path.final, target))
    if distances:
        max_d = max(distances)
        rms = math.sqrt(math.fsum(d * d for d in distances) / len(distances))
    else:
        max_d = rms = 0.0
    return SpotReport(
        target=target,
        n_rays=len(rays),
        n_focused=n_focused,
        n_blocked=n_blocked,
        n_missed=n_missed,
        max_distance=max_d,
        rms_distance=rms,
        distances=tuple(distances),
    )


def _hits_secondary_first(
    scene: Scene, x: float, y_top: float, primary: Conic, secondary_index: int,
    tolerances: Tolerances,
) -> bool:
    origin = primary.placement.to_scene(Point(x, y_top))
    d = primary.placement.dir_to_scene(Direction(0.0, -1.0))
    path = trace(scene, Ray(origin, d), max_bounces=1, tolerances=tolerances)
    return bool(path.hits) and path.hits[0].mirror_index == secondary_index


def cassegrain_spot(
    scene: Scene,
    n_rays: int,
    aperture: float,
    tolerances: Tolerances = DEFAULT,
) -> SpotReport:
    """Spot statistics for axis-parallel rays filling the aperture.

    Generates ``n_rays`` rays parallel to the primary's axis, spread
    uniformly over offsets up to ``aperture`` on both sides but outside
    the central shadow of the secondary (found by bisection).  A single
    ray is taken on-axis instead: it bounces straight back off the
    secondary's outer side and its line still passes through the target.
    """
    if n_rays < 1:
        raise ValueError(f"n_rays must be >= 1, got {n_rays}")
    if not (math.isfinite(aperture) and aperture > 0.0):
        raise ValueError(f"aperture must be positive, got {aperture}")
    primary, _ = _require_pair(scene)
    secondary_index = scene.roles.index("secondary")
    p = primary.shape.p  # type: ignore[union-attr]
    y_top = aperture * aperture / (4.0 * p) + 2.0 * p + 1.0

    def blocked(x: float) -> bool:
        return _hits_secondary_first(scene, x, y_top, primary, secondary_index, tolerances)

    axis_dir = primary.placement.dir_to_scene(Direction(0.0, -1.0))

    def ray_at(x: float) -> Ray:
        return Ray(primary.placement.to_scene(Point(x, y_top)), axis_dir)

    if n_rays == 1:
        return spot_report(scene, [ray_at(0.0)], tolerances)

    if blocked(aperture):
        # The whole aperture is shadowed; report the blocked bundle as-is.
        xs = [aperture * (i + 1) / n_rays for i in range(n_rays)]
        return spot_report(scene, [ray_at(x) for x in xs], tolerances)

    lo, hi = 0.0, aperture
    if blocked(lo + 1e-12 * aperture):
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
    return spot_report(scene, [ray_at(x) for x in xs], tolerances)

"""Two-equal-steps walk on a conic and the isosceles apex reflector.

Starting from a point ``A`` on the curve, take two straight steps of the
same length ``delta``:

* ellipse: directly away from one focus, then directly toward the other;
* parabola: straight toward the directrix (parallel to the axis), then
  straight toward the focus;
* hyperbola: directly away from the near focus, then directly away from
  the far focus.

The landing point ``B`` misses the curve by O(delta^2), so the walk closes
up as the step shrinks.  The triangle A-D-B is isosceles with apex ``D``
(both legs have length exactly ``delta``), hence the line through ``D``
parallel to the chord ``A-B`` reflects the first leg into the second leg
exactly, at any step size.  As delta -> 0 that apex line converges to the
tangent, which is the discrete route to the reflective property of each
conic.

``orientation`` selects the direction of travel: "forward" as listed above,
"backward" with the focal roles swapped (for the parabola, both step senses
reversed).  Walks started exactly on an axis vertex retrace themselves
(B == A); such triangles are returned flagged ``degenerate`` and have no
apex reflector.

The float core is ``_walk_xy``, the one walk, on canonical-frame floats,
which reads both steps from the shape's ``_step``, the one copy of the rule.
The canonical frame is the frame of measurement: ``two_step``,
``exact_return`` and the halving sweep each take one walk and measure it
there, and only what a public function returns is mapped to the scene.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

from .config import DEFAULT, Tolerances
from .conics import Conic, Parabola, Shape, _require_thick, as_conic
from .errors import BracketError, ConicError, DegenerateTriangleError, UnsupportedVariantError
from .geometry import (Direction, Line, Point, _angle_xy, _normalized, _require_finite,
                       _require_type, _unit_unchecked, reflect_direction, scalar_projection)

__all__ = [
    "Orientation",
    "StepTriangle",
    "FocalChange",
    "ExactReturn",
    "two_step",
    "apex_reflector",
    "reflect_through_apex",
    "focal_change_error",
    "exact_return",
]

Orientation = Literal["forward", "backward"]


@dataclass(frozen=True)
class StepTriangle:
    """The two-step triangle, in scene coordinates.

    ``A`` is the on-curve start, ``D`` the apex after the first step,
    ``B`` the landing point after the second.  ``leg1_dir`` and
    ``leg2_dir`` are the unit step directions; both legs have length
    ``delta``.  ``residual_b`` is the curve residual at ``B`` and
    ``degenerate`` marks walks that retraced to their start (B == A); both
    are measured at the walk's canonical landing point, before ``B`` is
    mapped to the scene, so they do not depend on the conic's placement.
    """

    A: Point
    D: Point
    B: Point
    delta: float
    leg1_dir: Direction
    leg2_dir: Direction
    residual_b: float
    orientation: Orientation
    degenerate: bool


@dataclass(frozen=True)
class FocalChange:
    """Bookkeeping of the two steps against the focal geometry.

    ``proj_gap`` compares the projection of each leg onto the other leg's
    direction; the legs share the apex angle and a common length, so it is
    zero up to roundoff at any step size.  ``parallelism_error`` is the
    angle at the second focus subtended by ``A`` and ``B``: the directions
    A -> F2 and B -> F2 agree only to O(delta).
    """

    proj_gap: float
    parallelism_error: float


@dataclass(frozen=True)
class ExactReturn:
    """A second step re-solved so the walk lands exactly on the curve.

    ``triangle`` has its ``B`` replaced by the exact-return landing point;
    ``t_star`` is the solved second-step length and ``gap`` is
    ``|t_star - delta|``, which shrinks like O(delta^2).
    """

    triangle: StepTriangle
    t_star: float
    gap: float


def _check_step(delta: float, orientation: str) -> None:
    """Raise ValueError for a step length or an orientation ``two_step`` rejects."""
    if not (math.isfinite(delta) and delta > 0.0):
        raise ValueError(f"step length must be positive and finite, got {delta}")
    if orientation not in ("forward", "backward"):
        raise ValueError(f"orientation must be 'forward' or 'backward', got {orientation!r}")


def _walk_xy(shape: Shape, ax: float, ay: float, delta: float,
             orientation: Orientation) -> tuple[float, ...]:
    """The walk from the canonical-frame point ``(ax, ay)``: the unit step
    directions ``u1``, ``u2`` and the points ``D``, ``B``, as the canonical
    floats ``(u1x, u1y, dx, dy, u2x, u2y, bx, by)``.  Each direction is
    normalized and each point checked finite, as a Direction or a Point is."""
    forward = orientation == "forward"
    u1x, u1y = shape._step(ax, ay, False, forward)
    dx, dy = ax + delta * u1x, ay + delta * u1y
    _require_finite(dx, dy)
    u2x, u2y = shape._step(dx, dy, True, forward)
    bx, by = dx + delta * u2x, dy + delta * u2y
    _require_finite(bx, by)
    return u1x, u1y, dx, dy, u2x, u2y, bx, by


def _triangle(conic: Conic, A: Point, ac: tuple[float, float], walk: tuple[float, ...],
              delta: float, orientation: Orientation) -> StepTriangle:
    """The StepTriangle of the canonical ``walk`` from ``A`` (canonically
    ``ac``): ``residual_b`` and ``degenerate`` are measured at the canonical
    landing point, and only the points and legs are mapped to the scene."""
    u1x, u1y, dx, dy, u2x, u2y, bx, by = walk
    pl = conic.placement
    return StepTriangle(A=A, D=Point(*pl._xy_to_scene(dx, dy)),
                        B=Point(*pl._xy_to_scene(bx, by)), delta=delta,
                        leg1_dir=Direction(*pl._rotate_to_scene(u1x, u1y)),
                        leg2_dir=Direction(*pl._rotate_to_scene(u2x, u2y)),
                        residual_b=conic.shape._residual(bx, by), orientation=orientation,
                        degenerate=_retraced(conic.shape, *ac, bx, by))


def two_step(
    conic: Conic | Shape,
    A: Point,
    delta: float,
    orientation: Orientation = "forward",
    tolerances: Tolerances = DEFAULT,
) -> StepTriangle:
    """Walk two equal steps of length ``delta`` from the on-curve point ``A``.

    Raises OffCurveError if ``A`` is not on the curve within the on-curve
    tolerance, and ValueError for a non-positive or non-finite ``delta``.
    """
    conic = as_conic(conic)
    _require_type("A", A, Point)
    _check_step(delta, orientation)
    ac = conic._require_on_curve(A.x, A.y, tolerances, "start point")
    return _triangle(conic, A, ac, _walk_xy(conic.shape, *ac, delta, orientation), delta,
                     orientation)


#: |B - A| at most this, in the conic's length unit, flags a collapsed step triangle.
_DEGENERATE_STEP = 1e-12


def _retraced(shape: Shape, ax: float, ay: float, bx: float, by: float) -> bool:
    """Whether a walk on ``shape`` from ``A`` to ``B`` retraced itself: its
    chord is at most ``_DEGENERATE_STEP`` in the shape's ``_unit``."""
    return math.hypot(bx - ax, by - ay) <= _DEGENERATE_STEP * shape._unit


def apex_reflector(tri: StepTriangle) -> Line:
    """The mirror line of the triangle: through the apex, parallel to A-B.

    Because the triangle is isosceles, this line reflects the first leg
    into the second exactly.  Raises DegenerateTriangleError for retraced
    walks, whose chord has no direction.

    Its direction comes from ``_chord_xy``, the one definition of the walk's
    chord: ``unit(leg1_dir + leg2_dir)``, or, for legs that nearly retrace
    (an obtuse angle between them), the unit normal of ``leg1_dir -
    leg2_dir`` turned the same way, since there the sum cancels and would
    miss the identity by about eps / |leg1_dir + leg2_dir|.
    """
    _require_type("tri", tri, StepTriangle)
    if tri.degenerate:
        raise DegenerateTriangleError(
            "a retraced walk (B == A) has no chord and no apex reflector"
        )
    u1, u2 = tri.leg1_dir, tri.leg2_dir
    return Line(tri.D, _unit_unchecked(*_chord_xy(u1.x, u1.y, u2.x, u2.y)))


def _chord_xy(u1x: float, u1y: float, u2x: float, u2y: float) -> tuple[float, float]:
    """The unit chord direction of a walk with unit steps ``u1``, ``u2``, which
    equals ``unit(B - A)`` for equal legs but does not lose the (possibly tiny)
    chord to round-off in the points' coordinates.

    For unit steps ``u1 + u2`` is perpendicular to ``u1 - u2``, so the chord is
    either ``unit(u1 + u2)`` or the unit normal of ``u1 - u2``; each form is
    taken where its vector is the longer.  When the legs nearly retrace
    (``u1 . u2 < 0``), ``u1 + u2`` cancels and carries an error of about
    eps / |u1 + u2|, while ``u1 - u2`` is near 2 u1 and exact to an ulp; its
    normal is turned to point along ``u1 + u2``, as the sum form does."""
    sx, sy = u1x + u2x, u1y + u2y
    if u1x * u2x + u1y * u2y < 0.0:
        wx, wy = u1x - u2x, u1y - u2y
        return _normalized(-wy, wx) if wx * sy - wy * sx >= 0.0 else _normalized(wy, -wx)
    return _normalized(sx, sy)


#: componentwise budget for the exact apex reflection identity.
_IDENTITY = 1e-12


def reflect_through_apex(tri: StepTriangle) -> Direction:
    """Reflect the first leg across the apex reflector.

    The result must equal the second leg direction componentwise to 1e-12,
    else ConicError is raised; this is the exact (step-size independent)
    mirror property of the isosceles apex.
    """
    _require_type("tri", tri, StepTriangle)
    reflected = reflect_direction(tri.leg1_dir, apex_reflector(tri))
    err = max(
        abs(reflected.x - tri.leg2_dir.x),
        abs(reflected.y - tri.leg2_dir.y),
    )
    if err > _IDENTITY:
        raise ConicError(
            f"apex reflection mismatch of {err!r} exceeds the identity "
            f"tolerance {_IDENTITY!r}"
        )
    return reflected


def focal_change_error(conic: Conic | Shape, tri: StepTriangle) -> FocalChange:
    """Projection and parallelism bookkeeping for a two-step triangle.

    Only defined for two-focus conics; raises UnsupportedVariantError for
    the parabola, whose second 'focus' is a directrix direction and has no
    subtended angle.
    """
    conic = as_conic(conic)
    _require_type("tri", tri, StepTriangle)
    a, b = conic.placement.to_canonical(tri.A), conic.placement.to_canonical(tri.B)
    parallelism = _parallelism(conic.shape, a.x, a.y, b.x, b.y, tri.orientation)
    p1 = abs(scalar_projection(tri.D - tri.A, tri.leg2_dir))
    p2 = abs(scalar_projection(tri.B - tri.D, tri.leg1_dir))
    return FocalChange(proj_gap=abs(p1 - p2), parallelism_error=parallelism)


def _parallelism(shape: Shape, ax: float, ay: float, bx: float, by: float,
                 orientation: Orientation) -> float:
    """``parallelism_error`` of the canonical points ``A`` and ``B``, on floats:
    the angle between the second steps from ``A`` and from ``B``."""
    if isinstance(shape, Parabola):
        raise UnsupportedVariantError("focal-change bookkeeping needs two foci; "
                                      "the parabola has one")
    forward = orientation == "forward"
    return _angle_xy(*shape._step(ax, ay, True, forward), *shape._step(bx, by, True, forward))


def exact_return(
    conic: Conic | Shape,
    A: Point,
    delta: float,
    orientation: Orientation = "forward",
    tolerances: Tolerances = DEFAULT,
) -> ExactReturn:
    """Re-solve the second step length so the walk ends exactly on the curve.

    The second leg keeps its direction; its length ``t`` is the root in
    [delta/2, 2*delta] of the ray-conic quadratic along the leg, solved
    from the apex in the canonical frame.  Raises BracketError if the
    curve residual at the two ends of that bracket has one sign (neither
    end zero); a zero end is itself the answer.  Degenerate (retraced)
    walks return with ``t_star == delta`` unchanged: the retraced second
    step already ends on the curve.
    """
    conic = as_conic(conic)
    _require_type("A", A, Point)
    _check_step(delta, orientation)
    ac = conic._require_on_curve(A.x, A.y, tolerances, "start point")
    u1x, u1y, dx, dy, u2x, u2y, bx, by = _walk_xy(conic.shape, *ac, delta, orientation)
    t_star = delta
    if not _retraced(conic.shape, *ac, bx, by):
        t_star, bx, by = _return_xy(conic.shape, dx, dy, u2x, u2y, delta)
    tri = _triangle(conic, A, ac, (u1x, u1y, dx, dy, u2x, u2y, bx, by), delta, orientation)
    return ExactReturn(triangle=tri, t_star=t_star, gap=abs(t_star - delta))


def _return_xy(shape: Shape, ox: float, oy: float, dx: float, dy: float,
               delta: float) -> tuple[float, float, float]:
    """``exact_return`` on canonical floats from the apex ``(ox, oy)`` along the
    unit second leg ``(dx, dy)``: the length ``t`` in [delta/2, 2*delta] that
    puts ``(ox, oy) + t * (dx, dy)`` on the curve, and that point, checked finite.

    The focal residual at the two bracket ends decides whether there is an
    answer: a zero end is the answer, and ends of one sign raise
    BracketError (a hyperbola end on the axis raises NoBranchError, as
    ``Conic.residual`` does).  Otherwise the answer is a root of the shape's
    ``_ray_roots``, which returns only roots on the curve.  Residual and
    implicit form share their sign, so exactly one root lies in the bracket;
    rounding can only push it just outside, hence the root nearer the
    bracket is taken and clamped into it.  A shape too thin for its ray
    solve is refused there, by ``_require_thick``.
    """
    lo, hi = 0.5 * delta, 2.0 * delta
    flo = shape._residual(ox + lo * dx, oy + lo * dy)
    fhi = shape._residual(ox + hi * dx, oy + hi * dy)
    if flo == 0.0:
        t = lo
    elif fhi == 0.0:
        t = hi
    elif (flo > 0.0) == (fhi > 0.0):
        raise BracketError(
            f"curve residual does not change sign on [{lo!r}, {hi!r}]; "
            "cannot bracket the exact-return step"
        )
    else:
        # No merge window: the sign change already rules out a tangency.
        _require_thick(shape)
        n, r0, r1 = shape._ray_roots(ox, oy, dx, dy, 0.0)
        if n == 0:  # a sign change below rounding: keep the closer end
            t = lo if abs(flo) <= abs(fhi) else hi
        else:
            t0, t1 = r0 * shape._unit, r1 * shape._unit
            if n == 2 and max(lo - t1, t1 - hi, 0.0) < max(lo - t0, t0 - hi, 0.0):
                t0 = t1  # the root nearer the bracket
            t = min(max(t0, lo), hi)
    bx, by = ox + t * dx, oy + t * dy
    _require_finite(bx, by)
    return t, bx, by

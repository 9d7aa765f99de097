"""Conic shapes, rigid placements, and curve-level operations.

Each shape is defined in a canonical pose:

* Ellipse: ``x^2/a^2 + y^2/b^2 = 1`` with ``a >= b > 0``; foci at
  ``(-c, 0)`` and ``(c, 0)``, ``c = sqrt(a^2 - b^2)``.
* Parabola: ``x^2 = 4 p y`` with ``p > 0``; vertex at the origin, opening
  along +y, focus ``(0, p)``, directrix ``y = -p``.
* Hyperbola: ``x^2/a^2 - y^2/b^2 = 1`` with ``a, b > 0``; a single branch
  is selected by ``branch`` (+1 opens toward +x, -1 toward -x), and
  ``c = sqrt(a^2 + b^2)``.  The -1 branch is the +1 branch reflected in the
  y axis, and ``Hyperbola`` alone applies that reflection: its kernels are
  those of the +x branch, called with ``branch * x``.

A ``Placement`` is a rotation followed by a translation; ``Conic`` pairs a
shape with a placement and exposes every curve operation in scene
coordinates: the signed residual, tangent/normal frames, parametric points,
nearest-point projection, and focus locations.  Each shape owns its
canonical-frame math: its ``_residual``, ``_gradient``, ``_points``,
``_ray_roots`` and ``_nearest`` are the only callers of its kernels, so no
other code picks a kernel by shape.  ``_ray_roots`` is the one ray solve: the
roots, in the unit, of the shape's ray quadratic that lie on its curve (not on
a hyperbola's other branch); the tracer's hits and the exact return both read
it.  A shape's ``_step`` is the focal step rule: the unit direction of the
two-step walk's first or second step, read by the walk and the focal
reflection property.

Each shape owns its length unit ``_unit``, the power of two ``u <= L < 2u``
for its largest length ``L`` and the one place its size becomes a tolerance,
and keeps its lengths divided by ``u`` (``_au``, ``_bu``, ``_cu``, ``_pu``).
Every kernel that squares a length runs on those and on coordinates divided
by ``u``, lengths multiplied back (``_gradient`` stays in the unit): exact,
short of the subnormals, so results keep their bits at every size.

Residual conventions (distances measured in the canonical frame):

* ellipse: ``|q - F1| + |q - F2| - 2a`` (negative inside);
* parabola: ``dist(q, focus) - dist(q, directrix)`` (positive on the
  convex side, below the curve);
* hyperbola: ``far - near - 2a`` where the near focus is the one inside
  the selected branch, so points of the other branch are off the curve.
  Points with canonical ``x == 0``, on the axis between the branches,
  raise NoBranchError.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import ClassVar

from ._backend import kernels
from .config import DEFAULT, Tolerances
from .errors import IterationError, NoBranchError, OffCurveError
from .geometry import (Direction, Point, _normalized, _require_finite, _require_type,
                       _unit_unchecked)

__all__ = [
    "Ellipse",
    "Parabola",
    "Hyperbola",
    "Placement",
    "Conic",
    "Projection",
    "as_conic",
]


def _keep_in_unit(shape: Shape, largest: float, **lengths: float) -> None:
    """Keep on ``shape`` its unit ``_unit``, the power of two ``u <= largest < 2u``,
    and each of ``lengths`` divided by it, set one by one as ``Placement`` sets
    ``_cos``: ``vars(shape).update`` would slow every attribute read."""
    u = math.ldexp(0.5, math.frexp(largest)[1])
    object.__setattr__(shape, "_unit", u)
    for name, length in lengths.items():
        object.__setattr__(shape, name, length / u)


@dataclass(frozen=True)
class Ellipse:
    """Axis-aligned ellipse with semi-major ``a`` and semi-minor ``b``."""

    kind: ClassVar[str] = "ellipse"
    a: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("ellipse axes must be finite")
        if self.b <= 0.0 or self.a < self.b:
            raise ValueError(
                f"ellipse requires a >= b > 0, got a={self.a}, b={self.b}"
            )
        _keep_in_unit(self, self.a, _au=self.a, _bu=self.b)
        object.__setattr__(self, "_cu", math.sqrt(self._au * self._au - self._bu * self._bu))

    @property
    def c(self) -> float:
        """Linear eccentricity (center-to-focus distance)."""
        return self._cu * self._unit

    @property
    def foci(self) -> tuple[Point, Point]:
        c = self.c
        return (Point(-c, 0.0), Point(c, 0.0))

    @property
    def scale(self) -> float:
        return self.a + self.b

    def _residual(self, x: float, y: float) -> float:
        u = self._unit
        return kernels.ellipse_residual(self._au, self._bu, x / u, y / u) * u

    def _gradient(self, x: float, y: float) -> tuple[float, float]:
        return kernels.ellipse_gradient(self._au, self._bu, x / self._unit, y / self._unit)

    def _points(self, ts: Sequence[float]) -> tuple[list[float], list[float]]:
        return kernels.ellipse_points(self.a, self.b, ts)

    def _ray_roots(self, ox: float, oy: float, dx: float, dy: float,
                   merge: float) -> tuple[int, float, float]:
        u = self._unit
        A, B, C = kernels.ellipse_ray_coeffs(self._au, self._bu, ox / u, oy / u, dx, dy)
        return kernels.quadratic_roots(A, B, C, merge)

    def _nearest(self, x: float, y: float) -> tuple[float, int]:
        if x == 0.0 and y == 0.0:
            raise ValueError("nearest point is ambiguous at the ellipse center")
        return kernels.ellipse_nearest_param(self._au, self._bu, x / self._unit, y / self._unit)

    def _step(self, x: float, y: float, second: bool, forward: bool) -> tuple[float, float]:
        x, y, f = x / self._unit, y / self._unit, (self._cu if second == forward else -self._cu)
        return _normalized(f - x, 0.0 - y) if second else _normalized(x - f, y - 0.0)


@dataclass(frozen=True)
class Parabola:
    """Parabola ``x^2 = 4 p y`` with focal length ``p``."""

    kind: ClassVar[str] = "parabola"
    p: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.p) or self.p <= 0.0:
            raise ValueError(f"parabola requires p > 0, got p={self.p}")
        _keep_in_unit(self, self.p, _pu=self.p)

    @property
    def focus(self) -> Point:
        return Point(0.0, self.p)

    @property
    def scale(self) -> float:
        return 2.0 * self.p

    def _residual(self, x: float, y: float) -> float:
        u = self._unit
        return kernels.parabola_residual(self._pu, x / u, y / u) * u

    def _gradient(self, x: float, y: float) -> tuple[float, float]:
        return kernels.parabola_gradient(self._pu, x / self._unit, y / self._unit)

    def _points(self, ts: Sequence[float]) -> tuple[list[float], list[float]]:
        return kernels.parabola_points(self._pu, self._unit, ts)

    def _ray_roots(self, ox: float, oy: float, dx: float, dy: float,
                   merge: float) -> tuple[int, float, float]:
        A, B, C = kernels.parabola_ray_coeffs(self._pu, ox / self._unit, oy / self._unit, dx, dy)
        return kernels.quadratic_roots(A, B, C, merge)

    def _nearest(self, x: float, y: float) -> tuple[float, int]:
        t, ok = kernels.parabola_nearest_param(self._pu, x / self._unit, y / self._unit)
        return t * self._unit, ok

    def _step(self, x: float, y: float, second: bool, forward: bool) -> tuple[float, float]:
        if not second:
            return 0.0, (-1.0 if forward else 1.0)
        x, y, p = x / self._unit, y / self._unit, self._pu
        return _normalized(0.0 - x, p - y) if forward else _normalized(x - 0.0, y - p)


@dataclass(frozen=True)
class Hyperbola:
    """One branch of ``x^2/a^2 - y^2/b^2 = 1``.

    ``branch`` is +1 for the branch opening toward +x and -1 for the one
    opening toward -x.  Focus bookkeeping is branch-relative: the first
    focus is the near one (inside the selected branch), the second is the
    far one.

    The -1 branch is the mirror image of the +1 branch in the y axis, and
    this class is the one place that knows it: the residual, nearest-point
    and ray solves run the +x branch's kernels on ``branch * x`` (and the
    ray's ``branch * dx``), and the samples are those of ``branch * a``.
    Negation is exact and the kernels' ``hypot`` is even, so each result has
    the bits of a solve written for the branch.
    """

    kind: ClassVar[str] = "hyperbola"
    a: float
    b: float
    branch: int = 1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("hyperbola axes must be finite")
        if self.a <= 0.0 or self.b <= 0.0:
            raise ValueError(
                f"hyperbola requires a > 0 and b > 0, got a={self.a}, b={self.b}"
            )
        if type(self.branch) is not int or self.branch not in (1, -1):
            raise ValueError(f"branch must be +1 or -1, got {self.branch}")
        _keep_in_unit(self, max(self.a, self.b), _au=self.a, _bu=self.b)
        object.__setattr__(self, "_cu", math.sqrt(self._au * self._au + self._bu * self._bu))

    @property
    def c(self) -> float:
        """Linear eccentricity (center-to-focus distance)."""
        return self._cu * self._unit

    @property
    def foci(self) -> tuple[Point, Point]:
        """(near focus, far focus) relative to the selected branch."""
        c = self.c
        return (Point(self.branch * c, 0.0), Point(-self.branch * c, 0.0))

    @property
    def scale(self) -> float:
        return self.a + self.b

    def _residual(self, x: float, y: float) -> float:
        if x == 0.0:
            raise NoBranchError("point lies on the axis of symmetry between branches; "
                                "the residual is defined per branch")
        u = self._unit
        return kernels.hyperbola_residual(self._au, self._bu, self.branch * x / u, y / u) * u

    def _gradient(self, x: float, y: float) -> tuple[float, float]:
        return kernels.hyperbola_gradient(self._au, self._bu, x / self._unit, y / self._unit)

    def _points(self, ts: Sequence[float]) -> tuple[list[float], list[float]]:
        return kernels.hyperbola_points(self.branch * self.a, self.b, ts)

    def _ray_roots(self, ox: float, oy: float, dx: float, dy: float,
                   merge: float) -> tuple[int, float, float]:
        ox, oy, dx = self.branch * ox / self._unit, oy / self._unit, self.branch * dx
        A, B, C = kernels.hyperbola_ray_coeffs(self._au, self._bu, ox, oy, dx, dy)
        n, r0, r1 = kernels.quadratic_roots(A, B, C, merge)
        if n == 2 and not ox + r1 * dx > 0.0:  # keep the roots strictly on the +x side
            n, r1 = 1, 0.0
        if n and not ox + r0 * dx > 0.0:
            n, r0, r1 = n - 1, r1, 0.0
        return n, r0, r1

    def _nearest(self, x: float, y: float) -> tuple[float, int]:
        u = self._unit
        return kernels.hyperbola_nearest_param(self._au, self._bu, self.branch * x / u, y / u)

    def _step(self, x: float, y: float, second: bool, forward: bool) -> tuple[float, float]:
        f = -self.branch * self._cu if second == forward else self.branch * self._cu
        return _normalized(x / self._unit - f, y / self._unit - 0.0)


Shape = Ellipse | Parabola | Hyperbola


def _require_thick(shape: Shape) -> None:
    """Raise a ValueError naming ``shape`` if its smaller length, squared in its
    unit, underflows: ``_gradient`` and ``_ray_roots`` divide by that square,
    so each caller checks before its first use of either."""
    if not isinstance(shape, Parabola):
        small = min(shape._au, shape._bu)
        if small * small == 0.0:
            raise ValueError(f"{shape!r} is too thin for float arithmetic: its smaller "
                             "length squared underflows in the unit of its larger one")


def _unit_gradient(shape: Shape, x: float, y: float) -> tuple[float, float]:
    """``shape``'s gradient at the canonical point ``(x, y)``, normalized: the
    one unit normal of ``tangent_normal``, the focal property and the tracer's
    rare path (its common path normalizes inline).

    Far out on a thin hyperbola ``x / a^2`` overflows at a finite point.  The
    ellipse's and the hyperbola's gradients are linear in the point, so the
    gradient is then taken again at the point scaled by the power of two that
    brings its larger coordinate into the unit; a parabola point that far out
    is off the curve, which each caller checks first, so ``(x, y)`` is finite."""
    gx, gy = shape._gradient(x, y)
    if not (math.isfinite(gx) and math.isfinite(gy)):
        e = math.frexp(max(abs(x), abs(y)) / shape._unit)[1]
        gx, gy = shape._gradient(math.ldexp(x, -e), math.ldexp(y, -e))
    return _normalized(gx, gy)


#: the rounding floor of a residual at the canonical point (x, y), per unit of
#: |x| + |y|: the backward error of a float point of that size.
_ROUNDING_FLOOR = 4.0 * math.ulp(1.0)


@dataclass(frozen=True)
class Placement:
    """Rigid motion: rotate by ``rotate`` about the origin, then translate.

    ``cos(rotate)`` and ``sin(rotate)`` are computed once, at construction,
    and kept as non-field attributes: equality, hashing, ``repr`` and
    serialization see only the three fields, and ``dataclasses.replace``
    builds a new instance that computes them afresh.  The ``_xy`` and
    ``_rotate`` methods are the float-level transforms behind the public
    ones.
    """

    tx: float = 0.0
    ty: float = 0.0
    rotate: float = 0.0

    def __post_init__(self) -> None:
        if not (
            math.isfinite(self.tx)
            and math.isfinite(self.ty)
            and math.isfinite(self.rotate)
        ):
            raise ValueError("placement parameters must be finite")
        object.__setattr__(self, "_cos", math.cos(self.rotate))
        object.__setattr__(self, "_sin", math.sin(self.rotate))

    def _xy_to_scene(self, x: float, y: float) -> tuple[float, float]:
        c, s = self._cos, self._sin
        return x * c - y * s + self.tx, x * s + y * c + self.ty

    def _xy_to_canonical(self, x: float, y: float) -> tuple[float, float]:
        c, s = self._cos, self._sin
        x = x - self.tx
        y = y - self.ty
        return x * c + y * s, -x * s + y * c

    def _rotate_to_scene(self, x: float, y: float) -> tuple[float, float]:
        c, s = self._cos, self._sin
        return x * c - y * s, x * s + y * c

    def _rotate_to_canonical(self, x: float, y: float) -> tuple[float, float]:
        c, s = self._cos, self._sin
        return x * c + y * s, -x * s + y * c

    def to_scene(self, p: Point) -> Point:
        _require_type("p", p, Point)
        return Point(*self._xy_to_scene(p.x, p.y))

    def to_canonical(self, p: Point) -> Point:
        _require_type("p", p, Point)
        return Point(*self._xy_to_canonical(p.x, p.y))

    def dir_to_scene(self, d: Direction) -> Direction:
        _require_type("d", d, Direction)
        return Direction(*self._rotate_to_scene(d.x, d.y))

    def dir_to_canonical(self, d: Direction) -> Direction:
        _require_type("d", d, Direction)
        return Direction(*self._rotate_to_canonical(d.x, d.y))


@dataclass(frozen=True)
class Projection:
    """Result of projecting a point onto a curve."""

    foot: Point
    param: float
    distance: float


@dataclass(frozen=True)
class Conic:
    """A conic shape together with its placement in the scene."""

    shape: Shape
    placement: Placement = Placement()

    @property
    def kind(self) -> str:
        return self.shape.kind

    @property
    def scale(self) -> float:
        """Characteristic length: the sum of the shape's two lengths
        (``a + b``, or ``2p``).  Tolerances read the shape's ``_unit`` instead."""
        return self.shape.scale

    # ------------------------------------------------------------ residual

    def residual(self, q: Point) -> float:
        """Signed focal-distance residual of ``q`` (zero on the curve)."""
        _require_type("q", q, Point)
        x, y = self.placement._xy_to_canonical(q.x, q.y)
        _require_finite(x, y)
        return self.shape._residual(x, y)

    def is_on_curve(self, q: Point, tolerances: Tolerances = DEFAULT) -> bool:
        """Whether ``q`` passes ``_require_on_curve``, the one on-curve check."""
        _require_type("q", q, Point)
        try:
            self._require_on_curve(q.x, q.y, tolerances)
        except OffCurveError:
            return False
        return True

    def _require_on_curve(
        self, x: float, y: float, tolerances: Tolerances, what: str = "point"
    ) -> tuple[float, float]:
        """Canonical-frame coordinates of the scene point ``(x, y)``; the one
        on-curve check.  Raises OffCurveError, naming the point as ``what``,
        when its residual exceeds ``_on_curve_limit`` or is NaN."""
        xc, yc = self.placement._xy_to_canonical(x, y)
        _require_finite(xc, yc)
        res = self.shape._residual(xc, yc)
        limit = self._on_curve_limit(xc, yc, tolerances)
        if not abs(res) <= limit:  # a NaN residual is off the curve too
            raise OffCurveError(
                f"{what} ({x!r}, {y!r}) is off the curve: "
                f"residual {res!r} exceeds {limit!r}"
            )
        return xc, yc

    def _on_curve_limit(self, xc: float, yc: float, tolerances: Tolerances) -> float:
        """The |residual| ``_require_on_curve`` allows at the canonical point
        ``(xc, yc)``: ``tolerances.on_curve`` in the conic's unit, plus the
        rounding floor of a residual there, which grows with the point."""
        # Each coordinate is scaled before the sum, which cannot overflow.
        return (tolerances.on_curve * self.shape._unit
                + _ROUNDING_FLOOR * abs(xc) + _ROUNDING_FLOOR * abs(yc))

    # ------------------------------------------------- tangent and normal

    def tangent_normal(
        self, q: Point, tolerances: Tolerances = DEFAULT
    ) -> tuple[Direction, Direction]:
        """Unit tangent and unit normal of the curve at an on-curve point.

        The normal is the normalized gradient of the canonical implicit
        form (pointing toward increasing implicit value) mapped to scene
        coordinates; the tangent is the normal rotated by -pi/2, so
        (tangent, normal) is a right-handed frame.  Raises OffCurveError
        when the residual at ``q`` exceeds ``tolerances.on_curve`` in the
        conic's unit plus the rounding floor at ``q``, and ValueError for a
        shape too thin for its gradient (``_require_thick``).
        """
        _require_type("q", q, Point)
        _require_thick(self.shape)
        gx, gy = _unit_gradient(self.shape, *self._require_on_curve(q.x, q.y, tolerances))
        normal = _unit_unchecked(*_normalized(*self.placement._rotate_to_scene(gx, gy)))
        return normal.perpendicular(), normal

    # ----------------------------------------------------- parametrization

    def point_at(self, t: float) -> Point:
        """Scene-frame point at parameter ``t``: ``_xys_at`` of the one
        parameter.

        Ellipse: ``(a cos t, b sin t)``; parabola: ``(t, t^2/(4p))``;
        hyperbola: ``(branch * a cosh t, b sinh t)`` on the selected branch.
        """
        xs, ys = self._xys_at((t,))
        return Point(xs[0], ys[0])

    def _xys_at(self, ts: Sequence[float]) -> tuple[list[float], list[float]]:
        """Scene-frame columns ``(xs, ys)`` at the parameters ``ts``: the one
        parametric path, shared by ``point_at`` and figure sampling.

        The canonical columns come from one kernel call and are placed in
        one pass each.  If a parameter is past the float range or a sample is
        not finite, the first such sample in ``ts`` is named, and a
        non-finite canonical pair before the scene pair it maps to.
        """
        pl = self.placement
        c, s, tx, ty = pl._cos, pl._sin, pl.tx, pl.ty
        isfinite = math.isfinite
        try:
            xcs, ycs = self.shape._points(ts)
            xs = [x * c - y * s + tx for x, y in zip(xcs, ycs)]
            ys = [x * s + y * c + ty for x, y in zip(xcs, ycs)]
            if all(map(isfinite, xs)) and all(map(isfinite, ys)):
                return xs, ys
        except OverflowError:  # cosh and sinh past |t| ~ 710
            pass
        for t in ts:  # the batch failed: find its first bad sample
            try:
                (x,), (y,) = self.shape._points((t,))
            except OverflowError as exc:
                raise ValueError(f"parameter t={t!r} is past the float range") from exc
            _require_finite(x, y)
            _require_finite(*pl._xy_to_scene(x, y))
        raise AssertionError("a failed batch repeats its failure sample by sample")

    # ------------------------------------------------------------ nearest

    def project_to_curve(self, q: Point) -> Projection:
        """Nearest point on the curve to ``q``.

        The foot of the normal is solved for directly in the canonical
        frame: the root of the Lagrange secular function on a closed-form
        bracket for the ellipse and hyperbola, a closed-form cubic root for
        the parabola; no tolerance applies.  Mirror-image ties on an axis of
        symmetry go to the upper ellipse foot and to the negative parameter
        on the parabola and hyperbola.  Raises ValueError for the one
        genuinely ambiguous input (the exact center of an ellipse, where
        antipodal feet tie) and for a point so far out that its foot is not
        representable in floats, and IterationError if the root search hits
        its step cap.
        """
        _require_type("q", q, Point)
        qc = self.placement.to_canonical(q)
        t, fx, fy = _foot_xy(self.shape, qc.x, qc.y)
        foot = Point(*self.placement._xy_to_scene(fx, fy))
        return Projection(foot=foot, param=t, distance=q.distance_to(foot))

    # -------------------------------------------------------------- foci

    def focus_points(self) -> tuple[Point, ...]:
        """Scene-frame foci.

        Ellipse: both foci, the canonical ``(-c, 0)`` first.  Parabola: a
        single focus.  Hyperbola: (near, far) relative to its branch.
        """
        s = self.shape
        if isinstance(s, Parabola):
            return (self.placement.to_scene(s.focus),)
        f1, f2 = s.foci
        return (self.placement.to_scene(f1), self.placement.to_scene(f2))


def _foot_xy(shape: Shape, x: float, y: float) -> tuple[float, float, float]:
    """The foot of the normal from the canonical point ``(x, y)``, as its
    parameter and canonical coordinates ``(t, fx, fy)``: the one nearest-point
    path, shared by ``project_to_curve`` and the halving sweep.  Raises
    IterationError if the root search hits its step cap, and ValueError if
    the kernels cannot represent the foot of a finite point (its squares
    overflow near the float maximum)."""
    try:
        t, ok = shape._nearest(x, y)
    except ZeroDivisionError:  # the kernel's squares left the float range
        fx = fy = math.nan
    else:
        if not ok:
            raise IterationError(
                f"nearest-point search did not converge for the canonical point ({x!r}, {y!r})"
            )
        (fx,), (fy,) = shape._points((t,))
    if not (math.isfinite(fx) and math.isfinite(fy)):
        raise ValueError(
            f"the foot of the normal from the canonical point ({x!r}, {y!r}) "
            "is not representable in floats"
        )
    return t, fx, fy


def as_conic(obj: Conic | Shape) -> Conic:
    """Coerce a bare shape to a Conic with the identity placement."""
    if isinstance(obj, Conic):
        return obj
    if isinstance(obj, Shape):
        return Conic(obj)
    raise TypeError(f"expected a conic or shape, got {type(obj).__name__}")

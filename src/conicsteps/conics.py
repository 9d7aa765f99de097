"""Conic shapes, rigid placements, and curve-level operations.

Each shape is defined in a canonical pose:

* Ellipse: ``x^2/a^2 + y^2/b^2 = 1`` with ``a >= b > 0``; foci at
  ``(-c, 0)`` and ``(c, 0)``, ``c = sqrt(a^2 - b^2)``.
* Parabola: ``x^2 = 4 p y`` with ``p > 0``; vertex at the origin, opening
  along +y, focus ``(0, p)``, directrix ``y = -p``.
* Hyperbola: ``x^2/a^2 - y^2/b^2 = 1`` with ``a, b > 0``; a single branch
  is selected by ``branch`` (+1 opens toward +x, -1 toward -x), and
  ``c = sqrt(a^2 + b^2)``.

A ``Placement`` is a rotation followed by a translation; ``Conic`` pairs a
shape with a placement and exposes every curve operation in scene
coordinates: the signed residual, tangent/normal frames, parametric points,
nearest-point projection, and focus locations.

Residual conventions (distances measured in the canonical frame):

* ellipse: ``|q - F1| + |q - F2| - 2a`` (negative inside);
* parabola: ``dist(q, focus) - dist(q, directrix)`` (positive on the
  convex side, below the curve);
* hyperbola: ``far - near - 2a`` where the near focus is picked by the
  sign of the canonical x coordinate.  Points with canonical ``x == 0``
  belong to neither branch and raise NoBranchError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from ._backend import kernels
from .config import DEFAULT, Tolerances
from .errors import IterationError, NoBranchError, OffCurveError
from .geometry import Direction, Point

__all__ = [
    "Ellipse",
    "Parabola",
    "Hyperbola",
    "Placement",
    "Conic",
    "Projection",
    "as_conic",
]


@dataclass(frozen=True)
class Ellipse:
    """Axis-aligned ellipse with semi-major ``a`` and semi-minor ``b``."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("ellipse axes must be finite")
        if self.b <= 0.0 or self.a < self.b:
            raise ValueError(
                f"ellipse requires a >= b > 0, got a={self.a}, b={self.b}"
            )

    @property
    def c(self) -> float:
        """Linear eccentricity (center-to-focus distance)."""
        return math.sqrt(self.a * self.a - self.b * self.b)

    @property
    def foci(self) -> tuple[Point, Point]:
        c = self.c
        return (Point(-c, 0.0), Point(c, 0.0))

    @property
    def scale(self) -> float:
        return self.a + self.b


@dataclass(frozen=True)
class Parabola:
    """Parabola ``x^2 = 4 p y`` with focal length ``p``."""

    p: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.p) or self.p <= 0.0:
            raise ValueError(f"parabola requires p > 0, got p={self.p}")

    @property
    def focus(self) -> Point:
        return Point(0.0, self.p)

    @property
    def directrix_y(self) -> float:
        return -self.p

    @property
    def scale(self) -> float:
        return 2.0 * self.p


@dataclass(frozen=True)
class Hyperbola:
    """One branch of ``x^2/a^2 - y^2/b^2 = 1``.

    ``branch`` is +1 for the branch opening toward +x and -1 for the one
    opening toward -x.  Focus bookkeeping is branch-relative: the first
    focus is the near one (inside the selected branch), the second is the
    far one.
    """

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
        if self.branch not in (1, -1):
            raise ValueError(f"branch must be +1 or -1, got {self.branch}")

    @property
    def c(self) -> float:
        """Linear eccentricity (center-to-focus distance)."""
        return math.sqrt(self.a * self.a + self.b * self.b)

    @property
    def foci(self) -> tuple[Point, Point]:
        """(near focus, far focus) relative to the selected branch."""
        c = self.c
        return (Point(self.branch * c, 0.0), Point(-self.branch * c, 0.0))

    @property
    def scale(self) -> float:
        return self.a + self.b


Shape = Ellipse | Parabola | Hyperbola


@dataclass(frozen=True)
class Placement:
    """Rigid motion: rotate by ``rotate`` about the origin, then translate."""

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

    def to_scene(self, p: Point) -> Point:
        c = math.cos(self.rotate)
        s = math.sin(self.rotate)
        return Point(p.x * c - p.y * s + self.tx, p.x * s + p.y * c + self.ty)

    def to_canonical(self, p: Point) -> Point:
        c = math.cos(self.rotate)
        s = math.sin(self.rotate)
        x = p.x - self.tx
        y = p.y - self.ty
        return Point(x * c + y * s, -x * s + y * c)

    def dir_to_scene(self, d: Direction) -> Direction:
        c = math.cos(self.rotate)
        s = math.sin(self.rotate)
        return Direction(d.x * c - d.y * s, d.x * s + d.y * c)

    def dir_to_canonical(self, d: Direction) -> Direction:
        c = math.cos(self.rotate)
        s = math.sin(self.rotate)
        return Direction(d.x * c + d.y * s, -d.x * s + d.y * c)


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
        if isinstance(self.shape, Ellipse):
            return "ellipse"
        if isinstance(self.shape, Parabola):
            return "parabola"
        return "hyperbola"

    @property
    def scale(self) -> float:
        """Characteristic length used to make tolerances dimensionless."""
        return self.shape.scale

    # ------------------------------------------------------------ residual

    def residual(self, q: Point) -> float:
        """Signed focal-distance residual of ``q`` (zero on the curve)."""
        qc = self.placement.to_canonical(q)
        s = self.shape
        if isinstance(s, Ellipse):
            return kernels.ellipse_residual(s.a, s.b, qc.x, qc.y)
        if isinstance(s, Parabola):
            return kernels.parabola_residual(s.p, qc.x, qc.y)
        if qc.x == 0.0:
            raise NoBranchError(
                "point lies on the axis of symmetry between branches; "
                "the residual is defined per branch"
            )
        return kernels.hyperbola_residual(s.a, s.b, qc.x, qc.y)

    def is_on_curve(self, q: Point, tol: float | None = None) -> bool:
        if tol is None:
            tol = DEFAULT.on_curve
        return abs(self.residual(q)) <= tol * (1.0 + self.scale)

    # ------------------------------------------------- tangent and normal

    def tangent_normal(self, q: Point, tol: float | None = None) -> tuple[Direction, Direction]:
        """Unit tangent and unit normal of the curve at an on-curve point.

        The normal is the normalized gradient of the canonical implicit
        form (pointing toward increasing implicit value) mapped to scene
        coordinates; the tangent is the normal rotated by -pi/2, so
        (tangent, normal) is a right-handed frame.  Raises OffCurveError
        when ``q`` is not on the curve within ``tol * (1 + scale)``.
        """
        if tol is None:
            tol = DEFAULT.on_curve
        res = self.residual(q)
        if abs(res) > tol * (1.0 + self.scale):
            raise OffCurveError(
                f"point ({q.x!r}, {q.y!r}) is off the curve: "
                f"residual {res!r} exceeds {tol * (1.0 + self.scale)!r}"
            )
        qc = self.placement.to_canonical(q)
        s = self.shape
        if isinstance(s, Ellipse):
            gx, gy = kernels.ellipse_gradient(s.a, s.b, qc.x, qc.y)
        elif isinstance(s, Parabola):
            gx, gy = kernels.parabola_gradient(s.p, qc.x, qc.y)
        else:
            gx, gy = kernels.hyperbola_gradient(s.a, s.b, qc.x, qc.y)
        normal = self.placement.dir_to_scene(Direction(gx, gy))
        return normal.perpendicular(), normal

    # ----------------------------------------------------- parametrization

    def point_at(self, t: float) -> Point:
        """Scene-frame point at parameter ``t``.

        Ellipse: ``(a cos t, b sin t)``; parabola: ``(t, t^2/(4p))``;
        hyperbola: ``(sigma a cosh t, b sinh t)`` on the selected branch.
        """
        s = self.shape
        if isinstance(s, Ellipse):
            x, y = kernels.ellipse_point(s.a, s.b, t)
        elif isinstance(s, Parabola):
            x, y = kernels.parabola_point(s.p, t)
        else:
            x, y = kernels.hyperbola_point(s.a, s.b, s.branch, t)
        return self.placement.to_scene(Point(x, y))

    # ------------------------------------------------------------ nearest

    def project_to_curve(self, q: Point, tolerances: Tolerances = DEFAULT) -> Projection:
        """Nearest point on the curve to ``q``.

        A coarse parameter grid seeds a damped Newton iteration on the
        stationarity condition of the squared distance.  Raises ValueError
        for the one genuinely ambiguous input (the exact center of an
        ellipse, where antipodal feet tie) and IterationError if the
        iteration fails to settle.
        """
        qc = self.placement.to_canonical(q)
        s = self.shape
        grid = tolerances.nearest_grid
        it = tolerances.nearest_max_iter
        if isinstance(s, Ellipse):
            if qc.x == 0.0 and qc.y == 0.0:
                raise ValueError(
                    "nearest point is ambiguous at the ellipse center"
                )
            t, ok = kernels.ellipse_nearest_param(s.a, s.b, qc.x, qc.y, grid, it)
        elif isinstance(s, Parabola):
            w = abs(qc.x) + math.sqrt(4.0 * s.p * max(qc.y, 0.0)) + 4.0 * s.p + 1.0
            t, ok = kernels.parabola_nearest_param(s.p, qc.x, qc.y, -w, w, grid, it)
        else:
            w = math.asinh((abs(qc.x) + abs(qc.y)) / min(s.a, s.b)) + 2.0
            t, ok = kernels.hyperbola_nearest_param(
                s.a, s.b, s.branch, qc.x, qc.y, -w, w, grid, it
            )
        if not ok:
            raise IterationError(
                f"nearest-point search did not converge for ({q.x!r}, {q.y!r})"
            )
        foot = self.point_at(t)
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


def as_conic(obj: Conic | Shape) -> Conic:
    """Coerce a bare shape to a Conic with the identity placement."""
    if isinstance(obj, Conic):
        return obj
    if isinstance(obj, (Ellipse, Parabola, Hyperbola)):
        return Conic(obj)
    raise TypeError(f"expected a conic or shape, got {type(obj).__name__}")

"""Planar points, directions, lines, and reflection arithmetic.

Everything downstream (step constructions, ray tracing, figure output) is
built on these small immutable value types.  Angles are in radians
throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateDirectionError

_MIN_DIRECTION_NORM = 1e-300


@dataclass(frozen=True)
class Point:
    """A position in the plane.  Coordinates must be finite."""

    x: float
    y: float

    def __post_init__(self) -> None:
        _require_finite(self.x, self.y)

    def __sub__(self, other: "Point") -> tuple[float, float]:
        """Displacement ``self - other`` as an (dx, dy) tuple."""
        return (self.x - other.x, self.y - other.y)

    def distance_to(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class Direction:
    """A unit vector.  The constructor normalizes its input.

    Raises DegenerateDirectionError when the input is too short to
    normalize reliably (norm below 1e-300) or not finite.
    """

    x: float
    y: float

    def __post_init__(self) -> None:
        x, y = _normalized(self.x, self.y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def perpendicular(self) -> "Direction":
        """This direction rotated by -pi/2 (clockwise quarter turn).

        Components are swapped, not renormalized, so the result is bitwise
        orthogonal: ``d.dot(d.perpendicular()) == 0.0`` exactly.
        """
        return _unit_unchecked(self.y, -self.x)

    def reversed(self) -> "Direction":
        return _unit_unchecked(-self.x, -self.y)

    def dot(self, other: "Direction") -> float:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Direction") -> float:
        return self.x * other.y - self.y * other.x


def _require_count(name: str, value: int, minimum: int) -> None:
    """Raise ValueError unless ``value`` is an int, not a bool, >= ``minimum``."""
    if type(value) is not int or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _require_type(name: str, value: object, cls: type) -> None:
    """The one type check at the API edge: raise a TypeError naming ``name``
    unless ``value`` is a ``cls``."""
    if not isinstance(value, cls):
        raise TypeError(f"{name} must be a {cls.__name__}, got {value!r}")


def _require_finite(x: float, y: float) -> None:
    """The check every Point makes: raise ValueError unless both are finite."""
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"point coordinates must be finite, got ({x}, {y})")


def _normalized(x: float, y: float) -> tuple[float, float]:
    """``(x, y)`` divided by its ``hypot``: the normalization every Direction gets.

    Finite components whose norm overflows are halved first, which is exact.
    Raises DegenerateDirectionError when the input is not finite or its
    norm is below 1e-300.
    """
    n = math.hypot(x, y)
    if not _MIN_DIRECTION_NORM <= n < math.inf:  # a finite n means finite components
        if not (math.isfinite(x) and math.isfinite(y)):
            raise DegenerateDirectionError(
                f"direction components must be finite, got ({x}, {y})"
            )
        if n == math.inf:
            x, y = 0.5 * x, 0.5 * y
            n = math.hypot(x, y)
        if n < _MIN_DIRECTION_NORM:
            raise DegenerateDirectionError(f"cannot normalize a vector of norm {n!r}")
    return x / n, y / n


def _unit_unchecked(x: float, y: float) -> Direction:
    """Build a Direction from components already known to be unit length."""
    d = object.__new__(Direction)
    object.__setattr__(d, "x", x)
    object.__setattr__(d, "y", y)
    return d


@dataclass(frozen=True)
class Line:
    """An infinite line through ``point`` along ``direction``."""

    point: Point
    direction: Direction

    def distance_to(self, q: Point) -> float:
        """Perpendicular distance from ``q`` to the line."""
        dx, dy = q - self.point
        return abs(dx * self.direction.y - dy * self.direction.x)


def direction(frm: Point, to: Point) -> Direction:
    """Unit direction from ``frm`` toward ``to``."""
    dx, dy = to - frm
    return Direction(dx, dy)


def translate(p: Point, d: Direction, dist: float) -> Point:
    """The point ``dist`` along ``d`` from ``p``."""
    return Point(p.x + dist * d.x, p.y + dist * d.y)


def reflect_direction(d: Direction, mirror: Line) -> Direction:
    """Reflect direction ``d`` across the line ``mirror``.

    The component along the mirror is kept and the perpendicular component
    is negated: ``r = 2 (d . m) m - d`` with ``m`` the unit mirror
    direction.  The result is unit length by construction.
    """
    m = mirror.direction
    return _unit_unchecked(*_reflect_xy(d.x, d.y, m.x, m.y))


def _reflect_xy(dx: float, dy: float, mx: float, my: float) -> tuple[float, float]:
    """``reflect_direction`` on floats: ``(dx, dy)`` reflected across the unit
    mirror direction ``(mx, my)``, normalized as every Direction is."""
    s = dx * mx + dy * my
    x, y = 2.0 * s * mx - dx, 2.0 * s * my - dy
    n = math.hypot(x, y)
    if _MIN_DIRECTION_NORM <= n < math.inf:  # _normalized's common case, inline
        return x / n, y / n
    return _normalized(x, y)


def angle_between(u: Direction, v: Direction) -> float:
    """Unsigned angle between two directions, in [0, pi].

    Computed as atan2(|cross|, dot), which stays accurate for nearly
    parallel and nearly opposite pairs alike.
    """
    return _angle_xy(u.x, u.y, v.x, v.y)


def _angle_xy(ux: float, uy: float, vx: float, vy: float) -> float:
    """``angle_between`` the unit vectors ``(ux, uy)`` and ``(vx, vy)``."""
    return math.atan2(abs(ux * vy - uy * vx), ux * vx + uy * vy)


def scalar_projection(step: tuple[float, float], onto: Direction) -> float:
    """Signed length of ``step`` along the unit direction ``onto``."""
    return step[0] * onto.x + step[1] * onto.y


__all__ = [
    "Point",
    "Direction",
    "Line",
    "direction",
    "translate",
    "reflect_direction",
    "angle_between",
    "scalar_projection",
]

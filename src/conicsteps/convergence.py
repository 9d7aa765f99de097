"""Halving sweeps that measure how fast the two-step walk closes up.

A sweep fixes a conic, an on-curve anchor, and an initial step ``delta0``,
then halves the step ``halvings`` times, recording at each level:

* ``residual_B``: |curve residual at the landing point B|;
* ``chord_tangent_angle``: angle between the chord direction of the two
  unit steps u1, u2 (``construction._chord_xy``), parallel to A-B, and the
  analytic tangent at A (folded to [0, pi/2]: chords are undirected);
* ``apex_curve_distance``: distance from the apex D to the curve;
* ``parallelism_error``: the angle between the second steps from A and
  from B, subtended at the focus that step aims at or leaves;
* ``exact_return_gap``: |t* - delta| from the exact-return variant.

Orders are fitted as the mean of log2 ratios of successive values, skipping
values at the rounding noise floor (``noise_floor`` for the lengths, a
fixed one for the angles), so the reported exponent is the
empirical rate at which each quantity vanishes as delta -> 0.  Each level
takes one walk through construction's float core and derives every metric
from it on floats, with the checks and errors of the public functions.
Everything is measured in the conic's canonical frame, from the anchor's
canonical coordinates, so a sweep does not depend on the conic's placement:
the scene is only the public edge, where the anchor comes in.
"""
from __future__ import annotations

import math
import sys
from collections.abc import Iterable
from dataclasses import dataclass

from .config import DEFAULT, METRICS, Tolerances
from .conics import Conic, Ellipse, Hyperbola, Parabola, Shape, _foot_xy, as_conic
from .construction import (Orientation, _check_step, _chord_xy, _parallelism, _retraced,
                           _return_xy, _walk_xy)
from .errors import ConicError
from .geometry import Direction, Point, _angle_xy, _require_count, _require_type

__all__ = [
    "METRICS",
    "SweepConfig",
    "OrderEstimate",
    "ConvergenceReport",
    "run_sweep",
    "estimate_order",
    "noise_floor",
    "standard_anchors",
]


@dataclass(frozen=True)
class SweepConfig:
    """Inputs of a halving sweep.

    ``metrics`` may be None to request every metric, ``METRICS``, which
    every conic family measures.
    """

    conic: Conic
    anchor: Point
    delta0: float
    halvings: int
    metrics: tuple[str, ...] | None = None
    orientation: Orientation = "forward"

    def __post_init__(self) -> None:
        object.__setattr__(self, "conic", as_conic(self.conic))
        _require_type("anchor", self.anchor, Point)
        _check_step(self.delta0, self.orientation)
        _require_count("halvings", self.halvings, 2)
        # 2.0**max_exp overflows; a positive last step makes every level positive
        if self.halvings >= sys.float_info.max_exp or not self.delta0 / 2.0**self.halvings > 0.0:
            raise ValueError(f"halvings={self.halvings} halves delta0={self.delta0!r} "
                             "past the float range")
        if self.metrics is not None:
            names = tuple(self.metrics)
            if isinstance(self.metrics, str) or not names or len(set(names)) < len(names):
                raise ValueError("metrics must be a non-empty sequence of distinct names, "
                                 f"got {self.metrics!r}")
            for name in names:
                if name not in METRICS:
                    raise ValueError(
                        f"unknown metric {name!r}; expected a subset of {METRICS}"
                    )
            object.__setattr__(self, "metrics", names)

    def resolved_metrics(self) -> tuple[str, ...]:
        return METRICS if self.metrics is None else self.metrics


@dataclass(frozen=True)
class OrderEstimate:
    """A fitted convergence order and how many halving ratios produced it.

    ``order`` is None when every ratio fell below the noise floor --
    deliberately distinct from an order of 0.
    """

    order: float | None
    ratios_used: int


@dataclass(frozen=True)
class ConvergenceReport:
    """Sweep measurements plus fitted orders and asymptotic constants.

    ``deltas`` decrease strictly (each level halves the last).  When a
    level fails to construct, the report is truncated and carries the
    failing level and reason.  ``constants`` estimates c in
    ``metric ~ c * delta^order`` from the last clean level.
    """

    config: SweepConfig
    deltas: tuple[float, ...]
    values: dict[str, tuple[float, ...]]
    orders: dict[str, OrderEstimate]
    constants: dict[str, float | None]
    failed_level: int | None = None
    failure: str | None = None

    @property
    def metric_names(self) -> tuple[str, ...]:
        return tuple(self.values.keys())

    def to_csv(self) -> str:
        """Deterministic CSV: data rows then order/ratios/constant footers."""
        names = self.metric_names
        lines = ["delta," + ",".join(names)]
        for k, d in enumerate(self.deltas):
            row = [_fmt(d)] + [_fmt(self.values[m][k]) for m in names]
            lines.append(",".join(row))
        lines.append("order," + ",".join(_fmt(self.orders[m].order) for m in names))
        lines.append("ratios_used," + ",".join(str(self.orders[m].ratios_used) for m in names))
        lines.append("constant," + ",".join(_fmt(self.constants[m]) for m in names))
        return "\n".join(lines) + "\n"


def _fmt(v: float | None) -> str:
    """Full precision; an empty field for a missing order or constant."""
    return "" if v is None else "%.17g" % v


#: noise floor for order fitting, in machine epsilons times the conic's length unit.
_NOISE_FLOOR_EPSILONS = 100.0
#: the metrics that are angles, and their noise floor: as many epsilons, in
#: radians, as an angle has no length.
_ANGLE_METRICS = ("chord_tangent_angle", "parallelism_error")
_ANGLE_FLOOR = _NOISE_FLOOR_EPSILONS * sys.float_info.epsilon


def noise_floor(conic: Conic | Shape) -> float:
    """Lengths below this are rounding noise for curves of this size: the
    floor in the conic's length unit, the shape's ``_unit``.  The angle
    metrics are fitted against a floor of their own, in radians."""
    return _NOISE_FLOOR_EPSILONS * sys.float_info.epsilon * as_conic(conic).shape._unit


def estimate_order(values: Iterable[float], floor: float) -> OrderEstimate:
    """Mean log2 ratio of successive values, skipping noise-floor pairs.
    ``values`` may be any iterable: it is read once, into a tuple."""
    values = tuple(values)
    ratios: list[float] = []
    for v0, v1 in zip(values, values[1:]):
        if v0 > floor and v1 > floor:
            ratios.append(math.log2(v0 / v1))
    if not ratios:
        return OrderEstimate(order=None, ratios_used=0)
    return OrderEstimate(order=math.fsum(ratios) / len(ratios), ratios_used=len(ratios))


def _measure_level(cfg: SweepConfig, names: tuple[str, ...], ac: tuple[float, float],
                   delta: float, tangent: Direction | None
                   ) -> dict[str, float]:
    """Every requested metric at step ``delta``, from one walk on canonical
    floats: ``ac`` is the anchor and ``tangent`` its unit tangent, both in
    the canonical frame."""
    shape, (ax, ay), orientation = cfg.conic.shape, ac, cfg.orientation
    u1x, u1y, dx, dy, u2x, u2y, bx, by = _walk_xy(shape, ax, ay, delta, orientation)
    if _retraced(shape, ax, ay, bx, by):
        # A retraced walk has no triangle to measure; every metric is
        # identically zero at every level.
        return {m: 0.0 for m in names}
    out: dict[str, float] = {}
    for m in names:
        if m == "residual_B":
            out[m] = abs(shape._residual(bx, by))
        elif m == "chord_tangent_angle":
            theta = _angle_xy(*_chord_xy(u1x, u1y, u2x, u2y), tangent.x, tangent.y)
            out[m] = min(theta, math.pi - theta)
        elif m == "apex_curve_distance":
            _, fx, fy = _foot_xy(shape, dx, dy)
            out[m] = math.hypot(dx - fx, dy - fy)
        elif m == "parallelism_error":
            out[m] = _parallelism(shape, ax, ay, bx, by, orientation)
        else:
            out[m] = abs(_return_xy(shape, dx, dy, u2x, u2y, delta)[0] - delta)
    return out


def run_sweep(cfg: SweepConfig, tolerances: Tolerances = DEFAULT) -> ConvergenceReport:
    """Measure every requested metric at delta0 / 2^k for k = 0..halvings.

    The anchor must be on the curve.  If some level fails to construct
    (for example the exact-return bracket breaks at a large step), the
    report keeps the levels measured so far and records the failing level
    and reason instead of raising.
    """
    conic = cfg.conic
    ac = conic._require_on_curve(cfg.anchor.x, cfg.anchor.y, tolerances, "sweep anchor")
    names = cfg.resolved_metrics()
    tangent = None  # fixed anchor and tolerances: one tangent for every level
    if "chord_tangent_angle" in names:
        tangent, _ = Conic(conic.shape).tangent_normal(Point(*ac), tolerances)
    deltas: list[float] = []
    columns: dict[str, list[float]] = {m: [] for m in names}
    failed_level: int | None = None
    failure: str | None = None
    for k in range(cfg.halvings + 1):
        delta = cfg.delta0 / (2.0**k)
        try:
            row = _measure_level(cfg, names, ac, delta, tangent)
        except ConicError as exc:
            failed_level = k
            failure = f"{type(exc).__name__}: {exc}"
            break
        deltas.append(delta)
        for m in names:
            columns[m].append(row[m])
    length_floor = noise_floor(conic)
    floors = {m: _ANGLE_FLOOR if m in _ANGLE_METRICS else length_floor for m in names}
    values = {m: tuple(columns[m]) for m in names}
    orders = {m: estimate_order(values[m], floors[m]) for m in names}
    constants: dict[str, float | None] = dict.fromkeys(names)
    for m in names:
        order = orders[m].order
        if order is not None:  # then some value is above the floor
            d, v = next((d, v) for d, v in zip(reversed(deltas), reversed(values[m]))
                        if v > floors[m])
            try:
                constants[m] = v / d**order
            except (OverflowError, ZeroDivisionError):  # d**order is past the float range:
                mant, e = math.frexp(d)  # split it at d's binary exponent
                c = v / mant**order / 2.0 ** (e * order % 1.0)
                try:
                    constants[m] = math.ldexp(c, -math.floor(e * order))
                except OverflowError:  # the constant is past it too: inf, as v / d**order reads
                    constants[m] = math.inf
    return ConvergenceReport(
        config=cfg,
        deltas=tuple(deltas),
        values=values,
        orders=orders,
        constants=constants,
        failed_level=failed_level,
        failure=failure,
    )


def standard_anchors() -> tuple[tuple[Conic, Point], ...]:
    """The fixture anchors: 8 vertex-avoiding points per conic family."""
    out: list[tuple[Conic, Point]] = []
    for shape, params in (
        (Ellipse(5.0, 3.0), (0.35, 1.1, 1.9, 2.6, 3.5, 4.2, 5.0, 5.8)),
        (Parabola(1.0), (-2.2, -1.5, -0.9, -0.4, 0.4, 0.9, 1.5, 2.2)),
        (Hyperbola(3.0, 4.0), (-1.2, -0.9, -0.6, -0.3, 0.2, 0.5, 0.8, 1.1)),
    ):
        conic = Conic(shape)
        out.extend((conic, conic.point_at(t)) for t in params)
    return tuple(out)

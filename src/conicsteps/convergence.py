"""Halving sweeps that measure how fast the two-step walk closes up.

A sweep fixes a conic, an on-curve anchor, and an initial step ``delta0``,
then halves the step ``halvings`` times, recording at each level:

* ``residual_B``: |curve residual at the landing point B|;
* ``chord_tangent_angle``: angle between the chord A-B and the analytic
  tangent at A (folded to [0, pi/2]: chords are undirected);
* ``apex_curve_distance``: distance from the apex D to the curve;
* ``parallelism_error``: focal-direction spread between A and B (two-focus
  conics only);
* ``exact_return_gap``: |t* - delta| from the exact-return variant.

Orders are fitted as the mean of log2 ratios of successive values, skipping
values at the rounding noise floor, so the reported exponent is the
empirical rate at which each quantity vanishes as delta -> 0.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from importlib import resources

from .config import DEFAULT, Tolerances
from .conics import Conic, Ellipse, Hyperbola, Parabola, Shape, as_conic
from .construction import (
    Orientation,
    exact_return,
    focal_change_error,
    two_step,
)
from .errors import ConicError, OffCurveError
from .geometry import Point, angle_between, direction

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

METRICS = (
    "residual_B",
    "chord_tangent_angle",
    "apex_curve_distance",
    "parallelism_error",
    "exact_return_gap",
)


@dataclass(frozen=True)
class SweepConfig:
    """Inputs of a halving sweep.

    ``metrics`` may be None to request every metric applicable to the
    conic family (the parabola has no parallelism metric).
    """

    conic: Conic
    anchor: Point
    delta0: float
    halvings: int
    metrics: tuple[str, ...] | None = None
    orientation: Orientation = "forward"

    def __post_init__(self) -> None:
        object.__setattr__(self, "conic", as_conic(self.conic))
        if not (math.isfinite(self.delta0) and self.delta0 > 0.0):
            raise ValueError(f"delta0 must be positive, got {self.delta0}")
        if self.halvings < 2:
            raise ValueError(
                f"need >= 2 halving levels, got {self.halvings}"
            )
        if self.metrics is not None:
            object.__setattr__(self, "metrics", tuple(self.metrics))
            for name in self.metrics:
                if name not in METRICS:
                    raise ValueError(
                        f"unknown metric {name!r}; expected a subset of {METRICS}"
                    )

    def resolved_metrics(self) -> tuple[str, ...]:
        if self.metrics is not None:
            return self.metrics
        if isinstance(self.conic.shape, Parabola):
            return tuple(m for m in METRICS if m != "parallelism_error")
        return METRICS


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
        lines.append(
            "order,"
            + ",".join(
                "" if self.orders[m].order is None else _fmt(self.orders[m].order)
                for m in names
            )
        )
        lines.append(
            "ratios_used," + ",".join(str(self.orders[m].ratios_used) for m in names)
        )
        lines.append(
            "constant,"
            + ",".join(
                "" if self.constants[m] is None else _fmt(self.constants[m])
                for m in names
            )
        )
        return "\n".join(lines) + "\n"


def _fmt(v: float) -> str:
    return "%.17g" % v


def noise_floor(conic: Conic | Shape, tolerances: Tolerances = DEFAULT) -> float:
    """Values below this are rounding noise for curves of this size."""
    conic = as_conic(conic)
    return tolerances.noise_floor_epsilons * sys.float_info.epsilon * (1.0 + conic.scale)


def estimate_order(
    values: list[float] | tuple[float, ...], floor: float
) -> OrderEstimate:
    """Mean log2 ratio of successive values, skipping noise-floor pairs."""
    ratios: list[float] = []
    for v0, v1 in zip(values, values[1:]):
        if v0 > floor and v1 > floor:
            ratios.append(math.log2(v0 / v1))
    if not ratios:
        return OrderEstimate(order=None, ratios_used=0)
    return OrderEstimate(order=math.fsum(ratios) / len(ratios), ratios_used=len(ratios))


def _measure_level(
    cfg: SweepConfig, names: tuple[str, ...], delta: float, tolerances: Tolerances
) -> dict[str, float]:
    conic = cfg.conic
    tri = two_step(conic, cfg.anchor, delta, cfg.orientation, tolerances)
    if tri.degenerate:
        # A retraced walk has no triangle to measure; every metric is
        # identically zero at every level.
        return {m: 0.0 for m in names}
    out: dict[str, float] = {}
    for m in names:
        if m == "residual_B":
            out[m] = abs(tri.residual_b)
        elif m == "chord_tangent_angle":
            tangent, _ = conic.tangent_normal(cfg.anchor, tolerances.on_curve)
            theta = angle_between(direction(tri.A, tri.B), tangent)
            out[m] = min(theta, math.pi - theta)
        elif m == "apex_curve_distance":
            out[m] = conic.project_to_curve(tri.D, tolerances).distance
        elif m == "parallelism_error":
            out[m] = focal_change_error(conic, tri).parallelism_error
        else:
            out[m] = exact_return(
                conic, cfg.anchor, delta, cfg.orientation, tolerances
            ).gap
    return out


def run_sweep(cfg: SweepConfig, tolerances: Tolerances = DEFAULT) -> ConvergenceReport:
    """Measure every requested metric at delta0 / 2^k for k = 0..halvings.

    The anchor must be on the curve.  If some level fails to construct
    (for example the exact-return bracket breaks at a large step), the
    report keeps the levels measured so far and records the failing level
    and reason instead of raising.
    """
    conic = cfg.conic
    res = conic.residual(cfg.anchor)
    if abs(res) > tolerances.on_curve * (1.0 + conic.scale):
        raise OffCurveError(
            f"sweep anchor ({cfg.anchor.x!r}, {cfg.anchor.y!r}) is off the "
            f"curve: residual {res!r}"
        )
    names = cfg.resolved_metrics()
    deltas: list[float] = []
    columns: dict[str, list[float]] = {m: [] for m in names}
    failed_level: int | None = None
    failure: str | None = None
    for k in range(cfg.halvings + 1):
        delta = cfg.delta0 / (2.0**k)
        try:
            row = _measure_level(cfg, names, delta, tolerances)
        except ConicError as exc:
            failed_level = k
            failure = f"{type(exc).__name__}: {exc}"
            break
        deltas.append(delta)
        for m in names:
            columns[m].append(row[m])
    floor = noise_floor(conic, tolerances)
    values = {m: tuple(columns[m]) for m in names}
    orders = {m: estimate_order(values[m], floor) for m in names}
    constants: dict[str, float | None] = {}
    for m in names:
        est = orders[m]
        constants[m] = None
        if est.order is not None:
            for d, v in zip(reversed(deltas), reversed(values[m])):
                if v > floor:
                    constants[m] = v / d**est.order
                    break
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
    text = resources.files("conicsteps").joinpath("fixtures/anchors.json").read_text()
    data = json.loads(text)
    out: list[tuple[Conic, Point]] = []
    for family in ("ellipse", "parabola", "hyperbola"):
        entry = data[family]
        if family == "ellipse":
            conic = Conic(Ellipse(entry["a"], entry["b"]))
        elif family == "parabola":
            conic = Conic(Parabola(entry["p"]))
        else:
            conic = Conic(Hyperbola(entry["a"], entry["b"], entry.get("branch", 1)))
        for t in entry["params"]:
            out.append((conic, conic.point_at(t)))
    return tuple(out)

"""Step-halving sweeps, order estimation, and the CSV report."""
from __future__ import annotations

import math

import pytest

from conicsteps import (
    METRICS,
    Conic,
    ConvergenceReport,
    Ellipse,
    Hyperbola,
    OffCurveError,
    Parabola,
    Point,
    SweepConfig,
    Tolerances,
    UnsupportedVariantError,
    estimate_order,
    noise_floor,
    run_sweep,
    standard_anchors,
)

ELL = Conic(Ellipse(5, 3))
TOP = Point(0.0, 3.0)


class TestOrderEstimation:
    def test_quadratic_sequence(self):
        est = estimate_order([0.04, 0.01, 0.0025], floor=1e-15)
        assert est.order == pytest.approx(2.0, abs=1e-12)
        assert est.ratios_used == 2

    def test_linear_sequence(self):
        est = estimate_order([0.1, 0.05, 0.025], floor=1e-15)
        assert est.order == pytest.approx(1.0, abs=1e-12)

    def test_all_below_floor_is_undefined(self):
        est = estimate_order([1e-17, 1e-17, 1e-17], floor=1e-12)
        assert est.order is None
        assert est.ratios_used == 0

    def test_tail_below_floor_excluded(self):
        est = estimate_order([0.04, 0.01, 1e-18, 1e-18], floor=1e-15)
        assert est.ratios_used == 1
        assert est.order == pytest.approx(2.0, abs=1e-12)

    def test_noise_floor_value(self):
        eps = 2.220446049250313e-16
        assert noise_floor(ELL) == pytest.approx(100.0 * eps * 9.0, rel=1e-12)
        assert noise_floor(Parabola(1)) == pytest.approx(100.0 * eps * 3.0, rel=1e-12)


class TestSweepConfig:
    def test_delta0_must_be_positive(self):
        with pytest.raises(ValueError):
            SweepConfig(conic=ELL, anchor=TOP, delta0=0.0, halvings=4)

    def test_halvings_minimum(self):
        with pytest.raises(ValueError, match="halving"):
            SweepConfig(conic=ELL, anchor=TOP, delta0=0.1, halvings=1)

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError):
            SweepConfig(
                conic=ELL, anchor=TOP, delta0=0.1, halvings=4, metrics=("chord",)
            )

    def test_default_metrics_exclude_parallelism_for_parabola(self):
        cfg = SweepConfig(conic=Conic(Parabola(1)), anchor=Point(2, 1), delta0=0.1, halvings=4)
        assert "parallelism_error" not in cfg.resolved_metrics()
        full = SweepConfig(conic=ELL, anchor=TOP, delta0=0.1, halvings=4)
        assert full.resolved_metrics() == METRICS


class TestRunSweep:
    def test_worked_example_first_row(self):
        cfg = SweepConfig(conic=ELL, anchor=TOP, delta0=0.1, halvings=6)
        report = run_sweep(cfg)
        assert len(report.deltas) == 7
        assert report.deltas[0] == 0.1
        assert report.deltas[-1] == pytest.approx(0.1 / 64, rel=1e-15)
        # the report records metric magnitudes; the signed value is -2.31e-5
        assert report.values["residual_B"][0] == pytest.approx(
            2.3093224278625257e-05, rel=1e-9
        )
        assert report.failed_level is None
        assert report.failure is None

    def test_orders_at_generic_anchor(self):
        anchor = ELL.point_at(1.1)
        cfg = SweepConfig(conic=ELL, anchor=anchor, delta0=0.1, halvings=6)
        report = run_sweep(cfg)
        assert report.orders["residual_B"].order >= 1.8
        assert 0.8 <= report.orders["chord_tangent_angle"].order <= 1.3
        assert 0.8 <= report.orders["apex_curve_distance"].order <= 1.3
        assert report.orders["parallelism_error"].order == pytest.approx(1.0, abs=0.15)
        assert report.orders["exact_return_gap"].order >= 1.8

    def test_constants_follow_last_resolved_row(self):
        anchor = ELL.point_at(1.1)
        cfg = SweepConfig(conic=ELL, anchor=anchor, delta0=0.1, halvings=4)
        report = run_sweep(cfg)
        for name in report.metric_names:
            order = report.orders[name].order
            if order is None:
                continue
            const = report.constants[name]
            # constant back-predicts the matching row value
            floor = noise_floor(ELL)
            for delta, value in zip(report.deltas, report.values[name]):
                if value > floor:
                    last_delta, last_value = delta, value
            assert const == pytest.approx(last_value / last_delta**order, rel=1e-9)

    def test_off_curve_anchor_rejected(self):
        cfg = SweepConfig(conic=ELL, anchor=Point(0.0, 3.2), delta0=0.1, halvings=4)
        with pytest.raises(OffCurveError):
            run_sweep(cfg)

    def test_tolerances_reach_every_level(self):
        # 1e-7 off the curve: rejected by the default policy, accepted by a
        # looser one, which must then govern every level, not just the anchor
        on = ELL.point_at(1.1)
        _, normal = ELL.tangent_normal(on)
        anchor = Point(on.x + 1e-7 * normal.x, on.y + 1e-7 * normal.y)
        cfg = SweepConfig(conic=ELL, anchor=anchor, delta0=0.1, halvings=4)
        with pytest.raises(OffCurveError):
            run_sweep(cfg)
        report = run_sweep(cfg, Tolerances(on_curve=1e-6))
        assert report.failure is None
        assert len(report.deltas) == 5

    def test_degenerate_anchor_reports_zero_rows(self):
        cfg = SweepConfig(
            conic=Conic(Parabola(1)), anchor=Point(0, 0), delta0=0.1, halvings=4
        )
        report = run_sweep(cfg)
        for name in report.metric_names:
            assert all(v == 0.0 for v in report.values[name])
            assert report.orders[name].order is None

    def test_requested_parallelism_on_parabola_fails_fast(self):
        cfg = SweepConfig(
            conic=Conic(Parabola(1)),
            anchor=Point(2, 1),
            delta0=0.1,
            halvings=4,
            metrics=("parallelism_error",),
        )
        report = run_sweep(cfg)
        assert report.failed_level == 0
        assert "variant" in report.failure or "parabola" in report.failure

    def test_truncated_sweep_keeps_completed_levels(self):
        conic = Conic(Ellipse(1.0, 0.8))
        anchor = conic.point_at(0.3)
        cfg = SweepConfig(
            conic=conic,
            anchor=anchor,
            delta0=8.0,  # level 0 huge: exact-return cannot bracket
            halvings=4,
            metrics=("exact_return_gap",),
        )
        report = run_sweep(cfg)
        assert report.failed_level is not None
        assert report.failure
        assert len(report.deltas) == report.failed_level

    def test_monotone_decrease_above_floor(self, standard_sweeps):
        for report in standard_sweeps:
            floor = noise_floor(report.config.conic)
            for name in report.metric_names:
                vals = report.values[name]
                if all(v == 0.0 for v in vals):
                    continue  # degenerate anchor rows
                for prev, nxt in zip(vals, vals[1:]):
                    if prev > floor and nxt > floor:
                        assert nxt < prev

    def test_backward_orientation_sweeps_too(self):
        anchor = ELL.point_at(1.1)
        cfg = SweepConfig(
            conic=ELL, anchor=anchor, delta0=0.1, halvings=4, orientation="backward"
        )
        report = run_sweep(cfg)
        assert report.orders["residual_B"].order >= 1.8


class TestCsv:
    def test_structure(self):
        cfg = SweepConfig(
            conic=ELL, anchor=TOP, delta0=0.1, halvings=4,
            metrics=("residual_B", "chord_tangent_angle"),
        )
        report = run_sweep(cfg)
        text = report.to_csv()
        lines = text.splitlines()
        assert lines[0] == "delta,residual_B,chord_tangent_angle"
        assert len(lines) == 1 + 5 + 3  # header, rows, three footer rows
        assert lines[-3].startswith("order,")
        assert lines[-2].startswith("ratios_used,")
        assert lines[-1].startswith("constant,")
        assert text.endswith("\n")
        assert "\r" not in text

    def test_round_trip_precision(self):
        cfg = SweepConfig(conic=ELL, anchor=TOP, delta0=0.1, halvings=3)
        report = run_sweep(cfg)
        row = report.to_csv().splitlines()[1].split(",")
        assert float(row[0]) == report.deltas[0]
        assert float(row[1]) == report.values["residual_B"][0]

    def test_undefined_order_is_empty_cell(self):
        cfg = SweepConfig(
            conic=Conic(Parabola(1)), anchor=Point(0, 0), delta0=0.1, halvings=3
        )
        report = run_sweep(cfg)
        order_row = report.to_csv().splitlines()[-3].split(",")
        assert order_row[0] == "order"
        assert all(cell == "" for cell in order_row[1:])

    def test_byte_determinism(self):
        cfg = SweepConfig(conic=ELL, anchor=TOP, delta0=0.1, halvings=5)
        assert run_sweep(cfg).to_csv() == run_sweep(cfg).to_csv()


class TestStandardAnchors:
    def test_shape_and_count(self, anchor_set):
        assert len(anchor_set) == 24
        kinds = [conic.kind for conic, _ in anchor_set]
        assert kinds.count("ellipse") == 8
        assert kinds.count("parabola") == 8
        assert kinds.count("hyperbola") == 8

    def test_anchors_on_curve_and_non_degenerate(self, anchor_set):
        from conicsteps import two_step

        for conic, anchor in anchor_set:
            assert abs(conic.residual(anchor)) <= 1e-9 * (1 + conic.scale)
            assert not two_step(conic, anchor, 0.1).degenerate

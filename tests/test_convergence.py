"""Step-halving sweeps, order estimation, and the CSV report."""
from __future__ import annotations

import math
import random
from decimal import Decimal

import pytest

from conicsteps import (
    DEFAULT,
    METRICS,
    Conic,
    Ellipse,
    OffCurveError,
    Parabola,
    Point,
    SweepConfig,
    Tolerances,
    angle_between,
    apex_reflector,
    estimate_order,
    exact_return,
    focal_change_error,
    noise_floor,
    run_sweep,
    two_step,
)
from conicsteps import convergence
from conicsteps.convergence import _measure_level
import oracle
from conftest import POSED, random_conic, random_param

ELL = Conic(Ellipse(5, 3))
TOP = Point(0.0, 3.0)
EPS = 2.220446049250313e-16


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

    def test_any_iterable(self):
        # a generator raised TypeError: 'generator' object is not subscriptable
        values = [0.04, 0.01, 0.0025, 1e-18]
        expected = estimate_order(values, floor=1e-15)
        assert expected.ratios_used == 2
        assert estimate_order(tuple(values), floor=1e-15) == expected
        assert estimate_order((v for v in values), floor=1e-15) == expected

    def test_noise_floor_value(self):
        # 100 eps in the conic's length unit: 4 for Ellipse(5, 3), 1 for Parabola(1)
        eps = 2.220446049250313e-16
        assert noise_floor(ELL) == pytest.approx(100.0 * eps * 4.0, rel=1e-12, abs=0)
        assert noise_floor(Parabola(1)) == pytest.approx(100.0 * eps * 1.0, rel=1e-12, abs=0)


class TestSweepConfig:
    def test_delta0_must_be_positive(self):
        with pytest.raises(ValueError):
            SweepConfig(conic=ELL, anchor=TOP, delta0=0.0, halvings=4)

    def test_halvings_minimum(self):
        with pytest.raises(ValueError, match="halving"):
            SweepConfig(conic=ELL, anchor=TOP, delta0=0.1, halvings=1)

    def test_halvings_must_be_an_int(self):
        # 3.0 used to construct and then fail in run_sweep with a TypeError
        with pytest.raises(ValueError, match="halvings"):
            SweepConfig(conic=ELL, anchor=TOP, delta0=0.1, halvings=3.0)

    @pytest.mark.parametrize("delta0, halvings", [(1e-300, 90), (0.1, 2000)])
    def test_halving_ladder_must_stay_positive_and_finite(self, delta0, halvings):
        # delta0 / 2**90 underflowed to 0 and failed inside run_sweep with a
        # bare ValueError; 2.0**2000 raised OverflowError there
        with pytest.raises(ValueError, match="halvings"):
            SweepConfig(conic=ELL, anchor=TOP, delta0=delta0, halvings=halvings)

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError):
            SweepConfig(
                conic=ELL, anchor=TOP, delta0=0.1, halvings=4, metrics=("chord",)
            )

    @pytest.mark.parametrize("metrics", [("residual_B", "residual_B"), (), "residual_B"])
    def test_metrics_must_be_distinct_names(self, metrics):
        # duplicates used to give twice the values of the deltas, pairing
        # each delta with the wrong value; a bare str was split into letters
        with pytest.raises(ValueError, match="non-empty sequence of distinct names"):
            SweepConfig(conic=ELL, anchor=TOP, delta0=0.1, halvings=4, metrics=metrics)

    def test_orientation_checked_at_construction(self):
        with pytest.raises(ValueError) as from_config:
            SweepConfig(conic=ELL, anchor=TOP, delta0=0.1, halvings=4,
                        orientation="sideways")
        with pytest.raises(ValueError) as from_walk:
            two_step(ELL, TOP, 0.1, "sideways")
        assert str(from_config.value) == str(from_walk.value)

    def test_anchor_must_be_a_point(self):
        with pytest.raises(TypeError, match="anchor"):
            SweepConfig(conic=ELL, anchor=(0.0, 3.0), delta0=0.1, halvings=4)

    def test_default_metrics_exclude_parallelism_for_parabola(self):
        cfg = SweepConfig(conic=Conic(Parabola(1)), anchor=Point(2, 1), delta0=0.1, halvings=4)
        assert "parallelism_error" not in cfg.resolved_metrics()
        full = SweepConfig(conic=ELL, anchor=TOP, delta0=0.1, halvings=4)
        assert full.resolved_metrics() == METRICS


class TestRunSweep:
    def test_small_conic_is_measured_to_the_finest_level(self):
        # on a conic of size 5 * 2**-30 the finest chord is about 1.4e-13, and
        # an absolute retrace threshold of 1e-12 zeroed every metric there
        conic = Conic(Ellipse(5 * 2**-30, 3 * 2**-30))
        report = run_sweep(SweepConfig(conic=conic, anchor=conic.point_at(1.0),
                                       delta0=0.1 * 2**-30, halvings=10))
        assert report.failure is None
        assert report.values["residual_B"][-1] > 0.0

    def test_worked_example_first_row(self):
        cfg = SweepConfig(conic=ELL, anchor=TOP, delta0=0.1, halvings=6)
        report = run_sweep(cfg)
        assert len(report.deltas) == 7
        assert report.deltas[0] == 0.1
        assert report.deltas[-1] == pytest.approx(0.1 / 64, rel=1e-15)
        # the report records metric magnitudes; the signed value is -2.31e-5
        assert report.values["residual_B"][0] == pytest.approx(
            2.3093224278625257e-05, rel=1e-9, abs=0
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
            floor = (convergence._ANGLE_FLOOR if name in convergence._ANGLE_METRICS
                     else noise_floor(ELL))
            for delta, value in zip(report.deltas, report.values[name]):
                if value > floor:
                    last_delta, last_value = delta, value
            assert const == pytest.approx(last_value / last_delta**order, rel=1e-9)

    def test_angle_orders_do_not_depend_on_the_size(self):
        # the length floor, 100 eps * u, lies above every angle of this
        # ellipse; the angles are fitted against 100 eps radians
        conic = Conic(Ellipse(1e180, 1e179))
        report = run_sweep(SweepConfig(conic, conic.point_at(0.7), 1e178, 6))
        for name in ("chord_tangent_angle", "parallelism_error"):
            assert report.orders[name].ratios_used == 6
            assert report.orders[name].order == pytest.approx(1.0, abs=0.02)
        assert convergence._ANGLE_FLOOR == 100.0 * EPS

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

    def test_anchor_tangent_computed_once(self, monkeypatch):
        # one tangent per sweep, at the anchor's canonical coordinates
        calls = []
        tangent_normal = Conic.tangent_normal

        def counted(self, q, tolerances=DEFAULT):
            calls.append((self, q))
            return tangent_normal(self, q, tolerances)

        monkeypatch.setattr(Conic, "tangent_normal", counted)
        for conic, t in ((ELL, 1.1),) + POSED:
            anchor = conic.point_at(t)
            ac = conic._require_on_curve(anchor.x, anchor.y, DEFAULT)
            calls.clear()
            run_sweep(SweepConfig(conic=conic, anchor=anchor, delta0=0.1, halvings=10))
            assert calls == [(Conic(conic.shape), Point(*ac))]
            calls.clear()
            run_sweep(SweepConfig(conic=conic, anchor=anchor, delta0=0.1, halvings=10,
                                  metrics=("residual_B",)))
            assert calls == []

    def test_one_walk_per_level(self, monkeypatch):
        walks = []
        walk_xy = convergence._walk_xy

        def counted(*args):
            walks.append(args)
            return walk_xy(*args)

        monkeypatch.setattr(convergence, "_walk_xy", counted)
        anchor = ELL.point_at(1.1)
        report = run_sweep(SweepConfig(conic=ELL, anchor=anchor, delta0=0.1, halvings=10))
        assert report.metric_names == METRICS
        assert len(walks) == 11

    @pytest.mark.parametrize("orientation", ["forward", "backward"])
    def test_level_values_equal_public_api(self, orientation):
        # a posed sweep's row equals, bit for bit, the public functions on the
        # unplaced conic at the anchor's canonical coordinates; the chord angle
        # equals the angle of the public chord, apex_reflector's direction, to
        # within ulps of pi: the triangle's legs are renormalized Directions,
        # and the fold pi - theta turns one ulp of theta into two epsilons
        for conic, t in POSED:
            anchor = conic.point_at(t)
            cfg = SweepConfig(conic=conic, anchor=anchor, delta0=0.1, halvings=2,
                              orientation=orientation)
            names = cfg.resolved_metrics()
            ac = conic._require_on_curve(anchor.x, anchor.y, DEFAULT)
            canon, anchor_c = Conic(conic.shape), Point(*ac)
            tangent, _ = canon.tangent_normal(anchor_c)
            for delta in (0.2, 0.05, 0.003):
                row = _measure_level(cfg, names, ac, delta, tangent)
                tri = two_step(canon, anchor_c, delta, orientation)
                assert row["residual_B"] == abs(tri.residual_b)
                theta = angle_between(apex_reflector(tri).direction, tangent)
                assert row["chord_tangent_angle"] == pytest.approx(
                    min(theta, math.pi - theta), rel=0.0, abs=4 * math.ulp(math.pi))
                assert row["apex_curve_distance"] == canon.project_to_curve(tri.D).distance
                assert row["exact_return_gap"] == exact_return(
                    canon, anchor_c, delta, orientation).gap
                if "parallelism_error" in names:
                    assert row["parallelism_error"] == focal_change_error(
                        canon, tri).parallelism_error

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
            for name in report.metric_names:
                floor = (convergence._ANGLE_FLOOR if name in convergence._ANGLE_METRICS
                         else noise_floor(report.config.conic))
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

    @pytest.mark.parametrize("conic,delta0", [
        (Conic(Ellipse(1e180, 1e179)), 1e178),  # delta**2 overflows
        (Conic(Ellipse(5.0 * 2.0**-560, 3.0 * 2.0**-560)), 0.08 * 2.0**-560),  # underflows to 0
    ])
    def test_constant_when_delta_to_the_order_leaves_the_float_range(self, conic, delta0):
        # v / d**order raised OverflowError, or ZeroDivisionError, out of
        # run_sweep.  c in v = c * d**order is a length to the power
        # 1 - order, so it is the constant of the conic scaled to its unit
        # times unit**(1 - order); compared in log2, as that power may not
        # be a float.
        report = run_sweep(SweepConfig(conic, conic.point_at(0.7), delta0, 10))
        assert report.failure is None
        unit = conic.shape._unit
        small = Conic(Ellipse(conic.shape.a / unit, conic.shape.b / unit))
        ref = run_sweep(SweepConfig(small, small.point_at(0.7), delta0 / unit, 10))
        for m in ("residual_B", "apex_curve_distance", "exact_return_gap"):
            order = report.orders[m].order
            assert order == ref.orders[m].order
            assert math.log2(report.constants[m]) == pytest.approx(
                math.log2(ref.constants[m]) + (1.0 - order) * math.log2(unit), abs=1e-12)

    def test_constant_past_the_float_range_is_inf(self):
        # at a subnormal scale the constant itself is past the float range:
        # it reads inf, as v / d**order does, and does not raise OverflowError
        f = 2.0**-1030
        conic = Conic(Ellipse(5.0 * f, 3.0 * f))
        report = run_sweep(SweepConfig(conic, conic.point_at(0.7), 0.05 * f, 6))
        assert report.failed_level is None and len(report.deltas) == 7
        assert report.orders["residual_B"].order == pytest.approx(2.0, abs=0.01)
        assert report.constants["residual_B"] == math.inf


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


class TestOracle:
    # Largest error of each metric against the 50-digit walk from the same
    # canonical float anchor: the lengths in units of eps * (1 + scale), the
    # angles in eps radians.
    BOUNDS = {"residual_B": 2.0, "chord_tangent_angle": 16.0, "apex_curve_distance": 1.0,
              "parallelism_error": 4.0, "exact_return_gap": 2.0}

    def test_sweep_metrics_match_oracle(self):
        rng = random.Random(12)
        worst = dict.fromkeys(METRICS, 0.0)
        for _ in range(12):
            conic = random_conic(rng, placed=True)
            anchor = conic.point_at(random_param(rng, conic))
            ac = conic._require_on_curve(anchor.x, anchor.y, DEFAULT)
            length_unit = EPS * (1.0 + conic.scale)
            for orientation in ("forward", "backward"):
                report = run_sweep(SweepConfig(conic=conic, anchor=anchor, delta0=0.1,
                                               halvings=10, orientation=orientation))
                for k, delta in enumerate(report.deltas):
                    want = oracle.sweep_level(conic.shape, *ac, delta, orientation)
                    for m in report.metric_names:
                        got = report.values[m][k]
                        if m in ("chord_tangent_angle", "parallelism_error"):
                            err, unit = oracle.angle_error(got, want[m]), EPS
                        else:
                            err, unit = abs(Decimal(got) - want[m]), length_unit
                        worst[m] = max(worst[m], float(err) / unit)
        assert all(worst[m] <= self.BOUNDS[m] for m in METRICS), worst

"""Canonical conics: residuals, tangents, parameterization, projection."""
from __future__ import annotations

import math
import random

import pytest

from conicsteps import (
    Conic,
    Direction,
    Ellipse,
    Hyperbola,
    NoBranchError,
    OffCurveError,
    Parabola,
    Placement,
    Point,
    as_conic,
)
from conftest import random_conic, random_param


class TestShapeValidation:
    def test_ellipse_requires_a_ge_b_gt_zero(self):
        with pytest.raises(ValueError):
            Ellipse(3.0, 5.0)
        with pytest.raises(ValueError):
            Ellipse(0.0, 0.0)
        with pytest.raises(ValueError):
            Ellipse(1.0, -1.0)
        Ellipse(2.0, 2.0)  # circle is allowed

    def test_parabola_requires_positive_p(self):
        with pytest.raises(ValueError):
            Parabola(0.0)
        with pytest.raises(ValueError):
            Parabola(-1.0)

    def test_hyperbola_requires_positive_axes_and_unit_branch(self):
        with pytest.raises(ValueError):
            Hyperbola(0.0, 1.0)
        with pytest.raises(ValueError):
            Hyperbola(1.0, 0.0)
        with pytest.raises(ValueError):
            Hyperbola(1.0, 1.0, branch=2)

    def test_non_finite_parameters_rejected(self):
        with pytest.raises(ValueError):
            Ellipse(math.inf, 1.0)
        with pytest.raises(ValueError):
            Parabola(math.nan)


class TestResidual:
    def test_ellipse_on_curve_zero(self):
        assert Conic(Ellipse(5, 3)).residual(Point(0, 3)) == pytest.approx(0.0, abs=1e-15)

    def test_ellipse_center(self):
        assert Conic(Ellipse(5, 3)).residual(Point(0, 0)) == -2.0

    def test_parabola_vertex(self):
        assert Conic(Parabola(1)).residual(Point(0, 0)) == 0.0

    def test_parabola_sign_convention(self):
        par = Conic(Parabola(1))
        assert par.residual(Point(0, -0.5)) > 0  # convex (below) side positive
        assert par.residual(Point(0, 2.0)) < 0  # focus side negative

    def test_hyperbola_vertices(self):
        hyp = Conic(Hyperbola(3, 4))
        assert hyp.residual(Point(3, 0)) == pytest.approx(0.0, abs=1e-15)
        neg = Conic(Hyperbola(3, 4, branch=-1))
        assert neg.residual(Point(-3, 0)) == pytest.approx(0.0, abs=1e-15)

    def test_hyperbola_axis_point_has_no_branch(self):
        with pytest.raises(NoBranchError):
            Conic(Hyperbola(3, 4)).residual(Point(0, 1))

    def test_residual_respects_placement(self):
        placed = Conic(Ellipse(5, 3), Placement(2.0, -1.0, math.pi / 2))
        # canonical (0,3) rotates to (-3,0) then translates to (-1,-1)
        assert placed.residual(Point(-1.0, -1.0)) == pytest.approx(0.0, abs=1e-12)


class TestPointAtAndScale:
    def test_ellipse_param(self):
        q = Conic(Ellipse(5, 3)).point_at(math.pi / 2)
        assert q.x == pytest.approx(0.0, abs=1e-15)
        assert q.y == pytest.approx(3.0, abs=1e-15)

    def test_parabola_param(self):
        q = Conic(Parabola(1)).point_at(2.0)
        assert (q.x, q.y) == (2.0, 1.0)

    def test_hyperbola_param_branch(self):
        q = Conic(Hyperbola(3, 4, branch=-1)).point_at(0.0)
        assert (q.x, q.y) == (-3.0, 0.0)

    def test_random_points_lie_on_curve(self):
        rng = random.Random(5)
        for _ in range(300):
            conic = random_conic(rng, placed=rng.random() < 0.5)
            q = conic.point_at(random_param(rng, conic))
            assert abs(conic.residual(q)) <= 1e-9 * (1.0 + conic.scale)

    def test_scale(self):
        assert Conic(Ellipse(5, 3)).scale == 8.0
        assert Conic(Parabola(1)).scale == 2.0
        assert Conic(Hyperbola(3, 4)).scale == 7.0


class TestTangentNormal:
    def test_ellipse_top(self):
        tangent, normal = Conic(Ellipse(5, 3)).tangent_normal(Point(0, 3))
        assert abs(tangent.x) == pytest.approx(1.0, abs=1e-15)
        assert tangent.y == pytest.approx(0.0, abs=1e-15)
        assert normal.x == pytest.approx(0.0, abs=1e-15)
        assert normal.y == pytest.approx(1.0, abs=1e-15)

    def test_parabola_vertex(self):
        tangent, normal = Conic(Parabola(1)).tangent_normal(Point(0, 0))
        assert abs(tangent.x) == pytest.approx(1.0, abs=1e-15)
        assert normal.y == pytest.approx(-1.0, abs=1e-15)

    def test_hyperbola_vertex(self):
        tangent, normal = Conic(Hyperbola(3, 4)).tangent_normal(Point(3, 0))
        assert abs(tangent.y) == pytest.approx(1.0, abs=1e-15)
        assert normal.x == pytest.approx(1.0, abs=1e-15)

    def test_tangent_normal_orthogonal_exactly(self):
        rng = random.Random(17)
        for _ in range(200):
            conic = random_conic(rng, placed=True)
            q = conic.point_at(random_param(rng, conic))
            tangent, normal = conic.tangent_normal(q)
            assert tangent.dot(normal) == 0.0

    def test_off_curve_rejected(self):
        with pytest.raises(OffCurveError):
            Conic(Ellipse(5, 3)).tangent_normal(Point(0, 3.01))

    def test_gradient_matches_finite_differences(self):
        # Central differences of the implicit quadratic, relative step 1e-6.
        rng = random.Random(29)
        forms = {
            "ellipse": lambda s, x, y: x * x / (s.a * s.a) + y * y / (s.b * s.b) - 1.0,
            "parabola": lambda s, x, y: x * x - 4.0 * s.p * y,
            "hyperbola": lambda s, x, y: x * x / (s.a * s.a) - y * y / (s.b * s.b) - 1.0,
        }
        for _ in range(150):
            conic = random_conic(rng)
            q = conic.point_at(random_param(rng, conic))
            _, normal = conic.tangent_normal(q)
            f = forms[conic.kind]
            h = 1e-6 * (1.0 + conic.scale)
            gx = (f(conic.shape, q.x + h, q.y) - f(conic.shape, q.x - h, q.y)) / (2 * h)
            gy = (f(conic.shape, q.x, q.y + h) - f(conic.shape, q.x, q.y - h)) / (2 * h)
            if conic.kind == "hyperbola" and conic.shape.branch < 0:
                pass  # gradient form is branch-independent
            norm = math.hypot(gx, gy)
            sign = 1.0 if gx * normal.x + gy * normal.y >= 0 else -1.0
            assert gx / norm == pytest.approx(sign * normal.x, abs=1e-5)
            assert gy / norm == pytest.approx(sign * normal.y, abs=1e-5)
            # orientation: the analytic normal must point along +gradient
            assert sign == 1.0


class TestProjection:
    def test_axis_point_projects_to_vertex(self):
        proj = Conic(Ellipse(5, 3)).project_to_curve(Point(0, 4))
        assert proj.foot.x == pytest.approx(0.0, abs=1e-12)
        assert proj.foot.y == pytest.approx(3.0, abs=1e-12)
        assert proj.distance == pytest.approx(1.0, abs=1e-12)

    def test_parabola_below_vertex(self):
        proj = Conic(Parabola(1)).project_to_curve(Point(0, -0.5))
        assert proj.foot.x == pytest.approx(0.0, abs=1e-12)
        assert proj.foot.y == pytest.approx(0.0, abs=1e-12)

    def test_two_step_apex_distance_value(self):
        proj = Conic(Ellipse(5, 3)).project_to_curve(Point(0.08, 3.06))
        assert proj.distance == pytest.approx(0.060381261588501295, rel=1e-12)
        assert proj.foot.x == pytest.approx(0.07942446360848594, rel=1e-9)
        assert proj.foot.y == pytest.approx(2.999621481395441, rel=1e-9)

    def test_idempotent_for_on_curve_points(self):
        rng = random.Random(41)
        for _ in range(120):
            conic = random_conic(rng, placed=rng.random() < 0.5)
            q = conic.point_at(random_param(rng, conic))
            proj = conic.project_to_curve(q)
            assert proj.foot.distance_to(q) <= 1e-9 * (1.0 + conic.scale)
            assert proj.distance <= 1e-9 * (1.0 + conic.scale)

    def test_foot_is_on_curve_and_residual_consistent(self):
        rng = random.Random(43)
        for _ in range(120):
            conic = random_conic(rng)
            q = conic.point_at(random_param(rng, conic))
            off = Point(q.x + rng.uniform(-0.3, 0.3), q.y + rng.uniform(-0.3, 0.3))
            try:
                proj = conic.project_to_curve(off)
            except NoBranchError:
                continue
            assert abs(conic.residual(proj.foot)) <= 1e-7 * (1.0 + conic.scale)
            assert proj.distance <= off.distance_to(q) + 1e-12

    def test_ellipse_center_is_ambiguous(self):
        with pytest.raises(ValueError):
            Conic(Ellipse(5, 5)).project_to_curve(Point(0, 0))


class TestPlacement:
    def test_round_trip_points_and_directions(self):
        rng = random.Random(59)
        for _ in range(300):
            pl = Placement(
                rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-math.pi, math.pi)
            )
            q = Point(rng.uniform(-10, 10), rng.uniform(-10, 10))
            back = pl.to_canonical(pl.to_scene(q))
            assert abs(back.x - q.x) <= 1e-12 * (1 + abs(q.x))
            assert abs(back.y - q.y) <= 1e-12 * (1 + abs(q.y))
            d = Direction(rng.uniform(-2, 2), rng.uniform(-2, 2))
            dback = pl.dir_to_canonical(pl.dir_to_scene(d))
            assert abs(dback.x - d.x) <= 1e-12
            assert abs(dback.y - d.y) <= 1e-12

    def test_rotation_is_rigid(self):
        pl = Placement(1.0, 2.0, 0.7)
        p1, p2 = Point(0.0, 0.0), Point(3.0, -4.0)
        assert pl.to_scene(p1).distance_to(pl.to_scene(p2)) == pytest.approx(
            5.0, abs=1e-12
        )


class TestFociAndCoercion:
    def test_ellipse_foci_order(self):
        f1, f2 = Conic(Ellipse(5, 3)).focus_points()
        assert (f1.x, f1.y) == (-4.0, 0.0)
        assert (f2.x, f2.y) == (4.0, 0.0)

    def test_parabola_focus(self):
        (focus,) = Conic(Parabola(1)).focus_points()
        assert (focus.x, focus.y) == (0.0, 1.0)

    def test_hyperbola_near_far(self):
        near, far = Conic(Hyperbola(3, 4)).focus_points()
        assert (near.x, far.x) == (5.0, -5.0)
        near, far = Conic(Hyperbola(3, 4, branch=-1)).focus_points()
        assert (near.x, far.x) == (-5.0, 5.0)

    def test_placed_focus(self):
        c_h = math.sqrt(0.61)
        sec = Conic(
            Hyperbola(0.5, 0.6, branch=-1), Placement(0.0, 1.0 - c_h, -math.pi / 2)
        )
        near, far = sec.focus_points()
        assert near.x == pytest.approx(0.0, abs=1e-12)
        assert near.y == pytest.approx(1.0, abs=1e-12)
        assert far.y == pytest.approx(1.0 - 2.0 * c_h, abs=1e-12)

    def test_as_conic_coercion(self):
        conic = as_conic(Ellipse(5, 3))
        assert isinstance(conic, Conic) and conic.placement == Placement()
        same = as_conic(conic)
        assert same is conic
        with pytest.raises(TypeError):
            as_conic("ellipse")

"""Canonical conics: residuals, tangents, parameterization, projection."""
from __future__ import annotations

import dataclasses
import math
import random
import re
from decimal import Decimal

import pytest

from conicsteps import (
    DEFAULT,
    Conic,
    DegenerateDirectionError,
    Direction,
    Ellipse,
    Hyperbola,
    IterationError,
    NoBranchError,
    OffCurveError,
    Parabola,
    Placement,
    Point,
    Ray,
    Scene,
    SweepConfig,
    as_conic,
    exact_return,
    focal_property_error,
    reflect_at,
    run_sweep,
    trace,
    two_step,
)
from conicsteps import _kernels_py
from conicsteps.geometry import _normalized
from conicsteps.optics import _ROOT_MERGE
import oracle
from conftest import POSED, random_conic, random_param

EPS = 2.220446049250313e-16


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

    @pytest.mark.parametrize("branch", [True, -1.0])
    def test_hyperbola_branch_is_an_int(self, branch):
        # a bool or float branch compared equal to +-1 and serialized as
        # true or -1.0, which scene files reject
        with pytest.raises(ValueError, match="branch"):
            Hyperbola(1.0, 1.0, branch)

    def test_non_finite_parameters_rejected(self):
        with pytest.raises(ValueError):
            Ellipse(math.inf, 1.0)
        with pytest.raises(ValueError):
            Parabola(math.nan)
        with pytest.raises(ValueError, match="finite"):
            Hyperbola(math.inf, 1.0)
        with pytest.raises(ValueError, match="finite"):
            Hyperbola(1.0, math.nan)


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

    def test_hyperbola_branches_are_mirror_images_bit_for_bit(self):
        # Hyperbola reflects the -1 branch onto the +1 branch's kernels: every
        # result is the +1 branch's result for the mirrored input, mirrored
        rng = random.Random(41)
        pos, neg = Conic(Hyperbola(3, 4, 1)), Conic(Hyperbola(3, 4, -1))
        for _ in range(200):
            x, y = rng.uniform(-30, 30) or 1.0, rng.uniform(-30, 30)
            assert neg.residual(Point(-x, y)) == pos.residual(Point(x, y))
            p, n = pos.project_to_curve(Point(x, y)), neg.project_to_curve(Point(-x, y))
            assert (n.param, n.foot, n.distance) == (p.param, Point(-p.foot.x, p.foot.y),
                                                     p.distance)
            t = rng.uniform(-3, 3)
            assert neg.point_at(t) == Point(-pos.point_at(t).x, pos.point_at(t).y)
            d = Direction(rng.uniform(-1, 1), rng.uniform(-1, 1) or 0.5)
            hits_p = pos.shape._ray_roots(x, y, d.x, d.y, _ROOT_MERGE)
            assert neg.shape._ray_roots(-x, y, -d.x, d.y, _ROOT_MERGE) == hits_p

    def test_hyperbola_axis_point_has_no_branch(self):
        with pytest.raises(NoBranchError):
            Conic(Hyperbola(3, 4)).residual(Point(0, 1))

    def test_hyperbola_other_branch_is_off_curve(self):
        plus = Conic(Hyperbola(3, 4, 1))
        q = Conic(Hyperbola(3, 4, -1)).point_at(0.5)
        assert not plus.is_on_curve(q)
        # far - near - 2a with the foci of the +1 branch: -2a - 2a
        assert plus.residual(q) == pytest.approx(-12.0, abs=1e-12)
        with pytest.raises(OffCurveError):
            plus.tangent_normal(q)

    @pytest.mark.parametrize("side", [1.0, -1.0])
    @pytest.mark.parametrize("conic,t", POSED)
    def test_is_on_curve_agrees_with_the_on_curve_check_at_the_bound(self, conic, t, side):
        # bisect along the normal to the last point inside the bound and the
        # first outside it; both checks must give the same verdict on each
        p = conic.point_at(t)
        _, n = conic.tangent_normal(p)

        def at(s: float) -> Point:
            return Point(p.x + side * s * n.x, p.y + side * s * n.y)

        def limit(q: Point) -> float:  # the bound grows with the point
            return conic._on_curve_limit(*conic.placement._xy_to_canonical(q.x, q.y), DEFAULT)

        inside, outside = 0.0, 1.0
        for _ in range(80):
            mid = 0.5 * (inside + outside)
            if abs(conic.residual(at(mid))) <= limit(at(mid)):
                inside = mid
            else:
                outside = mid
        assert abs(conic.residual(at(inside))) >= (1.0 - 1e-6) * limit(at(inside))
        q = at(inside)
        assert conic.is_on_curve(q)
        conic._require_on_curve(q.x, q.y, DEFAULT)
        q = at(outside)
        assert not conic.is_on_curve(q)
        with pytest.raises(OffCurveError):
            conic._require_on_curve(q.x, q.y, DEFAULT)

    def test_on_curve_bound_is_relative_to_a_small_conic(self):
        # 8% outside the vertex of a conic of size 5e-9; a bound of
        # on_curve * (1 + scale) was at least 1e-9 and let it pass
        tiny = Conic(Ellipse(5e-9, 3e-9))
        q = Point(5.4e-9, 0.0)
        assert tiny.residual(q) == pytest.approx(8e-10, rel=1e-9)
        assert not tiny.is_on_curve(q)
        assert tiny.is_on_curve(tiny.point_at(0.3))

    def test_on_curve_bound_of_a_huge_conic_is_finite(self):
        # the scale of Parabola(1e308) is inf, and so was on_curve * (1 + scale)
        huge = Conic(Parabola(1e308))
        q = Point(1e300, -1e300)
        assert huge.residual(q) == pytest.approx(2e300, rel=1e-9)
        assert not huge.is_on_curve(q)

    @pytest.mark.parametrize("shape,residual", [(Ellipse(1e180, 1e179), -1.0025e178),
                                                 (Hyperbola(1e180, 1e179), -2e180)])
    def test_far_point_of_a_huge_conic_is_off_the_curve(self, shape, residual):
        # a*a overflowed in the caller's frame, so the residual at (1, -7) was
        # NaN, and abs(NaN) > bound is false: the point passed as on the
        # curve.  In the shape's unit it is finite: 2(c - a) on the ellipse,
        # near -2a on the hyperbola, whose focal distances there nearly tie.
        conic = Conic(shape)
        q = Point(1.0, -7.0)
        assert conic.residual(q) == pytest.approx(residual, rel=1e-4)
        assert not conic.is_on_curve(q)
        with pytest.raises(OffCurveError, match=r"residual -[\d.]+e\+1(78|80) exceeds"):
            conic.tangent_normal(q)

    def test_nan_residual_is_off_the_curve(self):
        # both focal distances overflow to inf, and inf - inf is NaN; the
        # on-curve check must refuse a NaN residual, not let it pass
        conic = Conic(Hyperbola(1.0, 1.0))
        q = Point(1.5e308, 1.5e308)
        assert math.isnan(conic.residual(q))
        assert not conic.is_on_curve(q)
        with pytest.raises(OffCurveError, match=r"residual nan exceeds"):
            conic.tangent_normal(q)

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

    @pytest.mark.parametrize("t", [800.0, -800.0, 1e300])
    def test_hyperbola_param_past_the_float_range_is_value_error(self, t):
        # cosh and sinh overflow for |t| above about 710
        with pytest.raises(ValueError) as info:
            Conic(Hyperbola(3, 4)).point_at(t)
        assert repr(t) in str(info.value)

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

    @pytest.mark.parametrize("shape,unit", [
        (Ellipse(5, 3), 4.0),
        (Ellipse(4, 4), 4.0),
        (Parabola(1), 1.0),
        (Parabola(0.75), 0.5),
        (Hyperbola(3, 4), 4.0),
        (Hyperbola(4, 3, -1), 4.0),
        (Hyperbola(1e-10, 3), 2.0),
        (Ellipse(1.5e308, 1e308), 2.0 ** 1023),  # its scale overflows
        (Parabola(5e-324), 5e-324),
    ])
    def test_unit_is_the_power_of_two_at_or_below_the_largest_length(self, shape, unit):
        assert shape._unit == unit
        # the lengths in the unit, kept with it, are the lengths divided by it
        lengths = ("p",) if isinstance(shape, Parabola) else ("a", "b")
        assert [getattr(shape, f"_{n}u") for n in lengths] == [
            getattr(shape, n) / unit for n in lengths]
        # kept out of equality, the repr and dataclasses.replace's fields
        assert dataclasses.replace(shape) == shape
        assert "_unit" not in repr(shape)


class TestFarFromUnitSize:
    """Every curve operation works on a conic of any size in the float range:
    each shape runs its kernels in its own length unit."""

    @pytest.mark.parametrize("k", [600, -600])
    @pytest.mark.parametrize("shape", [Ellipse(5.0, 3.0), Parabola(1.0), Hyperbola(3.0, 4.0)],
                             ids=lambda s: s.kind)
    def test_every_operation_at_2_to_the_k(self, shape, k):
        f = 2.0**k
        lengths = {"p": shape.p * f} if isinstance(shape, Parabola) else {
            "a": shape.a * f, "b": shape.b * f}
        conic = Conic(dataclasses.replace(shape, **lengths), Placement(f, -2.0 * f, 0.4))
        t = 0.7 * f if isinstance(shape, Parabola) else 0.7
        A = conic.point_at(t)
        delta = 0.01 * conic.scale
        assert conic.is_on_curve(A)
        tri = two_step(conic, A, delta)
        assert abs(tri.residual_b) < 1e-3 * conic.scale
        assert 0.0 < exact_return(conic, A, delta).gap < 0.1 * delta
        tangent, normal = conic.tangent_normal(A)
        assert abs(tangent.x * normal.x + tangent.y * normal.y) < 1e-15
        assert focal_property_error(conic, A) < 1e-14
        q = Point(A.x + 0.1 * normal.x * conic.scale, A.y + 0.1 * normal.y * conic.scale)
        proj = conic.project_to_curve(q)
        assert proj.distance == pytest.approx(0.1 * conic.scale, rel=1e-9)
        # a ray into the curve along the normal bounces straight back
        (hit,) = trace(Scene(mirrors=(conic,), max_bounces=1),
                       Ray(q, Direction(-normal.x, -normal.y))).hits
        assert hit.point.distance_to(A) < 1e-12 * conic.scale
        assert hit.outgoing.x * normal.x + hit.outgoing.y * normal.y == pytest.approx(1.0)
        report = run_sweep(SweepConfig(conic, A, delta, 6))
        assert report.failure is None
        assert report.orders["residual_B"].order > 1.8
        assert all(c is None or math.isfinite(c) for c in report.constants.values())

    def test_huge_ellipse(self):
        # a*a overflowed in the caller's frame: the residual was NaN, so every
        # point of the curve was refused as off it, and the foci were infinite
        conic = Conic(Ellipse(1e180, 6e179))
        (f1, f2) = conic.focus_points()
        assert (f1.x, f1.y, f2.x, f2.y) == pytest.approx((-8e179, 0.0, 8e179, 0.0), rel=1e-15)
        A = conic.point_at(0.7)
        assert conic.is_on_curve(A)
        assert abs(two_step(conic, A, 1e178).residual_b) < 1e176
        tangent, _ = conic.tangent_normal(A)
        # along (-a sin t, b cos t), with b/a = 0.6
        assert abs(tangent.x) == pytest.approx(math.sin(0.7) / math.hypot(
            math.sin(0.7), 0.6 * math.cos(0.7)), abs=1e-15)
        assert conic.project_to_curve(Point(A.x * 1.5, A.y * 1.5)).distance > 0.0
        (hit,) = trace(Scene(mirrors=(conic,), max_bounces=1),
                       Ray(Point(0.0, 0.0), Direction(0.6, 0.8))).hits
        assert conic.is_on_curve(hit.point)


def _ray_roots_at(conic: Conic, origin: Point, toward: Point) -> tuple[list[float], list[Point]]:
    """The shape's ``_ray_roots`` of the ray from ``origin`` through ``toward``,
    solved in the conic's frame and unit as the tracer solves it: the roots,
    and the scene point at each."""
    pl, shape = conic.placement, conic.shape
    ox, oy = pl._xy_to_canonical(origin.x, origin.y)
    dx, dy = _normalized(*pl._rotate_to_canonical(toward.x - origin.x, toward.y - origin.y))
    n, r0, r1 = shape._ray_roots(ox, oy, dx, dy, _ROOT_MERGE)
    roots = [r0, r1][:n]
    return roots, [Point(*pl._xy_to_scene(ox + r * shape._unit * dx, oy + r * shape._unit * dy))
                   for r in roots]


RAY_ROOT_POSES = [Placement(), Placement(1.5, -2.0, 0.7)]


@pytest.mark.parametrize("pose", RAY_ROOT_POSES, ids=["unposed", "posed"])
@pytest.mark.parametrize("branch", [1, -1])
class TestHyperbolaRayRoots:
    """A hyperbola's ``_ray_roots`` returns only the roots on its own branch,
    ascending: the other branch is another curve."""

    def test_ray_across_both_branches_has_one_root(self, branch, pose):
        # from the far focus, inside the other branch, through a point P of
        # this one: the ray leaves the other branch first
        conic = Conic(Hyperbola(3.0, 4.0, branch), pose)
        P = conic.point_at(0.3)
        _, (hit,) = _ray_roots_at(conic, conic.focus_points()[1], P)
        assert conic.is_on_curve(hit)
        assert hit.distance_to(P) <= 1e-14 * conic.scale

    def test_ray_across_its_own_branch_twice_keeps_both_roots(self, branch, pose):
        conic = Conic(Hyperbola(3.0, 4.0, branch), pose)
        P, Q = conic.point_at(-0.8), conic.point_at(0.5)
        roots, points = _ray_roots_at(conic, Point(2.0 * P.x - Q.x, 2.0 * P.y - Q.y), P)
        assert len(roots) == 2 and roots[0] < roots[1]
        assert all(map(conic.is_on_curve, points))
        assert points[0].distance_to(P) <= 1e-14 * conic.scale
        assert points[1].distance_to(Q) <= 1e-14 * conic.scale

    def test_merged_midpoint_between_the_branches_is_no_root(self, branch, pose):
        # On Hyperbola(1e-7, 1), the ray aimed at P = point_at(1.0) from
        # P + (-2 branch, 0.5), beyond the other branch, meets both branches
        # within the merge window: the one merged root lies between the
        # branches, on neither.
        conic = Conic(Hyperbola(1e-7, 1.0, branch), pose)
        P = Conic(conic.shape).point_at(1.0)
        origin = pose.to_scene(Point(P.x - 2.0 * branch, P.y + 0.5))
        assert _ray_roots_at(conic, origin, pose.to_scene(P)) == ([], [])


class TestThinShapes:
    """A shape whose smaller length, squared in its unit, underflows is
    refused by name where its gradient or ray coefficients would first be
    used; what needs neither still works on it."""

    MESSAGE = "is too thin for float arithmetic: "

    @pytest.mark.parametrize("shape", [Hyperbola(1e-170, 1), Ellipse(1, 1e-170)], ids=repr)
    def test_tangent_normal_is_refused(self, shape):
        # the gradient kernel divides by the square that underflowed
        conic = Conic(shape)
        with pytest.raises(ValueError, match=re.escape(f"{shape!r} {self.MESSAGE}")):
            conic.tangent_normal(conic.point_at(0.7))

    @pytest.mark.parametrize("shape", [Hyperbola(1e-170, 1), Ellipse(1, 1e-170)], ids=repr)
    def test_sweep_with_default_metrics_is_refused(self, shape):
        conic = Conic(shape)
        with pytest.raises(ValueError, match=re.escape(f"{shape!r} {self.MESSAGE}")):
            run_sweep(SweepConfig(conic, conic.point_at(0.7), 0.01, 3))

    def test_exact_return_is_refused_at_the_quadratic(self):
        # the residual changes sign over the bracket, so the ray's quadratic,
        # whose coefficients divide by a*a, is solved
        shape = Hyperbola(1e-170, 1)
        conic = Conic(shape)
        with pytest.raises(ValueError, match=re.escape(f"{shape!r} {self.MESSAGE}")):
            exact_return(conic, conic.point_at(0.7), 0.01)
        with pytest.raises(ValueError, match=re.escape(f"{shape!r} {self.MESSAGE}")):
            run_sweep(SweepConfig(conic, conic.point_at(0.7), 0.01, 3,
                                  metrics=("exact_return_gap",)))

    def test_what_needs_no_gradient_still_works(self):
        conic = Conic(Ellipse(1, 1e-170))
        A = conic.point_at(0.7)
        assert conic.is_on_curve(A)
        tri = two_step(conic, A, 0.01)
        assert (tri.B.x, tri.degenerate) == (0.7848421872844885, False)
        assert conic.project_to_curve(Point(0.3, 0.2)).distance == 0.2
        # a bracket end lands on the curve: no quadratic is solved
        assert exact_return(conic, A, 0.01).t_star == 0.005


class TestOnCurveBound:
    """The rounding floor of the on-curve bound is summed from each scaled
    coordinate, so it stays finite at the float maximum: an infinite
    residual there is off the curve, not under an infinite bound."""

    @pytest.mark.parametrize("shape", [Ellipse(1, 1), Parabola(1)], ids=repr)
    def test_far_point_is_off_the_curve(self, shape):
        conic = Conic(shape)
        q = Point(1.5e308, 1.5e308)
        assert math.isfinite(conic._on_curve_limit(q.x, q.y, DEFAULT))
        assert not conic.is_on_curve(q)
        with pytest.raises(OffCurveError):
            conic.tangent_normal(q)
        # reflect_at's quick check fails on the infinite residual; the full
        # check it falls back to refuses the point too
        with pytest.raises(OffCurveError):
            reflect_at(conic, q, Direction(0.6, 0.8))


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

    @pytest.mark.parametrize("t", [480.0, 700.0, -700.0])
    def test_far_point_of_a_thin_hyperbola(self, t):
        # x / a^2 overflowed in the unit at a finite on-curve point, and the
        # normal raised DegenerateDirectionError; the gradient is linear in
        # the point, so it is retaken at the point scaled by a power of two
        c = Conic(Hyperbola(1e-100, 1))
        P = c.point_at(t)
        assert c.is_on_curve(P)
        _, normal = c.tangent_normal(P)
        assert normal.x == 1.0
        assert normal.y == pytest.approx(math.copysign(1e-100, -t), rel=4e-16)
        if t == 480.0:
            assert normal.y == -1e-100

    @pytest.mark.xfail(strict=True, raises=NoBranchError,
                       reason="pose rounding loses the canonical x; ROADMAP item 4")
    def test_far_point_of_a_posed_thin_hyperbola_is_on_it(self):
        # Mapping the scene point back to the canonical frame cancels its x
        # (1.9e160, against a y of 1.9e260) to exactly 0.0, the axis between
        # the branches, where the residual is not defined.
        c = Conic(Hyperbola(1e-100, 1), Placement(3, 4, 0.7))
        assert c.is_on_curve(c.point_at(600.0))

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

    @pytest.mark.parametrize("shape", [Ellipse(5, 3), Hyperbola(3, 4)], ids=repr)
    def test_root_search_at_its_step_cap_raises(self, shape, monkeypatch):
        monkeypatch.setattr(_kernels_py, "_MAX_STEPS", 1)
        with pytest.raises(IterationError, match="did not converge"):
            Conic(shape).project_to_curve(Point(4.0, 2.5))

    @pytest.mark.parametrize("shape", [Ellipse(5, 5), Ellipse(5, 3)], ids=repr)
    def test_ellipse_center_is_ambiguous(self, shape):
        # without the shape's own check, the circle's center fails in its
        # kernel too, but the ellipse's gets a foot
        with pytest.raises(ValueError, match="^nearest point is ambiguous at the ellipse center$"):
            Conic(shape).project_to_curve(Point(0, 0))

    @pytest.mark.parametrize("shape", [Ellipse(5, 3), Parabola(1), Hyperbola(3, 4, 1),
                                       Hyperbola(3, 4, -1)], ids=repr)
    @pytest.mark.parametrize("q", [1e150, 1e200, 1e300, 1e308])
    def test_far_finite_point_gives_a_foot_or_a_value_error(self, shape, q):
        # A finite query point near the float maximum either projects to a
        # finite foot or is refused as a ValueError that says the foot is
        # not representable; it never leaks another type (the hyperbola's
        # kernel divided by zero) or blames its finite input.
        for x, y in ((q, 0.5), (-q, 0.5), (0.5, q), (0.5, -q), (q, q), (-q, -q)):
            try:
                foot = Conic(shape).project_to_curve(Point(x, y)).foot
            except ValueError as exc:
                assert "not representable" in str(exc), (x, y, exc)
            else:
                assert math.isfinite(foot.x) and math.isfinite(foot.y), (x, y, foot)

    @pytest.mark.parametrize("shape, q", [
        (Hyperbola(1.5699993338763802, 0.7929060771896619, -1),
         Point(1.253406028651892e307, -6.156883239273804e306)),
        (Hyperbola(1e-10, 3), Point(1e300, 1e300)),
    ], ids=["far", "thin"])
    def test_nan_secular_value_is_not_a_root(self, shape, q):
        # Far out, both squares of the hyperbola's secular function overflow
        # and its value is inf - inf = NaN, which the root search took as a
        # root: the first point got a foot 1.493e307 away, where
        # point_at(-0.25336565222199864) is 1.396e307 away, and the second
        # got the vertex.
        with pytest.raises(ValueError, match="not representable in floats"):
            Conic(shape).project_to_curve(q)

    @pytest.mark.xfail(strict=True, raises=ValueError,
                       reason="NaN secular value far out; ROADMAP item 4")
    def test_far_point_near_the_axis_gets_its_foot(self):
        # The same NaN exit once returned the lower bracket end, which here
        # is the foot to within an ulp of the 400-digit oracle's distance;
        # these points are refused now, with the wrong feet at (q, q).  Far
        # out the branch is its asymptote 4x = 3|y|, 0.6 q from (0.5, +-q).
        for shape in (Hyperbola(3, 4, 1), Hyperbola(3, 4, -1)):
            for q in (1e200, 1e300, 1e308):
                for y in (q, -q):
                    proj = Conic(shape).project_to_curve(Point(0.5, y))
                    assert proj.distance == pytest.approx(0.6 * q, rel=1e-15)


class TestProjectionOracle:
    """``project_to_curve`` against the 50-digit foot of the normal, in
    units of eps * (1 + scale)."""

    def test_sweep_apex_points(self, anchor_set):
        worst = max(_oracle_error(conic, two_step(conic, anchor, 0.1 / 2**k).D)
                    for conic, anchor in anchor_set for k in range(11))
        assert worst <= 1.0

    @pytest.mark.parametrize("family", ["posed", "evolute", "far side", "axis"])
    def test_point_family(self, family):
        worst = max(_oracle_error(conic, q) for conic, q in _ORACLE_POINTS[family]())
        assert worst <= 8.0

    @pytest.mark.parametrize("shape, q, t", [
        (Ellipse(5, 3), Point(1, 0), 1.2529726228670159),
        (Ellipse(5, 3), Point(-1, 0), 1.8886200307227774),
        (Parabola(1), Point(0, 5), -3.4641016151377544),
        (Hyperbola(3, 4, 1), Point(20, 0), -1.52207936746365),
        (Hyperbola(3, 4, -1), Point(-20, 0), -1.52207936746365),
    ])
    def test_mirror_ties_pick_a_fixed_foot(self, shape, q, t):
        # two feet tie on an axis of symmetry: the upper ellipse foot, and
        # the negative parameter on the parabola and the hyperbola
        assert Conic(shape).project_to_curve(q).param == pytest.approx(t, abs=1e-14)


def _oracle_error(conic: Conic, q: Point) -> float:
    got = conic.project_to_curve(q).distance
    want = oracle.foot_of_normal(conic.shape, *conic.placement._xy_to_canonical(q.x, q.y))
    return float(abs(Decimal(got) - want)) / (EPS * (1.0 + conic.scale))


def _posed_points():
    for conic, t in POSED:
        anchor = conic.point_at(t)
        for delta in (0.1, 0.01, 0.001):
            for orientation in ("forward", "backward"):
                yield conic, two_step(conic, anchor, delta, orientation).D
        for dt in (-0.7, 0.4):
            p = conic.point_at(t + dt)
            for r in (0.0, 1e-6, 0.3, 2.0, 8.0):
                for angle in (0.3, 4.1):
                    yield conic, Point(p.x + r * math.cos(angle), p.y + r * math.sin(angle))


def _evolute_points():
    # strictly inside each evolute, where three or four normals meet
    ell, par = Conic(Ellipse(5.0, 3.0)), Conic(Parabola(1.0))
    for k in range(12):
        theta = 2.0 * math.pi * (k + 0.5) / 12
        for s in (0.3, 0.9):
            yield ell, Point(s * 16 / 5 * math.cos(theta) ** 3, s * 16 / 3 * math.sin(theta) ** 3)
    for sigma in (1, -1):
        hyp = Conic(Hyperbola(3.0, 4.0, sigma))
        for tau in (-0.6, -0.1, 0.05, 0.4, 0.7):
            for s in (1.05, 1.5):
                yield hyp, Point(sigma * s * 25 / 3 * math.cosh(tau) ** 3, 25 / 4 * math.sinh(tau) ** 3)
    for x in (-6.0, -2.0, -0.3, 0.1, 1.0, 4.0):
        for s in (0.2, 1.0):
            yield par, Point(x, 2.0 + 1.1 * (27 * x * x / 4) ** (1 / 3) + s)


def _far_side_points():
    posed = Conic(Hyperbola(0.5, 2.0, 1), Placement(1.0, -1.0, 0.3))
    for x in (-0.01, -2.5, -7.0, -20.0):
        for y in (-12.0, -0.2, 0.0, 1e-7, 6.0):
            yield Conic(Hyperbola(3.0, 4.0, 1)), Point(x, y)
            yield Conic(Hyperbola(3.0, 4.0, -1)), Point(-x, y)
            yield posed, posed.placement.to_scene(Point(x, y))


def _axis_points():
    # qx == 0 or qy == 0, cusps of the evolutes included: (3.2, 0) for the
    # ellipse, (0, 2) for the parabola, (25/3, 0) for the hyperbola
    shapes = (Ellipse(5.0, 3.0), Ellipse(4.0, 4.0), Parabola(1.0),
              Hyperbola(3.0, 4.0, 1), Hyperbola(3.0, 4.0, -1), Hyperbola(2.0, 0.5, 1))
    for v in (-20.0, -4.0, -1e-8, 0.5, 2.0, 3.2, 25 / 3, 30.0):
        for shape in shapes:
            yield Conic(shape), Point(0.0, v)
            yield Conic(shape), Point(v, 0.0)


_ORACLE_POINTS = {
    "posed": _posed_points,
    "evolute": _evolute_points,
    "far side": _far_side_points,
    "axis": _axis_points,
}


class TestPlacement:
    @pytest.mark.parametrize("fields", [
        {"tx": math.inf}, {"ty": math.nan}, {"rotate": math.nan}], ids=["tx", "ty", "rotate"])
    def test_non_finite_field_rejected(self, fields):
        with pytest.raises(ValueError, match="^placement parameters must be finite$"):
            Placement(**fields)

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

    def test_replace_recomputes_cached_trig(self):
        moved = dataclasses.replace(Placement(1.0, 2.0, 0.3), rotate=1.1)
        q = moved.to_scene(Point(1.0, 0.0))
        assert (q.x, q.y) == (math.cos(1.1) + 1.0, math.sin(1.1) + 2.0)
        assert moved.to_scene(Point(0.5, -2.0)) == Placement(1.0, 2.0, 1.1).to_scene(
            Point(0.5, -2.0)
        )

    def test_cached_trig_is_not_a_field(self):
        pl = Placement(1.0, 2.0, 0.3)
        same = Placement(1.0, 2.0, 0.3)
        object.__setattr__(same, "_cos", 0.0)  # a cache that disagrees
        assert pl == same
        assert hash(pl) == hash(same)
        assert repr(pl) == "Placement(tx=1.0, ty=2.0, rotate=0.3)"
        assert dataclasses.asdict(pl) == {"tx": 1.0, "ty": 2.0, "rotate": 0.3}

    def test_rotation_is_rigid(self):
        pl = Placement(1.0, 2.0, 0.7)
        p1, p2 = Point(0.0, 0.0), Point(3.0, -4.0)
        assert pl.to_scene(p1).distance_to(pl.to_scene(p2)) == pytest.approx(
            5.0, abs=1e-12
        )


def _focus_step(shape, x, y, second, forward):
    """The focus-based step formulas the walk used before each shape owned
    its step rule, with their exact subtraction forms."""
    if isinstance(shape, Parabola):
        if not second:
            return 0.0, (-1.0 if forward else 1.0)
        f = shape.focus
        return _normalized(f.x - x, f.y - y) if forward else _normalized(x - f.x, y - f.y)
    f_from, f = shape.foci if forward else shape.foci[::-1]
    if not second:
        return _normalized(x - f_from.x, y - f_from.y)
    if isinstance(shape, Ellipse):
        return _normalized(f.x - x, f.y - y)
    return _normalized(x - f.x, y - f.y)


def _step_shapes():
    rng = random.Random(1801)
    shapes = [Ellipse(5, 3), Ellipse(2, 2), Parabola(1), Hyperbola(3, 4),
              Hyperbola(3, 4, branch=-1)]
    for _ in range(4):
        a = rng.uniform(0.5, 6.0)
        shapes += [Ellipse(a, a * rng.uniform(0.2, 1.0)), Parabola(rng.uniform(0.2, 3.0)),
                   Hyperbola(a, rng.uniform(0.2, 6.0), branch=rng.choice((1, -1)))]
    return shapes


def _bits(step):
    """The bits of the direction ``step()`` returns, or the error it raises."""
    try:
        return [v.hex() for v in step()]
    except DegenerateDirectionError as exc:
        return type(exc)


class TestStepRule:
    @pytest.mark.parametrize("forward", [True, False], ids=["forward", "backward"])
    @pytest.mark.parametrize("shape", _step_shapes(), ids=repr)
    def test_matches_the_focus_formulas_bit_for_bit(self, shape, forward):
        rng = random.Random(repr((shape, forward)))
        points = [(rng.uniform(-9, 9), rng.uniform(-9, 9)) for _ in range(40)]
        for v in (0.0, -0.0, 0.7, -2.5):
            points += [(v, 0.0), (v, -0.0), (0.0, v), (-0.0, v)]
        for x, y in points:  # the circle's centre is both foci: both raise
            for second in (False, True):
                got = _bits(lambda: shape._step(x, y, second, forward))
                assert got == _bits(lambda: _focus_step(shape, x, y, second, forward))


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

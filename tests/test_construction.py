"""Two-equal-step triangles, apex reflection, focal change, exact return."""
from __future__ import annotations

import hashlib
import itertools
import math
import random
from importlib import resources

import pytest

from conicsteps import (
    DEFAULT,
    BracketError,
    Conic,
    ConicError,
    DegenerateTriangleError,
    Direction,
    Ellipse,
    Hyperbola,
    Line,
    NoBranchError,
    OffCurveError,
    Parabola,
    Placement,
    Point,
    StepTriangle,
    SweepConfig,
    UnsupportedVariantError,
    apex_reflector,
    direction,
    exact_return,
    focal_change_error,
    load_scene,
    reflect_through_apex,
    run_sweep,
    serialize_scene,
    translate,
    two_step,
)
from conicsteps.construction import _return_xy, _walk_xy
import oracle
from conftest import POSED, random_conic, random_param

ELL = Conic(Ellipse(5, 3))
TOP = Point(0.0, 3.0)


class TestWorkedExample:
    """Frozen values for ellipse(5,3), anchor (0,3), delta 0.1, forward."""

    def test_apex(self):
        tri = two_step(ELL, TOP, 0.1)
        assert tri.D.x == pytest.approx(0.08, abs=1e-15)
        assert tri.D.y == pytest.approx(3.06, abs=1e-15)

    def test_endpoint(self):
        tri = two_step(ELL, TOP, 0.1)
        assert tri.B.x == pytest.approx(0.15882682037346207, rel=1e-12)
        assert tri.B.y == pytest.approx(2.998466818790104, rel=1e-12)

    def test_endpoint_residual(self):
        tri = two_step(ELL, TOP, 0.1)
        assert tri.residual_b == pytest.approx(-2.3093224278625257e-05, rel=1e-9, abs=0)

    def test_legs_and_flags(self):
        tri = two_step(ELL, TOP, 0.1)
        assert tri.delta == 0.1
        assert tri.orientation == "forward"
        assert not tri.degenerate
        assert tri.A.distance_to(tri.D) == pytest.approx(0.1, abs=1e-15)
        assert tri.D.distance_to(tri.B) == pytest.approx(0.1, abs=1e-15)


class TestLegGeometry:
    def test_leg_lengths_are_delta(self):
        rng = random.Random(61)
        for _ in range(150):
            conic = random_conic(rng, placed=rng.random() < 0.5)
            anchor = conic.point_at(random_param(rng, conic))
            delta = 10.0 ** rng.uniform(-3, 0)
            orientation = rng.choice(("forward", "backward"))
            tri = two_step(conic, anchor, delta, orientation)
            tol = 1e-12 * (1.0 + delta)
            assert abs(tri.A.distance_to(tri.D) - delta) <= tol
            assert abs(tri.D.distance_to(tri.B) - delta) <= tol

    def test_leg_directions_match_vertices(self):
        rng = random.Random(67)
        for _ in range(60):
            conic = random_conic(rng)
            anchor = conic.point_at(random_param(rng, conic))
            tri = two_step(conic, anchor, 0.05)
            if tri.degenerate:
                continue
            d1 = direction(tri.A, tri.D)
            d2 = direction(tri.D, tri.B)
            assert abs(d1.x - tri.leg1_dir.x) <= 1e-12
            assert abs(d1.y - tri.leg1_dir.y) <= 1e-12
            assert abs(d2.x - tri.leg2_dir.x) <= 1e-12
            assert abs(d2.y - tri.leg2_dir.y) <= 1e-12

    def test_ellipse_leg_lines_pass_through_foci(self):
        rng = random.Random(71)
        for _ in range(60):
            a = rng.uniform(2, 8)
            conic = Conic(Ellipse(a, rng.uniform(0.5 * a, a)))
            f1, f2 = conic.focus_points()
            anchor = conic.point_at(rng.uniform(0, 2 * math.pi))
            tri = two_step(conic, anchor, 0.05)
            # leg 1 extends the ray from focus 1 through the anchor
            leg1 = Line(tri.A, tri.leg1_dir)
            assert leg1.distance_to(f1) <= 1e-12 * (1 + anchor.distance_to(f1))
            # leg 2 points from the apex straight at focus 2
            leg2 = Line(tri.D, tri.leg2_dir)
            assert leg2.distance_to(f2) <= 1e-12 * (1 + tri.D.distance_to(f2))

    def test_parabola_first_leg_is_axis_parallel(self):
        conic = Conic(Parabola(1), Placement(2.0, -3.0, 0.4))
        anchor = conic.point_at(1.3)
        tri = two_step(conic, anchor, 0.05)
        down = conic.placement.dir_to_scene(Direction(0.0, -1.0))
        assert abs(tri.leg1_dir.x - down.x) <= 1e-15
        assert abs(tri.leg1_dir.y - down.y) <= 1e-15
        # second leg aims at the focus
        (focus,) = conic.focus_points()
        assert Line(tri.D, tri.leg2_dir).distance_to(focus) <= 1e-12

    def test_hyperbola_legs_through_both_foci(self):
        conic = Conic(Hyperbola(3, 4))
        near, far = conic.focus_points()
        anchor = conic.point_at(0.8)
        tri = two_step(conic, anchor, 0.05)
        assert Line(tri.A, tri.leg1_dir).distance_to(near) <= 1e-11
        assert Line(tri.D, tri.leg2_dir).distance_to(far) <= 1e-11

    def test_backward_swaps_foci_roles(self):
        conic = Conic(Ellipse(5, 3))
        f1, f2 = conic.focus_points()
        anchor = conic.point_at(1.1)
        tri = two_step(conic, anchor, 0.05, "backward")
        assert Line(tri.A, tri.leg1_dir).distance_to(f2) <= 1e-11
        assert Line(tri.D, tri.leg2_dir).distance_to(f1) <= 1e-11


class TestValidation:
    def test_off_curve_anchor(self):
        with pytest.raises(OffCurveError):
            two_step(ELL, Point(0.0, 3.1), 0.1)

    def test_anchor_off_a_small_conic(self):
        # 8% outside the vertex of a conic of size 5e-9
        with pytest.raises(OffCurveError):
            two_step(Conic(Ellipse(5e-9, 3e-9)), Point(5.4e-9, 0.0), 1e-10)

    def test_non_positive_delta(self):
        with pytest.raises(ValueError):
            two_step(ELL, TOP, 0.0)
        with pytest.raises(ValueError):
            two_step(ELL, TOP, -0.1)
        with pytest.raises(ValueError):
            two_step(ELL, TOP, math.inf)

    def test_bad_orientation(self):
        with pytest.raises(ValueError):
            two_step(ELL, TOP, 0.1, "sideways")  # type: ignore[arg-type]


class TestDegenerate:
    def test_parabola_vertex_collapses(self):
        tri = two_step(Conic(Parabola(1)), Point(0, 0), 0.1)
        assert tri.degenerate
        assert tri.B.distance_to(tri.A) <= 1e-12 * 1.1
        assert tri.residual_b == 0.0

    def test_hyperbola_vertex_collapses(self):
        tri = two_step(Conic(Hyperbola(3, 4)), Point(3, 0), 0.01)
        assert tri.degenerate

    def test_ellipse_major_vertex_collapses(self):
        tri = two_step(ELL, Point(5, 0), 0.05)
        assert tri.degenerate

    def test_step_on_a_small_conic_is_not_a_retrace(self):
        # |B - A| is about 1.4e-13, a fair chord on a conic of size 5 * 2**-30;
        # an absolute 1e-12 * (1 + delta) took it for a retrace
        conic = Conic(Ellipse(5 * 2**-30, 3 * 2**-30))
        tri = two_step(conic, conic.point_at(1.0), 1e-4 * 2**-30)
        assert tri.B.distance_to(tri.A) == pytest.approx(1.4e-13, rel=0.05)
        assert not tri.degenerate
        assert isinstance(apex_reflector(tri), Line)

    def test_apex_reflector_refuses_degenerate(self):
        tri = two_step(Conic(Parabola(1)), Point(0, 0), 0.1)
        with pytest.raises(DegenerateTriangleError):
            apex_reflector(tri)
        with pytest.raises(DegenerateTriangleError):
            reflect_through_apex(tri)


class TestApexReflector:
    def test_line_through_apex_parallel_to_base(self):
        tri = two_step(ELL, TOP, 0.1)
        line = apex_reflector(tri)
        assert line.point == tri.D
        base = direction(tri.A, tri.B)
        assert abs(abs(line.direction.dot(base)) - 1.0) <= 1e-15

    def test_symmetric_triangle(self):
        tri = _manual_triangle(Point(-1, 0), Point(0, 1), Point(1, 0))
        line = apex_reflector(tri)
        assert line.point == tri.D
        assert abs(line.direction.y) <= 1e-15

    def test_reflection_recovers_second_leg(self):
        rng = random.Random(73)
        worst = 0.0
        for _ in range(150):
            conic = random_conic(rng, placed=rng.random() < 0.5)
            anchor = conic.point_at(random_param(rng, conic))
            tri = two_step(conic, anchor, 10.0 ** rng.uniform(-3, -0.5))
            if tri.degenerate:
                continue
            out = reflect_through_apex(tri)
            worst = max(worst, abs(out.x - tri.leg2_dir.x), abs(out.y - tri.leg2_dir.y))
        assert worst <= 1e-12

    def test_symmetric_reflection_flips_vertical_component(self):
        tri = _manual_triangle(Point(-1, 0), Point(0, 1), Point(1, 0))
        out = reflect_through_apex(tri)
        inv = 1.0 / math.sqrt(2.0)
        assert out.x == pytest.approx(inv, abs=1e-15)
        assert out.y == pytest.approx(-inv, abs=1e-15)

    def test_worked_example_outgoing_aims_at_far_focus(self):
        tri = two_step(ELL, TOP, 0.1)
        out = reflect_through_apex(tri)
        want = direction(tri.D, Point(4.0, 0.0))
        assert abs(out.x - want.x) <= 1e-12
        assert abs(out.y - want.y) <= 1e-12


    # Walks from near a vertex whose legs nearly retrace: u1 + u2 cancels, so
    # unit(u1 + u2) carried an error of about eps / |u1 + u2|.  These two
    # missed the identity by 8.54e-12 and 9.1e-9.
    @pytest.mark.parametrize("shape, t", [(Ellipse(5, 3), 1e-5), (Parabola(1), 1e-8)])
    def test_identity_holds_for_legs_that_nearly_retrace(self, shape, t):
        c = Conic(shape)
        tri = two_step(c, c.point_at(t), 0.1)
        assert not tri.degenerate
        assert tri.leg1_dir.dot(tri.leg2_dir) < -0.99
        out = reflect_through_apex(tri)
        assert max(abs(out.x - tri.leg2_dir.x), abs(out.y - tri.leg2_dir.y)) <= 1e-15

    def test_identity_holds_near_every_vertex(self):
        # Every non-degenerate walk from +-10^-k of a vertex: 608 walks, of
        # which the sum form of the chord failed 283, by up to 4.2e-6.
        walks = worst = 0
        for shape, pose, k, sign, delta in itertools.product(
                (Ellipse(5, 3), Parabola(1), Hyperbola(3, 4, 1), Hyperbola(3, 4, -1)),
                (Placement(), Placement(1.5, -2.25, 0.7)), range(17), (1, -1),
                (0.5, 0.1, 1e-3, 1e-6)):
            conic = Conic(shape, pose)
            tri = two_step(conic, conic.point_at(sign * 10.0 ** -k), delta)
            if tri.degenerate:
                continue
            walks += 1
            out = reflect_through_apex(tri)
            worst = max(worst, abs(out.x - tri.leg2_dir.x), abs(out.y - tri.leg2_dir.y))
        assert walks == 608
        assert worst <= 1e-15

    def test_chord_of_legs_that_nearly_retrace_points_along_their_sum(self):
        # The normal of u1 - u2 is turned the way u1 + u2 points, as the sum
        # form is, so the apex reflector's direction keeps its sign.
        for shape, t in ((Ellipse(5, 3), 1e-5), (Parabola(1), -1e-8), (Hyperbola(3, 4, -1), 1e-4)):
            conic = Conic(shape, Placement(1.5, -2.25, 0.7))
            tri = two_step(conic, conic.point_at(t), 0.1)
            u1, u2, m = tri.leg1_dir, tri.leg2_dir, apex_reflector(tri).direction
            assert u1.dot(u2) < 0.0
            assert m.x * (u1.x + u2.x) + m.y * (u1.y + u2.y) > 0.0


def _manual_triangle(a: Point, d: Point, b: Point) -> StepTriangle:
    delta = a.distance_to(d)
    return StepTriangle(
        A=a,
        D=d,
        B=b,
        delta=delta,
        leg1_dir=direction(a, d),
        leg2_dir=direction(d, b),
        residual_b=0.0,
        orientation="forward",
        degenerate=False,
    )


class TestFocalChange:
    def test_projection_gap_vanishes(self):
        rng = random.Random(79)
        for _ in range(100):
            conic = random_conic(rng)
            if conic.kind == "parabola":
                continue
            anchor = conic.point_at(random_param(rng, conic))
            tri = two_step(conic, anchor, 10.0 ** rng.uniform(-3, -0.5))
            if tri.degenerate:
                continue
            change = focal_change_error(conic, tri)
            assert change.proj_gap <= 1e-12

    def test_worked_example_parallelism(self):
        tri = two_step(ELL, TOP, 0.1)
        change = focal_change_error(ELL, tri)
        assert change.parallelism_error == pytest.approx(
            0.019305726659095374, rel=1e-9
        )

    def test_parabola_unsupported(self):
        conic = Conic(Parabola(1))
        tri = two_step(conic, Point(2, 1), 0.1)
        with pytest.raises(UnsupportedVariantError):
            focal_change_error(conic, tri)

    def test_parallelism_halves_with_delta(self):
        anchor = ELL.point_at(1.1)
        prev = None
        for k in range(4):
            tri = two_step(ELL, anchor, 0.1 / 2**k)
            err = focal_change_error(ELL, tri).parallelism_error
            if prev is not None:
                assert prev / err == pytest.approx(2.0, rel=0.12)
            prev = err


class TestExactReturn:
    def test_worked_example_t_star(self):
        res = exact_return(ELL, TOP, 0.1)
        assert res.t_star == pytest.approx(0.09996794665544259, abs=1e-12)
        assert res.gap == pytest.approx(3.205334455741449e-05, rel=1e-6)

    def test_endpoint_lands_on_curve(self):
        rng = random.Random(83)
        for _ in range(60):
            conic = random_conic(rng, placed=rng.random() < 0.5)
            anchor = conic.point_at(random_param(rng, conic))
            res = exact_return(conic, anchor, 10.0 ** rng.uniform(-3, -0.7))
            if res.triangle.degenerate:
                continue
            assert abs(conic.residual(res.triangle.B)) <= 1e-12 * (1 + conic.scale)
            # the adjusted second leg has length t_star
            got = res.triangle.D.distance_to(res.triangle.B)
            assert got == pytest.approx(res.t_star, rel=1e-9)

    def test_gap_quarters_with_delta_halving(self):
        anchor = ELL.point_at(1.1)
        gaps = [exact_return(ELL, anchor, 0.1 / 2**k).gap for k in range(4)]
        for lo, hi in zip(gaps[1:], gaps):
            assert hi / lo == pytest.approx(4.0, rel=0.15)

    def test_degenerate_returns_delta_exactly(self):
        res = exact_return(Conic(Parabola(1)), Point(0, 0), 0.1)
        assert res.t_star == 0.1
        assert res.gap == 0.0
        assert res.triangle.degenerate

    def test_unbracketable_step_raises(self):
        conic = Conic(Ellipse(1.0, 0.8))
        anchor = conic.point_at(0.3)
        with pytest.raises(BracketError):
            exact_return(conic, anchor, 2.0)

    def test_bracket_error_exactly_when_ends_share_sign(self):
        """BracketError iff the residual at D + (delta/2) u2 and D + 2 delta u2
        has one sign; otherwise the returned endpoint is on the curve."""
        shapes = (Ellipse(1.0, 0.8), Parabola(0.5), Hyperbola(1.0, 0.5, -1))
        poses = (Placement(), Placement(2.0, -1.5, 0.7), Placement(-3.0, 4.0, -2.4))
        seen = set()
        for shape, pose, orientation in itertools.product(
            shapes, poses, ("forward", "backward")
        ):
            conic = Conic(shape, pose)
            params = (0.3, 2.5, 4.0) if conic.kind == "ellipse" else (-1.2, 0.5, 1.5)
            for t, delta in itertools.product(params, (0.5, 1.0, 2.0, 4.0, 8.0)):
                anchor = conic.point_at(t)
                tri = two_step(conic, anchor, delta, orientation)
                if tri.degenerate:
                    continue
                flo = conic.residual(translate(tri.D, tri.leg2_dir, 0.5 * delta))
                fhi = conic.residual(translate(tri.D, tri.leg2_dir, 2.0 * delta))
                one_sign = flo != 0.0 and fhi != 0.0 and (flo > 0.0) == (fhi > 0.0)
                seen.add((conic.kind, one_sign))
                if one_sign:
                    with pytest.raises(BracketError):
                        exact_return(conic, anchor, delta, orientation)
                else:
                    res = exact_return(conic, anchor, delta, orientation)
                    assert 0.5 * delta <= res.t_star <= 2.0 * delta
                    residual = conic.residual(res.triangle.B)
                    assert abs(residual) <= 1e-12 * (1 + conic.scale)
        # every family shows both outcomes
        assert len(seen) == 6

    def test_t_star_matches_high_precision_root(self, anchor_set):
        """t_star is the leg-2 root to within one ulp-scale of the float inputs.

        The oracle solves the canonical implicit-form quadratic along
        D + t * u2 at 50 digits, from the canonical walk's float apex and
        direction, the inputs exact_return solves from.
        """
        eps = 2.220446049250313e-16
        for conic, anchor in anchor_set:
            ac = conic._require_on_curve(anchor.x, anchor.y, DEFAULT)
            for k in range(11):
                delta = 0.1 / 2**k
                res = exact_return(conic, anchor, delta)
                if res.triangle.degenerate:
                    continue
                _, _, dx, dy, u2x, u2y, _, _ = _walk_xy(conic.shape, *ac, delta, "forward")
                want = float(oracle.return_length(conic.shape, dx, dy, u2x, u2y, delta))
                assert abs(res.t_star - want) <= eps * (1 + conic.scale)

    @pytest.mark.parametrize("ox", [-1.0, -4.0])
    def test_bracket_end_on_hyperbola_axis_has_no_branch(self, ox):
        # delta = 2 puts the bracket ends at t = 1 and t = 4, so the
        # canonical x of one end is exactly 0
        with pytest.raises(NoBranchError):
            _return_xy(Hyperbola(3.0, 4.0), ox, 0.5, 1.0, 0.0, 2.0)

    def test_bracket_end_on_the_curve_is_the_answer(self):
        # from below the vertex of x^2 = 4y, straight up: the end at
        # t = delta/2 or t = 2 delta is the vertex, where the residual is 0
        assert _return_xy(Parabola(1.0), 0.0, -0.25, 0.0, 1.0, 0.5)[0] == 0.25
        assert _return_xy(Parabola(1.0), 0.0, -1.0, 0.0, 1.0, 0.5)[0] == 1.0
        # from above, down onto the vertex: the end at t = 2 delta is the
        # answer although the lower end's residual is negative, not positive
        assert _return_xy(Parabola(1.0), 0.0, 1.0, 0.0, -1.0, 0.5)[0] == 1.0

    @pytest.mark.parametrize("shape, ray, delta, t", [
        # the lower end is within rounding of the curve, on the side of the
        # upper end's opposite sign, and the ray grazes the curve there: the
        # quadratic has no real root, so the closer end is the answer
        (Hyperbola(3.3187496397664353, 1.2108718518371173),
         (5.746508772281734, 1.7122452694485588, -0.9106048354254475, -0.41327815536245543),
         0.36537131111643706, 0.5 * 0.36537131111643706),
        (Ellipse(3.437384252194526, 0.6488649950774505),
         (-2.8849556459341312, -0.35279659207297465, -0.9591783814788974, 0.28280175477447556),
         0.020721646010686535, 0.5 * 0.020721646010686535),
    ], ids=["hyperbola", "ellipse"])
    def test_sign_change_below_rounding_keeps_the_closer_end(self, shape, ray, delta, t):
        ox, oy, dx, dy = ray
        lo, hi = 0.5 * delta, 2.0 * delta
        flo = shape._residual(ox + lo * dx, oy + lo * dy)
        fhi = shape._residual(ox + hi * dx, oy + hi * dy)
        assert (flo > 0.0) != (fhi > 0.0) and abs(flo) < 1e-15 < abs(fhi)
        assert shape._ray_roots(ox, oy, dx, dy, 0.0)[0] == 0
        assert _return_xy(shape, ox, oy, dx, dy, delta)[0] == t

    def test_bracket_error_is_conic_error(self):
        assert issubclass(BracketError, ConicError)


class TestFrozenOutput:
    def test_construction_digest(self):
        # Frozen: any change to the arithmetic of a walk, an exact return,
        # a sweep metric or a scene's serialized text moves the digest.
        parts = []
        for conic, t in POSED:
            anchor = conic.point_at(t)
            for orientation in ("forward", "backward"):
                cfg = SweepConfig(conic=conic, anchor=anchor, delta0=0.1, halvings=8,
                                  orientation=orientation)
                parts.append(run_sweep(cfg).to_csv())
                for delta in (0.2, 0.05, 0.003):
                    parts.append(repr(exact_return(conic, anchor, delta, orientation)))
        for name in ("cassegrain.json", "ellipse.json"):
            path = resources.files("conicsteps").joinpath("scenes", name)
            parts.append(serialize_scene(load_scene(str(path))))
        assert len(parts) == 34
        digest = hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()
        # Re-recorded when the chord of legs that nearly retrace became the
        # normal of u1 - u2 (closer to the 50-digit walk; see CHANGES.md).
        assert digest == "0c61c4ebe1a69ec6712d94609b3091129ce59df803b61ef96fc1560b9c4fca5d"

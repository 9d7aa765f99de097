"""Ray-conic intersection, reflection, tracing, and the two-mirror scene."""
from __future__ import annotations

import collections
import dataclasses
import hashlib
import math
import random
import re
import sys
import types

import pytest

from conicsteps import (
    Conic,
    DegenerateDirectionError,
    Direction,
    Ellipse,
    Hyperbola,
    NoBranchError,
    OffCurveError,
    Parabola,
    Placement,
    Point,
    Ray,
    Scene,
    Tolerances,
    UnsupportedVariantError,
    apex_reflector,
    cassegrain_spot,
    exact_return,
    focal_change_error,
    focal_property_error,
    intersect_ray,
    ray_line_distance,
    reflect_at,
    reflect_through_apex,
    spot_report,
    trace,
    two_step,
)
from conicsteps import conics, optics
from conicsteps.svgout import default_cassegrain_scene
from conftest import pose_scene, random_conic, random_param

ELL = Conic(Ellipse(5, 3))


class TestIntersect:
    def test_ray_from_inside_hits_once(self):
        hits = intersect_ray(ELL, Ray(Point(-4, 0), Direction(4, 3)))
        assert len(hits) == 1
        t, q = hits[0]
        assert t == pytest.approx(5.0, rel=1e-12)
        assert q.x == pytest.approx(0.0, abs=1e-12)
        assert q.y == pytest.approx(3.0, abs=1e-12)

    def test_vertical_ray_hits_parabola(self):
        hits = intersect_ray(Conic(Parabola(1)), Ray(Point(2, 5), Direction(0, -1)))
        assert len(hits) == 1
        _, q = hits[0]
        assert (q.x, q.y) == (2.0, 1.0)

    def test_crossing_ray_reports_both_hits_sorted(self):
        hits = intersect_ray(ELL, Ray(Point(-9, 0), Direction(1, 0)))
        assert [round(q.x, 9) for _, q in hits] == [-5.0, 5.0]
        assert [t for t, _ in hits] == [pytest.approx(4.0, rel=1e-12),
                                        pytest.approx(14.0, rel=1e-12)]

    def test_tangency_merges_to_single_hit(self):
        hits = intersect_ray(ELL, Ray(Point(-9, 3), Direction(1, 0)))
        assert len(hits) == 1
        t, q = hits[0]
        assert t == pytest.approx(9.0, abs=1e-9)
        assert q.x == pytest.approx(0.0, abs=1e-9)
        assert q.y == pytest.approx(3.0, abs=1e-9)

    def test_noise_floor_keeps_a_far_tangency(self):
        # a ray tangent at point_at(1.1), from 1000 back along the tangent:
        # its discriminant, -2.9e-11, is below the merge window's
        # -(1e-7 A)^2 = -5.4e-15, so only the discriminant's noise floor
        # keeps the one hit
        q = ELL.point_at(1.1)
        tangent, _ = ELL.tangent_normal(q)
        ray = Ray(Point(q.x - 1000.0 * tangent.x, q.y - 1000.0 * tangent.y), tangent)
        ((t, hit),) = intersect_ray(ELL, ray)
        assert t == pytest.approx(1000.0, rel=1e-12)
        assert hit.distance_to(q) <= 1e-9

    def test_tangency_perturbation_splits_or_misses(self):
        above = intersect_ray(ELL, Ray(Point(-9, 3 + 1e-6), Direction(1, 0)))
        below = intersect_ray(ELL, Ray(Point(-9, 3 - 1e-6), Direction(1, 0)))
        assert len(above) == 0
        assert len(below) == 2

    def test_self_hit_suppressed(self):
        # grazing departure from an on-curve point: the double root at t=0
        # is the launch point itself and must not be reported
        assert intersect_ray(ELL, Ray(Point(0, 3), Direction(1, 0))) == ()

    def test_far_hit_window_is_fixed(self):
        # hits beyond t = 1e12 u, u the mirror's length unit, are discarded
        # as cancellation noise, in intersect_ray and in trace alike; the ray
        # meets the vertex of Parabola(1) (u = 1) head on, at t = -y
        far = Ray(Point(0.0, -2e12), Direction(0.0, 1.0))
        unit = Conic(Parabola(1))
        assert intersect_ray(unit, far) == ()
        assert trace(Scene(mirrors=(unit,)), far).hits == ()
        near = Ray(Point(0.0, -5e11), Direction(0.0, 1.0))
        assert intersect_ray(unit, near) == ((5e11, Point(0.0, 0.0)),)
        assert len(trace(Scene(mirrors=(unit,)), near).hits) == 1
        # the window scales with the conic: 2e12 away is inside the window
        # of an ellipse whose unit is 2**40
        ray = Ray(Point(0.0, 0.0), Direction(1.0, 0.0))
        big = Conic(Ellipse(2e12, 1e12))
        assert [t for t, _ in intersect_ray(big, ray)] == [pytest.approx(2e12, rel=1e-15)]
        assert len(trace(Scene(mirrors=(big,)), ray).hits) == 8

    def test_branch_filter(self):
        ray = Ray(Point(-10, 0), Direction(1, 0))
        plus = intersect_ray(Conic(Hyperbola(3, 4)), ray)
        minus = intersect_ray(Conic(Hyperbola(3, 4, branch=-1)), ray)
        assert [q.x for _, q in plus] == [pytest.approx(3.0, abs=1e-12)]
        assert [q.x for _, q in minus] == [pytest.approx(-3.0, abs=1e-12)]

    def test_miss_returns_empty(self):
        assert intersect_ray(ELL, Ray(Point(0, 4), Direction(1, 0))) == ()

    def test_overflowing_coefficient_is_a_miss(self):
        # far off to the side of a unit circle, x^2 + y^2 - 1 overflows: with
        # C = inf the discriminant is -inf and its noise floor inf, which was
        # taken for a tangency at the vertex of the overflowed quadratic
        assert conics.kernels.quadratic_roots(1.0, -2.0, math.inf, 1e-7)[0] == 0
        circle = Conic(Ellipse(1, 1))
        ray = Ray(Point(1e200, -1), Direction(0, 1))
        assert intersect_ray(circle, ray) == ()
        assert trace(Scene(mirrors=(circle,)), ray).hits == ()

    def test_constant_quadratic_has_no_root(self):
        # A == B == 0: the quadratic is the constant C, zero or not
        for C in (0.0, 1.0, -2.0):
            assert conics.kernels.quadratic_roots(0.0, 0.0, C, 1e-7) == (0, 0.0, 0.0)

    def test_non_finite_canonical_origin(self):
        # both coordinates are finite in the scene; moving the origin into
        # the conic's frame overflows
        conic = Conic(Ellipse(5, 3), Placement(-1e308, 0.0, 0.0))
        ray = Ray(Point(1e308, 0.0), Direction(1.0, 0.0))
        with pytest.raises(ValueError,
                           match=r"^point coordinates must be finite, got \(inf, nan\)$"):
            intersect_ray(conic, ray)

    def test_one_non_finite_canonical_coordinate(self):
        # rotating the origin overflows x only; a guard that needs both
        # coordinates non-finite solved on and reported a miss
        scene = Scene(mirrors=(Conic(Ellipse(5, 3), Placement(rotate=math.pi / 4)),))
        with pytest.raises(ValueError, match=r"^point coordinates must be finite, got \(inf, "):
            trace(scene, Ray(Point(1.5e308, 1.5e308), Direction(1, 0)))

    def test_scene_hit_past_the_float_range(self):
        # the hit is finite in the mirror's frame (x ~ 6.3e302), but moving
        # it by ty = M/2 into the scene overflows y
        half = sys.float_info.max / 2.0
        conic = Conic(Parabola(1e297), Placement(ty=half))
        ray = Ray(Point(0.0, half), Direction(6.3e-6, 1.0))
        message = r"^point coordinates must be finite, got \(6\.349\d+e\+302, inf\)$"
        with pytest.raises(ValueError, match=message):
            intersect_ray(conic, ray)
        with pytest.raises(ValueError, match=message):
            trace(Scene(mirrors=(conic,)), ray)

    def test_canonical_hit_past_the_float_range(self):
        # in the unit of Parabola(1e308), 2**1023, the ray from (1e308, 9e307)
        # leaves the curve at t ~ 0.9e308, finite and inside the window, but
        # its x there, about 1.9e308, is past the float range
        conic = Conic(Parabola(1e308))
        ray = Ray(Point(1e308, 9e307), Direction(1.0, 0.0))
        message = r"^point coordinates must be finite, got \(inf, 9e\+307\)$"
        with pytest.raises(ValueError, match=message):
            intersect_ray(conic, ray)
        with pytest.raises(ValueError, match=message):
            trace(Scene(mirrors=(conic,)), ray)

    def test_far_root_past_the_float_range(self):
        # the ray crosses Parabola(1e308) twice, at x = -+sqrt(2) * 1e308; in
        # the unit, 2**1023, both roots are finite, but the farther one
        # multiplied back, t ~ 2.9e308, is past the float range.  It is
        # dropped as past the window, and the nearer hit is kept.
        conic = Conic(Parabola(1e308))
        ((t, q),) = intersect_ray(conic, Ray(Point(-1.5e308, 5e307), Direction(1.0, 0.0)))
        assert q.x == pytest.approx(-math.sqrt(2.0) * 1e308, rel=1e-12)
        assert q.y == 5e307
        assert t == pytest.approx(1.5e308 - math.sqrt(2.0) * 1e308, rel=1e-9)
        assert conic.is_on_curve(q)

    def test_parabola_past_the_overflow_of_its_coefficients(self):
        # the unscaled coefficients (0.36, -3.2e200, 4e200) overflow B*B, so
        # the discriminant's noise floor was infinite and the ray a miss; in
        # the parabola's unit they are of order one.  The crossing near
        # t = 1.25 is the ray's origin at this size (its residual is 2),
        # inside the self-hit window.
        conic = Conic(Parabola(1e200))
        ((t, q),) = intersect_ray(conic, Ray(Point(1.0, -1.0), Direction(0.6, 0.8)))
        assert t == pytest.approx(8.0e200 / 0.9, rel=1e-12)
        assert conic.is_on_curve(q)

    def test_hits_satisfy_residual_and_parameter(self):
        rng = random.Random(101)
        checked = 0
        for _ in range(2000):
            conic = random_conic(rng, placed=rng.random() < 0.5)
            ray = Ray(
                Point(rng.uniform(-20, 20), rng.uniform(-20, 20)),
                Direction(rng.uniform(-1, 1) or 0.5, rng.uniform(-1, 1) or 0.5),
            )
            for t, q in intersect_ray(conic, ray):
                assert abs(conic.residual(q)) <= 1e-7 * (1.0 + conic.scale)
                assert (
                    math.hypot(
                        ray.origin.x + t * ray.dir.x - q.x,
                        ray.origin.y + t * ray.dir.y - q.y,
                    )
                    <= 1e-9 * (1.0 + abs(t))
                )
                checked += 1
        assert checked > 500  # the sample must actually exercise hits


class TestThinShapes:
    # the ray coefficients divide by the smaller length squared in the
    # conic's unit, so a shape where that square underflows is refused by
    # name, not reported as the in-unit shape or a ZeroDivisionError
    @pytest.mark.parametrize("shape", [Ellipse(1e300, 1e-30), Hyperbola(1e300, 1e-30),
                                       Ellipse(2, 1e-320), Hyperbola(1e-320, 2, -1)])
    def test_refused_naming_the_given_shape(self, shape):
        message = rf"^{re.escape(repr(shape))} is too thin for float arithmetic: "
        conic = Conic(shape)
        ray = Ray(Point(0.0, 0.0), Direction(0.6, 0.8))
        with pytest.raises(ValueError, match=message):
            intersect_ray(conic, ray)
        with pytest.raises(ValueError, match=message):
            trace(Scene(mirrors=(conic,)), ray)
        with pytest.raises(ValueError, match=message):
            reflect_at(conic, conic.point_at(0.0), Direction(0.6, 0.8))

    def test_thin_but_traceable(self):
        # the smaller length squared, 2**-1074 in the unit, is the least
        # subnormal: still traced
        conic = Conic(Ellipse(1.0, 2.0 ** -537))
        assert intersect_ray(conic, Ray(Point(-2.0, 0.0), Direction(1.0, 0.0)))


class TestReflectAt:
    def test_ellipse_top(self):
        out = reflect_at(ELL, Point(0, 3), Direction(0.8, 0.6))
        assert out.x == pytest.approx(0.8, abs=1e-15)
        assert out.y == pytest.approx(-0.6, abs=1e-15)

    def test_parabola_aims_at_focus(self):
        out = reflect_at(Conic(Parabola(1)), Point(2, 1), Direction(0, -1))
        assert out.x == pytest.approx(-1.0, abs=1e-12)
        assert out.y == pytest.approx(0.0, abs=1e-12)

    def test_hyperbola_vertex_retroreflects(self):
        out = reflect_at(Conic(Hyperbola(3, 4)), Point(3, 0), Direction(1, 0))
        assert out.x == pytest.approx(-1.0, abs=1e-15)
        assert out.y == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("shape", [Ellipse(1e180, 1e179), Hyperbola(1e180, 1e179)])
    def test_far_point_of_a_huge_conic_is_off_the_curve(self, shape):
        # the residual at (1, -7) was NaN in the caller's frame, and the fast
        # on-curve check let it pass; in the shape's unit it is finite
        # (-1.0e178 on the ellipse, -2e180 on the hyperbola) and refused
        with pytest.raises(OffCurveError, match=r"residual -[\d.]+e\+1(78|80) exceeds"):
            reflect_at(Conic(shape), Point(1.0, -7.0), Direction(1.0, 0.0))

    def test_nan_residual_is_off_the_curve(self):
        # both focal distances overflow, so the residual is inf - inf = NaN
        with pytest.raises(OffCurveError, match=r"residual nan exceeds"):
            reflect_at(Conic(Hyperbola(1.0, 1.0)), Point(1.5e308, 1.5e308), Direction(1.0, 0.0))

    def test_far_parabola_bounce(self):
        # the hit at x = -sqrt(2) * 1e308 is on Parabola(1e308), but the
        # gradient (2x, -4p) taken in the caller's frame overflowed to
        # (-inf, -inf); in the parabola's unit it is of order one
        scene = Scene(mirrors=(Conic(Parabola(1e308)),))
        (hit,) = trace(scene, Ray(Point(-1.5e308, 5e307), Direction(1.0, 0.0))).hits
        assert hit.point.x == pytest.approx(-math.sqrt(2.0) * 1e308, rel=1e-12)
        assert hit.outgoing.x == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert hit.outgoing.y == pytest.approx(-math.sqrt(8.0) / 3.0, abs=1e-12)

    @pytest.mark.parametrize("t", [480.0, 700.0, -700.0])
    def test_far_point_of_a_thin_hyperbola(self, t):
        # the gradient overflowed at this finite on-curve point; the bounce
        # loop's rare path retakes it at the point scaled by a power of two
        c = Conic(Hyperbola(1e-100, 1))
        out = reflect_at(c, c.point_at(t), Direction(-1.0, 0.0))
        assert out.x == 1.0
        assert out.y == pytest.approx(math.copysign(2e-100, -t), rel=4e-16)
        if t == 480.0:
            assert out.y == -2e-100

    def test_reversed_ray_retraces_path(self):
        rng = random.Random(103)
        for _ in range(100):
            conic = random_conic(rng, placed=rng.random() < 0.5)
            q = conic.point_at(random_param(rng, conic))
            incoming = Direction(rng.uniform(-1, 1) or 0.3, rng.uniform(-1, 1) or 0.7)
            outgoing = reflect_at(conic, q, incoming)
            back = reflect_at(conic, q, outgoing.reversed())
            assert abs(back.x + incoming.x) <= 1e-12
            assert abs(back.y + incoming.y) <= 1e-12


class TestFocalProperty:
    def test_small_everywhere(self):
        rng = random.Random(107)
        worst = 0.0
        for _ in range(600):
            conic = random_conic(rng, placed=rng.random() < 0.5)
            q = conic.point_at(random_param(rng, conic))
            worst = max(worst, focal_property_error(conic, q))
        assert worst <= 1e-9

    def test_circle_limit(self):
        circle = Conic(Ellipse(2.0, 2.0))
        q = circle.point_at(0.9)
        assert focal_property_error(circle, q) <= 1e-9

    @pytest.mark.parametrize("shape, focus", [
        (Ellipse(5, 3), Point(-4, 0)),
        (Parabola(1), Point(0, 1)),
        (Hyperbola(3, 4), Point(5, 0)),
    ])
    def test_focus_is_off_the_curve(self, shape, focus):
        # the beam from the focus was normalized before the on-curve check,
        # so a focus raised DegenerateDirectionError
        with pytest.raises(OffCurveError):
            focal_property_error(Conic(shape), focus)

    def test_checks_on_curve_once(self, monkeypatch):
        # the reflection reuses the canonical point of the one check; it
        # used to map q to the canonical frame and check it again
        calls = []
        real = Conic._require_on_curve

        def spy(self, *args, **kwargs):
            calls.append(args)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(Conic, "_require_on_curve", spy)
        for shape in (Ellipse(5, 3), Parabola(1), Hyperbola(3, 4, -1)):
            conic = Conic(shape, Placement(0.5, -1.0, 0.3))
            calls.clear()
            focal_property_error(conic, conic.point_at(0.7))
            assert len(calls) == 1

    def test_far_point_of_a_parabola(self):
        c = Conic(Parabola(1))
        assert focal_property_error(c, c.point_at(1e30)) == 0.0

    def test_far_point_of_a_thin_hyperbola(self):
        c = Conic(Hyperbola(1e-100, 1))
        assert focal_property_error(c, c.point_at(480.0)) == 0.0
        assert focal_property_error(c, c.point_at(700.0)) <= 1e-15
        assert focal_property_error(c, c.point_at(-700.0)) <= 1e-15

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP items 3 and 4: the pose's rounding moves this far on-curve point "
        "onto the canonical axis, where the gradient is the vertex normal"))
    def test_far_point_of_a_posed_parabola(self):
        c = Conic(Parabola(1), Placement(0, 0, 0.5))
        assert focal_property_error(c, c.point_at(1e30)) <= 1e-9

    def test_keeps_its_other_checks(self):
        with pytest.raises(OffCurveError):
            focal_property_error(ELL, Point(0.0, 3.1))
        with pytest.raises(NoBranchError):
            focal_property_error(Conic(Hyperbola(3, 4)), Point(0.0, 1.0))


class TestScene:
    def test_roles_default_to_mirror(self):
        scene = Scene(mirrors=(ELL,))
        assert scene.roles == ("mirror",)

    # An empty generator is truthy, so the default was once decided by the
    # container rather than by what it holds.
    @pytest.mark.parametrize("make", [tuple, list, lambda roles: (r for r in roles)])
    def test_roles_default_whatever_the_container(self, make):
        assert Scene(mirrors=(ELL,), roles=make([])).roles == ("mirror",)
        assert Scene(mirrors=(ELL,), roles=make(["mirror"])).roles == ("mirror",)

    def test_bare_shape_mirror_is_coerced(self):
        # a bare shape was accepted, then trace raised AttributeError
        scene = Scene(mirrors=(Ellipse(5, 3),))
        assert scene.mirrors == (ELL,)
        assert scene == Scene(mirrors=(ELL,))
        assert len(trace(scene, Ray(Point(-4, 0), Direction(4, 3))).hits) == 8

    def test_non_conic_mirror_is_type_error(self):
        with pytest.raises(TypeError, match="expected a conic or shape"):
            Scene(mirrors=(Point(0, 0),))

    def test_rays_must_be_rays(self):
        # a Point was accepted as a ray, then trace raised AttributeError
        with pytest.raises(TypeError, match="Ray"):
            Scene(mirrors=(ELL,), rays=[Point(0, 0)])

    def test_role_count_mismatch(self):
        with pytest.raises(ValueError):
            Scene(mirrors=(ELL,), roles=("mirror", "mirror"))

    def test_unknown_role(self):
        with pytest.raises(ValueError):
            Scene(mirrors=(ELL,), roles=("lens",))

    def test_duplicate_primary(self):
        par = Conic(Parabola(1))
        with pytest.raises(ValueError):
            Scene(mirrors=(par, par), roles=("primary", "primary"))

    def test_primary_must_be_parabola(self):
        with pytest.raises(ValueError):
            Scene(mirrors=(ELL,), roles=("primary",))

    def test_secondary_must_be_hyperbola(self):
        par = Conic(Parabola(1))
        with pytest.raises(ValueError):
            Scene(mirrors=(par, par), roles=("primary", "secondary"))

    def test_confocality_enforced(self):
        par = Conic(Parabola(1))
        sec = Conic(Hyperbola(0.5, 0.6, branch=-1), Placement(0.0, 0.5, -math.pi / 2))
        with pytest.raises(ValueError):
            Scene(mirrors=(par, sec), roles=("primary", "secondary"))

    def test_confocal_tol_escape_hatch(self):
        base = default_cassegrain_scene()
        displaced = dataclasses.replace(
            base.mirrors[1],
            placement=dataclasses.replace(
                base.mirrors[1].placement, ty=base.mirrors[1].placement.ty + 1e-3
            ),
        )
        with pytest.raises(ValueError):
            dataclasses.replace(base, mirrors=(base.mirrors[0], displaced))
        loose = dataclasses.replace(
            base, mirrors=(base.mirrors[0], displaced), tolerances=Tolerances(confocal=1e-2)
        )
        assert loose.tolerances.confocal == 1e-2

    @pytest.mark.parametrize("k", [-40, 25, 30, 60])
    def test_stock_telescope_is_confocal_at_any_scale(self, k):
        # Scaling by 2^k is exact, so the pair stays as confocal as it was;
        # only the rounding of its focus gap grows with the size.
        base = default_cassegrain_scene()
        f = math.ldexp(1.0, k)
        primary, secondary = base.mirrors
        h, pl = secondary.shape, secondary.placement
        scene = dataclasses.replace(base, mirrors=(
            Conic(Parabola(primary.shape.p * f)),
            Conic(Hyperbola(h.a * f, h.b * f, h.branch),
                  Placement(pl.tx * f, pl.ty * f, pl.rotate)),
        ))
        assert scene.telescope_pair() == scene.mirrors

    @pytest.mark.parametrize("k", [-40, 0, 60])
    @pytest.mark.parametrize("gap,ok", [(0.75e-9, True), (1.25e-9, False)])
    def test_confocal_gate_is_in_the_larger_unit(self, k, gap, ok):
        # the larger length unit of the stock pair is the primary's, 2^k for
        # Parabola(2^k); the secondary's is half that
        f = math.ldexp(1.0, k)
        h = default_cassegrain_scene().mirrors[1]
        primary = Conic(Parabola(f))
        secondary = Conic(Hyperbola(h.shape.a * f, h.shape.b * f, h.shape.branch),
                          Placement(0.0, h.placement.ty * f + gap * f, h.placement.rotate))
        pair = {"mirrors": (primary, secondary), "roles": ("primary", "secondary")}
        if ok:
            Scene(**pair)
        else:
            with pytest.raises(ValueError, match="not confocal"):
                Scene(**pair)

    def test_max_bounces_positive(self):
        with pytest.raises(ValueError):
            Scene(mirrors=(ELL,), max_bounces=0)

    @pytest.mark.parametrize("value", [10_001, 10**15])
    def test_max_bounces_is_capped(self, value):
        # any integer was accepted, and a trace keeps every bounce up to the
        # cap (a ray never leaves an ellipse), so the work per ray had no bound
        assert Scene(mirrors=(ELL,), max_bounces=optics.MAX_BOUNCES).max_bounces == 10_000
        with pytest.raises(ValueError, match="max_bounces must be at most 10000 "):
            Scene(mirrors=(ELL,), max_bounces=value)

    @pytest.mark.parametrize("value", [True, 2.5])
    def test_max_bounces_must_be_an_int(self, value):
        # True serialized as "max_bounces": true, which parse_scene rejects;
        # 2.5 failed later, inside trace, with a TypeError
        with pytest.raises(ValueError, match="max_bounces"):
            Scene(mirrors=(ELL,), max_bounces=value)


class TestRay:
    def test_tuple_direction_is_type_error(self):
        # a tuple direction was accepted, then trace raised AttributeError
        with pytest.raises(TypeError, match="Direction"):
            Scene(mirrors=(Ellipse(5, 3),), rays=(Ray(Point(0, 0), (1.0, 0.0)),))

    def test_tuple_origin_is_type_error(self):
        with pytest.raises(TypeError, match="Point"):
            Ray((0.0, 0.0), Direction(1.0, 0.0))


class TestSceneTolerances:
    """Every field of ``Scene.tolerances``, and the far-hit window, reaches ``trace``."""

    # A hit far out on an unbounded mirror whose focal residual rounds past
    # the default on-curve bound (about one ulp of |q|).
    FAR = Scene(mirrors=(Conic(Parabola(15.005139657844566), Placement(
        4.858639398674109, 4.476153546859036, 0.15773819922633248)),))
    FAR_RAY = Ray(Point(-57.74866606423953, 296.80279335864697),
                  Direction(0.12524483622638735, -0.9921258644943318))

    def test_tolerances_must_be_a_policy(self):
        with pytest.raises(TypeError, match="Tolerances"):
            Scene(mirrors=(ELL,), tolerances=1e-6)

    def test_far_hit_is_on_the_curve(self):
        # its residual, -1.19e-7, is rounding at |q| ~ 8e8, below the floor
        # of the on-curve bound there
        assert len(trace(dataclasses.replace(self.FAR, max_bounces=5), self.FAR_RAY).hits) == 5

    def test_on_curve_read_from_scene(self, monkeypatch):
        # without the rounding floor the far hits fail the default bound
        monkeypatch.setattr(conics, "_ROUNDING_FLOOR", 0.0)
        far = dataclasses.replace(self.FAR, max_bounces=5)
        with pytest.raises(OffCurveError):
            trace(far, self.FAR_RAY)
        loose = dataclasses.replace(far, tolerances=Tolerances(on_curve=1e-3))
        assert len(trace(loose, self.FAR_RAY).hits) == 5

    # The far-hit window is a solver constant, not a scene field; shrinking
    # it shows trace and the spot statistics both read the one window.
    def test_max_ray_t_read_by_trace(self, monkeypatch):
        scene = Scene(mirrors=(ELL,))
        ray = Ray(Point(0.0, 0.0), Direction(0.0, 1.0))  # the mirror is 3 away
        assert len(trace(scene, ray).hits) >= 1
        monkeypatch.setattr(optics, "_MAX_RAY_T", 0.5)  # t = 2 in the mirror's unit, 4
        assert trace(scene, ray).hits == ()

    # The window is ``_SELF_HIT < t <= _MAX_RAY_T`` in the mirror's unit:
    # a hit exactly at the far edge is kept, one exactly at the near edge is
    # dropped.
    EDGE_RAY = Ray(Point(0.0, 0.0), Direction(0.0, 1.0))

    def test_hit_at_max_ray_t_is_kept(self, monkeypatch):
        ((t, _),) = intersect_ray(ELL, self.EDGE_RAY)
        monkeypatch.setattr(optics, "_MAX_RAY_T", t / ELL.shape._unit)
        assert intersect_ray(ELL, self.EDGE_RAY)[0][0] == t
        assert trace(Scene(mirrors=(ELL,)), self.EDGE_RAY).hits[0].t == t

    def test_hit_at_self_hit_is_dropped(self, monkeypatch):
        ((t, _),) = intersect_ray(ELL, self.EDGE_RAY)
        monkeypatch.setattr(optics, "_SELF_HIT", t / ELL.shape._unit)
        assert intersect_ray(ELL, self.EDGE_RAY) == ()
        assert trace(Scene(mirrors=(ELL,)), self.EDGE_RAY).hits == ()

    def test_max_ray_t_read_by_spot_statistics(self, monkeypatch):
        scene = default_cassegrain_scene(10)
        assert spot_report(scene, scene.rays).n_missed == 0
        monkeypatch.setattr(optics, "_MAX_RAY_T", 1e-3)
        assert spot_report(scene, scene.rays).n_missed == 10
        report = cassegrain_spot(scene, 6, 4.0)
        assert report.n_missed == report.n_rays == 6


class TestLeaveTheMirror:
    """A bounce leaves its mirror by dropping that mirror's root at the ray's
    origin; the first segment and every other mirror keep the window."""

    def test_far_bouncing_ray_never_repeats_a_bounce(self):
        # The rounding of a hit far up Parabola(1) outgrew the 1e-9 window:
        # the seventh bounce was the sixth again, at t = 5.7e-9, and turned
        # the ray outward, so the trace stopped at 7 bounces.
        path = trace(Scene(mirrors=(PARABOLA,)),
                     Ray(Point(0.5, 3.0), Direction(1e308, -1.7e308)))
        assert len(path.hits) == 8
        first_six = [
            (1.792301994298868, 0.8030866096919245, 2.5488179395523236),
            (-4.777642005277948, 5.706465782649072, 8.198005334919301),
            (33.84723099945867, 286.4087615826789, 283.34724223475246),
            (-247.71082502928007, 15340.163209171651, 15056.387279398052),
            (1813.98860764001, 822638.6671619357, 807301.1365586708),
            (-13284.007700734433, 44116215.14829292, 43293579.11373268),
        ]
        assert [(h.point.x, h.point.y, h.t) for h in path.hits[:6]] == first_six
        for before, after in zip(path.hits, path.hits[1:]):
            assert after.point != before.point
            assert (after.point.x > 0.0) != (before.point.x > 0.0)  # across the bowl

    @pytest.mark.parametrize("tangent", [False, True], ids=["inward", "tangent"])
    def test_left_mirror_drops_its_origin_root(self, monkeypatch, tangent):
        # With the window off, the origin's own root is a hit of a mirror the
        # ray does not leave.  On the mirror it leaves, that root is dropped
        # and the other kept; a tangent ray's one merged root is the origin's.
        monkeypatch.setattr(optics, "_SELF_HIT", -1.0)
        q = ELL.point_at(1.1)
        d = ELL.tangent_normal(q)[0] if tangent else Direction(-1.0, -1.0)
        mirror = optics._mirror(ELL, Tolerances())
        found = optics._hits([mirror, mirror], q.x, q.y, d.x, d.y, 0)
        left = [t for t, _, _, index in found if index == 0]
        other = [t for t, _, _, index in found if index == 1]
        assert left == [t for t in other if t > 1.0]
        assert len(other) == len(left) + 1


class TestTrace:
    @pytest.mark.parametrize("d", [(0.0, 1.0), (1.0, 0.0), (0.6, 0.8)])
    def test_focal_rays_in_a_small_ellipse(self, d):
        # a root-merge window of an absolute 1e-7 merged each ray's two roots
        # into the vertex -B/2A, inside an ellipse of size 5e-9: the vertical
        # ray made no bounce and the others raised OffCurveError
        conic = Conic(Ellipse(5e-9, 3e-9))
        foci = conic.focus_points()
        path = trace(Scene(mirrors=(conic,), max_bounces=4), Ray(foci[0], Direction(*d)))
        assert len(path.hits) == 4
        for i, hit in enumerate(path.hits):  # from one focus to the other
            assert ray_line_distance(Ray(hit.point, hit.outgoing), foci[1 - i % 2]) <= 1e-21

    def test_miss_keeps_original_ray(self):
        scene = Scene(mirrors=(ELL,))
        ray = Ray(Point(0, 4), Direction(1, 0))
        path = trace(scene, ray)
        assert path.hits == ()
        assert path.final == ray

    def test_hit_invariants(self):
        scene = Scene(mirrors=(ELL,), max_bounces=4)
        ray = Ray(Point(-4, 0), Direction(4, 3))
        path = trace(scene, ray)
        assert len(path.hits) == 4
        pos = ray
        for hit in path.hits:
            on_ray = math.hypot(
                pos.origin.x + hit.t * pos.dir.x - hit.point.x,
                pos.origin.y + hit.t * pos.dir.y - hit.point.y,
            )
            assert on_ray <= 1e-9 * (1 + hit.t)
            assert abs(ELL.residual(hit.point)) <= 1e-9 * (1 + ELL.scale)
            pos = Ray(hit.point, hit.outgoing)
        assert path.final.origin == path.hits[-1].point

    def test_ellipse_bounces_alternate_foci(self):
        # a beam through one focus passes through the other after each bounce
        scene = Scene(mirrors=(ELL,), max_bounces=3)
        f1, f2 = ELL.focus_points()
        path = trace(scene, Ray(f1, Direction(1, 2)))
        assert len(path.hits) == 3
        targets = (f2, f1, f2)
        for hit, target in zip(path.hits, targets):
            line_ray = Ray(hit.point, hit.outgoing)
            assert ray_line_distance(line_ray, target) <= 1e-9

    def test_max_bounces_cap(self):
        scene = Scene(mirrors=(ELL,), max_bounces=2)
        path = trace(scene, Ray(Point(-4, 0), Direction(4, 3)))
        assert len(path.hits) == 2

    def test_nearest_mirror_wins(self):
        inner = Conic(Ellipse(2, 1))
        scene = Scene(mirrors=(ELL, inner), max_bounces=1)
        path = trace(scene, Ray(Point(-9, 0), Direction(1, 0)))
        assert path.hits[0].mirror_index == 0  # outer ellipse met first at x=-5
        path2 = trace(scene, Ray(Point(-4.5, 0), Direction(1, 0)))
        assert path2.hits[0].mirror_index == 1

    def test_tie_goes_to_the_lower_index(self):
        # two coincident mirrors tie on every hit distance
        scene = Scene(mirrors=(ELL, ELL), max_bounces=4)
        path = trace(scene, Ray(Point(-4, 0), Direction(4, 3)))
        assert [h.mirror_index for h in path.hits] == [0, 0, 0, 0]
        telescope = default_cassegrain_scene(4)
        primary, secondary = telescope.mirrors
        doubled = dataclasses.replace(telescope, mirrors=(primary, secondary, primary),
                                      roles=("primary", "secondary", "mirror"))
        assert {h.mirror_index for r in doubled.rays for h in trace(doubled, r).hits} == {0, 1}


class TestTracedItems:
    """A traced item that is not a Ray is named in a TypeError."""

    @pytest.mark.parametrize("item", [Point(0.0, 8.0), (3.7, 8.0, 0.0, -1.0), None])
    def test_trace(self, item):
        # was AttributeError: 'Point' object has no attribute 'origin'
        with pytest.raises(TypeError, match=re.escape(f"rays must be Rays, got {item!r}")):
            trace(default_cassegrain_scene(), item)

    @pytest.mark.parametrize("item", [Point(0.0, 8.0), (3.7, 8.0, 0.0, -1.0), None])
    def test_spot_report(self, item):
        scene = default_cassegrain_scene(2)
        with pytest.raises(TypeError, match=re.escape(f"rays must be Rays, got {item!r}")):
            spot_report(scene, [*scene.rays, item])


class TestWrongTypedArguments:
    """A public function names a wrong-typed argument in a TypeError, raised by
    ``geometry._require_type``, the one type check at the API edge."""

    # each was AttributeError: 'tuple' (or 'Point') object has no attribute ...
    # (a tuple triangle: 'degenerate', 'leg1_dir' and 'A')
    @pytest.mark.parametrize("call, message", [
        (lambda: reflect_at(ELL, (0.0, 3.0), Direction(1, 0)), "q must be a Point, got (0.0, 3.0)"),
        (lambda: reflect_at(ELL, Point(0.0, 3.0), (1.0, 0.0)),
         "incoming must be a Direction, got (1.0, 0.0)"),
        (lambda: focal_property_error(ELL, (0.0, 3.0)), "q must be a Point, got (0.0, 3.0)"),
        (lambda: ray_line_distance(Point(0, 0), Point(1, 1)),
         f"ray must be a Ray, got {Point(0, 0)!r}"),
        (lambda: ray_line_distance(Ray(Point(0, 0), Direction(1, 1)), (1.0, 1.0)),
         "q must be a Point, got (1.0, 1.0)"),
        (lambda: ELL.residual((0, 3)), "q must be a Point, got (0, 3)"),
        (lambda: ELL.is_on_curve((0, 3)), "q must be a Point, got (0, 3)"),
        (lambda: ELL.tangent_normal((0, 3)), "q must be a Point, got (0, 3)"),
        (lambda: ELL.project_to_curve((0, 3)), "q must be a Point, got (0, 3)"),
        (lambda: two_step(ELL, (0, 3), 0.1), "A must be a Point, got (0, 3)"),
        (lambda: exact_return(ELL, (0, 3), 0.1), "A must be a Point, got (0, 3)"),
        (lambda: apex_reflector((0, 0)), "tri must be a StepTriangle, got (0, 0)"),
        (lambda: reflect_through_apex((0, 0)), "tri must be a StepTriangle, got (0, 0)"),
        (lambda: focal_change_error(ELL, (0, 0)), "tri must be a StepTriangle, got (0, 0)"),
        (lambda: ELL.placement.to_scene((0, 3)), "p must be a Point, got (0, 3)"),
        (lambda: ELL.placement.to_canonical((0, 3)), "p must be a Point, got (0, 3)"),
        (lambda: ELL.placement.dir_to_scene((0, 1)), "d must be a Direction, got (0, 1)"),
        (lambda: ELL.placement.dir_to_canonical((0, 1)), "d must be a Direction, got (0, 1)"),
    ], ids=["reflect_at-q", "reflect_at-incoming", "focal_property_error-q",
            "ray_line_distance-ray", "ray_line_distance-q", "residual-q", "is_on_curve-q",
            "tangent_normal-q", "project_to_curve-q", "two_step-A", "exact_return-A",
            "apex_reflector-tri", "reflect_through_apex-tri", "focal_change_error-tri",
            "to_scene-p", "to_canonical-p", "dir_to_scene-d", "dir_to_canonical-d"])
    def test_named_in_a_type_error(self, call, message):
        with pytest.raises(TypeError, match=re.escape(message)):
            call()


PARABOLA = Conic(Parabola(1))
POSED_ELL = Conic(Ellipse(5.0, 3.0), Placement(1.5, -2.0, 0.7))


class TestDirectionNormalization:
    """The tracer normalizes a direction where it needs a unit one: the ray's,
    in each mirror's frame, and the normal and the outgoing direction of a
    bounce.  A direction that cannot be normalized raises as ``Direction``
    does, with the components or the norm the tracer saw."""

    # (direction, conic, the ray's message, reflect_at's message); a rotated
    # inf gives inf - inf, and a non-finite incoming makes the reflection's
    # dot product nan
    CASES = [
        ((math.inf, 0.0), PARABOLA, "direction components must be finite, got (inf, nan)",
         "direction components must be finite, got (nan, inf)"),
        ((math.inf, 0.0), POSED_ELL, "direction components must be finite, got (inf, -inf)",
         "direction components must be finite, got (nan, inf)"),
        ((math.nan, 0.0), PARABOLA, "direction components must be finite, got (nan, nan)",
         "direction components must be finite, got (nan, nan)"),
        ((math.nan, 0.0), POSED_ELL, "direction components must be finite, got (nan, nan)",
         "direction components must be finite, got (nan, nan)"),
        ((0.0, 0.0), PARABOLA, "cannot normalize a vector of norm 0.0",
         "cannot normalize a vector of norm 0.0"),
        ((0.0, 0.0), POSED_ELL, "cannot normalize a vector of norm 0.0",
         "cannot normalize a vector of norm 0.0"),
        ((1e-301, 0.0), PARABOLA, "cannot normalize a vector of norm 1e-301",
         "cannot normalize a vector of norm 1.0000000000000003e-301"),
    ]

    @pytest.mark.parametrize("d, conic, ray_message, reflect_message", CASES)
    def test_degenerate_direction_raises(self, d, conic, ray_message, reflect_message):
        ray = Ray(Point(0.5, 3.0), optics._unit_unchecked(*d))
        q = Point(2.0, 1.0) if conic is PARABOLA else conic.point_at(0.9)
        for call, message in ((lambda: intersect_ray(conic, ray), ray_message),
                              (lambda: trace(Scene(mirrors=(conic,)), ray), ray_message),
                              (lambda: reflect_at(conic, q, ray.dir), reflect_message)):
            with pytest.raises(DegenerateDirectionError, match=f"^{re.escape(message)}$"):
                call()

    def test_norm_at_the_floor_is_normalized(self):
        # a norm of exactly 1e-300 is long enough
        ray = Ray(Point(0.5, 3.0), optics._unit_unchecked(1e-300, 0.0))
        assert intersect_ray(PARABOLA, ray) == intersect_ray(
            PARABOLA, Ray(ray.origin, Direction(1.0, 0.0)))

    def test_direction_whose_norm_overflows_bounces(self):
        # hypot(1e308, -1.7e308) overflows, and x / inf made the zero "unit"
        # vector (0.0, -0.0), which the tracer refused as degenerate
        path = trace(Scene(mirrors=(PARABOLA,), max_bounces=1),
                     Ray(Point(0.5, 3.0), Direction(1e308, -1.7e308)))
        assert len(path.hits) == 1
        assert PARABOLA.is_on_curve(path.hits[0].point)

    def test_unnormalized_direction_traces_as_its_unit_direction(self):
        # the tracer normalizes the ray's direction in the mirror's frame, so
        # the first hit is the Direction's, bit for bit; the reflection takes
        # the incoming direction as given, so the outgoing one may differ in
        # its last bits
        scene = Scene(mirrors=(PARABOLA,), max_bounces=3)
        origin = Point(0.5, 3.0)
        raw = trace(scene, Ray(origin, optics._unit_unchecked(1e308, -1.7e308)))
        unit = trace(scene, Ray(origin, Direction(1e308, -1.7e308)))
        assert len(raw.hits) == len(unit.hits) == 3
        assert (raw.hits[0].t, raw.hits[0].point) == (unit.hits[0].t, unit.hits[0].point)
        for a, b in zip(raw.hits, unit.hits):
            assert a.mirror_index == b.mirror_index
            assert a.point.distance_to(b.point) <= 1e-12 * (1.0 + b.t)
            assert math.hypot(a.outgoing.x - b.outgoing.x, a.outgoing.y - b.outgoing.y) <= 1e-15


class TestRayLineDistance:
    def test_perpendicular_offset(self):
        assert ray_line_distance(Ray(Point(0, 0), Direction(1, 0)), Point(3, 2)) == 2.0

    def test_behind_origin_still_line_distance(self):
        # distance to the infinite line, not the half-ray
        assert ray_line_distance(Ray(Point(0, 0), Direction(1, 0)), Point(-5, 1)) == 1.0


class TestCassegrain:
    def test_bundle_focuses_on_far_focus(self):
        scene = default_cassegrain_scene(100)
        report = spot_report(scene, scene.rays)
        assert report.n_rays == 100
        assert report.n_focused == 100
        assert report.n_blocked == 0
        assert report.n_missed == 0
        assert report.max_distance <= 1e-9
        assert report.rms_distance <= report.max_distance
        assert report.target.y == pytest.approx(1.0 - 2.0 * math.sqrt(0.61), abs=1e-12)

    def test_on_axis_ray_is_blocked(self):
        scene = default_cassegrain_scene()
        report = cassegrain_spot(scene, n_rays=1, aperture=5.0)
        assert report.n_blocked == 1
        assert report.n_focused == 0

    def test_whole_aperture_shadowed(self):
        # the secondary shadows every offset up to 0.5: the bundle is
        # reported as it is, every ray blocked
        report = cassegrain_spot(default_cassegrain_scene(), 4, 0.5)
        assert (report.n_rays, report.n_blocked, report.n_focused, report.n_missed) == (4, 4, 0, 0)

    @pytest.mark.parametrize("aperture", [0.0, -1.0, math.inf, math.nan])
    def test_aperture_must_be_positive(self, aperture):
        with pytest.raises(ValueError, match="^aperture must be positive"):
            cassegrain_spot(default_cassegrain_scene(), 3, aperture)

    @pytest.mark.parametrize("n_rays, first", [(1, "0.0"), (4, "1e+160")])
    def test_aperture_top_past_the_float_range(self, n_rays, first):
        # the rays start at y = aperture**2 / (4 p) + 2 p + 1, which overflows
        with pytest.raises(ValueError, match=(
                rf"^point coordinates must be finite, got \({re.escape(first)}, inf\)$")):
            cassegrain_spot(default_cassegrain_scene(), n_rays, 1e160)

    def test_n_rays_must_be_an_int(self):
        with pytest.raises(ValueError, match="n_rays"):
            cassegrain_spot(default_cassegrain_scene(), 2.5, 4.0)

    @staticmethod
    def _offsets(monkeypatch, scene, n_rays, aperture):
        """The offsets of the bundle ``cassegrain_spot`` reports on: the ray
        origins' x of its last ``_trace_xy`` call (the primary is unposed)."""
        calls = []
        trace_xy = optics._trace_xy

        def spy(traced, rays):
            calls.append((traced, list(rays)))
            return trace_xy(*calls[-1])

        monkeypatch.setattr(optics, "_trace_xy", spy)
        cassegrain_spot(scene, n_rays, aperture)
        traced, rays = calls[-1]
        assert traced is scene
        return [ox for ox, *_ in rays]

    def test_unshadowed_axis_spreads_the_bundle(self, monkeypatch):
        # This secondary opens upward around the axis, so no near-axis ray
        # meets it first; the shadow stayed at the aperture and all six
        # rays were traced at x = +-4.
        secondary = Conic(Hyperbola(0.5, 2.0, 1),
                          Placement(0.0, 1.0 - math.hypot(0.5, 2.0), math.pi / 2))
        scene = Scene(mirrors=(Conic(Parabola(1)), secondary), roles=("primary", "secondary"))
        assert self._offsets(monkeypatch, scene, 6, 4.0) == [0.08, 2.04, 4.0, -0.08, -2.04, -4.0]

    @pytest.mark.parametrize("n_rays", [2, 5, 40])
    def test_default_bundle_geometry(self, monkeypatch, n_rays):
        # The positive offsets rise evenly from the inner edge, 2% of the way
        # from the shadow to the rim, to the rim (one ray: halfway); the
        # negative ones mirror the first of them.
        scene, aperture = default_cassegrain_scene(), 5.0
        xs = self._offsets(monkeypatch, scene, n_rays, aperture)
        n_pos = (n_rays + 1) // 2
        pos = xs[:n_pos]
        assert len(xs) == n_rays and xs[n_pos:] == [-x for x in pos[:n_rays // 2]]
        if n_pos == 1:
            inner = 2.0 * pos[0] - aperture
        else:
            inner = pos[0]
            assert pos[-1] == aperture
            assert pos == [pytest.approx(inner + (aperture - inner) * i / (n_pos - 1), rel=1e-15)
                           for i in range(n_pos)]
        shadow = (inner - 0.02 * aperture) / 0.98
        first_bounce = dataclasses.replace(scene, max_bounces=1)

        def blocked(x):
            ray = Ray(Point(x, aperture**2 / 4.0 + 3.0), Direction(0.0, -1.0))
            return trace(first_bounce, ray).hits[0].mirror_index == 1

        assert 0.5 < shadow < aperture
        assert blocked(shadow - 1e-9 * aperture) and not blocked(shadow + 1e-9 * aperture)

    def test_generated_bundle_avoids_shadow(self):
        scene = default_cassegrain_scene()
        report = cassegrain_spot(scene, n_rays=40, aperture=5.0)
        assert report.n_rays == 40
        assert report.n_focused == 40
        assert report.max_distance <= 1e-9

    def test_displaced_secondary_blurs_spot(self):
        base = default_cassegrain_scene(100)
        moved = dataclasses.replace(
            base.mirrors[1],
            placement=dataclasses.replace(
                base.mirrors[1].placement, ty=base.mirrors[1].placement.ty + 1e-3
            ),
        )
        scene = dataclasses.replace(
            base, mirrors=(base.mirrors[0], moved), tolerances=Tolerances(confocal=1e-2)
        )
        report = spot_report(scene, scene.rays)
        assert report.max_distance > 1e-5

    def test_spot_requires_pair(self):
        scene = Scene(mirrors=(ELL,))
        with pytest.raises(UnsupportedVariantError):
            spot_report(scene, (Ray(Point(-4, 0), Direction(4, 3)),))

    def test_generator_input_counts_every_ray(self):
        scene = default_cassegrain_scene(10)
        report = spot_report(scene, (ray for ray in scene.rays))
        assert report.n_rays == 10
        assert report.n_focused == 10

    def test_missed_rays_counted(self):
        scene = default_cassegrain_scene()
        away = Ray(Point(20.0, 8.0), Direction(0, -1))  # outside the aperture
        report = spot_report(scene, (away,))
        assert report.n_missed == 1
        assert report.n_focused == 0


# Rigid motions that pose the whole stock telescope for the float-core tests.
MOTIONS = (
    Placement(1.5, -2.25, 0.7),
    Placement(-3.0, 4.0, -2.1),
    Placement(0.25, 0.5, 3.0),
)


def posed_cassegrain(motion: Placement) -> Scene:
    """The stock telescope with 40 focused rays, one blocked by the
    secondary and one that misses, all moved as a whole by ``motion``."""
    base = default_cassegrain_scene(40)
    down = Direction(0.0, -1.0)
    rays = base.rays + (Ray(Point(0.3, 8.0), down), Ray(Point(20.0, 8.0), down))
    return pose_scene(dataclasses.replace(base, rays=rays), motion)


class TestFloatCore:
    def test_posed_cassegrain_digest(self):
        # Frozen: any change to the arithmetic of a hit, a reflection or a
        # spot distance moves the digest.
        lines = []
        for motion in MOTIONS:
            scene = posed_cassegrain(motion)
            for ray in scene.rays:
                for h in trace(scene, ray).hits:
                    lines.append("%d %.17g %.17g %.17g %.17g %.17g" % (
                        h.mirror_index, h.point.x, h.point.y, h.t,
                        h.outgoing.x, h.outgoing.y))
            rep = spot_report(scene, scene.rays)
            lines.append(f"{rep.n_rays} {rep.n_focused} {rep.n_blocked} {rep.n_missed}")
            lines += ["%.17g" % d for d in rep.distances]
        assert len(lines) == 372
        digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
        assert digest == "b8897be7f16a21007baea92228adca09fbe71af5394c420f6de993337d39fa3c"

    def test_public_wrappers_match_first_bounce(self):
        checked = 0
        for motion in MOTIONS:
            scene = posed_cassegrain(motion)
            for ray in scene.rays:
                path = trace(scene, ray)
                if not path.hits:
                    continue
                hit = path.hits[0]
                mirror = scene.mirrors[hit.mirror_index]
                assert intersect_ray(mirror, ray)[0] == (hit.t, hit.point)
                out = reflect_at(mirror, hit.point, ray.dir, scene.tolerances)
                assert (out.x, out.y) == (hit.outgoing.x, hit.outgoing.y)
                checked += 1
        assert checked == 3 * 41

    def test_reflect_at_keeps_its_checks(self):
        with pytest.raises(OffCurveError):
            reflect_at(ELL, Point(0.0, 3.1), Direction(1, 0))
        # canonical x == 0 is on neither branch, placed or not
        message = ("^point lies on the axis of symmetry between branches; "
                   "the residual is defined per branch$")
        for conic in (Conic(Hyperbola(3, 4)),
                      Conic(Hyperbola(3, 4, branch=-1), Placement(1.0, -2.0))):
            q = conic.placement.to_scene(Point(0.0, 1.0))
            with pytest.raises(NoBranchError, match=message):
                reflect_at(conic, q, Direction(1, 0))

    def test_kernels_read_at_call_time(self, monkeypatch):
        # the benchmark tracer swaps the kernel module in each module that
        # holds it; a kernel bound to another name would run uncounted
        calls = collections.Counter()
        proxy = types.ModuleType(conics.kernels.__name__)
        for name, value in vars(conics.kernels).items():
            if callable(value) and not name.startswith("_") and not isinstance(value, type):
                def value(*args, _name=name, _fn=value):
                    calls[_name] += 1
                    return _fn(*args)
            setattr(proxy, name, value)
        monkeypatch.setattr(conics, "kernels", proxy)
        scene = default_cassegrain_scene(100)
        spot_report(scene, scene.rays)
        assert calls["quadratic_roots"] == 400
        assert calls["parabola_ray_coeffs"] == calls["hyperbola_ray_coeffs"] == 200

    def test_spot_report_raises_as_trace_does(self):
        # spot_report runs the bounce loop without trace's objects, so a
        # failed check must surface as the same error with the same message
        scene = dataclasses.replace(posed_cassegrain(MOTIONS[0]),
                                    tolerances=Tolerances(on_curve=1e-300))
        with pytest.raises(OffCurveError) as from_trace:
            trace(scene, scene.rays[0])
        with pytest.raises(OffCurveError) as from_spot:
            spot_report(scene, scene.rays)
        assert str(from_spot.value) == str(from_trace.value)
        assert "is off the curve" in str(from_trace.value)

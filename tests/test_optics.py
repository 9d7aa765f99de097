"""Ray-conic intersection, reflection, tracing, and the two-mirror scene."""
from __future__ import annotations

import dataclasses
import math
import random

import pytest

from conicsteps import (
    Conic,
    Direction,
    Ellipse,
    Hyperbola,
    Parabola,
    Placement,
    Point,
    Ray,
    Scene,
    UnsupportedVariantError,
    cassegrain_spot,
    focal_property_error,
    intersect_ray,
    ray_line_distance,
    reflect_at,
    spot_report,
    trace,
)
from conicsteps.svgout import default_cassegrain_scene
from conftest import random_conic, random_param

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
        assert hits[0][0] < hits[1][0]

    def test_tangency_merges_to_single_hit(self):
        hits = intersect_ray(ELL, Ray(Point(-9, 3), Direction(1, 0)))
        assert len(hits) == 1
        t, q = hits[0]
        assert t == pytest.approx(9.0, abs=1e-9)
        assert q.x == pytest.approx(0.0, abs=1e-9)
        assert q.y == pytest.approx(3.0, abs=1e-9)

    def test_tangency_perturbation_splits_or_misses(self):
        above = intersect_ray(ELL, Ray(Point(-9, 3 + 1e-6), Direction(1, 0)))
        below = intersect_ray(ELL, Ray(Point(-9, 3 - 1e-6), Direction(1, 0)))
        assert len(above) == 0
        assert len(below) == 2

    def test_self_hit_suppressed(self):
        # grazing departure from an on-curve point: the double root at t=0
        # is the launch point itself and must not be reported
        assert intersect_ray(ELL, Ray(Point(0, 3), Direction(1, 0))) == ()

    def test_branch_filter(self):
        ray = Ray(Point(-10, 0), Direction(1, 0))
        plus = intersect_ray(Conic(Hyperbola(3, 4)), ray)
        minus = intersect_ray(Conic(Hyperbola(3, 4, branch=-1)), ray)
        assert [q.x for _, q in plus] == [pytest.approx(3.0, abs=1e-12)]
        assert [q.x for _, q in minus] == [pytest.approx(-3.0, abs=1e-12)]

    def test_miss_returns_empty(self):
        assert intersect_ray(ELL, Ray(Point(0, 4), Direction(1, 0))) == ()

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


class TestScene:
    def test_roles_default_to_mirror(self):
        scene = Scene(mirrors=(ELL,))
        assert scene.roles == ("mirror",)

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
            base, mirrors=(base.mirrors[0], displaced), confocal_tol=1e-2
        )
        assert loose.confocal_tol == 1e-2

    def test_max_bounces_positive(self):
        with pytest.raises(ValueError):
            Scene(mirrors=(ELL,), max_bounces=0)


class TestTrace:
    def test_miss_keeps_original_ray(self):
        scene = Scene(mirrors=(ELL,))
        ray = Ray(Point(0, 4), Direction(1, 0))
        path = trace(scene, ray)
        assert path.hits == ()
        assert path.final == ray

    def test_hit_invariants(self):
        scene = Scene(mirrors=(ELL,))
        ray = Ray(Point(-4, 0), Direction(4, 3))
        path = trace(scene, ray, max_bounces=4)
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
        scene = Scene(mirrors=(ELL,))
        f1, f2 = ELL.focus_points()
        path = trace(scene, Ray(f1, Direction(1, 2)), max_bounces=3)
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
        scene = Scene(mirrors=(ELL, inner))
        path = trace(scene, Ray(Point(-9, 0), Direction(1, 0)), max_bounces=1)
        assert path.hits[0].mirror_index == 0  # outer ellipse met first at x=-5
        path2 = trace(scene, Ray(Point(-4.5, 0), Direction(1, 0)), max_bounces=1)
        assert path2.hits[0].mirror_index == 1


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
            base, mirrors=(base.mirrors[0], moved), confocal_tol=1e-2
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

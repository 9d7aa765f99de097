"""Planar primitives: points, unit directions, lines, reflection."""
from __future__ import annotations

import math
import random

import pytest

from conicsteps import (
    DegenerateDirectionError,
    Direction,
    Line,
    Point,
    angle_between,
    direction,
    reflect_direction,
    scalar_projection,
    translate,
)


class TestPoint:
    def test_rejects_non_finite(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                Point(bad, 0.0)
            with pytest.raises(ValueError):
                Point(0.0, bad)

    def test_subtraction_gives_component_tuple(self):
        assert Point(3.0, 5.0) - Point(1.0, 1.5) == (2.0, 3.5)

    def test_distance(self):
        assert Point(0.0, 0.0).distance_to(Point(3.0, 4.0)) == 5.0


class TestDirection:
    def test_constructor_normalizes(self):
        d = Direction(3.0, 4.0)
        assert d.x == pytest.approx(0.6, abs=1e-15)
        assert d.y == pytest.approx(0.8, abs=1e-15)
        assert math.hypot(d.x, d.y) == pytest.approx(1.0, abs=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateDirectionError):
            Direction(0.0, 0.0)

    def test_underflow_norm_rejected(self):
        with pytest.raises(DegenerateDirectionError):
            Direction(1e-310, 1e-310)

    def test_non_finite_rejected(self):
        with pytest.raises((ValueError, DegenerateDirectionError)):
            Direction(math.nan, 1.0)

    def test_norm_past_the_float_range(self):
        # hypot(1e308, -1.7e308) overflows to inf, and x / inf gave the zero
        # "unit" vector (0.0, -0.0); halving both components is exact
        d = Direction(1e308, -1.7e308)
        half = Direction(1e308 / 2, -1.7e308 / 2)
        assert (d.x, d.y) == (half.x, half.y)
        assert math.hypot(d.x, d.y) == pytest.approx(1.0, abs=1e-15)

    def test_perpendicular_is_exact_quarter_turn(self):
        d = Direction(0.0, 1.0)
        p = d.perpendicular()
        assert (p.x, p.y) == (1.0, -0.0)
        assert d.dot(p) == 0.0

    def test_perpendicular_random_orthogonal(self):
        rng = random.Random(11)
        for _ in range(200):
            d = Direction(rng.uniform(-5, 5), rng.uniform(-5, 5))
            assert abs(d.dot(d.perpendicular())) <= 1e-16

    def test_reversed(self):
        d = Direction(0.6, -0.8)
        r = d.reversed()
        assert (r.x, r.y) == (-0.6, 0.8)

    def test_cross_sign(self):
        assert Direction(1.0, 0.0).cross(Direction(0.0, 1.0)) == 1.0
        assert Direction(0.0, 1.0).cross(Direction(1.0, 0.0)) == -1.0


class TestReflection:
    def test_across_horizontal_mirror(self):
        mirror = Line(Point(0.0, 0.0), Direction(1.0, 0.0))
        out = reflect_direction(Direction(0.8, 0.6), mirror)
        assert out.x == pytest.approx(0.8, abs=1e-15)
        assert out.y == pytest.approx(-0.6, abs=1e-15)

    def test_parallel_direction_unchanged(self):
        mirror = Line(Point(1.0, 2.0), Direction(0.6, 0.8))
        out = reflect_direction(Direction(0.6, 0.8), mirror)
        assert out.x == pytest.approx(0.6, abs=1e-15)
        assert out.y == pytest.approx(0.8, abs=1e-15)

    def test_perpendicular_direction_negated(self):
        mirror = Line(Point(0.0, 0.0), Direction(1.0, 0.0))
        out = reflect_direction(Direction(0.0, 1.0), mirror)
        assert out.x == pytest.approx(0.0, abs=1e-15)
        assert out.y == pytest.approx(-1.0, abs=1e-15)

    def test_involution_and_unit_norm(self):
        rng = random.Random(23)
        worst = 0.0
        for _ in range(500):
            d = Direction(rng.uniform(-3, 3), rng.uniform(-3, 3))
            mirror = Line(
                Point(rng.uniform(-5, 5), rng.uniform(-5, 5)),
                Direction(rng.uniform(-3, 3), rng.uniform(-3, 3)),
            )
            twice = reflect_direction(reflect_direction(d, mirror), mirror)
            worst = max(worst, abs(twice.x - d.x), abs(twice.y - d.y))
            once = reflect_direction(d, mirror)
            assert abs(math.hypot(once.x, once.y) - 1.0) <= 1e-12
        assert worst <= 1e-12

    def test_isosceles_apex_reflection_sample(self):
        # Equal legs from apex D: reflecting the incoming leg direction in
        # the line through D parallel to the base AB yields the outgoing leg.
        rng = random.Random(37)
        for _ in range(200):
            dx, dy = rng.uniform(-10, 10), rng.uniform(-10, 10)
            delta = rng.uniform(1e-3, 10.0)
            ph1 = rng.uniform(0, 2 * math.pi)
            ph2 = rng.uniform(0, 2 * math.pi)
            apex = Point(dx, dy)
            a = Point(dx + delta * math.cos(ph1), dy + delta * math.sin(ph1))
            b = Point(dx + delta * math.cos(ph2), dy + delta * math.sin(ph2))
            if a.distance_to(b) < 1e-6 * delta:
                continue
            mirror = Line(apex, direction(a, b))
            out = reflect_direction(direction(a, apex), mirror)
            want = direction(apex, b)
            assert abs(out.x - want.x) <= 1e-12
            assert abs(out.y - want.y) <= 1e-12


class TestAngles:
    def test_right_angle(self):
        assert angle_between(Direction(1, 0), Direction(0, 1)) == pytest.approx(
            math.pi / 2, abs=1e-15
        )

    def test_same_direction_zero(self):
        assert angle_between(Direction(2, 1), Direction(2, 1)) == 0.0

    def test_opposite_direction_pi(self):
        assert angle_between(Direction(1, 1), Direction(-1, -1)) == pytest.approx(
            math.pi, abs=1e-15
        )

    def test_tiny_angle_accuracy(self):
        theta = 1e-8
        got = angle_between(Direction(1.0, 0.0), Direction(math.cos(theta), math.sin(theta)))
        assert got == pytest.approx(theta, rel=1e-6)


class TestProjectionsAndLines:
    def test_scalar_projection_axis(self):
        assert scalar_projection((3.0, 4.0), Direction(1.0, 0.0)) == 3.0

    def test_scalar_projection_own_direction(self):
        assert scalar_projection((3.0, 4.0), Direction(3.0, 4.0)) == pytest.approx(
            5.0, abs=1e-15
        )

    def test_scalar_projection_orthogonal_zero(self):
        assert scalar_projection((3.0, 4.0), Direction(-4.0, 3.0)) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_line_distance(self):
        line = Line(Point(0.0, 1.0), Direction(1.0, 0.0))
        assert line.distance_to(Point(5.0, 4.0)) == pytest.approx(3.0, abs=1e-15)
        assert line.distance_to(Point(-2.0, 1.0)) == 0.0

    def test_translate_and_direction(self):
        p = translate(Point(1.0, 1.0), Direction(3.0, 4.0), 5.0)
        assert p.x == pytest.approx(4.0, abs=1e-15)
        assert p.y == pytest.approx(5.0, abs=1e-15)
        d = direction(Point(1.0, 1.0), p)
        assert d.x == pytest.approx(0.6, abs=1e-15)

    def test_direction_between_coincident_points_rejected(self):
        with pytest.raises(DegenerateDirectionError):
            direction(Point(2.0, 2.0), Point(2.0, 2.0))

"""Chordal metric and absolute ratio contracts, Moebius invariance included."""

import math
import random

import pytest
from hypothesis import given

from conftest import finite_points
from hypmid.errors import CenterInversion, RepeatedPoint
from hypmid.geom2d import Circle2, Point2, invert_in_circle, reflect_in_line
from hypmid.moebius import INFINITY, absolute_ratio, chordal


class TestChordal:
    def test_infinity_branch(self):
        assert chordal(Point2(0, 0), INFINITY) == 1.0
        assert chordal(INFINITY, Point2(1, 0)) == pytest.approx(1 / math.sqrt(2))
        assert chordal(INFINITY, INFINITY) == 0.0

    def test_zero_on_equal_points(self):
        p = Point2(0.3, -0.8)
        assert chordal(p, p) == 0.0

    def test_unit_example(self):
        assert chordal(Point2(1, 0), Point2(0, 1)) == pytest.approx(math.sqrt(2) / 2)

    @given(finite_points(), finite_points())
    def test_symmetric_and_bounded(self, p, q):
        assert chordal(p, q) == chordal(q, p)
        assert 0.0 <= chordal(p, q) <= 2.0


class TestAbsoluteRatio:
    def test_real_axis_example(self):
        a, b, c, d = (Point2(t, 0) for t in (0.0, 1.0, 2.0, 3.0))
        assert absolute_ratio(a, b, c, d) == pytest.approx(4.0)

    def test_repeated_point_rejected(self):
        p = Point2(1, 1)
        with pytest.raises(RepeatedPoint):
            absolute_ratio(p, p, Point2(2, 2), Point2(3, 3))

    def test_unit_circle_value_is_distance_exponential(self):
        x = Point2(-0.5, math.sqrt(3) / 2)
        y = Point2(0.5, math.sqrt(3) / 2)
        value = absolute_ratio(Point2(-1, 0), x, y, Point2(1, 0))
        assert value == pytest.approx(3.0, rel=1e-12)

    def test_infinite_argument(self):
        value = absolute_ratio(Point2(0, 0), Point2(0, 1), Point2(0, 2), INFINITY)
        assert value == pytest.approx(2.0)

    def test_pair_swap_symmetry(self):
        rng = random.Random(7)
        for _ in range(100):
            pts = [Point2(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(4)]
            a, b, c, d = pts
            if min((p - q).norm() for p in pts for q in pts if p is not q) < 1e-6:
                continue
            assert absolute_ratio(a, b, c, d) == pytest.approx(absolute_ratio(c, d, a, b), rel=1e-12)


def _random_map(rng: random.Random):
    """A random composition of 1-3 reflections in lines and inversions in circles."""
    steps = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            a = Point2(rng.uniform(-2, 2), rng.uniform(-2, 2))
            while a.norm() < 0.1:
                a = Point2(rng.uniform(-2, 2), rng.uniform(-2, 2))
            steps.append(lambda p, a=a, t=rng.uniform(-2, 2): reflect_in_line(p, a, t))
        else:
            center = Point2(rng.uniform(-2, 2), rng.uniform(-2, 2))
            steps.append(lambda p, c=Circle2(center, rng.uniform(0.2, 2.0)): invert_in_circle(p, c))

    def m(p: Point2) -> Point2:
        for step in steps:
            p = step(p)
        return p

    return m


def test_moebius_invariance_of_absolute_ratio():
    rng = random.Random(20240214)
    checked = 0
    while checked < 500:
        pts = [Point2(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(4)]
        if min((p - q).norm() for i, p in enumerate(pts) for q in pts[i + 1 :]) < 1e-2:
            continue
        m = _random_map(rng)
        try:
            images = [m(p) for p in pts]
        except CenterInversion:  # a point hit an inversion centre
            continue
        if min((p - q).norm() for i, p in enumerate(images) for q in images[i + 1 :]) < 1e-6:
            continue
        before = absolute_ratio(*pts)
        after = absolute_ratio(*images)
        assert abs(after - before) <= 1e-9 * before
        checked += 1

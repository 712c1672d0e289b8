"""Euclidean primitive contracts: examples, errors, involutions, selectors."""

import math
import random

import pytest
from hypothesis import given

from conftest import finite_points
from hypmid.errors import (
    AmbiguousSelection,
    CollinearPoints,
    ConcentricCircles,
    DegenerateInput,
    NoIntersection,
    OriginInversion,
    ParallelLines,
)
from hypmid.geom2d import (
    BOTH,
    DEFAULT_TOL,
    IN_DISK,
    ORIGIN,
    UPPER,
    Circle2,
    Line2,
    Point2,
    Selector,
    Tolerance,
    circle_on_diameter,
    circle_through,
    circles_orthogonal,
    collinear,
    intersect_circle_circle,
    intersect_line_circle,
    intersect_line_line,
    invert_in_circle,
    invert_unit,
    is_on,
    line_tangent_to_circle,
    line_through,
    nearest_to,
    perpendicular_through,
    reflect_in_line,
)

UNIT = Circle2(ORIGIN, 1.0)
X_AXIS = Line2(Point2(0.0, 1.0), 0.0)


class TestValues:
    def test_point_repr_eq_hash(self):
        p = Point2(0.5, 0.0)
        assert repr(p) == "Point2(x1=0.5, x2=0.0)"
        assert p == Point2(0.5, 0.0) and hash(p) == hash(Point2(0.5, 0.0))
        assert p != Point2(0.5, 1e-300)
        assert len({p, Point2(0.5, 0.0), Point2(0.0, 0.5)}) == 2

    def test_point_is_not_a_tuple(self):
        p = Point2(0.5, 0.0)
        assert not isinstance(p, tuple)
        assert p != (0.5, 0.0) and (0.5, 0.0) != p

    def test_values_compare_by_fields(self):
        assert X_AXIS == Line2(Point2(0.0, 1.0), 0.0, provenance=None)
        assert X_AXIS.provenance is None
        assert hash(Circle2(ORIGIN, 1.0)) == hash(Circle2(Point2(0.0, 0.0), 1.0))
        assert Circle2(ORIGIN, 1.0) != Circle2(ORIGIN, 2.0)
        assert Circle2(ORIGIN, 1.0) != Line2(Point2(0.0, 1.0), 1.0)
        assert Selector("upper").anchor is None
        assert repr(Circle2(ORIGIN, 1.0)) == "Circle2(center=Point2(x1=0.0, x2=0.0), radius=1.0)"

    def test_validation_kept(self):
        with pytest.raises(DegenerateInput, match=r"circle radius must be finite and > 0, got 0\.0"):
            Circle2(Point2(1.0, 2.0), 0.0)
        with pytest.raises(ValueError, match=r"require 0 < eps_degenerate <= eps_incidence, got 1e-06, 1e-09"):
            Tolerance(eps_incidence=1e-9, eps_degenerate=1e-6)


def test_tolerance_ordering_enforced():
    with pytest.raises(ValueError):
        Tolerance(eps_incidence=1e-12, eps_degenerate=1e-9)


class TestLineThrough:
    def test_horizontal_axis(self):
        l = line_through(Point2(0, 0), Point2(1, 0))
        assert abs(l.residual(Point2(5, 0))) < 1e-15

    def test_coincident_points_rejected(self):
        with pytest.raises(DegenerateInput):
            line_through(Point2(0, 0), Point2(0, 0))

    def test_general_line_contains_both_points(self):
        p, q = Point2(1, 1), Point2(2, 3)
        l = line_through(p, q)
        # normal proportional to (-2, 1), c = -1 in that scaling
        assert abs(l.n.x1 / l.n.x2 + 2.0) < 1e-12
        assert abs(l.residual(p)) < 1e-15
        assert abs(l.residual(q)) < 1e-15


class TestPerpendicular:
    def test_vertical_through_point(self):
        l = perpendicular_through(X_AXIS, Point2(3, 5))
        assert abs(l.residual(Point2(3, 0))) < 1e-15
        assert abs(l.residual(Point2(3, 7))) < 1e-15

    def test_axis_from_vertical(self):
        vert = Line2(Point2(1.0, 0.0), 0.0)
        l = perpendicular_through(vert, Point2(0, 0))
        assert abs(l.residual(Point2(9, 0))) < 1e-15

    def test_direction_orthogonal(self):
        base = line_through(Point2(0, 0), Point2(1, 1))
        l = perpendicular_through(base, Point2(1, 0))
        assert abs(base.n.dot(l.n)) < 1e-15
        assert abs(l.residual(Point2(1, 0))) < 1e-15


class TestIntersections:
    def test_axes_cross_at_origin(self):
        vert = Line2(Point2(1.0, 0.0), 0.0)
        p = intersect_line_line(vert, X_AXIS)
        assert p.close_to(ORIGIN, 1e-15)

    def test_parallel_lines_rejected(self):
        a = Line2(Point2(0.0, 1.0), 0.0)
        b = Line2(Point2(0.0, 1.0), 1.0)
        with pytest.raises(ParallelLines):
            intersect_line_line(a, b)

    def test_diagonals_cross_in_middle(self):
        a = line_through(Point2(0, 0), Point2(1, 1))
        b = line_through(Point2(1, 0), Point2(0, 1))
        assert intersect_line_line(a, b).close_to(Point2(0.5, 0.5), 1e-12)

    def test_vertical_through_unit_circle(self):
        vert = Line2(Point2(1.0, 0.0), 0.0)
        assert intersect_line_circle(vert, UNIT, UPPER).close_to(Point2(0, 1), 1e-15)

    def test_line_missing_circle(self):
        high = Line2(Point2(0.0, 1.0), 2.0)
        with pytest.raises(NoIntersection):
            intersect_line_circle(high, UNIT, UPPER)

    def test_nearest_selector_quadratic_root(self):
        half = Line2(Point2(0.0, 1.0), 0.5)
        p = intersect_line_circle(half, UNIT, nearest_to(Point2(1, 0)))
        assert p.close_to(Point2(math.sqrt(0.75), 0.5), 1e-12)

    def test_circle_circle_upper(self):
        other = Circle2(Point2(1, 0), 1.0)
        p = intersect_circle_circle(UNIT, other, UPPER)
        assert p.close_to(Point2(0.5, math.sqrt(0.75)), 1e-12)
        for root in intersect_circle_circle(UNIT, other, BOTH):
            assert is_on(root, UNIT)
            assert is_on(root, other)

    def test_disjoint_circles(self):
        with pytest.raises(NoIntersection):
            intersect_circle_circle(UNIT, Circle2(Point2(3, 0), 1.0), UPPER)

    def test_identical_circles(self):
        with pytest.raises(ConcentricCircles):
            intersect_circle_circle(UNIT, Circle2(ORIGIN, 1.0), UPPER)

    def test_ambiguous_selection(self):
        # both roots of this chord are strictly inside the unit disk
        with pytest.raises(AmbiguousSelection):
            intersect_line_circle(Line2(Point2(0.0, 1.0), 0.5), UNIT, IN_DISK)

    def test_both_returns_mirror_pair(self):
        vert = Line2(Point2(1.0, 0.0), 0.0)
        pts = intersect_line_circle(vert, UNIT, BOTH)
        assert len(pts) == 2
        assert pts[0].close_to(Point2(0, 1), 1e-15) or pts[1].close_to(Point2(0, 1), 1e-15)


class TestCircles:
    def test_circle_through_unit_points(self):
        c = circle_through(Point2(1, 0), Point2(0, 1), Point2(-1, 0))
        assert c.center.close_to(ORIGIN, 1e-12)
        assert abs(c.radius - 1.0) < 1e-12

    def test_collinear_rejected(self):
        with pytest.raises(CollinearPoints):
            circle_through(Point2(0, 0), Point2(1, 1), Point2(2, 2))

    def test_right_triangle(self):
        c = circle_through(Point2(0, 0), Point2(1, 0), Point2(0, 1))
        assert c.center.close_to(Point2(0.5, 0.5), 1e-12)
        assert abs(c.radius - math.sqrt(0.5)) < 1e-12

    def test_argument_permutation_invariance(self):
        pts = [Point2(0.3, -0.2), Point2(1.7, 0.9), Point2(-0.5, 1.1)]
        base = circle_through(*pts)
        for perm in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
            c = circle_through(pts[perm[0]], pts[perm[1]], pts[perm[2]])
            assert c.center.close_to(base.center, 1e-9)
            assert abs(c.radius - base.radius) < 1e-9

    def test_diameter_circle(self):
        c = circle_on_diameter(Point2(0, 0), Point2(2, 0))
        assert c.center.close_to(Point2(1, 0), 1e-15) and abs(c.radius - 1.0) < 1e-15
        c = circle_on_diameter(Point2(1, 1), Point2(3, 5))
        assert c.center.close_to(Point2(2, 3), 1e-15) and abs(c.radius - math.sqrt(5)) < 1e-12

    def test_degenerate_diameter(self):
        with pytest.raises(DegenerateInput):
            circle_on_diameter(Point2(1, 1), Point2(1, 1))

    def test_nonpositive_radius_refused(self):
        with pytest.raises(DegenerateInput):
            Circle2(ORIGIN, 0.0)
        with pytest.raises(DegenerateInput):
            Circle2(ORIGIN, -1.0)


class TestInversionsAndReflections:
    def test_unit_inversion_examples(self):
        assert invert_unit(Point2(0.5, 0)).close_to(Point2(2, 0), 1e-15)
        assert invert_unit(Point2(0.3, 0.4)).close_to(Point2(1.2, 1.6), 1e-12)

    def test_origin_inversion_rejected(self):
        with pytest.raises(OriginInversion):
            invert_unit(Point2(0, 0))

    def test_reflection_examples(self):
        assert reflect_in_line(Point2(1, 2), Point2(0, 1), 0.0).close_to(Point2(1, -2), 1e-15)
        assert reflect_in_line(Point2(2, 0), Point2(1, 0), 1.0).close_to(Point2(0, 0), 1e-15)
        on_line = Point2(1.0, 7.3)
        assert reflect_in_line(on_line, Point2(1, 0), 1.0).close_to(on_line, 1e-15)

    def test_circle_inversion_examples(self):
        assert invert_in_circle(Point2(0.5, 0), UNIT).close_to(Point2(2, 0), 1e-15)
        boundary = Point2(math.cos(1.0), math.sin(1.0))
        assert invert_in_circle(boundary, UNIT).close_to(boundary, 1e-15)
        assert invert_in_circle(Point2(2, 0), Circle2(Point2(1, 0), 2.0)).close_to(Point2(5, 0), 1e-12)

    def test_involutions_random_sweep(self):
        rng = random.Random(20240817)
        circle = Circle2(Point2(0.3, -0.7), 1.7)
        for _ in range(1000):
            p = Point2(rng.uniform(-10, 10), rng.uniform(-10, 10))
            if p.norm() > 1e-3:
                assert invert_unit(invert_unit(p)).close_to(p, 1e-9 * (1 + p.norm()))
            if (p - circle.center).norm() > 1e-3:
                assert invert_in_circle(invert_in_circle(p, circle), circle).close_to(p, 1e-9 * (1 + p.norm()))
            a, t = Point2(rng.uniform(-2, 2), rng.uniform(-2, 2)), rng.uniform(-3, 3)
            if a.norm() > 1e-6:
                assert reflect_in_line(reflect_in_line(p, a, t), a, t).close_to(p, 1e-9 * (1 + p.norm()))


@given(finite_points(8.0), finite_points(8.0))
def test_intersections_lie_on_carriers(p, q):
    if (p - q).norm() < 1e-3:
        return
    l = line_through(p, q)
    circle = Circle2(p, max((p - q).norm(), 0.5))
    try:
        pts = intersect_line_circle(l, circle, BOTH)
    except NoIntersection:
        return
    for pt in pts:
        assert is_on(pt, l)
        assert is_on(pt, circle)


class TestPredicates:
    def test_orthogonal_circles(self):
        other = Circle2(Point2(math.sqrt(2), 0), 1.0)
        verdict = circles_orthogonal(UNIT, other)
        assert verdict.ok and abs(verdict.residual) < 1e-12

    def test_collinear_triple(self):
        assert collinear(Point2(0, 0), Point2(1, 1), Point2(2, 2)).ok

    def test_tangent_line(self):
        tangent = Line2(Point2(1.0, 0.0), 1.0)
        assert line_tangent_to_circle(tangent, UNIT).ok

    def test_predicate_residuals_scale_aware(self):
        # same shape at 1000x scale must stay within the same tolerance
        big = Circle2(Point2(1000 * math.sqrt(2), 0), 1000.0)
        big_unit = Circle2(ORIGIN, 1000.0)
        verdict = circles_orthogonal(big_unit, big)
        assert verdict.ok

    def test_is_on_signed_residual(self):
        inside = is_on(Point2(0.5, 0), UNIT, DEFAULT_TOL)
        outside = is_on(Point2(2.0, 0), UNIT, DEFAULT_TOL)
        assert inside.residual < 0 < outside.residual

"""Metric formulas, geodesics, closed-form midpoints, the midpoint oracle."""

import math
import random

import mpmath
import pytest
from hypothesis import given

from conftest import disk_points, halfplane_points
from hypmid.errors import (
    BadAngleOrder,
    CenterInversion,
    CollinearWithOrigin,
    DegenerateInput,
    GeometryError,
    NotOnArc,
    NotOnUnitCircle,
    OutsideDomain,
)
from hypmid import hypmetric
from hypmid.constructions.halfplane import h2_method_II
from hypmid.geom2d import Circle2, Line2, Point2, invert_in_circle
from hypmid.hypmetric import (
    Model,
    arc_point,
    geodesic_of,
    midpoint_disk_angles,
    midpoint_halfplane_unitcircle,
    midpoint_oracle,
    ortho_circle_through,
    projection_pr,
    rho,
    rho_disk,
    rho_disk_arc,
    rho_halfplane,
    rho_via_cross_ratio,
    signed_arc_angle,
)
from hypmid.moebius import INFINITY, is_infinite


class TestDistances:
    def test_vertical_log_ratio(self):
        assert rho_halfplane(Point2(0, 1), Point2(0, 2)) == pytest.approx(math.log(2), abs=1e-15)

    def test_halfplane_cosh_example(self):
        assert rho_halfplane(Point2(1, 1), Point2(-1, 1)) == pytest.approx(math.acosh(3.0), abs=1e-12)

    def test_disk_radial_log(self):
        assert rho_disk(Point2(0, 0), Point2(0.5, 0)) == pytest.approx(math.log(3), abs=1e-15)

    def test_disk_sinh_example(self):
        expected = 2 * math.asinh(math.sqrt(0.5) / 0.75)
        assert rho_disk(Point2(0.5, 0), Point2(0, 0.5)) == pytest.approx(expected, abs=1e-12)

    def test_zero_iff_equal(self):
        p = Point2(0.1, 0.7)
        assert rho_halfplane(p, p) == 0.0
        assert rho_disk(Point2(0.3, 0.1), Point2(0.3, 0.1)) == 0.0

    def test_domain_enforced(self):
        with pytest.raises(OutsideDomain):
            rho_halfplane(Point2(0, -1), Point2(0, 1))
        with pytest.raises(OutsideDomain):
            rho_disk(Point2(1.5, 0), Point2(0, 0))

    def test_close_points_keep_precision(self):
        # naive arcosh would lose half the digits here
        x, y = Point2(0.0, 1.0), Point2(1e-9, 1.0)
        assert rho_halfplane(x, y) == pytest.approx(1e-9, rel=1e-9)

    @given(halfplane_points(), halfplane_points())
    def test_halfplane_symmetry(self, x, y):
        assert rho_halfplane(x, y) == pytest.approx(rho_halfplane(y, x), rel=1e-12, abs=1e-15)

    @given(disk_points(), disk_points())
    def test_disk_symmetry(self, x, y):
        assert rho_disk(x, y) == pytest.approx(rho_disk(y, x), rel=1e-12, abs=1e-15)


class TestOrthoCircle:
    def test_spec_example(self):
        oc = ortho_circle_through(Point2(0.5, 0), Point2(0, 0.5))
        assert (oc.center - Point2(1.25, 1.25)).norm() <= 1e-12
        assert oc.radius == pytest.approx(math.sqrt(2.125), abs=1e-12)

    def test_collinear_with_origin_rejected(self):
        with pytest.raises(CollinearWithOrigin):
            ortho_circle_through(Point2(0.3, 0), Point2(0.6, 0))

    def test_consistency_sweep(self):
        rng = random.Random(11)
        for _ in range(500):
            x = Point2(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
            y = Point2(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
            if x.norm() < 0.05 or y.norm() < 0.05 or x.norm() > 0.95 or y.norm() > 0.95:
                continue
            if abs(x.cross(y)) / (x.norm() * y.norm()) < 1e-3:
                continue
            oc = ortho_circle_through(x, y)
            scale = 1e-9 * (1.0 + oc.center.norm_sq())
            assert abs(oc.center.norm_sq() - oc.radius**2 - 1.0) <= scale
            assert abs((x - oc.center).norm() - oc.radius) <= scale
            assert abs((y - oc.center).norm() - oc.radius) <= scale


class TestGeodesics:
    def test_disk_circle_carrier(self):
        g = geodesic_of(Model.DISK, Point2(0.5, 0), Point2(0, 0.5))
        assert isinstance(g.carrier, Circle2)
        assert (g.carrier.center - Point2(1.25, 1.25)).norm() <= 1e-12

    def test_halfplane_vertical(self):
        g = geodesic_of(Model.HALF_PLANE, Point2(0, 1), Point2(0, 4))
        assert isinstance(g.carrier, Line2)
        e1, e2 = g.ideal_endpoints
        assert (e1 - Point2(0, 0)).norm() <= 1e-15
        assert is_infinite(e2)

    def test_disk_diameter(self):
        g = geodesic_of(Model.DISK, Point2(0.3, 0), Point2(0.6, 0))
        assert isinstance(g.carrier, Line2)
        e1, e2 = g.ideal_endpoints
        assert (e1 - Point2(-1, 0)).norm() <= 1e-12 and (e2 - Point2(1, 0)).norm() <= 1e-12

    def test_endpoint_order_swaps_with_arguments(self):
        x, y = Point2(0.5, 0), Point2(0, 0.5)
        g1 = geodesic_of(Model.DISK, x, y)
        g2 = geodesic_of(Model.DISK, y, x)
        assert (g1.ideal_endpoints[0] - g2.ideal_endpoints[1]).norm() <= 1e-12
        assert (g1.ideal_endpoints[1] - g2.ideal_endpoints[0]).norm() <= 1e-12

    def test_endpoints_on_boundary(self):
        g = geodesic_of(Model.HALF_PLANE, Point2(1, 1), Point2(2.5, 0.7))
        for e in g.ideal_endpoints:
            assert abs(e.x2) < 1e-12

    def test_degenerate_pair(self):
        with pytest.raises(DegenerateInput):
            geodesic_of(Model.DISK, Point2(0.5, 0), Point2(0.5, 0))

    # x_* is the end nearer x than y; check it against an independent order
    # of x_*, x, y, y_* along the carrier on hard-band pairs
    def test_disk_end_order_on_hard_bands(self):
        rng = random.Random(25)
        kinds = set()
        for _ in range(400):
            rx, ry = 1.0 - 10 ** rng.uniform(-9, -0.1), rng.uniform(0.05, 0.95)  # 1 - |x| down to 1e-9
            delta = math.asin(10 ** rng.uniform(-9, -3))  # noncollinearity margin 1e-9...1e-3
            delta = rng.choice((delta, math.pi - delta, rng.uniform(0.05, 3.0), 0.0, math.pi))  # 0, pi: diameters
            t = rng.uniform(0, math.tau)
            x, y = _polar(rx, t), _polar(ry, t + rng.choice((-1, 1)) * delta)
            try:
                g = geodesic_of(Model.DISK, x, y)
            except DegenerateInput:
                continue
            xs, ys = g.ideal_endpoints
            if isinstance(g.carrier, Line2):
                u = y - x
                order = [p.dot(u) for p in (xs, x, y, ys)]
            else:
                order = [signed_arc_angle(p, g.carrier) for p in (xs, x, y, ys)]
            assert order == sorted(order) or order == sorted(order, reverse=True), (x, y, order)
            assert len(set(order)) == 4, (x, y, order)
            kinds.add(type(g.carrier))
        assert kinds == {Line2, Circle2}

    def test_halfplane_end_order_on_hard_bands(self):
        rng = random.Random(25)
        for _ in range(400):
            o1, r = rng.uniform(-5, 5), 10 ** rng.uniform(-3, 3)  # semicircles of radius 1e-3...1e3
            a, b = (rng.choice((10 ** rng.uniform(-9, -1), rng.uniform(0.1, 3.0))) for _ in range(2))
            a, b = rng.choice(((a, math.pi - b), (math.pi - a, b), (a, b + 0.05)))
            x, y = Point2(o1 + r * math.cos(a), r * math.sin(a)), Point2(o1 + r * math.cos(b), r * math.sin(b))
            g = geodesic_of(Model.HALF_PLANE, x, y)
            xs, ys = g.ideal_endpoints
            order = [math.atan2(p.x2, p.x1 - o1) for p in (xs, x, y, ys)]
            assert order == sorted(order) or order == sorted(order, reverse=True), (x, y, order)
            assert len(set(order)) == 4, (x, y, order)

    # a nearly vertical pair has one end near its feet and one far off (radius
    # up to about 1e12); the lower point is nearer the near end, in the library
    # order and in h2 method II's selected steps
    def test_halfplane_end_order_on_near_vertical_pairs(self):
        rng = random.Random(25)

        def near(p, x1):
            return not is_infinite(p) and abs(p.x1 - x1) < 1.0

        returned = 0
        for _ in range(400):
            x1, dx = rng.uniform(-5, 5), rng.choice((-1, 1)) * 10 ** rng.uniform(-11, -6)
            x2, y2 = 10 ** rng.uniform(-1, 1), 10 ** rng.uniform(-1, 1)
            x, y = Point2(x1, x2), Point2(x1 + dx, y2)
            xs, ys = geodesic_of(Model.HALF_PLANE, x, y).ideal_endpoints
            assert near(xs, x1) == (x2 < y2) != near(ys, x1), (x, y, xs, ys)
            try:
                objects = dict(h2_method_II(x, y).trace.objects())
            except GeometryError as err:  # the far-off carrier's own limits
                assert "'nearer'" not in str(err), (x, y, err)
                continue
            assert near(objects["xs"], x1) == (x2 < y2) != near(objects["ys"], x1), (x, y)
            returned += 1
        assert returned >= 100


class TestCrossRatioDistance:
    def test_vertical_example(self):
        got = rho_via_cross_ratio(Model.HALF_PLANE, Point2(0, 1), Point2(0, 2))
        assert got == pytest.approx(math.log(2), abs=1e-15)

    def test_disk_diameter_example(self):
        got = rho_via_cross_ratio(Model.DISK, Point2(0, 0), Point2(0.5, 0))
        assert got == pytest.approx(math.log(3), abs=1e-12)

    def test_agreement_sweep(self):
        rng = random.Random(77)
        for _ in range(1000):
            x = Point2(rng.uniform(-3, 3), rng.uniform(0.05, 3))
            y = Point2(rng.uniform(-3, 3), rng.uniform(0.05, 3))
            if (x - y).norm() < 1e-3:
                continue
            closed = rho_halfplane(x, y)
            assert abs(rho_via_cross_ratio(Model.HALF_PLANE, x, y) - closed) <= 1e-9 * closed
        for _ in range(1000):
            r1, r2 = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)
            t1, t2 = rng.uniform(0, math.tau), rng.uniform(0, math.tau)
            x = Point2(r1 * math.cos(t1), r1 * math.sin(t1))
            y = Point2(r2 * math.cos(t2), r2 * math.sin(t2))
            if (x - y).norm() < 1e-3:
                continue
            closed = rho_disk(x, y)
            assert abs(rho_via_cross_ratio(Model.DISK, x, y) - closed) <= 1e-9 * closed


class TestHalfplaneAngleMidpoint:
    def test_symmetric_pair_tops_out(self):
        z = midpoint_halfplane_unitcircle(math.pi / 3, 2 * math.pi / 3)
        assert (z - Point2(0, 1)).norm() <= 1e-12

    def test_pi6_pi2_example(self):
        z = midpoint_halfplane_unitcircle(math.pi / 6, math.pi / 2)
        delta = math.acos(1 / math.sqrt(3))
        assert (z - Point2(math.cos(delta), math.sin(delta))).norm() <= 1e-12
        assert abs(rho_halfplane(Point2(math.cos(math.pi / 6), 0.5), z) - rho_halfplane(z, Point2(0, 1))) <= 1e-12

    def test_angle_order_enforced(self):
        with pytest.raises(BadAngleOrder):
            midpoint_halfplane_unitcircle(1.0, 1.0)
        with pytest.raises(BadAngleOrder):
            midpoint_halfplane_unitcircle(2.0, 1.0)


class TestDiskArcDistance:
    def test_matches_rho_disk_on_spec_pair(self):
        x, y = Point2(0.5, 0), Point2(0, 0.5)
        oc = ortho_circle_through(x, y)
        got = rho_disk_arc(0.5, y, oc)
        assert got == pytest.approx(rho_disk(x, y), rel=1e-12)

    def test_a_constant_value(self):
        oc = ortho_circle_through(Point2(0.5, 0), Point2(0, 0.5))
        big_a = math.sqrt(1 + oc.radius**2) + oc.radius
        assert big_a == pytest.approx(3.2255049266776943, abs=1e-12)

    def test_apex_distance_sweep(self):
        rng = random.Random(5)
        for _ in range(200):
            x = Point2(rng.uniform(0.1, 0.8), 0.0)
            y = Point2(rng.uniform(-0.6, 0.6), rng.uniform(0.1, 0.7))
            if y.norm() > 0.9 or abs(x.cross(y)) / (x.norm() * y.norm()) < 1e-2:
                continue
            oc = ortho_circle_through(x, y)
            got = rho_disk_arc(x.x1, y, oc)
            assert got == pytest.approx(rho_disk(x, y), rel=1e-9)

    def test_not_on_arc_rejected(self):
        oc = ortho_circle_through(Point2(0.5, 0), Point2(0, 0.5))
        with pytest.raises(NotOnArc):
            rho_disk_arc(0.3, Point2(0, 0.5), oc)
        with pytest.raises(NotOnArc):
            rho_disk_arc(0.5, Point2(0.1, 0.1), oc)

    def test_coincident_endpoints_give_zero(self):
        oc = ortho_circle_through(Point2(0.5, 0), Point2(0, 0.5))
        assert rho_disk_arc(0.5, Point2(0.5, 0), oc) == pytest.approx(0.0, abs=1e-12)

    def test_arc_point_roundtrip(self):
        oc = ortho_circle_through(Point2(0.5, 0), Point2(0, 0.5))
        for t in (-0.2, 0.0, 0.17):
            p = arc_point(t, oc)
            assert signed_arc_angle(p, oc) == pytest.approx(t, abs=1e-14)


class TestDiskAngleMidpoint:
    def test_symmetric_pair_lands_on_axis(self):
        z = midpoint_disk_angles(Point2(0.5, 0.1), Point2(0.1, 0.5))
        assert abs(z.x1 - z.x2) < 1e-12

    def test_agrees_with_oracle(self):
        x, y = Point2(0.5, 0), Point2(0, 0.5)
        z = midpoint_disk_angles(x, y)
        zo = midpoint_oracle(Model.DISK, x, y)
        assert (z - zo).norm() <= 1e-9

    def test_collinear_rejected(self):
        with pytest.raises(CollinearWithOrigin) as err:
            midpoint_disk_angles(Point2(0.2, 0), Point2(0.6, 0))
        assert err.type is CollinearWithOrigin

    def test_oracle_agreement_sweep(self):
        rng = random.Random(23)
        for _ in range(300):
            r1, r2 = rng.uniform(0.05, 0.9), rng.uniform(0.05, 0.9)
            t1 = rng.uniform(0, math.tau)
            t2 = t1 + rng.uniform(0.05, 2.0)
            x = Point2(r1 * math.cos(t1), r1 * math.sin(t1))
            y = Point2(r2 * math.cos(t2), r2 * math.sin(t2))
            if abs(x.cross(y)) / (x.norm() * y.norm()) < 1e-3:
                continue
            z = midpoint_disk_angles(x, y)
            assert (z - midpoint_oracle(Model.DISK, x, y)).norm() <= 1e-9


class TestOracle:
    def test_vertical_geometric_mean(self):
        m = midpoint_oracle(Model.HALF_PLANE, Point2(0, 1), Point2(0, 4))
        assert (m - Point2(0, 2)).norm() <= 1e-9

    def test_disk_symmetric(self):
        m = midpoint_oracle(Model.DISK, Point2(-0.5, 0), Point2(0.5, 0))
        assert (m - Point2(0, 0)).norm() <= 1e-12

    def test_soundness_sweep(self):
        rng = random.Random(99)
        for _ in range(200):
            x = Point2(rng.uniform(-2, 2), rng.uniform(0.1, 2))
            y = Point2(rng.uniform(-2, 2), rng.uniform(0.1, 2))
            if (x - y).norm() < 1e-2:
                continue
            m = midpoint_oracle(Model.HALF_PLANE, x, y)
            assert abs(rho_halfplane(x, m) - rho_halfplane(m, y)) <= 1e-12
            g = geodesic_of(Model.HALF_PLANE, x, y)
            from hypmid.geom2d import is_on

            assert abs(is_on(m, g.carrier)) <= 1e-9

    @pytest.mark.parametrize(
        ("model", "x", "y", "error"),
        [
            (Model.HALF_PLANE, Point2(0, -1), Point2(0, 1), OutsideDomain),
            (Model.DISK, Point2(0.5, 0), Point2(1.2, 0), OutsideDomain),
            (Model.HALF_PLANE, Point2(0.3, 2), Point2(0.3, 2), DegenerateInput),
            (Model.DISK, Point2(0.3, 0.4), Point2(0.3, 0.4), DegenerateInput),
            (Model.HALF_PLANE, Point2(math.inf, 1), Point2(0, 1), OutsideDomain),
            (Model.HALF_PLANE, Point2(math.nan, 1), Point2(0, 1), OutsideDomain),
        ],
    )
    def test_input_checks(self, model, x, y, error):
        with pytest.raises(error):
            midpoint_oracle(model, x, y)

    def test_equal_moduli_pair_lands_on_its_axis(self):
        # x and its mirror image lie on a circle S((c, 0), r) orthogonal to S1,
        # c = (1 + |x|^2) / (2 x1); the midpoint is where it crosses the real axis
        x = Point2(0.3, 0.4)
        c = (1 + x.norm_sq()) / (2 * x.x1)
        m = midpoint_oracle(Model.DISK, x, Point2(0.3, -0.4))
        assert (m - Point2(c - math.sqrt(c * c - 1), 0)).norm() <= 1e-15

    def test_halfplane_far_from_unit_scale(self):
        # the h2 form multiplies no two coordinates, so 1e200 does not overflow
        m = midpoint_oracle(Model.HALF_PLANE, Point2(0, 1e200), Point2(0, 4e200))
        assert m.x1 == 0.0 and abs(m.x2 - 2e200) <= 1e-15 * 2e200
        m = midpoint_oracle(Model.HALF_PLANE, Point2(1e160, 1e160), Point2(-1e160, 1e160))
        assert abs(m.x1) <= 1e-15 * 1e160 and abs(m.x2 - math.sqrt(2) * 1e160) <= 1e-15 * 1e160

    def test_needs_no_geodesic(self, monkeypatch):
        # the oracle checks the constructions, so it must not share their carrier
        def refuse(*args, **kwargs):
            raise AssertionError("midpoint_oracle called geodesic_of")

        monkeypatch.setattr(hypmetric, "geodesic_of", refuse)
        assert (midpoint_oracle(Model.HALF_PLANE, Point2(0, 1), Point2(0, 4)) - Point2(0, 2)).norm() <= 1e-15
        x, y = Point2(0.5, 0.1), Point2(-0.2, 0.6)
        m = midpoint_oracle(Model.DISK, x, y)
        assert abs(rho_disk(x, m) - rho_disk(m, y)) <= 1e-12


def _reference_midpoint(model, x, y):
    """50-digit midpoint: move x to 0 by z -> (z - x)/(1 - conj(x) z), halve, map back.

    On h2 the pair goes through the Cayley map z -> (z - i)/(z + i) first.
    """
    ctx = mpmath.MPContext()
    ctx.dps = 50

    def disk_mid(a, b):
        w = (b - a) / (1 - ctx.conj(a) * b)
        half = w / (1 + ctx.sqrt(1 - abs(w) ** 2))  # tanh(artanh|w| / 2) w/|w|
        return (half + a) / (1 + ctx.conj(a) * half)

    a, b = ctx.mpc(x.x1, x.x2), ctx.mpc(y.x1, y.x2)
    if model is Model.DISK:
        return disk_mid(a, b)
    i = ctx.mpc(0, 1)
    w = disk_mid((a - i) / (a + i), (b - i) / (b + i))
    return i * (1 + w) / (1 - w)


def _polar(r, t):
    return Point2(r * math.cos(t), r * math.sin(t))


def _b2_comfortable(rng):
    # |x|, |y| <= 0.95; the angle at 0 is wide or has a margin |sin| down to 1e-3
    narrow = math.asin(10 ** rng.uniform(-3, -1))
    dt = rng.choice([-1, 1]) * rng.choice([rng.uniform(0.05, 3.0), narrow, math.pi - narrow])
    t = rng.uniform(0, math.tau)
    return Model.DISK, _polar(rng.uniform(0.05, 0.95), t), _polar(rng.uniform(0.05, 0.95), t + dt)


def _h2_scaled(rng):
    s = 10 ** rng.uniform(-6, 6)
    center = Point2(rng.uniform(-2, 2), 0)
    r, a = rng.uniform(0.1, 3), rng.uniform(0.05, 3.0)
    b = rng.uniform(a + 1e-3, 3.09)
    return Model.HALF_PLANE, (center + _polar(r, a)) * s, (center + _polar(r, b)) * s


def _h2_vertical(rng):
    s = 10 ** rng.uniform(-6, 6)
    x1 = rng.uniform(-2, 2) * s
    return Model.HALF_PLANE, Point2(x1, s * 10 ** rng.uniform(-3, 3)), Point2(x1, s * 10 ** rng.uniform(-3, 3))


def _near_boundary(rng):
    return _polar(1 - 10 ** rng.uniform(-6, -3), rng.uniform(0, math.tau))


def _b2_one_near_boundary(rng):
    # one point 1e-6...1e-3 from S1, where 1 - |x|^2 cancels to that size
    return Model.DISK, _near_boundary(rng), _polar(rng.uniform(0.05, 0.95), rng.uniform(0, math.tau))


def _b2_both_near_boundary(rng):
    return Model.DISK, _near_boundary(rng), _near_boundary(rng)


def _b2_near_origin(rng):
    # |x|, |y| in 1e-9...1e-3; scored relative to |z|
    r, s = 10 ** rng.uniform(-9, -3), 10 ** rng.uniform(-9, -3)
    return Model.DISK, _polar(r, rng.uniform(0, math.tau)), _polar(s, rng.uniform(0, math.tau))


@pytest.mark.parametrize(
    "band",
    [_b2_comfortable, _h2_scaled, _h2_vertical, _b2_one_near_boundary, _b2_both_near_boundary, _b2_near_origin],
)
def test_oracle_accuracy_against_50_digit_reference(band):
    # relative error: to |z| on h2 and near the origin, to the disk radius 1 elsewhere on b2
    relative = band in (_h2_scaled, _h2_vertical, _b2_near_origin)
    rng = random.Random(2011)
    for _ in range(150):
        model, x, y = band(rng)
        for p, q in ((x, y), (y, x)):
            m = midpoint_oracle(model, p, q)
            ref = _reference_midpoint(model, p, q)
            err = float(abs(mpmath.mpc(m.x1, m.x2) - ref) / (abs(ref) if relative else 1))
            assert err <= 1e-14, (p, q, err)


@pytest.mark.parametrize("d", [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
def test_rho_disk_near_the_boundary_against_50_digits(d):
    # x with 1 - |x| in [d, 10 d], y with 1 - |y| in [1e-3, 0.9]; absolute error on the same floats
    ctx = mpmath.MPContext()
    ctx.dps = 50
    rng = random.Random(f"rho/{d}")
    for _ in range(300):
        x = _polar(1 - d * 10 ** rng.uniform(0, 1), rng.uniform(0, math.tau))
        y = _polar(1 - 10 ** rng.uniform(-3, math.log10(0.9)), rng.uniform(0, math.tau))
        a, b = ctx.mpc(x.x1, x.x2), ctx.mpc(y.x1, y.x2)
        ref = 2 * ctx.asinh(abs(a - b) / ctx.sqrt((1 - abs(a) ** 2) * (1 - abs(b) ** 2)))
        assert abs(rho_disk(x, y) - ref) <= 1e-14, (x, y)


class TestProjection:
    def test_spec_points(self):
        assert (projection_pr(Point2(0.5, math.sqrt(0.75))) - Point2(0.5, 0)).norm() <= 1e-12
        assert (projection_pr(Point2(0, 1)) - Point2(0, 0)).norm() <= 1e-15

    def test_rejects_off_circle(self):
        with pytest.raises(NotOnUnitCircle):
            projection_pr(Point2(0.5, 0.5))
        with pytest.raises(NotOnUnitCircle):
            projection_pr(Point2(0.5, -math.sqrt(0.75)))

    def test_halves_distances(self):
        rng = random.Random(3)
        for _ in range(500):
            a1 = rng.uniform(0.05, math.pi - 0.05)
            a2 = rng.uniform(0.05, math.pi - 0.05)
            if abs(a1 - a2) < 1e-3:
                continue
            x = Point2(math.cos(a1), math.sin(a1))
            y = Point2(math.cos(a2), math.sin(a2))
            lhs = 2 * rho_halfplane(x, y)
            rhs = rho_disk(projection_pr(x), projection_pr(y))
            assert abs(lhs - rhs) <= 1e-9

    def test_closed_form_instance(self):
        x = Point2(math.cos(math.pi / 3), math.sin(math.pi / 3))
        y = Point2(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))
        assert abs(rho_halfplane(x, y) - math.log(3)) <= 1e-12
        assert abs(rho_disk(Point2(0.5, 0), Point2(-0.5, 0)) - 2 * math.log(3)) <= 1e-12


def test_rho_invariant_under_disk_preserving_inversion():
    rng = random.Random(131)
    checked = 0
    while checked < 300:
        x = Point2(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        y = Point2(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        if not (0.05 < x.norm() < 0.9 and 0.05 < y.norm() < 0.9):
            continue
        if (x - y).norm() < 1e-2:
            continue
        w = Point2(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        if not (0.1 < w.norm() < 0.8):
            continue
        v = Point2(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        if abs(w.cross(v)) / (w.norm() * max(v.norm(), 1e-9)) < 1e-2:
            continue
        circle = ortho_circle_through(w, v)  # inversion circle orthogonal to S1
        try:
            fx, fy = invert_in_circle(x, circle), invert_in_circle(y, circle)
        except CenterInversion:
            continue
        if fx.norm() >= 1 or fy.norm() >= 1:
            continue
        assert abs(rho_disk(fx, fy) - rho_disk(x, y)) <= 1e-9 * (1 + rho_disk(x, y))
        checked += 1


def test_rho_dispatcher():
    assert rho(Model.HALF_PLANE, Point2(0, 1), Point2(0, 2)) == pytest.approx(math.log(2))
    assert rho(Model.DISK, Point2(0, 0), Point2(0.5, 0)) == pytest.approx(math.log(3))


def test_infinity_endpoint_for_vertical_geodesics():
    g = geodesic_of(Model.HALF_PLANE, Point2(2, 5), Point2(2, 1))
    assert g.ideal_endpoints[0] is INFINITY


# points outside each model's domain: nan, +-inf, |x| = 1 in b2, x2 = 0 and -0.0 in h2
NAN, INF = math.nan, math.inf
OUTSIDE = {
    Model.DISK: [
        Point2(NAN, 0.0),
        Point2(0.0, NAN),
        Point2(INF, 0.0),
        Point2(0.0, -INF),
        Point2(NAN, INF),
        Point2(1.0, 0.0),
        Point2(-0.0, -1.0),
    ],
    Model.HALF_PLANE: [
        Point2(NAN, 1.0),
        Point2(0.0, NAN),
        Point2(INF, 1.0),
        Point2(-INF, 1.0),
        Point2(0.0, INF),
        Point2(2.0, 0.0),
        Point2(2.0, -0.0),
        Point2(0.0, -1.0),
    ],
}
INSIDE = {Model.DISK: Point2(0.3, 0.2), Model.HALF_PLANE: Point2(0.3, 2.0)}


@pytest.mark.parametrize(("model", "p"), [(m, p) for m, points in OUTSIDE.items() for p in points])
def test_outside_domain_names_the_first_point_outside(model, p):
    inside = INSIDE[model]
    rho_of_model = rho_disk if model is Model.DISK else rho_halfplane
    for fn in (lambda x, y: hypmetric.pair_kind(model, x, y), rho_of_model):
        for x, y in ((p, inside), (inside, p), (p, Point2(NAN, -1.0))):
            with pytest.raises(OutsideDomain) as info:
                fn(x, y)
            assert str(info.value) == f"{p} is not in the {model.value} domain"

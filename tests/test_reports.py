"""Diagnostic report contracts for the lemma/proposition verifiers."""

import math
import random

import pytest

from hypmid.constructions.reports import (
    CONDITION_NOT_MET,
    lemma31_report,
    lemma46_report,
    prop47_report,
    prop48_orthogonality,
    semicircle_residual,
)
from hypmid.errors import CollinearWithOrigin, DegenerateInput, EqualModuli, NotOnUnitCircle
from hypmid.geom2d import Point2
from hypmid.sweeps import SweepConfig, find_semicircle_partner


def unit_point(angle: float) -> Point2:
    return Point2(math.cos(angle), math.sin(angle))


class TestLemma31:
    def test_generic_pair_all_pass(self):
        report = lemma31_report(unit_point(math.pi / 6), unit_point(math.pi / 2))
        assert report.all_pass()
        assert report.max_residual() <= 1e-9

    def test_symmetric_pair_tight(self):
        report = lemma31_report(unit_point(math.pi / 3), unit_point(2 * math.pi / 3))
        assert report.all_pass()
        assert report.max_residual() <= 1e-12

    def test_equal_angles_rejected(self):
        p = unit_point(1.0)
        with pytest.raises(DegenerateInput):
            lemma31_report(p, p)

    def test_off_circle_rejected(self):
        with pytest.raises(NotOnUnitCircle):
            lemma31_report(Point2(0.5, 0.5), unit_point(1.0))

    def test_expected_claims_present(self):
        report = lemma31_report(unit_point(0.4), unit_point(1.9))
        for key in (
            "w.z=1",
            "Re v=Re z",
            "Re a=Re z",
            "angle x=angle y",
            "n=(x+y)/2",
            "v on S1(a,r_a)",
            "a.w=1",
            "u on L(s,t)",
            "u.(2a-w)=1",
            "s.(2a-w)=1",
            "t.(2a-w)=1",
            "orthocenter on S1(a,r_a)",
        ):
            assert key in report.claims, key

    def test_argument_order_irrelevant(self):
        r1 = lemma31_report(unit_point(0.5), unit_point(2.0))
        r2 = lemma31_report(unit_point(2.0), unit_point(0.5))
        assert r1.claims.keys() == r2.claims.keys()
        assert r1.all_pass() and r2.all_pass()


class TestLemma46:
    def test_spec_pair_all_pass(self):
        report = lemma46_report(Point2(0.5, 0), Point2(0, 0.25))
        assert report.all_pass()
        assert report.max_residual() <= 1e-9

    def test_mirrored_pair_rejected(self):
        with pytest.raises(EqualModuli):
            lemma46_report(Point2(0.5, 0), Point2(0, 0.5))

    def test_random_sweep_max_residual(self):
        rng = random.Random(1234)
        worst = 0.0
        count = 0
        while count < 1000:
            r1, r2 = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)
            if abs(r1 - r2) < 1e-3:
                continue
            t1, t2 = rng.uniform(0, math.tau), rng.uniform(0, math.tau)
            x = Point2(r1 * math.cos(t1), r1 * math.sin(t1))
            y = Point2(r2 * math.cos(t2), r2 * math.sin(t2))
            if abs(x.cross(y)) / (x.norm() * y.norm()) < 1e-3:
                continue
            report = lemma46_report(x, y)
            worst = max(worst, report.max_residual())
            assert report.all_pass(), (x, y)
            count += 1
        assert worst <= 1e-9


class TestProp47:
    def test_generic_collinearity(self):
        report = prop47_report(Point2(0.5, 0.1), Point2(0.15, 0.4))
        assert abs(report.claims["0,b,d collinear"].residual) <= 1e-9
        assert abs(report.claims["0,b',d' collinear"].residual) <= 1e-9
        assert report.claims["z equal rho"].status == CONDITION_NOT_MET

    def test_engineered_semicircle(self):
        rng = random.Random(9)
        x = Point2(0.5, 0.0)
        y = find_semicircle_partner(x, 0.35, rng)
        assert y is not None
        assert abs(semicircle_residual(x, y)) <= 1e-10
        report = prop47_report(x, y)
        ratio = report.claims["|z,x,x^*,z'|=|z,y,y^*,z'|"]
        assert ratio.status != CONDITION_NOT_MET
        assert abs(ratio.residual) <= 1e-8
        assert abs(report.claims["z equal rho"].residual) <= 1e-9
        assert abs(report.claims["S1(c,r_c) orth S1(a,r_a)"].residual) <= 1e-9


class TestProp48:
    def test_exact_criterion_configuration(self):
        # moduli 0.5 each; angle arccos(|x||y|) makes the circles orthogonal
        r = 0.5
        phi = math.acos(r * r)
        x = Point2(r, 0)
        y = Point2(r * math.cos(phi), r * math.sin(phi))
        chk = prop48_orthogonality(x, y)
        assert chk.orthogonal
        assert abs(chk.criterion_residual) <= 1e-12
        assert abs(chk.orthogonality_residual) <= 1e-12

    def test_right_angle_not_orthogonal(self):
        chk = prop48_orthogonality(Point2(0.5, 0), Point2(0, 0.3))
        assert not chk.orthogonal
        assert chk.criterion_residual < 0  # cos 90 = 0 < |x||y|

    def test_signs_agree_across_sweep(self):
        x = Point2(0.55, 0)
        for i in range(1, 100):
            phi = i * math.pi / 100
            y = Point2(0.4 * math.cos(phi), 0.4 * math.sin(phi))
            chk = prop48_orthogonality(x, y)
            assert (chk.criterion_residual > 0) == (chk.orthogonality_residual > 0)

    def test_collinear_rejected(self):
        with pytest.raises(CollinearWithOrigin):
            prop48_orthogonality(Point2(0.5, 0), Point2(0.2, 0))


def test_semicircle_partner_respects_modulus():
    rng = random.Random(55)
    x = Point2(0.3, 0.2)
    y = find_semicircle_partner(x, 0.6, rng)
    assert y is not None
    assert y.norm() == pytest.approx(0.6, abs=1e-12)
    cfg = SweepConfig()
    assert abs(x.norm() - y.norm()) > cfg.min_gap

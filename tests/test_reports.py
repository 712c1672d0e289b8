"""Diagnostic report contracts for the lemma/proposition verifiers."""

import math
import random

import pytest

from hypmid.constructions.reports import (
    lemma31_report,
    lemma46_report,
    prop47_report,
    prop48_orthogonality,
    semicircle_residual,
)
from hypmid.errors import CollinearWithOrigin, DegenerateInput, EqualModuli, NotOnUnitCircle
from hypmid import sweeps
from hypmid.geom2d import Point2
from hypmid.sweeps import MIN_GAP, SweepConfig, find_semicircle_partner


def unit_point(angle: float) -> Point2:
    return Point2(math.cos(angle), math.sin(angle))


def worst(report: dict) -> float:
    """Largest |residual| of a report, skipping unmet conditions; NaN if any residual is NaN, so every bound fails."""
    residuals = [abs(r) for r in report.values() if r is not None]
    return math.nan if any(map(math.isnan, residuals)) else max(residuals, default=0.0)


class TestLemma31:
    def test_generic_pair_all_pass(self):
        report = lemma31_report(unit_point(math.pi / 6), unit_point(math.pi / 2))
        assert worst(report) <= 1e-9

    def test_symmetric_pair_tight(self):
        report = lemma31_report(unit_point(math.pi / 3), unit_point(2 * math.pi / 3))
        assert worst(report) <= 1e-12

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
            assert key in report, key

    def test_argument_order_irrelevant(self):
        r1 = lemma31_report(unit_point(0.5), unit_point(2.0))
        r2 = lemma31_report(unit_point(2.0), unit_point(0.5))
        assert r1.keys() == r2.keys()
        assert worst(r1) <= 1e-9 and worst(r2) <= 1e-9


class TestLemma46:
    def test_spec_pair_all_pass(self):
        report = lemma46_report(Point2(0.5, 0), Point2(0, 0.25))
        assert worst(report) <= 1e-9

    def test_mirrored_pair_rejected(self):
        with pytest.raises(EqualModuli):
            lemma46_report(Point2(0.5, 0), Point2(0, 0.5))

    def test_random_sweep_max_residual(self):
        rng = random.Random(1234)
        worst_residual = 0.0
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
            worst_residual = max(worst_residual, worst(report))
            assert worst(report) <= 1e-9, (x, y)
            count += 1
        assert worst_residual <= 1e-9


DIAMETER_PAIR = (Point2(0.5, 0.0), Point2(-0.25, 0.0))
EQUAL_MODULI_PAIR = (Point2(0.5, 0.1), Point2(0.1, 0.5))


@pytest.mark.parametrize(
    "report, pair, error",
    [
        (prop47_report, DIAMETER_PAIR, CollinearWithOrigin),
        (prop47_report, EQUAL_MODULI_PAIR, EqualModuli),
        (lemma46_report, DIAMETER_PAIR, CollinearWithOrigin),
    ],
    ids=["prop47-diameter", "prop47-equal-moduli", "lemma46-diameter"],
)
def test_report_refuses_pair_outside_its_case(report, pair, error):
    with pytest.raises(error) as err:
        report(*pair)
    assert err.type is error


class TestProp47:
    def test_generic_collinearity(self):
        report = prop47_report(Point2(0.5, 0.1), Point2(0.15, 0.4))
        assert abs(report["0,b,d collinear"]) <= 1e-9
        assert abs(report["0,b',d' collinear"]) <= 1e-9
        assert report["z equal rho"] is None

    def test_engineered_semicircle(self):
        rng = random.Random(9)
        x = Point2(0.5, 0.0)
        y = find_semicircle_partner(x, 0.35, rng)
        assert y is not None
        assert abs(semicircle_residual(x, y)) <= 1e-10
        report = prop47_report(x, y)
        ratio = report["|z,x,x^*,z'|=|z,y,y^*,z'|"]
        assert ratio is not None
        assert abs(ratio) <= 1e-8
        assert abs(report["z equal rho"]) <= 1e-9
        assert abs(report["S1(c,r_c) orth S1(a,r_a)"]) <= 1e-9


class TestProp48:
    def test_exact_criterion_configuration(self):
        # moduli 0.5 each; angle arccos(|x||y|) makes the circles orthogonal
        r = 0.5
        phi = math.acos(r * r)
        x = Point2(r, 0)
        y = Point2(r * math.cos(phi), r * math.sin(phi))
        chk = prop48_orthogonality(x, y)
        assert abs(chk.criterion_residual) <= 1e-12
        assert abs(chk.orthogonality_residual) <= 1e-12

    def test_right_angle_not_orthogonal(self):
        chk = prop48_orthogonality(Point2(0.5, 0), Point2(0, 0.3))
        assert abs(chk.orthogonality_residual) > 1e-9
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

    def test_equal_moduli_accepted(self):
        chk = prop48_orthogonality(*EQUAL_MODULI_PAIR)
        assert chk.criterion_residual == pytest.approx(0.1 / 0.26 - 0.26, abs=1e-12)  # x.y / (|x||y|) - |x||y|
        assert (chk.criterion_residual > 0) == (chk.orthogonality_residual > 0)


def test_semicircle_partner_respects_modulus():
    rng = random.Random(55)
    x = Point2(0.3, 0.2)
    y = find_semicircle_partner(x, 0.6, rng)
    assert y is not None
    assert y.norm() == pytest.approx(0.6, abs=1e-12)
    assert abs(x.norm() - y.norm()) > MIN_GAP


def test_semicircle_partner_equals_a_full_100_step_bisection():
    # the search stops bisecting once lo and hi are adjacent floats, after which
    # no step can move them; this is the loop that always runs all 100 steps
    def full_bisection(x, r_y, rng):
        base = math.atan2(x.x2, x.x1)

        def candidate(phi):
            return Point2(r_y * math.cos(base + phi), r_y * math.sin(base + phi))

        def residual(phi):
            return semicircle_residual(x, candidate(phi))

        grid = [0.05 + (math.pi - 0.1) * i / 80 for i in range(81)]
        if rng.random() < 0.5:
            grid = [-g for g in grid]
        prev_phi, prev_val = grid[0], residual(grid[0])
        for phi in grid[1:]:
            val = residual(phi)
            if (val < 0.0) != (prev_val < 0.0):
                lo, hi, flo = prev_phi, phi, prev_val
                for _ in range(100):
                    mid = 0.5 * (lo + hi)
                    fmid = residual(mid)
                    if (fmid < 0.0) == (flo < 0.0):
                        lo, flo = mid, fmid
                    else:
                        hi = mid
                return candidate(0.5 * (lo + hi))
            prev_phi, prev_val = phi, val
        return None

    found = 0
    for seed in range(20):
        draw = random.Random(seed)
        x = unit_point(draw.uniform(0.0, math.tau)) * draw.uniform(0.1, 0.9)
        r_y = draw.uniform(0.1, 0.9)
        y = find_semicircle_partner(x, r_y, random.Random(seed))
        assert y == full_bisection(x, r_y, random.Random(seed)), seed
        found += y is not None
    assert found >= 15


@pytest.mark.parametrize("method, check", [("b2_method_I", "check_b2_concurrency"), ("h2_method_II", "check_h2_concurrency")])
def test_nan_midpoint_fails_concurrency_checks(monkeypatch, method, check):
    # one method's z = (nan, nan) comes after finite candidates, where the builtin max would drop it
    original = getattr(sweeps, method)

    def nan_result(*args):
        return original(*args)._replace(z=Point2(math.nan, math.nan), residual_equal_distance=math.nan)

    monkeypatch.setattr(sweeps, method, nan_result)
    results = getattr(sweeps, check)(SweepConfig(samples=5, seed=1))
    assert len(results) == (3 if check == "check_b2_concurrency" else 2)
    for r in results:
        assert not r.passed and math.isnan(r.max_residual), r.line()
        assert r.line().startswith("FAIL ")

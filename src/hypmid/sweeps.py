"""Seeded randomized verification sweeps over all lemma/proposition claims.

Each check runs a deterministic sample sweep (same seed, same report) and
returns the worst residual against its threshold.  This is the only place a
claim is judged: the reports of :mod:`hypmid.constructions.reports` return
residuals by claim, and the checks compare them with the contract's fixed
``EPS_INCIDENCE``, ``RATIO_TOL`` or agreement ``ORACLE_FLAG_THRESHOLD``.  The
acceptance suite and the ``verify`` CLI command are thin wrappers over :func:`run_suite`.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

from .constructions import (
    ORACLE_FLAG_THRESHOLD,
    SUITES,
    b2_method_I,
    b2_methods_II_to_VI,
    h2_method_I,
    h2_method_II,
    h2_method_III,
    h2_method_IV,
    midpoint,
    scale_sequence,
)
from .constructions.reports import (
    lemma31_report,
    lemma46_report,
    prop47_report,
    prop48_orthogonality,
    semicircle_residual,
)
from .errors import GeometryError, MethodInapplicable
from .geom2d import EPS_INCIDENCE, ORIGIN, Point2
from .hypmetric import (
    Model,
    midpoint_disk_angles,
    midpoint_halfplane_unitcircle,
    midpoint_oracle,
    projection_pr,
    rho_disk,
    rho_halfplane,
    rho_via_cross_ratio,
)

RATIO_TOL = 1e-7

# the admissible disk pairs the sweeps sample
MAX_MODULUS = 0.95
MIN_SEPARATION = 1e-3
MIN_GAP = 1e-3  # lower bound on ||x| - |y||
MIN_MARGIN = 1e-3  # noncollinearity margin |sin(angle at 0)|


class SweepConfig(NamedTuple):
    """Sampling plan for a verification sweep; identical seeds give identical reports."""

    samples: int = 1000
    seed: int = 42
    tolerance = ORACLE_FLAG_THRESHOLD  # the fixed agreement threshold, not a field


class CheckResult(NamedTuple):
    name: str
    samples: int
    max_residual: float
    threshold: float
    passed: bool

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} {self.name}: max residual {self.max_residual:.3e} (threshold {self.threshold:.1e}, n={self.samples})"


def _result(name: str, samples: int, worst: float, threshold: float) -> CheckResult:
    return CheckResult(name, samples, worst, threshold, worst <= threshold)


def _worse(worst: float, residual: float) -> float:
    """``max(worst, residual)``, except that a NaN on either side is kept, so the check FAILs.

    The builtin ``max`` drops a NaN that is not its first argument.
    """
    return worst if residual <= worst or worst != worst else residual


def _spread(points: list[Point2]) -> float:
    """Largest distance between two of the points, each unordered pair measured once; NaN if any is NaN.

    |p - q| == |q - p| bit for bit, so this equals the max over ordered pairs.
    """
    distances = [math.hypot(p.x1 - q.x1, p.x2 - q.x2) for i, p in enumerate(points) for q in points[i + 1 :]]
    return math.nan if any(map(math.isnan, distances)) else max(distances)


# ---------------------------------------------------------------------------
# samplers


def sample_disk_point(rng: random.Random) -> Point2:
    r = rng.uniform(0.05, MAX_MODULUS)
    th = rng.uniform(0.0, math.tau)
    return Point2(r * math.cos(th), r * math.sin(th))


def sample_disk_pair(rng: random.Random) -> tuple[Point2, Point2]:
    """Admissible disk pair: bounded moduli, modulus gap, noncollinearity margin."""
    while True:
        x = sample_disk_point(rng)
        y = sample_disk_point(rng)
        if (x - y).norm() < MIN_SEPARATION:
            continue
        if abs(x.norm() - y.norm()) < MIN_GAP:
            continue
        if abs(x.cross(y)) / (x.norm() * y.norm()) < MIN_MARGIN:
            continue
        return x, y


def sample_h2_carrier_pair(rng: random.Random) -> tuple[Point2, Point2, Point2, float]:
    """Random orthogonal-circle carrier and two points on it (x before y)."""
    o1 = rng.uniform(-2.0, 2.0)
    r = rng.uniform(0.5, 2.5)
    while True:
        a = rng.uniform(0.05, math.pi - 0.05)
        b = rng.uniform(0.05, math.pi - 0.05)
        if abs(a - b) >= 0.02:
            break
    a, b = min(a, b), max(a, b)
    o = Point2(o1, 0.0)
    x = o + Point2(r * math.cos(a), r * math.sin(a))
    y = o + Point2(r * math.cos(b), r * math.sin(b))
    return x, y, o, r


def sample_unit_circle_pair(rng: random.Random) -> tuple[Point2, Point2]:
    while True:
        a = rng.uniform(0.05, math.pi - 0.05)
        b = rng.uniform(0.05, math.pi - 0.05)
        if abs(a - b) >= 0.02:
            return Point2(math.cos(a), math.sin(a)), Point2(math.cos(b), math.sin(b))


# ---------------------------------------------------------------------------
# checks


def check_metric_agreement(model: Model, cfg: SweepConfig) -> CheckResult:
    """Cross-ratio distance against the closed form, relative error."""
    rng = random.Random(cfg.seed)
    worst = 0.0
    for _ in range(cfg.samples):
        if model is Model.HALF_PLANE:
            x = Point2(rng.uniform(-3.0, 3.0), rng.uniform(0.05, 3.0))
            y = Point2(rng.uniform(-3.0, 3.0), rng.uniform(0.05, 3.0))
            if (x - y).norm() < MIN_SEPARATION:
                continue
            closed = rho_halfplane(x, y)
        else:
            x = sample_disk_point(rng)
            y = sample_disk_point(rng)
            if (x - y).norm() < MIN_SEPARATION:
                continue
            closed = rho_disk(x, y)
        via = rho_via_cross_ratio(model, x, y)
        worst = _worse(worst, abs(via - closed) / closed)
    return _result(f"metric agreement ({model.value})", cfg.samples, worst, EPS_INCIDENCE)


def check_h2_concurrency(cfg: SweepConfig) -> list[CheckResult]:
    """Methods I-IV (where applicable) against the angle formula and the oracle."""
    rng = random.Random(cfg.seed)
    methods = (h2_method_I, h2_method_II, h2_method_III, h2_method_IV)
    worst_spread = 0.0
    worst_rho = 0.0
    for _ in range(cfg.samples):
        x, y, o, r = sample_h2_carrier_pair(rng)
        alpha = math.atan2(x.x2 - o.x2, x.x1 - o.x1)
        beta = math.atan2(y.x2 - o.x2, y.x1 - o.x1)
        lo, hi = min(alpha, beta), max(alpha, beta)
        z_angle = o + midpoint_halfplane_unitcircle(lo, hi) * r
        candidates = [z_angle, midpoint_oracle(Model.HALF_PLANE, x, y)]
        for method in methods:
            try:
                res = method(x, y)
            except MethodInapplicable:
                continue
            candidates.append(res.z)
            worst_rho = _worse(worst_rho, res.residual_equal_distance)
        worst_spread = _worse(worst_spread, _spread(candidates))
    return [
        _result("h2 methods I-IV + angle formula concurrency", cfg.samples, worst_spread, cfg.tolerance),
        _result("h2 midpoint equal-distance", cfg.samples, worst_rho, EPS_INCIDENCE),
    ]


def check_h2_identities(cfg: SweepConfig) -> list[CheckResult]:
    """Half-plane lemma claims over the carrier sweep, normalized to the unit carrier."""
    rng = random.Random(cfg.seed)
    worst: dict[str, float] = {}
    for _ in range(cfg.samples):
        x, y, o, r = sample_h2_carrier_pair(rng)
        xu = (x - o) * (1.0 / r)
        yu = (y - o) * (1.0 / r)
        for key, residual in lemma31_report(xu, yu).items():
            worst[key] = _worse(worst.get(key, 0.0), abs(residual))
    return [
        _result(f"lemma 3.1/prop 3.2: {key}", cfg.samples, value, EPS_INCIDENCE)
        for key, value in sorted(worst.items())
    ]


def check_b2_concurrency(cfg: SweepConfig) -> list[CheckResult]:
    """Methods I-VI, the angle formula and the oracle all give the same point."""
    rng = random.Random(cfg.seed)
    worst_spread = 0.0
    worst_rho = 0.0
    worst_collinear = 0.0
    for _ in range(cfg.samples):
        x, y = sample_disk_pair(rng)
        candidates = [midpoint_oracle(Model.DISK, x, y), midpoint_disk_angles(x, y)]
        res = b2_method_I(x, y)
        candidates.append(res.z)
        worst_rho = _worse(worst_rho, res.residual_equal_distance)
        z = res.z
        for which in ("II", "III", "IV", "V", "VI"):
            res = b2_methods_II_to_VI(x, y, which)
            candidates.append(res.z)
            worst_rho = _worse(worst_rho, res.residual_equal_distance)
            aux = next(s.result for s in res.trace.steps if s.produces == "g")
            worst_collinear = _worse(worst_collinear, abs(z.cross(aux)) / (1.0 + z.norm() * aux.norm()))
        worst_spread = _worse(worst_spread, _spread(candidates))
    return [
        _result("b2 methods I-VI + angle formula + oracle concurrency", cfg.samples, worst_spread, cfg.tolerance),
        _result("b2 midpoint equal-distance", cfg.samples, worst_rho, EPS_INCIDENCE),
        _result("b2 auxiliary points u,v,s,t,k on L(0,z)", cfg.samples, worst_collinear, EPS_INCIDENCE),
    ]


def check_b2_identities(cfg: SweepConfig) -> list[CheckResult]:
    """Bisector-circle lemma claims (incl. the inversion-pair remark) over the sweep."""
    rng = random.Random(cfg.seed)
    worst: dict[str, float] = {}
    for _ in range(cfg.samples):
        x, y = sample_disk_pair(rng)
        for key, residual in lemma46_report(x, y).items():
            worst[key] = _worse(worst.get(key, 0.0), abs(residual))
    return [
        _result(f"lemma 4.6/remark 4.9: {key}", cfg.samples, value, EPS_INCIDENCE)
        for key, value in sorted(worst.items())
    ]


def check_projection(cfg: SweepConfig) -> list[CheckResult]:
    """2 rho_h2(x, y) = rho_b2(Pr x, Pr y) for pairs on the unit semicircle."""
    rng = random.Random(cfg.seed)
    n = max(1, cfg.samples // 2)
    worst = 0.0
    for _ in range(n):
        x, y = sample_unit_circle_pair(rng)
        lhs = 2.0 * rho_halfplane(x, y)
        rhs = rho_disk(projection_pr(x), projection_pr(y))
        worst = _worse(worst, abs(lhs - rhs))
    # closed-form instance: x, y at angles pi/3, 2pi/3 project to (+-1/2, 0)
    x = Point2(math.cos(math.pi / 3.0), math.sin(math.pi / 3.0))
    y = Point2(math.cos(2.0 * math.pi / 3.0), math.sin(2.0 * math.pi / 3.0))
    closed = abs(2.0 * rho_halfplane(x, y) - 2.0 * math.log(3.0))
    closed = _worse(closed, abs(rho_disk(Point2(0.5, 0.0), Point2(-0.5, 0.0)) - 2.0 * math.log(3.0)))
    return [
        _result("projection property (random pairs)", n, worst, EPS_INCIDENCE),
        _result("projection property (closed form 2 log 3)", 1, closed, 1e-12),
    ]


def check_scale_chain(cfg: SweepConfig) -> list[CheckResult]:
    """Chain construction: rho(0, X_k) = k c and |X_k| = tanh(k artanh |X_1|)."""
    rng = random.Random(cfg.seed)
    n = max(1, cfg.samples // 10)
    worst_rho = 0.0
    worst_tanh = 0.0
    for _ in range(n):
        r = rng.uniform(0.1, 0.6)
        th = rng.uniform(0.0, math.tau)
        x1 = Point2(r * math.cos(th), r * math.sin(th))
        chain = scale_sequence(x1, 10)
        c = chain.c
        for k, p in enumerate(chain.points, start=1):
            worst_rho = _worse(worst_rho, abs(rho_disk(ORIGIN, p) - k * c))
            worst_tanh = _worse(worst_tanh, abs(p.norm() - math.tanh(k * math.atanh(r))))
    return [
        _result("chain rho(0, X_k) = k c (k <= 10)", n, worst_rho, EPS_INCIDENCE),
        _result("chain |X_k| = tanh(k artanh |X_1|)", n, worst_tanh, EPS_INCIDENCE),
    ]


def check_prop48_sweep(cfg: SweepConfig, points: int = 100) -> CheckResult:
    """Predicate sign must flip exactly where the cosine criterion changes sign."""
    rng = random.Random(cfg.seed)
    r1 = rng.uniform(0.3, 0.7)
    r2 = rng.uniform(0.2, 0.6)
    x = Point2(r1, 0.0)
    disagreements = 0
    for i in range(points):
        phi = 0.02 + (math.pi - 0.04) * i / (points - 1)
        y = Point2(r2 * math.cos(phi), r2 * math.sin(phi))
        chk = prop48_orthogonality(x, y)
        if (chk.criterion_residual > 0.0) != (chk.orthogonality_residual > 0.0):
            disagreements += 1
    return _result("prop 4.8 predicate/criterion sign agreement", points, float(disagreements), 0.0)


def find_semicircle_partner(x: Point2, r_y: float, rng: random.Random) -> Point2 | None:
    """Root-find y with |y| = r_y making the arc x^*, x, y, y^* a semicircle."""
    base = math.atan2(x.x2, x.x1)

    def candidate(phi: float) -> Point2:
        return Point2(r_y * math.cos(base + phi), r_y * math.sin(base + phi))

    def residual(phi: float) -> float:
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
                if mid == lo or mid == hi:
                    break  # lo and hi are adjacent floats: no later step moves them
                fmid = residual(mid)
                if (fmid < 0.0) == (flo < 0.0):
                    lo, flo = mid, fmid
                else:
                    hi = mid
            return candidate(0.5 * (lo + hi))
        prev_phi, prev_val = phi, val
    return None


def check_prop47(cfg: SweepConfig, semicircle_cases: int = 50) -> list[CheckResult]:
    """Collinearity claims on the generic sweep; ratio equality on semicircle configs."""
    rng = random.Random(cfg.seed)
    worst_col = 0.0
    for _ in range(cfg.samples):
        x, y = sample_disk_pair(rng)
        report = prop47_report(x, y)
        worst_col = _worse(worst_col, abs(report["0,b,d collinear"]))
        worst_col = _worse(worst_col, abs(report["0,b',d' collinear"]))
    worst_ratio = 0.0
    found = 0
    while found < semicircle_cases:
        r1 = rng.uniform(0.15, 0.7)
        r2 = rng.uniform(0.15, 0.7)
        if abs(r1 - r2) < MIN_GAP:
            continue
        th = rng.uniform(0.0, math.tau)
        x = Point2(r1 * math.cos(th), r1 * math.sin(th))
        y = find_semicircle_partner(x, r2, rng)
        if y is None:
            continue
        try:
            report = prop47_report(x, y)
        except GeometryError:
            continue
        ratio = report["|z,x,x^*,z'|=|z,y,y^*,z'|"]
        if ratio is None:
            continue
        found += 1
        worst_ratio = _worse(worst_ratio, abs(ratio))
        worst_ratio = _worse(worst_ratio, abs(report["z equal rho"]))
        worst_ratio = _worse(worst_ratio, abs(report["S1(c,r_c) orth S1(a,r_a)"]))
    return [
        _result("prop 4.7 collinearity of 0,b,d and 0,b',d'", cfg.samples, worst_col, EPS_INCIDENCE),
        _result("prop 4.7 semicircle case (midpoint/orthogonality/ratio)", semicircle_cases, worst_ratio, RATIO_TOL),
    ]


def check_case1_constructions(cfg: SweepConfig, models: tuple[Model, ...] = (Model.HALF_PLANE, Model.DISK)) -> list[CheckResult]:
    """Vertical / diameter special cases of ``models`` against the oracle.

    Every sample draws the inputs of both models, so a model's results do not
    depend on which models run.
    """
    run_h2, run_b2 = Model.HALF_PLANE in models, Model.DISK in models
    rng = random.Random(cfg.seed)
    n = max(1, cfg.samples // 10)
    worst_h2 = 0.0
    worst_b2 = 0.0
    worst_eq = 0.0
    for _ in range(n):
        x1 = rng.uniform(-2.0, 2.0)
        h1, h2 = rng.uniform(0.05, 3.0), rng.uniform(0.05, 3.0)
        if abs(h1 - h2) < 1e-3:
            continue
        if run_h2:
            x, y = Point2(x1, h1), Point2(x1, h2)
            worst_h2 = _worse(worst_h2, midpoint(Model.HALF_PLANE, x, y, "case1").oracle_distance)

        th = rng.uniform(0.0, math.tau)
        d = Point2(math.cos(th), math.sin(th))
        t1, t2 = rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)
        if abs(t1 - t2) < 1e-3:
            continue
        if run_b2:
            x, y = d * t1, d * t2
            worst_b2 = _worse(worst_b2, midpoint(Model.DISK, x, y, "case1").oracle_distance)

        r = rng.uniform(0.1, MAX_MODULUS)
        a1 = rng.uniform(0.0, math.tau)
        a2 = a1 + rng.uniform(0.1, 2.0)
        x, y = Point2(r * math.cos(a1), r * math.sin(a1)), Point2(r * math.cos(a2), r * math.sin(a2))
        if run_b2 and abs(x.cross(y)) / (x.norm() * y.norm()) >= MIN_MARGIN:
            worst_eq = _worse(worst_eq, midpoint(Model.DISK, x, y, "equal").oracle_distance)
    results = []
    if run_h2:
        results.append(_result("h2 vertical case vs oracle", n, worst_h2, cfg.tolerance))
    if run_b2:
        results.append(_result("b2 diameter case vs oracle", n, worst_b2, cfg.tolerance))
        results.append(_result("b2 equal-moduli case vs oracle", n, worst_eq, cfg.tolerance))
    return results


def run_suite(suite: str, cfg: SweepConfig) -> list[CheckResult]:
    if suite not in SUITES:
        raise ValueError(f"suite must be one of {SUITES}, got {suite!r}")
    models = (Model.HALF_PLANE, Model.DISK) if suite == "all" else (Model(suite),)
    results: list[CheckResult] = []
    if Model.HALF_PLANE in models:
        results.append(check_metric_agreement(Model.HALF_PLANE, cfg))
        results.extend(check_h2_concurrency(cfg))
        results.extend(check_h2_identities(cfg))
        results.extend(check_projection(cfg))
    if Model.DISK in models:
        results.append(check_metric_agreement(Model.DISK, cfg))
        results.extend(check_b2_concurrency(cfg))
        results.extend(check_b2_identities(cfg))
        results.extend(check_scale_chain(cfg))
        results.append(check_prop48_sweep(cfg))
        results.extend(check_prop47(cfg))
    results.extend(check_case1_constructions(cfg, models))
    return results

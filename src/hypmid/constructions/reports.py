"""Per-lemma diagnostic verifiers: every stated claim becomes a residual.

Each report evaluates all claims of one lemma/proposition on a concrete
input and returns scale-normalized residuals.  Claims that only hold under a
side condition (the semicircle case of the circumcircle proposition) are
marked ``condition_not_met`` when the condition fails, instead of failing.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ..errors import CollinearWithOrigin, DegenerateInput, NotOnUnitCircle
from ..geom2d import (
    BOTH,
    DEFAULT_TOL,
    IN_DISK,
    ORIGIN,
    UPPER,
    Circle2,
    Line2,
    Point2,
    Tolerance,
    circle_through,
    circles_orthogonal,
    intersect_circle_circle,
    intersect_line_circle,
    intersect_line_line,
    invert_unit,
    is_on,
    line_through,
    nearest_to,
    perpendicular_through,
)
from ..hypmetric import (
    Model,
    PairKind,
    geodesic_of,
    midpoint_halfplane_unitcircle,
    ortho_circle_through,
    pair_kind,
    rho_disk,
    rho_halfplane,
)
from ..moebius import absolute_ratio
from .disk import UNIT_CIRCLE, bisector_circle, require_generic

PASS = "pass"
FAIL = "fail"
CONDITION_NOT_MET = "condition_not_met"


class Claim(NamedTuple):
    residual: float | None
    status: str


class DiagnosticsReport(NamedTuple):
    name: str
    claims: dict[str, Claim]
    threshold: float

    def max_residual(self) -> float:
        vals = [abs(c.residual) for c in self.claims.values() if c.residual is not None]
        return max(vals) if vals else 0.0

    def all_pass(self) -> bool:
        return all(c.status != FAIL for c in self.claims.values())


def _report(name: str, residuals: dict[str, float | None], threshold: float) -> DiagnosticsReport:
    claims = {}
    for key, res in residuals.items():
        if res is None:
            claims[key] = Claim(None, CONDITION_NOT_MET)
        else:
            claims[key] = Claim(res, PASS if abs(res) <= threshold else FAIL)
    return DiagnosticsReport(name, claims, threshold)


def _dot_identity(p: Point2, q: Point2) -> float:
    # residual of p.q = 1, normalized so it stays meaningful for large |q|
    return (p.dot(q) - 1.0) / (1.0 + p.norm() * q.norm())


def _point_on_line(p: Point2, l: Line2) -> float:
    return l.residual(p) / (1.0 + p.norm())


def _orthocenter(a: Point2, b: Point2, c: Point2, tol: Tolerance) -> Point2:
    alt_a = perpendicular_through(line_through(b, c, tol), a)
    alt_b = perpendicular_through(line_through(a, c, tol), b)
    return intersect_line_line(alt_a, alt_b, tol)


def lemma31_report(x: Point2, y: Point2, tol: Tolerance = DEFAULT_TOL) -> DiagnosticsReport:
    """All half-plane claims on the unit carrier for x, y on S1 in H2.

    Covers the tangency/verticality/angle claims about the midpoint, the
    auxiliary-circle claims (n is the Euclidean midpoint, v on S(a,r_a),
    orthogonality, s/t/u identities) and the orthocenter claim.  When the
    chord L(x,y) is horizontal the point w is at infinity; the affected
    residuals are evaluated in their (finite) limit form.
    """
    for p in (x, y):
        if abs(p.norm() - 1.0) > tol.eps_incidence or p.x2 <= 0.0:
            raise NotOnUnitCircle(f"{p} must lie on the unit circle in the upper half-plane")
    alpha, beta = math.atan2(x.x2, x.x1), math.atan2(y.x2, y.x1)
    if abs(alpha - beta) <= tol.eps_degenerate:
        raise DegenerateInput("x and y must be distinct on the carrier")
    if alpha > beta:
        x, y, alpha, beta = y, x, beta, alpha

    z = midpoint_halfplane_unitcircle(alpha, beta)
    xst, yst = Point2(1.0, 0.0), Point2(-1.0, 0.0)
    ortho = ortho_circle_through(x, y, tol)
    a, sa = ortho.a, ortho.as_circle()
    v = intersect_line_line(line_through(x, xst, tol), line_through(y, yst, tol), tol)

    w_finite = abs(math.cos((beta + alpha) / 2.0)) > tol.eps_degenerate
    res: dict[str, float | None] = {}
    if w_finite:
        w = Point2(math.cos((beta - alpha) / 2.0) / math.cos((beta + alpha) / 2.0), 0.0)
        cw = Circle2(w * 0.5, abs(w.x1) * 0.5)
        res["w.z=1"] = _dot_identity(z, w)
        res["a.w=1"] = _dot_identity(a, w)
        z_c = intersect_circle_circle(UNIT_CIRCLE, cw, UPPER, tol)
        # the chord meets S(w/2,|w|/2) at w itself (on the axis) and at n
        roots = intersect_line_circle(line_through(x, y, tol), cw, BOTH, tol)
        n = max(roots, key=lambda p: p.x2)
        s, t = intersect_circle_circle(sa, cw, BOTH, tol)
        two_a_w = a * 2.0 - w
        res["s.(2a-w)=1"] = _dot_identity(s, two_a_w)
        res["t.(2a-w)=1"] = _dot_identity(t, two_a_w)
    else:
        # w at infinity along (1, 0): S(w/2, |w|/2) degenerates to the
        # vertical line through 0 and the dot identities to first-coordinate
        # vanishing (the limit of the normalized residuals).
        lw = Line2(Point2(1.0, 0.0), 0.0)
        res["w.z=1"] = z.x1 / z.norm()
        res["a.w=1"] = a.x1 / a.norm()
        z_c = intersect_line_circle(lw, UNIT_CIRCLE, UPPER, tol)
        n = intersect_line_line(line_through(x, y, tol), lw, tol)
        s, t = intersect_line_circle(lw, sa, BOTH, tol)
        res["s.(2a-w)=1"] = s.x1 / (1.0 + s.norm())
        res["t.(2a-w)=1"] = t.x1 / (1.0 + t.norm())

    lxy = line_through(x, y, tol)
    u = intersect_line_line(Line2(Point2(1.0, 0.0), a.x1), lxy, tol)
    res["z=S1^S1(w/2,|w|/2)"] = (z_c - z).norm() / (1.0 + z.norm())
    res["Re v=Re z"] = (v.x1 - z.x1) / (1.0 + abs(v.x1) + abs(z.x1))
    res["Re a=Re z"] = (a.x1 - z.x1) / (1.0 + abs(a.x1) + abs(z.x1))
    z1 = z.x1
    ang_x = math.atan2(x.x2, abs(x.x1 - z1))
    ang_y = math.atan2(y.x2, abs(y.x1 - z1))
    res["angle x=angle y"] = ang_x - ang_y
    res["n=(x+y)/2"] = (n - (x + y) * 0.5).norm() / (1.0 + n.norm())
    res["v on S1(a,r_a)"] = is_on(v, sa, tol).residual
    res["u on L(s,t)"] = _point_on_line(u, line_through(s, t, tol))
    if w_finite:
        res["u.(2a-w)=1"] = _dot_identity(u, a * 2.0 - w)
    else:
        res["u.(2a-w)=1"] = u.x1 / (1.0 + u.norm())
    p = _orthocenter(v, xst, yst, tol)
    res["orthocenter on S1(a,r_a)"] = is_on(p, sa, tol).residual
    res["z equal rho"] = rho_halfplane(x, z) - rho_halfplane(z, y)
    return _report("lemma-3.1/prop-3.2", res, tol.eps_incidence)


def lemma46_report(x: Point2, y: Point2, tol: Tolerance = DEFAULT_TOL) -> DiagnosticsReport:
    """Disk bisector-circle claims plus the shared-line and inversion-pair claims."""
    require_generic(x, y, tol)
    ortho = ortho_circle_through(x, y, tol)
    a, sa = ortho.a, ortho.as_circle()
    w, r_w = bisector_circle(x, y, tol)
    sw = Circle2(w, r_w)
    xsup, ysup = invert_unit(x, tol), invert_unit(y, tol)
    g = geodesic_of(Model.DISK, x, y, tol)
    xsub, ysub = g.ideal_endpoints
    z = intersect_circle_circle(sw, sa, IN_DISK, tol)
    lz = line_through(ORIGIN, z, tol)

    res: dict[str, float | None] = {
        "w.a=1": _dot_identity(w, a),
        "r_w^2+1=|w|^2": (r_w * r_w + 1.0 - w.norm_sq()) / (1.0 + w.norm_sq()),
        "S1(w,r_w) orth S1": circles_orthogonal(sw, UNIT_CIRCLE, tol).residual,
        "S1(w,r_w) orth S1(a,r_a)": circles_orthogonal(sw, sa, tol).residual,
        "z equal rho": rho_disk(x, z) - rho_disk(z, y),
    }
    v = intersect_line_line(line_through(x, xsub, tol), line_through(y, ysub, tol), tol)
    s = intersect_line_line(line_through(x, ysub, tol), line_through(y, xsub, tol), tol)
    t = intersect_line_line(line_through(xsub, ysup, tol), line_through(ysub, xsup, tol), tol)
    k = intersect_line_line(line_through(xsub, xsup, tol), line_through(ysub, ysup, tol), tol)
    u = (y * (1.0 - x.norm_sq()) + x * (1.0 - y.norm_sq())) * (1.0 / (1.0 - x.norm_sq() * y.norm_sq()))
    for name, pt in (("v", v), ("s", s), ("t", t), ("k", k), ("u", u)):
        res[f"{name} on L(0,z)"] = _point_on_line(pt, lz)
    res["u on L(x_*,y_*)"] = _point_on_line(u, line_through(xsub, ysub, tol))
    u_c = intersect_line_line(line_through(x, ysup, tol), line_through(y, xsup, tol), tol)
    res["u=L(x,y^*)^L(y,x^*)"] = (u_c - u).norm() / (1.0 + u.norm())
    for name, (p, q) in (("x,y", (x, y)), ("x_*,y_*", (xsub, ysub)), ("x^*,y^*", (xsup, ysup))):
        res[f"inversion pair {name}"] = ((p - w).norm() * (q - w).norm() - r_w * r_w) / (r_w * r_w)
        res[f"{name} collinear with w"] = (p - w).cross(q - w) / (1.0 + (p - w).norm() * (q - w).norm())
    return _report("lemma-4.6/remark-4.9", res, tol.eps_incidence)


def semicircle_residual(x: Point2, y: Point2, tol: Tolerance = DEFAULT_TOL) -> float:
    """Signed residual of the semicircle condition on the arc x^*, x, y, y^*.

    Zero exactly when x^*, y^* are antipodal on S(a, r_a); expressed through
    the Thales right angle at x so the residual changes sign through zero
    (the chord-length form |x^*-y^*| - 2 r_a only touches zero from below).
    """
    xsup, ysup = invert_unit(x, tol), invert_unit(y, tol)
    return (x - xsup).dot(x - ysup)


def prop47_report(x: Point2, y: Point2, tol: Tolerance = DEFAULT_TOL) -> DiagnosticsReport:
    """Circumcircle claims: collinearity always; midpoint/orthogonality/ratio
    equality only when the arc x^*, x, y, y^* is a semicircle."""
    require_generic(x, y, tol)
    ortho = ortho_circle_through(x, y, tol)
    sa = ortho.as_circle()
    xsup, ysup = invert_unit(x, tol), invert_unit(y, tol)
    g = geodesic_of(Model.DISK, x, y, tol)
    xsub, ysub = g.ideal_endpoints

    b = intersect_line_line(line_through(xsub, y, tol), line_through(x, ysup, tol), tol)
    d = intersect_line_line(line_through(xsup, y, tol), line_through(xsub, ysup, tol), tol)
    bp = intersect_line_line(line_through(x, ysub, tol), line_through(xsup, y, tol), tol)
    dp = intersect_line_line(line_through(x, ysup, tol), line_through(xsup, ysub, tol), tol)
    res: dict[str, float | None] = {
        "0,b,d collinear": b.cross(d) / (1.0 + b.norm() * d.norm()),
        "0,b',d' collinear": bp.cross(dp) / (1.0 + bp.norm() * dp.norm()),
    }

    semicircle = abs((xsup - ysup).norm() - 2.0 * ortho.r_a) <= tol.eps_incidence * (1.0 + 2.0 * ortho.r_a)
    if semicircle:
        sc = circle_through(ORIGIN, x, y, tol)
        res["S1(c,r_c) through 0,x,y"] = max(
            abs(is_on(ORIGIN, sc, tol).residual),
            abs(is_on(x, sc, tol).residual),
            abs(is_on(y, sc, tol).residual),
        )
        lc = line_through(ORIGIN, sc.center, tol)
        z = intersect_line_circle(lc, sa, IN_DISK, tol)
        zp = intersect_line_circle(lc, sa, nearest_to(z * (1.0 / z.norm_sq())), tol)
        res["z equal rho"] = rho_disk(x, z) - rho_disk(z, y)
        res["S1(c,r_c) orth S1(a,r_a)"] = circles_orthogonal(sc, sa, tol).residual
        r1 = absolute_ratio(z, x, xsup, zp)
        r2 = absolute_ratio(z, y, ysup, zp)
        res["|z,x,x^*,z'|=|z,y,y^*,z'|"] = r1 - r2
    else:
        for key in ("S1(c,r_c) through 0,x,y", "z equal rho", "S1(c,r_c) orth S1(a,r_a)", "|z,x,x^*,z'|=|z,y,y^*,z'|"):
            res[key] = None
    return _report("prop-4.7", res, tol.eps_incidence)


class OrthogonalityCheck(NamedTuple):
    """Outcome of the two-circle orthogonality criterion at fixed x, y."""

    orthogonal: bool
    criterion_residual: float
    orthogonality_residual: float


def prop48_orthogonality(x: Point2, y: Point2, tol: Tolerance = DEFAULT_TOL) -> OrthogonalityCheck:
    """Compare orthogonality of S(x^*, t_x), S(y^*, t_y) with cos(angle) = |x||y|.

    t_x = sqrt(1/|x|^2 - 1) makes 0 and x inversion points of S(x^*, t_x).
    Both residuals are signed and share their sign, so the predicate flips
    exactly where the cosine criterion changes sign.
    """
    if pair_kind(Model.DISK, x, y, tol) is PairKind.LINE:
        raise CollinearWithOrigin(f"0, {x}, {y} are collinear")
    nx, ny = x.norm(), y.norm()
    cx = Circle2(invert_unit(x, tol), math.sqrt(1.0 / x.norm_sq() - 1.0))
    cy = Circle2(invert_unit(y, tol), math.sqrt(1.0 / y.norm_sq() - 1.0))
    verdict = circles_orthogonal(cx, cy, tol)
    criterion = x.dot(y) / (nx * ny) - nx * ny
    # sign-aligned with the criterion: t_x^2 + t_y^2 - d^2 = 2 criterion / (|x||y|)
    d2 = (cx.center - cy.center).norm_sq()
    aligned = (cx.radius**2 + cy.radius**2 - d2) / (1.0 + d2 + cx.radius**2 + cy.radius**2)
    return OrthogonalityCheck(verdict.ok, criterion, aligned)

"""Per-lemma diagnostics: every stated claim becomes a residual.

Each report evaluates all claims of one lemma/proposition on a concrete
input and returns a dict from claim name to its signed, scale-normalized
residual.  A claim that only holds under a side condition (the semicircle
case of the circumcircle proposition) maps to ``None`` when the condition
fails.  The reports judge nothing: :mod:`hypmid.sweeps` is the only place
that compares a residual with a threshold.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ..errors import DegenerateInput, NotOnUnitCircle
from ..geom2d import (
    BOTH,
    EPS_DEGENERATE,
    EPS_INCIDENCE,
    IN_DISK,
    ORIGIN,
    UPPER,
    Circle2,
    Line2,
    Point2,
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
    geodesic_carrier,
    ideal_ends,
    midpoint_halfplane_unitcircle,
    ortho_circle_through,
    require_case,
    rho_disk,
    rho_halfplane,
)
from ..moebius import absolute_ratio
from .disk import METHOD_CHORDS, UNIT_CIRCLE, bisector_circle


def _dot_identity(p: Point2, q: Point2) -> float:
    # residual of p.q = 1, normalized so it stays meaningful for large |q|
    return (p.dot(q) - 1.0) / (1.0 + p.norm() * q.norm())


def _point_on_line(p: Point2, l: Line2) -> float:
    return l.residual(p) / (1.0 + p.norm())


def _orthocenter(a: Point2, b: Point2, c: Point2) -> Point2:
    alt_a = perpendicular_through(line_through(b, c), a)
    alt_b = perpendicular_through(line_through(a, c), b)
    return intersect_line_line(alt_a, alt_b)


def lemma31_report(x: Point2, y: Point2) -> dict[str, float | None]:
    """All half-plane claims on the unit carrier for x, y on S1 in H2.

    Covers the tangency/verticality/angle claims about the midpoint, the
    auxiliary-circle claims (n is the Euclidean midpoint, v on S(a,r_a),
    orthogonality, s/t/u identities) and the orthocenter claim.  When the
    chord L(x,y) is horizontal the point w is at infinity; the affected
    residuals are evaluated in their (finite) limit form.
    """
    for p in (x, y):
        if abs(p.norm() - 1.0) > EPS_INCIDENCE or p.x2 <= 0.0:
            raise NotOnUnitCircle(f"{p} must lie on the unit circle in the upper half-plane")
    alpha, beta = math.atan2(x.x2, x.x1), math.atan2(y.x2, y.x1)
    if abs(alpha - beta) <= EPS_DEGENERATE:
        raise DegenerateInput("x and y must be distinct on the carrier")
    if alpha > beta:
        x, y, alpha, beta = y, x, beta, alpha

    z = midpoint_halfplane_unitcircle(alpha, beta)
    xst, yst = Point2(1.0, 0.0), Point2(-1.0, 0.0)
    ortho = ortho_circle_through(x, y)
    a, sa = ortho.a, ortho.as_circle()
    v = intersect_line_line(line_through(x, xst), line_through(y, yst))

    w_finite = abs(math.cos((beta + alpha) / 2.0)) > EPS_DEGENERATE
    res: dict[str, float | None] = {}
    if w_finite:
        w = Point2(math.cos((beta - alpha) / 2.0) / math.cos((beta + alpha) / 2.0), 0.0)
        cw = Circle2(w * 0.5, abs(w.x1) * 0.5)
        res["w.z=1"] = _dot_identity(z, w)
        res["a.w=1"] = _dot_identity(a, w)
        z_c = intersect_circle_circle(UNIT_CIRCLE, cw, UPPER)
        # the chord meets S(w/2,|w|/2) at w itself (on the axis) and at n
        roots = intersect_line_circle(line_through(x, y), cw, BOTH)
        n = max(roots, key=lambda p: p.x2)
        s, t = intersect_circle_circle(sa, cw, BOTH)
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
        z_c = intersect_line_circle(lw, UNIT_CIRCLE, UPPER)
        n = intersect_line_line(line_through(x, y), lw)
        s, t = intersect_line_circle(lw, sa, BOTH)
        res["s.(2a-w)=1"] = s.x1 / (1.0 + s.norm())
        res["t.(2a-w)=1"] = t.x1 / (1.0 + t.norm())

    lxy = line_through(x, y)
    u = intersect_line_line(Line2(Point2(1.0, 0.0), a.x1), lxy)
    res["z=S1^S1(w/2,|w|/2)"] = (z_c - z).norm() / (1.0 + z.norm())
    res["Re v=Re z"] = (v.x1 - z.x1) / (1.0 + abs(v.x1) + abs(z.x1))
    res["Re a=Re z"] = (a.x1 - z.x1) / (1.0 + abs(a.x1) + abs(z.x1))
    z1 = z.x1
    ang_x = math.atan2(x.x2, abs(x.x1 - z1))
    ang_y = math.atan2(y.x2, abs(y.x1 - z1))
    res["angle x=angle y"] = ang_x - ang_y
    res["n=(x+y)/2"] = (n - (x + y) * 0.5).norm() / (1.0 + n.norm())
    res["v on S1(a,r_a)"] = is_on(v, sa)
    res["u on L(s,t)"] = _point_on_line(u, line_through(s, t))
    if w_finite:
        res["u.(2a-w)=1"] = _dot_identity(u, a * 2.0 - w)
    else:
        res["u.(2a-w)=1"] = u.x1 / (1.0 + u.norm())
    p = _orthocenter(v, xst, yst)
    res["orthocenter on S1(a,r_a)"] = is_on(p, sa)
    res["z equal rho"] = rho_halfplane(x, z) - rho_halfplane(z, y)
    return res


def lemma46_report(x: Point2, y: Point2) -> dict[str, float | None]:
    """Disk bisector-circle claims plus the shared-line and inversion-pair claims."""
    w, r_w = bisector_circle(x, y)  # refuses all but a generic pair
    sa = geodesic_carrier(Model.DISK, x, y, PairKind.GENERIC)
    a = sa.center
    sw = Circle2(w, r_w)
    xsup, ysup = invert_unit(x), invert_unit(y)
    xsub, ysub = ideal_ends(Model.DISK, sa, x, y)
    z = intersect_circle_circle(sw, sa, IN_DISK)
    lz = line_through(ORIGIN, z)

    res: dict[str, float | None] = {
        "w.a=1": _dot_identity(w, a),
        "r_w^2+1=|w|^2": (r_w * r_w + 1.0 - w.norm_sq()) / (1.0 + w.norm_sq()),
        "S1(w,r_w) orth S1": circles_orthogonal(sw, UNIT_CIRCLE),
        "S1(w,r_w) orth S1(a,r_a)": circles_orthogonal(sw, sa),
        "z equal rho": rho_disk(x, z) - rho_disk(z, y),
    }
    # the auxiliary points of chord methods II-VI; method II's drawn u is checked against u's closed form
    ends = {"x": x, "y": y, "xsub": xsub, "ysub": ysub, "xsup": xsup, "ysup": ysup}
    aux = {
        label: intersect_line_line(line_through(ends[p1], ends[q1]), line_through(ends[p2], ends[q2]))
        for label, (p1, q1), (p2, q2) in METHOD_CHORDS.values()
    }
    u_c = aux.pop("u")
    u = aux["u"] = (y * (1.0 - x.norm_sq()) + x * (1.0 - y.norm_sq())) * (1.0 / (1.0 - x.norm_sq() * y.norm_sq()))
    for name, pt in aux.items():
        res[f"{name} on L(0,z)"] = _point_on_line(pt, lz)
    res["u on L(x_*,y_*)"] = _point_on_line(u, line_through(xsub, ysub))
    res["u=L(x,y^*)^L(y,x^*)"] = (u_c - u).norm() / (1.0 + u.norm())
    for name, (p, q) in (("x,y", (x, y)), ("x_*,y_*", (xsub, ysub)), ("x^*,y^*", (xsup, ysup))):
        res[f"inversion pair {name}"] = ((p - w).norm() * (q - w).norm() - r_w * r_w) / (r_w * r_w)
        res[f"{name} collinear with w"] = (p - w).cross(q - w) / (1.0 + (p - w).norm() * (q - w).norm())
    return res


def semicircle_residual(x: Point2, y: Point2) -> float:
    """Signed residual of the semicircle condition on the arc x^*, x, y, y^*.

    Zero exactly when x^*, y^* are antipodal on S(a, r_a); expressed through
    the Thales right angle at x so the residual changes sign through zero
    (the chord-length form |x^*-y^*| - 2 r_a only touches zero from below).
    """
    xsup, ysup = invert_unit(x), invert_unit(y)
    return (x - xsup).dot(x - ysup)


def prop47_report(x: Point2, y: Point2) -> dict[str, float | None]:
    """Circumcircle claims: collinearity always; midpoint/orthogonality/ratio
    equality only when the arc x^*, x, y, y^* is a semicircle."""
    require_case(Model.DISK, x, y, (PairKind.GENERIC,))
    sa = geodesic_carrier(Model.DISK, x, y, PairKind.GENERIC)
    xsup, ysup = invert_unit(x), invert_unit(y)
    xsub, ysub = ideal_ends(Model.DISK, sa, x, y)

    b = intersect_line_line(line_through(xsub, y), line_through(x, ysup))
    d = intersect_line_line(line_through(xsup, y), line_through(xsub, ysup))
    bp = intersect_line_line(line_through(x, ysub), line_through(xsup, y))
    dp = intersect_line_line(line_through(x, ysup), line_through(xsup, ysub))
    res: dict[str, float | None] = {
        "0,b,d collinear": b.cross(d) / (1.0 + b.norm() * d.norm()),
        "0,b',d' collinear": bp.cross(dp) / (1.0 + bp.norm() * dp.norm()),
    }

    semicircle = abs((xsup - ysup).norm() - 2.0 * sa.radius) <= EPS_INCIDENCE * (1.0 + 2.0 * sa.radius)
    if semicircle:
        sc = circle_through(ORIGIN, x, y)
        res["S1(c,r_c) through 0,x,y"] = max(
            abs(is_on(ORIGIN, sc)),
            abs(is_on(x, sc)),
            abs(is_on(y, sc)),
        )
        lc = line_through(ORIGIN, sc.center)
        z = intersect_line_circle(lc, sa, IN_DISK)
        zp = intersect_line_circle(lc, sa, nearest_to(z * (1.0 / z.norm_sq())))
        res["z equal rho"] = rho_disk(x, z) - rho_disk(z, y)
        res["S1(c,r_c) orth S1(a,r_a)"] = circles_orthogonal(sc, sa)
        r1 = absolute_ratio(z, x, xsup, zp)
        r2 = absolute_ratio(z, y, ysup, zp)
        res["|z,x,x^*,z'|=|z,y,y^*,z'|"] = r1 - r2
    else:
        for key in ("S1(c,r_c) through 0,x,y", "z equal rho", "S1(c,r_c) orth S1(a,r_a)", "|z,x,x^*,z'|=|z,y,y^*,z'|"):
            res[key] = None
    return res


class OrthogonalityCheck(NamedTuple):
    """The two signed residuals of the two-circle orthogonality criterion at fixed x, y."""

    criterion_residual: float
    orthogonality_residual: float


def prop48_orthogonality(x: Point2, y: Point2) -> OrthogonalityCheck:
    """Compare orthogonality of S(x^*, t_x), S(y^*, t_y) with cos(angle) = |x||y|.

    t_x = sqrt(1/|x|^2 - 1) makes 0 and x inversion points of S(x^*, t_x).
    Both residuals are signed and share their sign, so the orthogonality
    residual changes sign exactly where the cosine criterion does.
    """
    require_case(Model.DISK, x, y, (PairKind.GENERIC, PairKind.EQUAL_MODULI))
    nx, ny = x.norm(), y.norm()
    cx = Circle2(invert_unit(x), math.sqrt(1.0 / x.norm_sq() - 1.0))
    cy = Circle2(invert_unit(y), math.sqrt(1.0 / y.norm_sq() - 1.0))
    criterion = x.dot(y) / (nx * ny) - nx * ny
    # sign-aligned with the criterion: t_x^2 + t_y^2 - d^2 = 2 criterion / (|x||y|)
    d2 = (cx.center - cy.center).norm_sq()
    aligned = (cx.radius**2 + cy.radius**2 - d2) / (1.0 + d2 + cx.radius**2 + cy.radius**2)
    return OrthogonalityCheck(criterion, aligned)

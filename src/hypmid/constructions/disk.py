"""Disk midpoint constructions: diameter case, bisector-circle method, the
five chord methods through an auxiliary point, the equal-moduli case, and the
distance-multiplying chord chain.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ..errors import ChainSaturated, DegenerateInput, MethodInapplicable, ParallelLines
from ..geom2d import (
    EPS_DEGENERATE,
    IN_DISK,
    ORIGIN,
    Circle2,
    Point2,
    nearer,
    nearest_to,
)
from ..hypmetric import Model, PairKind, require_case, require_in_domain, rho_disk
from .trace import ConstructionTrace, MidpointResult, TraceBuilder, make_midpoint_result

UNIT_CIRCLE = Circle2(ORIGIN, 1.0)

# auxiliary point of each chord method: (label, endpoint names of the two chords);
# reports.lemma46_report draws the same five points
METHOD_CHORDS = {
    "II": ("u", ("x", "ysup"), ("y", "xsup")),
    "III": ("v", ("x", "xsub"), ("y", "ysub")),
    "IV": ("s", ("x", "ysub"), ("y", "xsub")),
    "V": ("t", ("xsub", "ysup"), ("ysub", "xsup")),
    "VI": ("k", ("xsub", "xsup"), ("ysub", "ysup")),
}


def _builder(method_id: str, x: Point2, y: Point2) -> TraceBuilder:
    return TraceBuilder(Model.DISK, method_id, {"x": x, "y": y, "unit": UNIT_CIRCLE, "origin": ORIGIN})


def bisector_circle(x: Point2, y: Point2) -> tuple[Point2, float]:
    """Center and radius of the circle orthogonal to both S1 and S(a, r_a).

    w = (y(1-|x|^2) - x(1-|y|^2)) / (|y|^2 - |x|^2),
    r_w = |x-y| sqrt((1-|x|^2)(1-|y|^2)) / ||y|^2 - |x|^2|.
    Its intersection with the geodesic carrier is the hyperbolic midpoint.
    """
    require_case(Model.DISK, x, y, (PairKind.GENERIC,))
    nx2, ny2 = x.norm_sq(), y.norm_sq()
    den = ny2 - nx2
    w = (y * (1.0 - nx2) - x * (1.0 - ny2)) * (1.0 / den)
    r_w = (x - y).norm() * math.sqrt((1.0 - nx2) * (1.0 - ny2)) / abs(den)
    return w, r_w


def b2_case1(x: Point2, y: Point2) -> MidpointResult:
    """Diameter case: z = L(m, n-bar) n L(m-bar, n) with chords at x and y.

    m, m-bar (and n, n-bar) are the unit-circle points of the chords through
    x (and y) perpendicular to the diameter; same-side points are paired.
    """
    require_case(Model.DISK, x, y, (PairKind.LINE,))
    b = _builder("b2-case1", x, y)
    ld = b.step("line", "x", "y", name="Ld", label="L(x,y)")
    side = ld.n  # unit normal; chord roots sit at +/- this direction
    b.step("perp", "Ld", "x", name="Lx", label="L(x)")
    b.step("perp", "Ld", "y", name="Ly", label="L(y)")
    b.step("intersect", "Lx", "unit", name="m", select=nearest_to(x + side))
    b.step("intersect", "Lx", "unit", name="mb", label="m̄", select=nearest_to(x - side))
    b.step("intersect", "Ly", "unit", name="n", select=nearest_to(y + side))
    b.step("intersect", "Ly", "unit", name="nb", label="n̄", select=nearest_to(y - side))
    b.step("line", "m", "nb", name="L1", label="L(m,n̄)")
    b.step("line", "mb", "n", name="L2", label="L(m̄,n)")
    b.step("intersect", "L1", "L2", name="z", select=nearest_to(x))
    return make_midpoint_result(b, x, y, "z", PairKind.LINE)


def b2_method_I(x: Point2, y: Point2) -> MidpointResult:
    """Bisector-circle method: z = S(w, r_w) n S(a, r_a) inside the disk.

    w is drawn as L(x,y) n L(x*,y*); the radius r_w is taken with the
    compass as the tangent length from w to the unit circle (equivalent to
    orthogonality to S(a, r_a) because w.a = 1).
    """
    require_case(Model.DISK, x, y, (PairKind.GENERIC,))
    b = _builder("b2-I", x, y)
    b.step("invert", "x", name="xsup", label="x^*")
    b.step("invert", "y", name="ysup", label="y^*")
    carrier = b.step("ortho_circle", "x", "y", name="carrier", label="S¹(a,r_a)")
    b.step("line", "x", "y", name="Lxy", label="L(x,y)")
    b.step("line", "xsup", "ysup", name="Lsup", label="L(x^*,y^*)")
    try:
        b.step("intersect", "Lxy", "Lsup", name="w", select=nearest_to(x))
    except ParallelLines as exc:
        raise MethodInapplicable("ParallelLines", f"chords of method I are parallel: {exc}") from exc
    b.step("circle_diameter", "w", "origin", name="Cth", label="Thales circle on [w,0]")
    b.step("intersect", "Cth", "unit", name="ptan", label="tangency point", select=nearest_to(x))
    b.step("circle", "w", "ptan", name="Cw", label="S¹(w,r_w)")
    b.step("intersect", "Cw", "carrier", name="z", select=IN_DISK)
    return make_midpoint_result(b, x, y, "z", PairKind.GENERIC, carrier)


def b2_methods_II_to_VI(x: Point2, y: Point2, which: str) -> MidpointResult:
    """Chord methods II-VI: z = L(0, g) n S(a, r_a) inside the disk.

    g is u, v, s, t or k, the intersection of two chords among x, y, the
    ideal points x_*, y_* and the inversion points x^*, y^*.
    """
    if which not in METHOD_CHORDS:
        raise ValueError(f"method must be one of {sorted(METHOD_CHORDS)}, got {which!r}")
    require_case(Model.DISK, x, y, (PairKind.GENERIC,))
    label, (p1, q1), (p2, q2) = METHOD_CHORDS[which]
    b = _builder(f"b2-{which}", x, y)
    needed = {p1, q1, p2, q2}
    if "xsup" in needed:
        b.step("invert", "x", name="xsup", label="x^*")
    if "ysup" in needed:
        b.step("invert", "y", name="ysup", label="y^*")
    carrier = b.step("ortho_circle", "x", "y", name="carrier", label="S¹(a,r_a)")
    if needed & {"xsub", "ysub"}:  # x_* = carrier n S1 nearer x than y, so x_*, x, y, y_* follow the arc
        b.step("intersect_unit_ortho", "carrier", name="xsub", label="x_*", select=nearer(x, y))
        b.step("intersect_unit_ortho", "carrier", name="ysub", label="y_*", select=nearer(y, x))
    pretty = {"x": "x", "y": "y", "xsub": "x_*", "ysub": "y_*", "xsup": "x^*", "ysup": "y^*"}
    b.step("line", p1, q1, name="La", label=f"L({pretty[p1]},{pretty[q1]})")
    b.step("line", p2, q2, name="Lb", label=f"L({pretty[p2]},{pretty[q2]})")
    try:
        g = b.step("intersect", "La", "Lb", name="g", label=label, select=nearest_to(x))
    except ParallelLines as exc:
        raise MethodInapplicable("ParallelLines", f"method {which} chords are parallel: {exc}") from exc
    if g.norm() <= EPS_DEGENERATE:
        raise MethodInapplicable("AuxiliaryAtOrigin", f"auxiliary point {label} coincides with 0")
    b.step("line", "origin", "g", name="Lg", label=f"L(0,{label})")
    b.step("intersect_radius_ortho", "Lg", "carrier", name="z", select=IN_DISK)
    return make_midpoint_result(b, x, y, "z", PairKind.GENERIC, carrier)


def b2_equal_moduli(x: Point2, y: Point2) -> MidpointResult:
    """Equal-moduli case: z = L(0, a) n S(a, r_a) inside the disk.

    With |x| = |y| the perpendicular to L(x,y) through 0 is exactly L(0, a),
    so no center needs to be extracted.
    """
    require_case(Model.DISK, x, y, (PairKind.EQUAL_MODULI,))
    b = _builder("b2-equal-moduli", x, y)
    carrier = b.step("ortho_circle", "x", "y", name="carrier", label="S¹(a,r_a)")
    b.step("line", "x", "y", name="Lxy", label="L(x,y)")
    b.step("perp", "Lxy", "origin", name="La", label="L(0,a)")
    b.step("intersect_radius_ortho", "La", "carrier", name="z", select=IN_DISK)
    return make_midpoint_result(b, x, y, "z", PairKind.EQUAL_MODULI, carrier)


class PointChain(NamedTuple):
    """Points X_1..X_n on the ray through X_1 with rho(0, X_k) = k * rho(0, X_1)."""

    base: Point2
    points: tuple[Point2, ...]
    c: float
    trace: ConstructionTrace


def scale_sequence(x1: Point2, n: int) -> PointChain:
    """Chord construction multiplying the distance from the origin.

    Builds X_{k+1} from the chord through M_{k-1} (top of the perpendicular
    chord at X_{k-1}) and X_k; each step doubles-and-shifts the geodesic
    distance so rho(0, X_k) = k c.  Stops with ChainSaturated when X_k is
    within 1e-12 of the boundary.
    """
    if n < 1:
        raise ValueError(f"chain length must be >= 1, got {n!r}")
    require_in_domain(Model.DISK, x1)
    if x1.norm() <= EPS_DEGENERATE:
        raise DegenerateInput("X1 must be distinct from the origin")
    b = TraceBuilder(Model.DISK, "b2-chain", {"X1": x1, "unit": UNIT_CIRCLE, "origin": ORIGIN})
    axis = b.step("line", "origin", "X1", name="L0", label="L(0,X₁)")
    side = axis.n
    b.step("perp", "L0", "origin", name="K0", label="L_{0X₁}(0)")
    b.step("intersect", "K0", "unit", name="M0", label="M₀", select=nearest_to(ORIGIN + side))
    points = [x1]
    for k in range(1, n):
        xk = points[-1]
        if 1.0 - xk.norm() < 1e-12:
            raise ChainSaturated(
                f"X_{k} is within 1e-12 of the boundary; cannot continue", last_index=k
            )
        b.step("perp", "L0", f"X{k}", name=f"K{k}", label=f"L_{{0X₁}}(X{k})")
        b.step("intersect", f"K{k}", "unit", name=f"M{k}", label=f"M{k}", select=nearest_to(xk + side))
        b.step("line", f"M{k - 1}", f"X{k}", name=f"C{k + 1}", label=f"L(M{k - 1},X{k})")
        prev_m = b.env[f"M{k - 1}"]
        roots = b.both_roots(f"C{k + 1}", "unit")
        second = max(roots, key=lambda p: (p - prev_m).norm())
        b.step("intersect", f"C{k + 1}", "unit", name=f"N{k + 1}", label=f"N{k + 1}", select=nearest_to(second))
        b.step("perp", "L0", f"N{k + 1}", name=f"Kn{k + 1}", label=f"L_{{0X₁}}(N{k + 1})")
        nxt = b.step("intersect", f"Kn{k + 1}", "L0", name=f"X{k + 1}", label=f"X{k + 1}", select=nearest_to(xk))
        points.append(nxt)
    trace = b.finish(f"X{n}" if n > 1 else "X1", points[-1])
    return PointChain(base=x1, points=tuple(points), c=rho_disk(ORIGIN, x1), trace=trace)

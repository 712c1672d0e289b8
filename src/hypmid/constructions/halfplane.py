"""Half-plane midpoint constructions: the vertical case plus four circle methods.

All methods work in the original coordinates; no normalization to the unit
carrier is needed because every defining step is an incidence (the carrier
through x and y is drawn as the circle through x, y and the reflection of x
in the boundary, which forces its center onto the real axis).
"""

from __future__ import annotations

from ..errors import MethodInapplicable, NotVerticallyAligned
from ..geom2d import (
    DEFAULT_TOL,
    UPPER,
    Line2,
    Point2,
    Tolerance,
    nearest_to,
)
from ..hypmetric import Model, PairKind, geodesic_of, pair_kind
from .trace import MidpointResult, TraceBuilder, make_midpoint_result

AXIS = Line2(Point2(0.0, 1.0), 0.0)


def _builder(method_id: str, x: Point2, y: Point2, tol: Tolerance) -> TraceBuilder:
    return TraceBuilder(Model.HALF_PLANE, method_id, {"x": x, "y": y, "axis": AXIS}, tol)


def _carrier_circle(b: TraceBuilder):
    """Paper step 'construct the circle through x, y orthogonal to the boundary'.

    Drawn as the circle through x, y and the mirror image of x, whose center
    is therefore on the real axis.
    """
    b.step("reflect_real", "x", name="xbar", label="x̄")
    return b.step("circle_through", "x", "y", "xbar", name="carrier", label="S¹(o,r)")


def _require_circular(x: Point2, y: Point2, tol: Tolerance) -> None:
    if pair_kind(Model.HALF_PLANE, x, y, tol) is PairKind.LINE:
        raise MethodInapplicable(
            "VerticalCarrier", "x and y share a vertical geodesic; use the vertical case"
        )


def h2_case1(x: Point2, y: Point2, tol: Tolerance = DEFAULT_TOL) -> MidpointResult:
    """Vertical-geodesic bisection; the result satisfies (Im z)^2 = Im x * Im y.

    Steps: the line through x and y, its boundary foot o, the circle on
    diameter [x, y], the circle on diameter [o, n] (n the Euclidean midpoint,
    itself constructed), the circle around o through their intersection, and
    finally its upper intersection with the line.
    """
    if pair_kind(Model.HALF_PLANE, x, y, tol) is not PairKind.LINE:
        raise NotVerticallyAligned(f"x1 differs: {x.x1!r} vs {y.x1!r}")
    if x.x2 > y.x2:
        x, y = y, x
    b = _builder("h2-case1", x, y, tol)
    b.step("line", "x", "y", name="Lxy", label="L(x,y)")
    b.step("intersect", "Lxy", "axis", name="o", select=nearest_to(x))
    b.step("circle_diameter", "x", "y", name="C1", label="S¹((x+y)/2,|x-y|/2)")

    # Euclidean midpoint of [x, y] by compass: two circles, their chord, the line
    b.step("circle", "x", "y", name="Cx")
    b.step("circle", "y", "x", name="Cy")
    span = (y - x).norm()
    side = Point2(x.x1 + span, (x.x2 + y.x2) / 2.0)
    b.step("intersect", "Cx", "Cy", name="p", select=nearest_to(side))
    b.step("intersect", "Cx", "Cy", name="q", select=nearest_to(Point2(x.x1 - span, side.x2)))
    b.step("line", "p", "q", name="Lpq", label="L(p,q)")
    b.step("intersect", "Lpq", "Lxy", name="n", select=nearest_to(x))

    b.step("circle_diameter", "o", "n", name="C2", label="S¹((o+n)/2,|o-n|/2)")
    b.step("intersect", "C1", "C2", name="a", select=nearest_to(Point2(x.x1 + y.x2, x.x2)))
    b.step("circle", "o", "a", name="C3", label="S¹(o,|a|)")
    b.step("intersect", "Lxy", "C3", name="z", select=UPPER)
    return make_midpoint_result(b, x, y, "z")


def h2_method_I(x: Point2, y: Point2, tol: Tolerance = DEFAULT_TOL) -> MidpointResult:
    """Tangent-circle method: z on the circle with diameter [w, o].

    w is the boundary point of the chord L(x, y); the method is inapplicable
    when the chord is parallel to the boundary (equal heights).
    """
    _require_circular(x, y, tol)
    if abs(x.x2 - y.x2) <= tol.eps_degenerate * (1.0 + x.norm() + y.norm()):
        raise MethodInapplicable("ParallelChord", "L(x,y) is parallel to the boundary; w does not exist")
    b = _builder("h2-I", x, y, tol)
    carrier = _carrier_circle(b)
    b.step("line", "x", "y", name="Lxy", label="L(x,y)")
    b.step("intersect", "Lxy", "axis", name="w", select=nearest_to(x))
    b.step("circle_diameter", "w", "carrier", name="Cd", label="S¹((w+o)/2,|w-o|/2)")
    b.step("intersect", "Cd", "carrier", name="z", select=UPPER)
    return make_midpoint_result(b, x, y, "z")


def h2_method_II(x: Point2, y: Point2, tol: Tolerance = DEFAULT_TOL) -> MidpointResult:
    """Ideal-chord method: z above v = L(x, x_*) n L(y, y_*)."""
    _require_circular(x, y, tol)
    b = _builder("h2-II", x, y, tol)
    _carrier_circle(b)
    xstar, ystar = geodesic_of(Model.HALF_PLANE, x, y, tol).ideal_endpoints
    b.step("intersect", "carrier", "axis", name="xs", label="x_*", select=nearest_to(xstar))
    b.step("intersect", "carrier", "axis", name="ys", label="y_*", select=nearest_to(ystar))
    b.step("line", "x", "xs", name="Lx", label="L(x,x_*)")
    b.step("line", "y", "ys", name="Ly", label="L(y,y_*)")
    b.step("intersect", "Lx", "Ly", name="v", select=nearest_to(x))
    b.step("perp", "axis", "v", name="Lv", label="L(v)")
    b.step("intersect", "Lv", "carrier", name="z", select=UPPER)
    return make_midpoint_result(b, x, y, "z")


def h2_method_III(x: Point2, y: Point2, tol: Tolerance = DEFAULT_TOL) -> MidpointResult:
    """Orthogonal-circle method: z below the center a of S(a, r_a).

    S(a, r_a) passes through x, y orthogonally to the carrier, so its center
    is the intersection of the carrier tangents at x and y.
    """
    _require_circular(x, y, tol)
    b = _builder("h2-III", x, y, tol)
    _carrier_circle(b)
    b.step("line", "carrier", "x", name="Lox", label="L(o,x)")
    b.step("line", "carrier", "y", name="Loy", label="L(o,y)")
    b.step("perp", "Lox", "x", name="Tx", label="tangent at x")
    b.step("perp", "Loy", "y", name="Ty", label="tangent at y")
    b.step("intersect", "Tx", "Ty", name="a", select=nearest_to(x))
    b.step("circle", "a", "x", name="Sa", label="S¹(a,r_a)")
    b.step("perp", "axis", "a", name="La", label="L(a)")
    b.step("intersect", "La", "carrier", name="z", select=UPPER)
    return make_midpoint_result(b, x, y, "z")


def h2_method_IV(x: Point2, y: Point2, tol: Tolerance = DEFAULT_TOL) -> MidpointResult:
    """Reflected-chord method: z above z1 = L(x, y-bar) n L(x-bar, y)."""
    _require_circular(x, y, tol)
    b = _builder("h2-IV", x, y, tol)
    _carrier_circle(b)  # also produces xbar
    b.step("reflect_real", "y", name="ybar", label="ȳ")
    b.step("line", "x", "ybar", name="L1", label="L(x,ȳ)")
    b.step("line", "xbar", "y", name="L2", label="L(x̄,y)")
    b.step("intersect", "L1", "L2", name="z1", select=nearest_to(Point2(x.x1, 0.0)))
    b.step("perp", "axis", "z1", name="Lz1", label="L(z₁)")
    b.step("intersect", "Lz1", "carrier", name="z", select=UPPER)
    return make_midpoint_result(b, x, y, "z")

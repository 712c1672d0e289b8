"""Hyperbolic distances, geodesic carriers, closed-form midpoints, oracle.

Supports the upper half-plane (points with x2 > 0, geodesics are vertical
lines and semicircles centered on the real axis) and the Poincare unit disk
(points with |x| < 1, geodesics are diameters and arcs orthogonal to the unit
circle).  :func:`pair_kind` decides a pair's case of the paper's
constructions and checks its domain and distinctness.  :func:`require_case`
is every method's precondition: the method names its cases there, once, and
a pair outside them gets a :class:`~hypmid.errors.MethodInapplicable` whose
``reason`` names the mismatch.  Each public entry point that takes a pair
decides it once (a method's precondition, ``auto``'s routing, the oracle,
:func:`geodesic_of`) and hands the
:class:`PairKind` on, so :func:`geodesic_carrier` takes it instead of
deciding again.  :func:`geodesic_of` adds the ordered ideal endpoints from
:func:`ideal_ends`, which the ``.hgc`` ``geodesic`` op and
:func:`rho_via_cross_ratio` read.  Like the constructions, it takes x_* as
the end nearer x than y, by :func:`~hypmid.geom2d.nearer_than`.  The
midpoint oracle is one symmetric closed form per model, evaluated without
cancellation; it builds no carrier.
"""

from __future__ import annotations

import enum
import math

from .errors import (
    BadAngleOrder,
    CollinearWithOrigin,
    DegenerateInput,
    MethodInapplicable,
    NotOnArc,
    NotOnUnitCircle,
    OutsideDomain,
)
from .geom2d import (
    EPS_DEGENERATE,
    EPS_INCIDENCE,
    Carrier,
    Circle2,
    Line2,
    Point2,
    Slotted,
    _two_product,
    nearer_than,
)
from .moebius import INFINITY, ExtendedPoint, absolute_ratio


class Model(enum.Enum):
    """Which hyperbolic plane model a point or geodesic lives in."""

    HALF_PLANE = "h2"
    DISK = "b2"


def _in_half_plane(x1: float, x2: float) -> bool:
    # chained comparisons are False on nan and exclude both infinities
    return 0.0 < x2 < math.inf and -math.inf < x1 < math.inf


def require_in_domain(model: Model, *points: Point2) -> None:
    for p in points:
        if not (_in_half_plane(p.x1, p.x2) if model is Model.HALF_PLANE else math.hypot(p.x1, p.x2) < 1.0):
            raise OutsideDomain(f"{p} is not in the {model.value} domain")


class PairKind(enum.Enum):
    """The paper's case split of a pair of distinct points."""

    LINE = "line"  # a vertical carrier in h2, a diameter in b2
    EQUAL_MODULI = "equal-moduli"  # b2 only: |x| = |y| off every diameter
    GENERIC = "generic"


def pair_kind(model: Model, x: Point2, y: Point2) -> PairKind:
    """The case of the paper's constructions that x, y fall in; eps = ``EPS_DEGENERATE`` (1e-12).

    Raises :class:`OutsideDomain`, or :class:`DegenerateInput` if |x - y| <= eps s
    with s = 1 + |x| + |y|.  LINE: |x1 - y1| <= eps s in h2, |x × y| / (1 + |x||y|)
    <= eps in b2 (true if x or y is 0).  EQUAL_MODULI: ||x| - |y|| <= eps in b2.
    """
    x1, x2, y1, y2 = x.x1, x.x2, y.x1, y.x2
    nx, ny = math.hypot(x1, x2), math.hypot(y1, y2)
    if not ((nx < 1.0 and ny < 1.0) if model is Model.DISK else _in_half_plane(x1, x2) and _in_half_plane(y1, y2)):
        require_in_domain(model, x, y)
    eps = EPS_DEGENERATE
    scale = 1.0 + nx + ny
    if math.hypot(x1 - y1, x2 - y2) <= eps * scale:
        raise DegenerateInput(f"need two distinct points, got {x} ~ {y}")
    if model is Model.HALF_PLANE:
        return PairKind.LINE if abs(x1 - y1) <= eps * scale else PairKind.GENERIC
    if abs(x1 * y2 - x2 * y1) / (1.0 + nx * ny) <= eps:
        return PairKind.LINE
    if abs(nx - ny) <= eps:
        return PairKind.EQUAL_MODULI
    return PairKind.GENERIC


def require_case(model: Model, x: Point2, y: Point2, cases: tuple[PairKind, ...]) -> None:
    """A method's precondition: a :class:`MethodInapplicable` unless the pair's case is among ``cases``."""
    kind = pair_kind(model, x, y)
    if kind in cases:
        return
    if model is Model.HALF_PLANE:
        if kind is PairKind.LINE:
            raise MethodInapplicable("VerticalCarrier", "x and y share a vertical geodesic; use the vertical case")
        raise MethodInapplicable("NotVerticallyAligned", f"x1 differs: {x.x1!r} vs {y.x1!r}")
    if kind is PairKind.LINE:
        raise MethodInapplicable("CollinearWithOrigin", f"0, {x}, {y} are collinear")
    if PairKind.LINE in cases:
        raise MethodInapplicable("NotOnDiameter", f"0, {x}, {y} are not collinear")
    if kind is PairKind.GENERIC:
        raise MethodInapplicable("ModuliDiffer", f"|x| != |y| ({x.norm()!r} vs {y.norm()!r})")
    raise MethodInapplicable("EqualModuli", f"|x| = |y| = {x.norm()!r}; the bisector circle degenerates")


def rho_halfplane(x: Point2, y: Point2) -> float:
    """Half-plane distance via cosh rho = 1 + |x-y|^2 / (2 x2 y2).

    Evaluated as arcosh(1+u) = log1p(u + sqrt(u(u+2))), which keeps full
    precision for close points where the naive arcosh loses half the digits.
    """
    x1, x2, y1, y2 = x.x1, x.x2, y.x1, y.x2
    if not (_in_half_plane(x1, x2) and _in_half_plane(y1, y2)):
        require_in_domain(Model.HALF_PLANE, x, y)
    d1, d2 = x1 - y1, x2 - y2
    u = (d1 * d1 + d2 * d2) / (2.0 * x2 * y2)
    return math.log1p(u + math.sqrt(u * (u + 2.0)))


def rho_disk(x: Point2, y: Point2) -> float:
    """Disk distance via sinh(rho/2) = |x-y| / sqrt((1-|x|^2)(1-|y|^2)), each 1-|p|^2 compensated."""
    x1, x2, y1, y2 = x.x1, x.x2, y.x1, y.x2
    if not (math.hypot(x1, x2) < 1.0 and math.hypot(y1, y2) < 1.0):
        require_in_domain(Model.DISK, x, y)
    t = math.hypot(x1 - y1, x2 - y2) / math.sqrt(_one_minus_dot(x1, x2, x1, x2) * _one_minus_dot(y1, y2, y1, y2))
    return 2.0 * math.asinh(t)


def rho(model: Model, x: Point2, y: Point2) -> float:
    return rho_halfplane(x, y) if model is Model.HALF_PLANE else rho_disk(x, y)


def ortho_circle_through(x: Point2, y: Point2) -> Circle2:
    """The circle S(a, r_a) through x, y, x*, y*, orthogonal to S1: |a|^2 = 1 + r_a^2.

    a = i (y(1+|x|^2) - x(1+|y|^2)) / (2 (x2 y1 - x1 y2)),
    r_a = |x-y| |x|y|^2 - y| / (2 |y| |x1 y2 - x2 y1|),
    defined for nonzero x, y with 0, x, y noncollinear.
    """
    x1, x2, y1, y2 = x.x1, x.x2, y.x1, y.x2
    nx, ny = math.hypot(x1, x2), math.hypot(y1, y2)
    if nx <= EPS_DEGENERATE or ny <= EPS_DEGENERATE:
        raise CollinearWithOrigin("x and y must be nonzero")
    det = x1 * y2 - x2 * y1
    if abs(det) <= EPS_DEGENERATE * nx * ny:
        raise CollinearWithOrigin(f"0, {x}, {y} are collinear")
    zx, zy = complex(x1, x2), complex(y1, y2)
    ny2 = y1 * y1 + y2 * y2
    a = 1j * (zy * (1.0 + (x1 * x1 + x2 * x2)) - zx * (1.0 + ny2)) / (2.0 * -det)
    r_a = math.hypot(x1 - y1, x2 - y2) * abs(zx * ny2 - zy) / (2.0 * ny * abs(det))
    return Circle2(Point2(a.real, a.imag), r_a)


class Geodesic(Slotted):
    """A hyperbolic geodesic: model, Euclidean carrier, ordered ideal endpoints.

    The endpoints are labelled so that x_*, x, y, y_* occur in this order
    along the carrier; for vertical half-plane carriers the upper endpoint is
    :data:`INFINITY`.
    """

    __slots__ = ("model", "carrier", "ideal_endpoints")

    def __init__(self, model: Model, carrier: Carrier, ideal_endpoints: tuple[ExtendedPoint, ExtendedPoint]):
        self.model = model
        self.carrier = carrier
        self.ideal_endpoints = ideal_endpoints


def signed_arc_angle(p: Point2, ortho: Circle2) -> float:
    """Signed angle of p at the center a, measured from the ray a -> 0.

    The sign convention is Im(p) after rotating a onto the positive real
    axis, matching the sgn(Im) convention used by the angle formulas.
    """
    rot = p.as_complex() * ortho.center.conj().as_complex() / ortho.center.norm()
    return math.atan2(rot.imag, ortho.center.norm() - rot.real)


def arc_point(t: float, ortho: Circle2) -> Point2:
    """Inverse of :func:`signed_arc_angle`: the carrier point at signed angle t."""
    a, r_a = ortho.center, ortho.radius
    local = complex(a.norm() - r_a * math.cos(t), r_a * math.sin(t))
    return Point2.from_complex(local * a.as_complex() / a.norm())


def unit_circle_crossings(a: Point2) -> tuple[Point2, Point2]:
    """Where a circle centered at a and orthogonal to S1 meets S1.

    These are the points p with |p| = 1 on the radical line p.a = 1.  The
    form is exact for orthogonal circles and scale-free, where the generic
    circle-circle routine hits the representation floor of huge carriers.
    """
    a1, a2 = a.x1, a.x2
    inv_aa = 1.0 / (a1 * a1 + a2 * a2)
    b1, b2 = a1 * inv_aa, a2 * inv_aa
    h = math.sqrt(max(1.0 - inv_aa, 0.0))
    # the unit perpendicular (-a2, a1) / |a|, scaled by h
    inv_na = 1.0 / math.hypot(a1, a2)
    h1, h2 = -a2 * inv_na * h, a1 * inv_na * h
    return Point2(b1 + h1, b2 + h2), Point2(b1 - h1, b2 - h2)


def geodesic_carrier(model: Model, x: Point2, y: Point2, kind: PairKind) -> Carrier:
    """Euclidean carrier of the geodesic through x and y, from its closed form.

    ``kind`` is ``pair_kind(model, x, y)``, which the caller has decided.
    """
    if model is Model.HALF_PLANE:
        if kind is PairKind.LINE:
            return Line2(Point2(1.0, 0.0), x.x1)
        x1, x2, y1, y2 = x.x1, x.x2, y.x1, y.x2
        o1 = ((y1 * y1 + y2 * y2) - (x1 * x1 + x2 * x2)) / (2.0 * (y1 - x1))
        return Circle2(Point2(o1, 0.0), math.hypot(x1 - o1, x2))
    if kind is PairKind.LINE:
        d = (y - x) * (1.0 / (y - x).norm())
        n = d.perp()
        return Line2(n, n.dot(x))
    return ortho_circle_through(x, y)


def ideal_ends(model: Model, carrier: Carrier, x: Point2, y: Point2) -> tuple[ExtendedPoint, ExtendedPoint]:
    """(x_*, y_*), the ideal ends of the geodesic of x and y on ``carrier``.

    x_* is the end nearer x than y, by :func:`~hypmid.geom2d.nearer_than`;
    a vertical ``h2`` line has its foot and infinity, ordered by height.
    """
    if model is Model.HALF_PLANE:
        if isinstance(carrier, Line2):
            foot = Point2(x.x1, 0.0)
            return (foot, INFINITY) if x.x2 < y.x2 else (INFINITY, foot)
        o1, r = carrier.center.x1, carrier.radius
        e1, e2 = Point2(o1 + r, 0.0), Point2(o1 - r, 0.0)
    elif isinstance(carrier, Line2):
        e1 = carrier.direction()
        e2 = -e1
    else:
        e1, e2 = unit_circle_crossings(carrier.center)
    return (e1, e2) if nearer_than(e1, x, y) else (e2, e1)


def geodesic_of(model: Model, x: Point2, y: Point2) -> Geodesic:
    """Carrier and ordered ideal endpoints of the geodesic through x and y."""
    carrier = geodesic_carrier(model, x, y, pair_kind(model, x, y))
    return Geodesic(model, carrier, ideal_ends(model, carrier, x, y))


def rho_via_cross_ratio(model: Model, x: Point2, y: Point2) -> float:
    """Distance as log |x_*, x, y, y_*| along the geodesic through x, y."""
    g = geodesic_of(model, x, y)
    e1, e2 = g.ideal_endpoints
    return math.log(absolute_ratio(e1, x, y, e2))


def midpoint_halfplane_unitcircle(alpha: float, beta: float) -> Point2:
    """Midpoint of the geodesic between e^{i alpha} and e^{i beta} on the unit carrier.

    z = e^{i delta} with delta = arccos(cos((beta+alpha)/2) / cos((beta-alpha)/2)),
    for 0 < alpha < beta < pi.
    """
    if not (0.0 < alpha < beta < math.pi):
        raise BadAngleOrder(f"need 0 < alpha < beta < pi, got {alpha!r}, {beta!r}")
    ratio = math.cos((beta + alpha) / 2.0) / math.cos((beta - alpha) / 2.0)
    delta = math.acos(max(-1.0, min(1.0, ratio)))
    return Point2(math.cos(delta), math.sin(delta))


def _arc_coordinate(t: float, big_a: float) -> float:
    # antiderivative of the disk metric along the arc, as a function of the
    # signed center angle: F(t) = log((1 + A tan(t/2)) / (1 - A tan(t/2)))
    tau = big_a * math.tan(t / 2.0)
    if abs(tau) >= 1.0:
        raise NotOnArc(f"angle {t!r} falls outside the arc inside the disk")
    return math.log((1.0 + tau) / (1.0 - tau))


def rho_disk_arc(w: float, v: Point2, ortho: Circle2) -> float:
    """Arc distance from the carrier point (w, 0) to v via the A tan(theta/2) form.

    ``w`` is the radial coordinate of the point where the arc crosses the
    positive real axis; both that point and v must lie on the arc of
    ``ortho`` inside the disk.
    """
    if not (0.0 < w < 1.0):
        raise NotOnArc(f"w must lie in (0, 1), got {w!r}")
    pw = Point2(w, 0.0)
    a, r_a = ortho.center, ortho.radius
    for p in (pw, v):
        if abs((p - a).norm() - r_a) > EPS_INCIDENCE * (1.0 + r_a):
            raise NotOnArc(f"{p} is not on the circle S({a}, {r_a})")
        if p.norm() >= 1.0:
            raise NotOnArc(f"{p} is not inside the unit disk")
    big_a = math.sqrt(1.0 + r_a * r_a) + r_a
    tw = signed_arc_angle(pw, ortho)
    tv = signed_arc_angle(v, ortho)
    return abs(_arc_coordinate(tv, big_a) - _arc_coordinate(tw, big_a))


def midpoint_disk_angles(x: Point2, y: Point2) -> Point2:
    """Disk midpoint from signed angles at the orthogonal-circle center.

    With F the arc coordinate of :func:`rho_disk_arc`, the midpoint angle
    solves F(delta) = (F(alpha) + F(beta)) / 2, i.e.
    tan(delta/2) = (C - 1) / (A (C + 1)), C = exp((F(alpha)+F(beta))/2).
    Raises :class:`CollinearWithOrigin` if 0, x, y are collinear.
    """
    require_in_domain(Model.DISK, x, y)
    ortho = ortho_circle_through(x, y)
    big_a = math.sqrt(1.0 + ortho.radius * ortho.radius) + ortho.radius
    alpha = signed_arc_angle(x, ortho)
    beta = signed_arc_angle(y, ortho)
    c = math.exp((_arc_coordinate(alpha, big_a) + _arc_coordinate(beta, big_a)) / 2.0)
    delta = 2.0 * math.atan((c - 1.0) / (big_a * (c + 1.0)))
    return arc_point(delta, ortho)


def _one_minus_dot(a1: float, a2: float, b1: float, b2: float) -> float:
    """1 - a1 b1 - a2 b2 to a few ulps, also where it cancels to ~1e-6 near S1.

    Both products are exact two-products p + e; both subtractions are
    TwoSums s + t, whose rounding errors t are added back with the e's.
    """
    p1, e1 = _two_product(a1, b1)
    p2, e2 = _two_product(a2, b2)
    s1 = 1.0 - p1
    z = s1 - 1.0
    t1 = (1.0 - (s1 - z)) - (p1 + z)
    s2 = s1 - p2
    z = s2 - s1
    t2 = (s1 - (s2 - z)) - (p2 + z)
    return s2 + (((t1 + t2) - e1) - e2)


def midpoint_oracle(model: Model, x: Point2, y: Point2) -> Point2:
    """Midpoint by a symmetric closed form with no cancelling terms.

    h2, with s = x2 + y2: z = ((x1 y2 + y1 x2) / s,
    sqrt(x2 y2) sqrt(4 x2 y2 + |x - y|^2) / s), the normalized sum of the
    two points on the hyperboloid.  b2, Ungar's Moebius gyromidpoint: with
    a = 1 - |y|^2, b = 1 - |x|^2 and d = a + b - ab (= 1 - |x|^2 |y|^2),
    z = (a x + b y) / (d + sqrt(ab |1 - conj(x) y|^2)).  a, b and
    Re(1 - conj(x) y) come from :func:`_one_minus_dot`, so the sums keep full
    relative precision near S1.  The domain and distinct-points checks run
    once, in :func:`pair_kind`.
    """
    pair_kind(model, x, y)
    x1, x2, y1, y2 = x.x1, x.x2, y.x1, y.x2
    if model is Model.HALF_PLANE:
        # weights y2/s, x2/s and sqrt(x2) sqrt(y2): no product of two coordinates
        # is formed, so coordinates up to ~1e307 do not overflow
        s = x2 + y2
        g = math.sqrt(x2) * math.sqrt(y2)
        return Point2(x1 * (y2 / s) + y1 * (x2 / s), g * (math.hypot(2.0 * g, x1 - y1, x2 - y2) / s))
    a = _one_minus_dot(y1, y2, y1, y2)
    b = _one_minus_dot(x1, x2, x1, x2)
    re = _one_minus_dot(x1, x2, y1, y2)
    im = x1 * y2 - x2 * y1
    den = ((a + b) - a * b) + math.sqrt(a * b * (re * re + im * im))
    return Point2((a * x1 + b * y1) / den, (a * x2 + b * y2) / den)


def projection_pr(x: Point2) -> Point2:
    """Vertical projection of a point of S1 in the upper half-plane onto the real axis.

    The image (x1, 0) is read as a point of the disk model on the real
    diameter; the map halves hyperbolic distances.
    """
    if abs(x.norm() - 1.0) > EPS_INCIDENCE or x.x2 <= 0.0:
        raise NotOnUnitCircle(f"{x} is not on the upper unit semicircle")
    return Point2(x.x1, 0.0)

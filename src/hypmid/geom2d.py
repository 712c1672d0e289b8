"""Euclidean plane primitives: points, lines, circles, intersections, inversions.

Everything downstream (hyperbolic metrics, compass-and-ruler constructions,
the script interpreter) is built on the operations here.  Nothing assigns
to a field of a value once it is built, and every operation is a pure
function, so values are safe to share across threads.

Numeric conventions:

* two fixed tolerance tiers -- :data:`EPS_DEGENERATE` decides branches ("is
  this degenerate?"), :data:`EPS_INCIDENCE` decides assertions ("is this
  satisfied?");
* predicates return a signed residual, not a verdict; residuals and branch
  tests are scaled by ``1.0 +`` the input magnitudes, so they are relative
  above unit scale but absolute below it, and one threshold does not fit
  every scale;
* every two-root intersection takes an explicit :class:`Selector`; there is
  no silent first-root convention.
"""

from __future__ import annotations

import math

from .errors import (
    AmbiguousSelection,
    CenterInversion,
    CollinearPoints,
    ConcentricCircles,
    DegenerateInput,
    NoIntersection,
    OriginInversion,
    ParallelLines,
)


class Slotted:
    """Base of the kit's slotted value classes: field-wise ``==``, hash and repr.

    The fields are the class's ``__slots__``; ``_key`` is what ``==`` and
    hash compare.  Python builds such a class without generating code, and an
    instance in about 0.2 us.
    """

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join([f"{f}={getattr(self, f)!r}" for f in self.__slots__])
        return f"{self.__class__.__qualname__}({fields})"


class Point2:
    """A point of the plane, also used as a 2-vector or complex value."""

    __slots__ = ("x1", "x2")

    def __init__(self, x1: float, x2: float):
        self.x1 = x1
        self.x2 = x2

    def __eq__(self, other):
        if other.__class__ is Point2:
            return (self.x1, self.x2) == (other.x1, other.x2)
        return NotImplemented

    def __hash__(self):
        return hash((self.x1, self.x2))

    def __repr__(self) -> str:
        return f"Point2(x1={self.x1!r}, x2={self.x2!r})"

    def __add__(self, other: "Point2") -> "Point2":
        return Point2(self.x1 + other.x1, self.x2 + other.x2)

    def __sub__(self, other: "Point2") -> "Point2":
        return Point2(self.x1 - other.x1, self.x2 - other.x2)

    def __neg__(self) -> "Point2":
        return Point2(-self.x1, -self.x2)

    def __mul__(self, s: float) -> "Point2":
        return Point2(self.x1 * s, self.x2 * s)

    __rmul__ = __mul__

    def dot(self, other: "Point2") -> float:
        return self.x1 * other.x1 + self.x2 * other.x2

    def cross(self, other: "Point2") -> float:
        return self.x1 * other.x2 - self.x2 * other.x1

    def norm_sq(self) -> float:
        return self.x1 * self.x1 + self.x2 * self.x2

    def norm(self) -> float:
        return math.hypot(self.x1, self.x2)

    def perp(self) -> "Point2":
        """Rotate by +90 degrees."""
        return Point2(-self.x2, self.x1)

    def conj(self) -> "Point2":
        return Point2(self.x1, -self.x2)

    def as_complex(self) -> complex:
        return complex(self.x1, self.x2)

    @staticmethod
    def from_complex(z: complex) -> "Point2":
        return Point2(z.real, z.imag)


ORIGIN = Point2(0.0, 0.0)

# the contract tolerances: an incidence holds within EPS_INCIDENCE, and a
# configuration is degenerate within EPS_DEGENERATE
EPS_INCIDENCE = 1e-9
EPS_DEGENERATE = 1e-12


class Line2(Slotted):
    """Line in normalized implicit form {p : n.p = c} with |n| = 1.

    Vertical lines need no special case.
    """

    __slots__ = ("n", "c")

    def __init__(self, n: Point2, c: float):
        self.n = n
        self.c = c

    def residual(self, p: Point2) -> float:
        """Signed distance of p from the line (n is a unit vector)."""
        return self.n.dot(p) - self.c

    def direction(self) -> Point2:
        return self.n.perp()


class Circle2(Slotted):
    """Circle with strictly positive radius; a degenerate radius is refused."""

    __slots__ = ("center", "radius")

    def __init__(self, center: Point2, radius: float):
        if not (radius > 0.0 and math.isfinite(radius)):
            raise DegenerateInput(f"circle radius must be finite and > 0, got {radius!r}")
        self.center = center
        self.radius = radius

    def residual(self, p: Point2) -> float:
        return (p - self.center).norm() - self.radius


Carrier = Line2 | Circle2


class Selector(Slotted):
    """Root selector for two-root intersections.

    ``kind`` is one of ``upper`` (x2 > 0), ``in_disk`` (|p| < 1),
    ``boundary`` (on the real axis), ``nearest`` (anchor point required),
    ``nearer`` (anchor a pair (p, q): the root strictly nearer p than q) or
    ``both`` (return the candidate tuple unfiltered).
    """

    __slots__ = ("kind", "anchor")

    def __init__(self, kind: str, anchor: Point2 | None = None):
        self.kind = kind
        self.anchor = anchor


UPPER = Selector("upper")
IN_DISK = Selector("in_disk")
BOTH = Selector("both")


def nearest_to(p: Point2) -> Selector:
    return Selector("nearest", p)


def nearer(p: Point2, q: Point2) -> Selector:
    """The root strictly nearer p than q, by :func:`nearer_than`; ``nearer(x, y)`` picks x_*."""
    return Selector("nearer", (p, q))


def nearer_than(p: Point2, near: Point2, far: Point2) -> bool:
    """Whether p lies strictly on near's side of the perpendicular bisector of [near, far].

    The bisector of [x, y] crosses the geodesic through x and y once, between
    them, so it puts the two ideal ends on opposite sides.  The sign of
    (p - m).(far - near), m the midpoint, cancels inside one well-scaled dot
    product, where two distances to a far-off p would round alike.
    """
    d1, d2 = far.x1 - near.x1, far.x2 - near.x2
    return (p.x1 - 0.5 * (near.x1 + far.x1)) * d1 + (p.x2 - 0.5 * (near.x2 + far.x2)) * d2 < 0.0


def line_through(p: Point2, q: Point2) -> Line2:
    """Line through two distinct points (the ruler primitive)."""
    p1, p2, q1, q2 = p.x1, p.x2, q.x1, q.x2
    d1, d2 = q1 - p1, q2 - p2
    length = math.hypot(d1, d2)
    if length <= EPS_DEGENERATE * (1.0 + math.hypot(p1, p2) + math.hypot(q1, q2)):
        raise DegenerateInput(f"line through coincident points {p} ~ {q}")
    n1, n2 = -d2 / length, d1 / length
    return Line2(Point2(n1, n2), n1 * p1 + n2 * p2)


def perpendicular_through(l: Line2, p: Point2) -> Line2:
    """Line through p orthogonal to l."""
    n1, n2 = -l.n.x2, l.n.x1  # l.direction()
    return Line2(Point2(n1, n2), n1 * p.x1 + n2 * p.x2)


_SPLITTER = 134217729.0  # 2**27 + 1, Dekker/Veltkamp split


def _two_product(a: float, b: float) -> tuple[float, float]:
    # Dekker: a b = p + err exactly, each factor split by Veltkamp into a 26-bit
    # high part and the rest (Python 3.11 has no math.fma)
    p = a * b
    c = _SPLITTER * a
    ahi = c - (c - a)
    alo = a - ahi
    c = _SPLITTER * b
    bhi = c - (c - b)
    blo = b - bhi
    err = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, err


def det2(a: float, b: float, c: float, d: float) -> float:
    """a*d - b*c with one compensation step; exactish under heavy cancellation."""
    p, perr = _two_product(a, d)
    q, qerr = _two_product(b, c)
    return (p - q) + (perr - qerr)


def dot2(a: float, b: float, c: float, d: float) -> float:
    """a*b + c*d with one compensation step."""
    p, perr = _two_product(a, b)
    q, qerr = _two_product(c, d)
    return (p + q) + (perr + qerr)


def intersect_line_line(a: Line2, b: Line2) -> Point2:
    n1, n2, m1, m2 = a.n.x1, a.n.x2, b.n.x1, b.n.x2
    det = det2(n1, n2, m1, m2)
    if abs(det) <= EPS_DEGENERATE:
        raise ParallelLines(f"lines with normals {a.n} and {b.n} are parallel")
    return Point2(det2(a.c, n2, b.c, m2) / det, det2(n1, a.c, m1, b.c) / det)


def _apply_selector(candidates, selector: Selector, scale: float):
    # merge a tangent double root before selecting
    if len(candidates) == 2:
        p, q = candidates
        if math.hypot(p.x1 - q.x1, p.x2 - q.x2) <= EPS_INCIDENCE * scale:
            candidates = [p]
    kind = selector.kind
    if kind == "both":
        return tuple(candidates)
    if kind == "nearest":
        anchor = selector.anchor
        if anchor is None:
            raise ValueError("nearest selector requires an anchor point")
        if len(candidates) == 1:
            return candidates[0]
        a1, a2 = anchor.x1, anchor.x2
        p, q = candidates
        dp = math.hypot(p.x1 - a1, p.x2 - a2)
        dq = math.hypot(q.x1 - a1, q.x2 - a2)
        if abs(dp - dq) <= EPS_DEGENERATE * scale:
            raise AmbiguousSelection(f"candidates equidistant from anchor {anchor}")
        return q if dq < dp else p
    if kind == "upper":
        kept = [p for p in candidates if p.x2 > 0.0]
    elif kind == "in_disk":
        kept = [p for p in candidates if math.hypot(p.x1, p.x2) < 1.0]
    elif kind == "boundary":
        kept = [p for p in candidates if abs(p.x2) <= EPS_INCIDENCE * (1.0 + abs(p.x1))]
    elif kind == "nearer":
        near, far = selector.anchor
        kept = [p for p in candidates if nearer_than(p, near, far)]
    else:
        raise ValueError(f"unknown selector kind {kind!r}")
    if len(kept) != 1:
        raise AmbiguousSelection(
            f"selector {kind!r} matched {len(kept)} of {len(candidates)} intersection points"
        )
    return kept[0]


def intersect_line_circle(l: Line2, c: Circle2, selector: Selector):
    """Intersection points of a line and a circle, chosen by ``selector``."""
    n1, n2 = l.n.x1, l.n.x2
    c1, c2 = c.center.x1, c.center.x2
    r = c.radius
    dist = (n1 * c1 + n2 * c2) - l.c
    scale = 1.0 + r + math.hypot(c1, c2)
    if abs(dist) > r + EPS_INCIDENCE * scale:
        raise NoIntersection(f"line misses circle by {abs(dist) - r:.3e}")
    # factored difference keeps precision when the line is near-tangent
    h = math.sqrt(max((r - dist) * (r + dist), 0.0))
    # foot of the center plus and minus h along the direction (-n2, n1)
    b1, b2 = c1 - n1 * dist, c2 - n2 * dist
    h1, h2 = -n2 * h, n1 * h
    return _apply_selector([Point2(b1 + h1, b2 + h2), Point2(b1 - h1, b2 - h2)], selector, scale)


def intersect_circle_circle(a: Circle2, b: Circle2, selector: Selector):
    """Intersection points of two circles via the radical line.

    Computed from the smaller circle's side with factored differences; the
    chord position would otherwise cancel catastrophically when one circle
    is orders of magnitude larger (near-straight geodesic carriers).
    """
    if a.radius > b.radius:
        a, b = b, a
    ra, rb = a.radius, b.radius
    a1, a2 = a.center.x1, a.center.x2
    e1, e2 = b.center.x1 - a1, b.center.x2 - a2
    d = math.hypot(e1, e2)
    scale = 1.0 + ra + rb + d
    if d <= EPS_DEGENERATE * scale:
        raise ConcentricCircles(f"circle centers coincide: {a.center} ~ {b.center}")
    if d > ra + rb + EPS_INCIDENCE * scale:
        raise NoIntersection("circles are disjoint (external)")
    if d < abs(ra - rb) - EPS_INCIDENCE * scale:
        raise NoIntersection("circles are disjoint (one inside the other)")
    along = ((ra - rb) * (ra + rb) + d * d) / (2.0 * d)
    h = math.sqrt(max((ra - along) * (ra + along), 0.0))
    # u is the unit vector from a's center to b's; the roots sit at +/- h along u's perpendicular
    inv_d = 1.0 / d
    u1, u2 = e1 * inv_d, e2 * inv_d
    b1, b2 = a1 + u1 * along, a2 + u2 * along
    h1, h2 = -u2 * h, u1 * h
    return _apply_selector([Point2(b1 + h1, b2 + h2), Point2(b1 - h1, b2 - h2)], selector, scale)


def circle_through(p: Point2, q: Point2, r: Point2) -> Circle2:
    """Circumscribed circle of three noncollinear points.

    Computed relative to p with compensated determinants; thin triangles
    through far-apart points (the inversion-point configurations) would
    otherwise lose five or six digits in the center.
    """
    p1, p2 = p.x1, p.x2
    u1, u2 = q.x1 - p1, q.x2 - p2
    v1, v2 = r.x1 - p1, r.x2 - p2
    w1, w2 = r.x1 - q.x1, r.x2 - q.x2
    nu, nv = u1 * u1 + u2 * u2, v1 * v1 + v2 * v2
    scale = 1.0 + max(nu, nv, w1 * w1 + w2 * w2)
    if abs(u1 * v2 - u2 * v1) <= EPS_DEGENERATE * scale:
        raise CollinearPoints(f"points {p}, {q}, {r} are collinear")
    d = 2.0 * det2(u1, u2, v1, v2)
    c1, c2 = p1 + det2(nu, nv, u2, v2) / d, p2 + det2(u1, v1, nu, nv) / d
    return Circle2(Point2(c1, c2), math.hypot(p1 - c1, p2 - c2))


def circle_on_diameter(p: Point2, q: Point2) -> Circle2:
    """Circle with segment [p, q] as diameter."""
    p1, p2, q1, q2 = p.x1, p.x2, q.x1, q.x2
    d = math.hypot(q1 - p1, q2 - p2)
    if d <= EPS_DEGENERATE * (1.0 + math.hypot(p1, p2) + math.hypot(q1, q2)):
        raise DegenerateInput(f"diameter endpoints coincide: {p} ~ {q}")
    return Circle2(Point2((p1 + q1) * 0.5, (p2 + q2) * 0.5), d * 0.5)


def invert_unit(p: Point2) -> Point2:
    """Inversion x -> x / |x|^2 in the unit circle."""
    n2 = p.norm_sq()
    if n2 <= EPS_DEGENERATE * EPS_DEGENERATE:
        raise OriginInversion("cannot invert the origin in the unit circle")
    return p * (1.0 / n2)


def reflect_in_line(p: Point2, a: Point2, t: float) -> Point2:
    """Reflection in the line {x : x.a = t}; an involution fixing that line."""
    a2 = a.norm_sq()
    if a2 == 0.0:
        raise DegenerateInput("reflection normal must be nonzero")
    return p - a * (2.0 * (p.dot(a) - t) / a2)


def invert_in_circle(p: Point2, c: Circle2) -> Point2:
    """Inversion x -> a + r^2 (x-a)/|x-a|^2 in the circle S(a, r)."""
    d = p - c.center
    n2 = d.norm_sq()
    if n2 <= (EPS_DEGENERATE * (1.0 + c.radius)) ** 2:
        raise CenterInversion("cannot invert the center of the circle")
    return c.center + d * (c.radius * c.radius / n2)


def is_on(p: Point2, carrier: Carrier) -> float:
    if isinstance(carrier, Line2):
        return carrier.residual(p) / (1.0 + p.norm())
    return carrier.residual(p) / (1.0 + carrier.radius)


def circles_orthogonal(a: Circle2, b: Circle2) -> float:
    d2 = (b.center - a.center).norm_sq()
    scale = 1.0 + d2 + a.radius * a.radius + b.radius * b.radius
    return (d2 - a.radius * a.radius - b.radius * b.radius) / scale


def line_tangent_to_circle(l: Line2, c: Circle2) -> float:
    return (abs(l.residual(c.center)) - c.radius) / (1.0 + c.radius)


def collinear(p: Point2, q: Point2, r: Point2) -> float:
    u, v = q - p, r - p
    return u.cross(v) / (1.0 + u.norm() * v.norm())


def lines_orthogonal(a: Line2, b: Line2) -> float:
    return a.n.dot(b.n)


def line_circle_orthogonal(l: Line2, c: Circle2) -> float:
    """A line meets a circle orthogonally iff it passes through the center."""
    return l.residual(c.center) / (1.0 + c.radius)

"""Euclidean plane primitives: points, lines, circles, intersections, inversions.

Everything downstream (hyperbolic metrics, compass-and-ruler constructions,
the script interpreter) is built on the operations here.  Nothing assigns
to a field of a value once it is built, and every operation is a pure
function, so values are safe to share across threads.

Numeric conventions:

* two tolerance tiers -- ``eps_degenerate`` decides branches ("is this
  degenerate?"), ``eps_incidence`` decides assertions ("is this satisfied?");
* predicates return a signed residual normalized by input magnitude, so the
  same threshold works at any scale;
* every two-root intersection takes an explicit :class:`Selector`; there is
  no silent first-root convention.
"""

from __future__ import annotations

import math
from typing import NamedTuple

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

    def close_to(self, other: "Point2", tol: float) -> bool:
        """Tolerance-based equality; bit-level ``==`` is for replay checks only."""
        return (self - other).norm() <= tol


ORIGIN = Point2(0.0, 0.0)


class Tolerance(Slotted):
    """Two-tier tolerance: incidence checks vs degeneracy branch decisions."""

    __slots__ = ("eps_incidence", "eps_degenerate")

    def __init__(self, eps_incidence: float = 1e-9, eps_degenerate: float = 1e-12):
        if not (0.0 < eps_degenerate <= eps_incidence):
            raise ValueError(
                "require 0 < eps_degenerate <= eps_incidence, got "
                f"{eps_degenerate!r}, {eps_incidence!r}"
            )
        self.eps_incidence = eps_incidence
        self.eps_degenerate = eps_degenerate


DEFAULT_TOL = Tolerance()


class Line2(Slotted):
    """Line in normalized implicit form {p : n.p = c} with |n| = 1.

    Vertical lines need no special case.  ``provenance`` optionally keeps the
    two defining points.
    """

    __slots__ = ("n", "c", "provenance")

    def __init__(self, n: Point2, c: float, provenance: tuple[Point2, Point2] | None = None):
        self.n = n
        self.c = c
        self.provenance = provenance

    def residual(self, p: Point2) -> float:
        """Signed distance of p from the line (n is a unit vector)."""
        return self.n.dot(p) - self.c

    def direction(self) -> Point2:
        return self.n.perp()

    def foot(self, p: Point2) -> Point2:
        """Orthogonal projection of p onto the line."""
        return p - self.n * self.residual(p)


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
    ``boundary`` (on the real axis), ``nearest`` (anchor point required) or
    ``both`` (return the candidate tuple unfiltered).
    """

    __slots__ = ("kind", "anchor")

    def __init__(self, kind: str, anchor: Point2 | None = None):
        self.kind = kind
        self.anchor = anchor


UPPER = Selector("upper")
IN_DISK = Selector("in_disk")
ON_BOUNDARY = Selector("boundary")
BOTH = Selector("both")


def nearest_to(p: Point2) -> Selector:
    return Selector("nearest", p)


def line_through(p: Point2, q: Point2, tol: Tolerance = DEFAULT_TOL) -> Line2:
    """Line through two distinct points (the ruler primitive)."""
    d = q - p
    length = d.norm()
    scale = 1.0 + p.norm() + q.norm()
    if length <= tol.eps_degenerate * scale:
        raise DegenerateInput(f"line through coincident points {p} ~ {q}")
    n = Point2(-d.x2 / length, d.x1 / length)
    return Line2(n, n.dot(p), provenance=(p, q))


def perpendicular_through(l: Line2, p: Point2) -> Line2:
    """Line through p orthogonal to l."""
    n = l.direction()
    return Line2(n, n.dot(p), provenance=None)


_SPLITTER = 134217729.0  # 2**27 + 1, Dekker/Veltkamp split


def _two_product(a: float, b: float) -> tuple[float, float]:
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


def intersect_line_line(a: Line2, b: Line2, tol: Tolerance = DEFAULT_TOL) -> Point2:
    det = det2(a.n.x1, a.n.x2, b.n.x1, b.n.x2)
    if abs(det) <= tol.eps_degenerate:
        raise ParallelLines(f"lines with normals {a.n} and {b.n} are parallel")
    x1 = det2(a.c, a.n.x2, b.c, b.n.x2) / det
    x2 = det2(a.n.x1, a.c, b.n.x1, b.c) / det
    return Point2(x1, x2)


def _apply_selector(candidates, selector: Selector, tol: Tolerance, scale: float):
    # merge a tangent double root before selecting
    if len(candidates) == 2 and (candidates[0] - candidates[1]).norm() <= tol.eps_incidence * scale:
        candidates = [candidates[0]]
    if selector.kind == "both":
        return tuple(candidates)
    if selector.kind == "nearest":
        if selector.anchor is None:
            raise ValueError("nearest selector requires an anchor point")
        dists = [(p - selector.anchor).norm() for p in candidates]
        if len(candidates) == 2 and abs(dists[0] - dists[1]) <= tol.eps_degenerate * scale:
            raise AmbiguousSelection(f"candidates equidistant from anchor {selector.anchor}")
        return candidates[dists.index(min(dists))]
    if selector.kind == "upper":
        kept = [p for p in candidates if p.x2 > 0.0]
    elif selector.kind == "in_disk":
        kept = [p for p in candidates if p.norm() < 1.0]
    elif selector.kind == "boundary":
        kept = [p for p in candidates if abs(p.x2) <= tol.eps_incidence * (1.0 + abs(p.x1))]
    else:
        raise ValueError(f"unknown selector kind {selector.kind!r}")
    if len(kept) != 1:
        raise AmbiguousSelection(
            f"selector {selector.kind!r} matched {len(kept)} of {len(candidates)} intersection points"
        )
    return kept[0]


def intersect_line_circle(l: Line2, c: Circle2, selector: Selector, tol: Tolerance = DEFAULT_TOL):
    """Intersection points of a line and a circle, chosen by ``selector``."""
    dist = l.residual(c.center)
    scale = 1.0 + c.radius + c.center.norm()
    if abs(dist) > c.radius + tol.eps_incidence * scale:
        raise NoIntersection(f"line misses circle by {abs(dist) - c.radius:.3e}")
    # factored difference keeps precision when the line is near-tangent
    h = math.sqrt(max((c.radius - dist) * (c.radius + dist), 0.0))
    base = c.center - l.n * dist
    d = l.direction()
    return _apply_selector([base + d * h, base - d * h], selector, tol, scale)


def intersect_circle_circle(a: Circle2, b: Circle2, selector: Selector, tol: Tolerance = DEFAULT_TOL):
    """Intersection points of two circles via the radical line.

    Computed from the smaller circle's side with factored differences; the
    chord position would otherwise cancel catastrophically when one circle
    is orders of magnitude larger (near-straight geodesic carriers).
    """
    if a.radius > b.radius:
        a, b = b, a
    delta = b.center - a.center
    d = delta.norm()
    scale = 1.0 + a.radius + b.radius + d
    if d <= tol.eps_degenerate * scale:
        raise ConcentricCircles(f"circle centers coincide: {a.center} ~ {b.center}")
    if d > a.radius + b.radius + tol.eps_incidence * scale:
        raise NoIntersection("circles are disjoint (external)")
    if d < abs(a.radius - b.radius) - tol.eps_incidence * scale:
        raise NoIntersection("circles are disjoint (one inside the other)")
    along = ((a.radius - b.radius) * (a.radius + b.radius) + d * d) / (2.0 * d)
    h = math.sqrt(max((a.radius - along) * (a.radius + along), 0.0))
    u = delta * (1.0 / d)
    base = a.center + u * along
    v = u.perp()
    return _apply_selector([base + v * h, base - v * h], selector, tol, scale)


def circle_through(p: Point2, q: Point2, r: Point2, tol: Tolerance = DEFAULT_TOL) -> Circle2:
    """Circumscribed circle of three noncollinear points.

    Computed relative to p with compensated determinants; thin triangles
    through far-apart points (the inversion-point configurations) would
    otherwise lose five or six digits in the center.
    """
    u, v = q - p, r - p
    area2 = u.cross(v)
    scale = 1.0 + max(u.norm_sq(), v.norm_sq(), (r - q).norm_sq())
    if abs(area2) <= tol.eps_degenerate * scale:
        raise CollinearPoints(f"points {p}, {q}, {r} are collinear")
    d = 2.0 * det2(u.x1, u.x2, v.x1, v.x2)
    nu, nv = u.norm_sq(), v.norm_sq()
    center = p + Point2(det2(nu, nv, u.x2, v.x2) / d, det2(u.x1, v.x1, nu, nv) / d)
    return Circle2(center, (p - center).norm())


def circle_on_diameter(p: Point2, q: Point2, tol: Tolerance = DEFAULT_TOL) -> Circle2:
    """Circle with segment [p, q] as diameter."""
    d = (q - p).norm()
    if d <= tol.eps_degenerate * (1.0 + p.norm() + q.norm()):
        raise DegenerateInput(f"diameter endpoints coincide: {p} ~ {q}")
    return Circle2((p + q) * 0.5, d * 0.5)


def invert_unit(p: Point2, tol: Tolerance = DEFAULT_TOL) -> Point2:
    """Inversion x -> x / |x|^2 in the unit circle."""
    n2 = p.norm_sq()
    if n2 <= tol.eps_degenerate * tol.eps_degenerate:
        raise OriginInversion("cannot invert the origin in the unit circle")
    return p * (1.0 / n2)


def reflect_in_line(p: Point2, a: Point2, t: float) -> Point2:
    """Reflection in the line {x : x.a = t}; an involution fixing that line."""
    a2 = a.norm_sq()
    if a2 == 0.0:
        raise DegenerateInput("reflection normal must be nonzero")
    return p - a * (2.0 * (p.dot(a) - t) / a2)


def invert_in_circle(p: Point2, c: Circle2, tol: Tolerance = DEFAULT_TOL) -> Point2:
    """Inversion x -> a + r^2 (x-a)/|x-a|^2 in the circle S(a, r)."""
    d = p - c.center
    n2 = d.norm_sq()
    if n2 <= (tol.eps_degenerate * (1.0 + c.radius)) ** 2:
        raise CenterInversion("cannot invert the center of the circle")
    return c.center + d * (c.radius * c.radius / n2)


class PredicateResult(NamedTuple):
    """Boolean verdict plus the scale-normalized signed residual behind it."""

    ok: bool
    residual: float

    def __bool__(self) -> bool:
        return self.ok


def is_on(p: Point2, carrier: Carrier, tol: Tolerance = DEFAULT_TOL) -> PredicateResult:
    if isinstance(carrier, Line2):
        res = carrier.residual(p) / (1.0 + p.norm())
    else:
        res = carrier.residual(p) / (1.0 + carrier.radius)
    return PredicateResult(abs(res) <= tol.eps_incidence, res)


def circles_orthogonal(a: Circle2, b: Circle2, tol: Tolerance = DEFAULT_TOL) -> PredicateResult:
    d2 = (b.center - a.center).norm_sq()
    scale = 1.0 + d2 + a.radius * a.radius + b.radius * b.radius
    res = (d2 - a.radius * a.radius - b.radius * b.radius) / scale
    return PredicateResult(abs(res) <= tol.eps_incidence, res)


def line_tangent_to_circle(l: Line2, c: Circle2, tol: Tolerance = DEFAULT_TOL) -> PredicateResult:
    res = (abs(l.residual(c.center)) - c.radius) / (1.0 + c.radius)
    return PredicateResult(abs(res) <= tol.eps_incidence, res)


def collinear(p: Point2, q: Point2, r: Point2, tol: Tolerance = DEFAULT_TOL) -> PredicateResult:
    u, v = q - p, r - p
    res = u.cross(v) / (1.0 + u.norm() * v.norm())
    return PredicateResult(abs(res) <= tol.eps_incidence, res)


def lines_orthogonal(a: Line2, b: Line2, tol: Tolerance = DEFAULT_TOL) -> PredicateResult:
    res = a.n.dot(b.n)
    return PredicateResult(abs(res) <= tol.eps_incidence, res)


def line_circle_orthogonal(l: Line2, c: Circle2, tol: Tolerance = DEFAULT_TOL) -> PredicateResult:
    """A line meets a circle orthogonally iff it passes through the center."""
    res = l.residual(c.center) / (1.0 + c.radius)
    return PredicateResult(abs(res) <= tol.eps_incidence, res)

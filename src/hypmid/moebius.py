"""Chordal metric, absolute (cross) ratio, and Moebius maps as generator lists.

The point at infinity is a first-class value (:data:`INFINITY`) and every
formula branches on it explicitly.  Maps are stored as ordered lists of the
two generator types (reflections in lines, inversions in circles) rather than
matrices, which sidesteps orientation bookkeeping entirely.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import RepeatedPoint
from .geom2d import (
    DEFAULT_TOL,
    Circle2,
    Point2,
    Tolerance,
    invert_in_circle,
    reflect_in_line,
)


class _InfinityType:
    """The distinguished point at infinity; compares equal only to itself."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITY"


INFINITY = _InfinityType()

ExtendedPoint = Point2 | _InfinityType


def is_infinite(p: ExtendedPoint) -> bool:
    return p is INFINITY


def chordal(p: ExtendedPoint, q: ExtendedPoint) -> float:
    """Chordal distance on the extended plane; symmetric, nonnegative, <= 2."""
    if is_infinite(p) and is_infinite(q):
        return 0.0
    if is_infinite(p):
        return 1.0 / math.sqrt(1.0 + q.norm_sq())
    if is_infinite(q):
        return 1.0 / math.sqrt(1.0 + p.norm_sq())
    return (p - q).norm() / (math.sqrt(1.0 + p.norm_sq()) * math.sqrt(1.0 + q.norm_sq()))


def _gap(u: ExtendedPoint, v: ExtendedPoint) -> float:
    # |u - v| with the stereographic normalization factors cancelled; any
    # infinite argument contributes 1 because its factor cancels too.
    if is_infinite(u) or is_infinite(v):
        return 1.0
    return (u - v).norm()


def absolute_ratio(a: ExtendedPoint, b: ExtendedPoint, c: ExtendedPoint, d: ExtendedPoint) -> float:
    """|a,b,c,d| = q(a,c) q(b,d) / (q(a,b) q(c,d)) for pairwise distinct points.

    For finite points this reduces exactly to |a-c||b-d| / (|a-b||c-d|); the
    normalization factors cancel, so no chordal square roots are evaluated.
    """
    pts = (a, b, c, d)
    for i in range(4):
        for j in range(i + 1, 4):
            if chordal(pts[i], pts[j]) == 0.0:
                raise RepeatedPoint(f"absolute ratio needs pairwise distinct points, got repeat at positions {i},{j}")
    return (_gap(a, c) * _gap(b, d)) / (_gap(a, b) * _gap(c, d))


class Reflection(NamedTuple):
    """Reflection in the line {x : x.a = t}; fixes infinity."""

    a: Point2
    t: float


class Inversion(NamedTuple):
    """Inversion in a circle; swaps the center with infinity."""

    circle: Circle2


Generator = Reflection | Inversion


class MoebiusMap2(NamedTuple):
    """Composition of generators applied left to right; () is the identity."""

    generators: tuple[Generator, ...] = ()

    def then(self, gen: Generator) -> "MoebiusMap2":
        return MoebiusMap2(self.generators + (gen,))


def _apply_generator(gen: Generator, p: ExtendedPoint, tol: Tolerance) -> ExtendedPoint:
    if isinstance(gen, Reflection):
        if is_infinite(p):
            return INFINITY
        return reflect_in_line(p, gen.a, gen.t)
    circle = gen.circle
    if is_infinite(p):
        return circle.center
    if (p - circle.center).norm() <= tol.eps_degenerate * (1.0 + circle.radius):
        return INFINITY
    return invert_in_circle(p, circle, tol)


def apply(map_: MoebiusMap2, p: ExtendedPoint, tol: Tolerance = DEFAULT_TOL) -> ExtendedPoint:
    """Apply the generator list in order, with infinity handled per generator."""
    for gen in map_.generators:
        p = _apply_generator(gen, p, tol)
    return p

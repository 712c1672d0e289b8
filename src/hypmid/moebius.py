"""Chordal metric and absolute (cross) ratio on the extended plane.

The point at infinity is a first-class value (:data:`INFINITY`) and every
formula branches on it explicitly.  Moebius maps themselves are compositions
of :func:`hypmid.geom2d.reflect_in_line` and
:func:`hypmid.geom2d.invert_in_circle`.
"""

from __future__ import annotations

import math

from .errors import RepeatedPoint
from .geom2d import Point2


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

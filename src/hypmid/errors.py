"""Exception types shared by all geometry modules.

Degenerate-configuration errors subclass :class:`DegenerateInput` so callers
can catch the broad class while the message still names the exact failure.
A pair outside a method's case is refused with a :class:`MethodInapplicable`.
"""

from __future__ import annotations


class GeometryError(Exception):
    """Base class for every geometric failure in this package."""


class DegenerateInput(GeometryError):
    """Input configuration is degenerate for the requested operation."""


class CollinearPoints(DegenerateInput):
    """Three points required to be noncollinear are collinear."""


class CollinearWithOrigin(DegenerateInput):
    """0, x, y are collinear where a closed form needs a noncollinear triple."""


class RepeatedPoint(DegenerateInput):
    """A tuple of pairwise-distinct points contains a repeat."""


class OriginInversion(DegenerateInput):
    """Unit-circle inversion applied at the origin."""


class CenterInversion(DegenerateInput):
    """Circle inversion applied at the circle's own center."""


class BadAngleOrder(DegenerateInput):
    """Angle arguments violate the required strict ordering."""


class ParallelLines(GeometryError):
    """Two lines required to intersect are parallel."""


class NoIntersection(GeometryError):
    """Carriers do not intersect within tolerance."""


class ConcentricCircles(GeometryError):
    """Circle-circle intersection with (near-)coincident centers."""


class AmbiguousSelection(GeometryError):
    """An intersection selector matched zero or several candidate points."""


class OutsideDomain(GeometryError):
    """Point lies outside the model domain (half-plane or unit disk)."""


class NotOnArc(GeometryError):
    """Point does not lie on the prescribed geodesic arc."""


class NotOnUnitCircle(GeometryError):
    """Point is not on the unit circle where required."""


class ChainSaturated(GeometryError):
    """Distance-scaling chain reached the representable boundary.

    Carries ``last_index``, the largest k for which X_k was produced.
    """

    def __init__(self, message: str, last_index: int):
        super().__init__(message)
        self.last_index = last_index


class MethodInapplicable(GeometryError):
    """A specific construction method does not apply to this input.

    ``reason`` is a short machine-readable tag: the case mismatch that
    :func:`~hypmid.hypmetric.require_case` names (e.g. ``"EqualModuli"``) or
    the method's own refusal (e.g. ``"ParallelChord"``), the same from a direct
    call as from ``midpoint``.  ``midpoint`` sets ``fallback`` for an explicit
    method: auto's result, unless auto fails too or disagrees with the oracle.
    """

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason
        self.fallback = None

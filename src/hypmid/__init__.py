"""hypmid: hyperbolic geodesic midpoints in the half-plane and Poincare disk.

Closed-form distances and midpoints, compass-and-ruler constructions with
recorded traces, per-lemma diagnostic verifiers, a small construction script
language (.hgc), randomized verification sweeps, and SVG rendering.
"""

from .geom2d import ORIGIN, Circle2, Line2, Point2
from .hypmetric import (
    Geodesic,
    Model,
    geodesic_of,
    midpoint_disk_angles,
    midpoint_halfplane_unitcircle,
    midpoint_oracle,
    projection_pr,
    rho,
    rho_disk,
    rho_disk_arc,
    rho_halfplane,
    rho_via_cross_ratio,
)
from .moebius import INFINITY, absolute_ratio
from .constructions import MidpointResult, midpoint

__version__ = "0.1.0"

__all__ = [
    "Circle2",
    "Geodesic",
    "INFINITY",
    "Line2",
    "MidpointResult",
    "Model",
    "ORIGIN",
    "Point2",
    "absolute_ratio",
    "geodesic_of",
    "midpoint",
    "midpoint_disk_angles",
    "midpoint_halfplane_unitcircle",
    "midpoint_oracle",
    "projection_pr",
    "rho",
    "rho_disk",
    "rho_disk_arc",
    "rho_halfplane",
    "rho_via_cross_ratio",
    "__version__",
]

"""Compass-and-ruler midpoint constructions and dispatch.

The per-lemma diagnostics live in :mod:`hypmid.constructions.reports`, which
only the sweeps import.
"""

from .disk import (
    DISK_METHODS,
    UNIT_CIRCLE,
    PointChain,
    b2_case1,
    b2_equal_moduli,
    b2_method_I,
    b2_methods_II_to_VI,
    bisector_circle,
    scale_sequence,
)
from .dispatch import AGREEMENT_TOL, H2_METHODS, METHOD_NAMES, SUITES, midpoint
from .halfplane import AXIS, h2_case1, h2_method_I, h2_method_II, h2_method_III, h2_method_IV
from .trace import (
    ORACLE_FLAG_THRESHOLD,
    ConstructionStep,
    ConstructionTrace,
    MidpointResult,
    TraceBuilder,
)

__all__ = [
    "AGREEMENT_TOL",
    "AXIS",
    "ConstructionStep",
    "ConstructionTrace",
    "DISK_METHODS",
    "H2_METHODS",
    "METHOD_NAMES",
    "MidpointResult",
    "ORACLE_FLAG_THRESHOLD",
    "PointChain",
    "SUITES",
    "TraceBuilder",
    "UNIT_CIRCLE",
    "b2_case1",
    "b2_equal_moduli",
    "b2_method_I",
    "b2_methods_II_to_VI",
    "bisector_circle",
    "h2_case1",
    "h2_method_I",
    "h2_method_II",
    "h2_method_III",
    "h2_method_IV",
    "midpoint",
    "scale_sequence",
]

"""Compass-and-ruler midpoint constructions and dispatch.

The per-lemma diagnostics live in :mod:`hypmid.constructions.reports`, which
only the sweeps import.
"""

from .disk import (
    b2_case1,
    b2_equal_moduli,
    b2_method_I,
    b2_methods_II_to_VI,
    bisector_circle,
    scale_sequence,
)
from .dispatch import METHOD_NAMES, METHODS, SUITES, midpoint
from .halfplane import h2_case1, h2_method_I, h2_method_II, h2_method_III, h2_method_IV
from .trace import (
    ORACLE_FLAG_THRESHOLD,
    ConstructionTrace,
    MidpointResult,
    TraceBuilder,
)

__all__ = [
    "ConstructionTrace",
    "METHODS",
    "METHOD_NAMES",
    "MidpointResult",
    "ORACLE_FLAG_THRESHOLD",
    "SUITES",
    "TraceBuilder",
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

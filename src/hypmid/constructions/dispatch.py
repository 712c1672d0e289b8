"""Single entry point for midpoint construction with method dispatch.

:data:`METHODS` is each model's method table.  :func:`midpoint` decides the
pair's case once, with :func:`~hypmid.hypmetric.pair_kind`; ``auto`` runs the
method :data:`AUTO_METHOD` names for it.  An explicit method that does not
take the case raises :class:`MethodInapplicable` with the case's
:func:`~hypmid.hypmetric.case_refusal` and auto's result as the fallback.
Every result carries its Euclidean distance to the closed-form oracle.
"""

from __future__ import annotations

from ..errors import GeometryError, MethodInapplicable
from ..geom2d import DEFAULT_TOL, Point2, Tolerance
from ..hypmetric import Model, PairKind, case_refusal, midpoint_disk_angles, midpoint_oracle, pair_kind
from . import disk, halfplane
from .trace import MidpointResult, TraceBuilder, make_midpoint_result


def _angles_result(x: Point2, y: Point2, tol: Tolerance) -> MidpointResult:
    # closed-form method: record the carrier for rendering, then the formula z;
    # off every diameter the carrier is S(a, r_a), for equal moduli too
    z = midpoint_disk_angles(x, y, tol)
    b = TraceBuilder(Model.DISK, "b2-angles", {"x": x, "y": y, "unit": disk.UNIT_CIRCLE}, tol)
    b.step("ortho_circle", "x", "y", name="carrier", label="S¹(a,r_a)")
    b.env["z"] = z
    return make_midpoint_result(b, x, y, "z", PairKind.GENERIC)


H2_METHODS = {
    "case1": halfplane.h2_case1,
    "I": halfplane.h2_method_I,
    "II": halfplane.h2_method_II,
    "III": halfplane.h2_method_III,
    "IV": halfplane.h2_method_IV,
}

# II-VI look disk.b2_methods_II_to_VI up when they run, so a wrapper set on
# that module attribute sees the call
B2_METHODS = {
    "case1": disk.b2_case1,
    "equal": disk.b2_equal_moduli,
    "I": disk.b2_method_I,
    "II": lambda x, y, tol: disk.b2_methods_II_to_VI(x, y, "II", tol),
    "III": lambda x, y, tol: disk.b2_methods_II_to_VI(x, y, "III", tol),
    "IV": lambda x, y, tol: disk.b2_methods_II_to_VI(x, y, "IV", tol),
    "V": lambda x, y, tol: disk.b2_methods_II_to_VI(x, y, "V", tol),
    "VI": lambda x, y, tol: disk.b2_methods_II_to_VI(x, y, "VI", tol),
    "angles": _angles_result,
}

METHODS = {Model.HALF_PLANE: H2_METHODS, Model.DISK: B2_METHODS}

METHOD_NAMES = ("auto", *B2_METHODS)

# the pair cases each method takes; every method not listed takes a generic pair
_GENERIC = (PairKind.GENERIC,)
_CASES = {
    "case1": (PairKind.LINE,),
    "equal": (PairKind.EQUAL_MODULI,),
    "angles": (PairKind.GENERIC, PairKind.EQUAL_MODULI),
}

# the suites of ``hypmid verify`` and its default agreement tolerance; the
# sweeps read them from here, so the CLI parser names them without importing
# the sweeps
SUITES = ("h2", "b2", "all")
AGREEMENT_TOL = 1e-8

# the method ``auto`` runs for each model and pair configuration
AUTO_METHOD = {
    Model.HALF_PLANE: {PairKind.LINE: "case1", PairKind.GENERIC: "III"},
    Model.DISK: {PairKind.LINE: "case1", PairKind.EQUAL_MODULI: "equal", PairKind.GENERIC: "I"},
}


def midpoint(
    model: Model,
    x: Point2,
    y: Point2,
    method: str = "auto",
    tol: Tolerance = DEFAULT_TOL,
) -> MidpointResult:
    """Construct the hyperbolic midpoint of the segment from x to y.

    Returns the construction result with ``oracle_distance`` filled in, its
    Euclidean distance to :func:`~hypmid.hypmetric.midpoint_oracle`; see
    :meth:`MidpointResult.oracle_disagrees` for when that marks a disagreement.
    """
    kind = pair_kind(model, x, y, tol)
    if method == "auto":
        method = AUTO_METHOD[model][kind]
    table = METHODS[model]
    run = table.get(method)
    if run is None:
        raise ValueError(f"unknown {model.value} method {method!r}; expected one of auto, {', '.join(table)}")
    cases = _CASES.get(method, _GENERIC)
    if kind not in cases:
        refusal = case_refusal(model, x, y, kind, cases)
        try:
            fallback = midpoint(model, x, y, "auto", tol)
        except GeometryError:
            fallback = None
        reason = refusal.reason if isinstance(refusal, MethodInapplicable) else type(refusal).__name__
        raise MethodInapplicable(reason, str(refusal), fallback=fallback) from refusal
    result = run(x, y, tol)
    return result._replace(oracle_distance=(result.z - midpoint_oracle(model, x, y, tol)).norm())

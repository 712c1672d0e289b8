"""Single entry point for midpoint construction with method dispatch.

:func:`midpoint` decides the pair's configuration once, with
:func:`~hypmid.hypmetric.pair_kind`, and hands it on.  ``auto`` runs the
method :data:`AUTO_METHOD` names for it; explicit methods run as requested
or raise :class:`MethodInapplicable`.  Every result is cross-checked against the
closed-form midpoint oracle and the Euclidean distance between the two is
attached.
"""

from __future__ import annotations

from ..errors import MethodInapplicable
from ..geom2d import DEFAULT_TOL, Point2, Tolerance
from ..hypmetric import Model, PairKind, midpoint_disk_angles, midpoint_oracle, pair_kind
from . import disk, halfplane
from .trace import MidpointResult, TraceBuilder, make_midpoint_result

H2_METHODS = {
    "case1": halfplane.h2_case1,
    "I": halfplane.h2_method_I,
    "II": halfplane.h2_method_II,
    "III": halfplane.h2_method_III,
    "IV": halfplane.h2_method_IV,
}

METHOD_NAMES = ("auto", "case1", "equal", "I", "II", "III", "IV", "V", "VI", "angles")

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


def _angles_result(x: Point2, y: Point2, kind: PairKind, tol: Tolerance) -> MidpointResult:
    # closed-form method: record the carrier for rendering, then the formula z
    z = midpoint_disk_angles(x, y, tol)
    b = TraceBuilder(Model.DISK, "b2-angles", {"x": x, "y": y, "unit": disk.UNIT_CIRCLE}, tol)
    b.step("ortho_circle", "x", "y", name="carrier", label="S¹(a,r_a)")
    b.env["z"] = z
    return make_midpoint_result(b, x, y, "z", kind)


def _run_b2(x: Point2, y: Point2, method: str, kind: PairKind, tol: Tolerance) -> MidpointResult:
    if method == "case1":
        return disk.b2_case1(x, y, tol)
    if method == "equal":
        return disk.b2_equal_moduli(x, y, tol)
    if method == "angles":
        return _angles_result(x, y, kind, tol)
    if method in disk.DISK_METHODS:
        if kind is PairKind.EQUAL_MODULI:
            # Eq-(4.4)-style methods divide by |y|^2 - |x|^2; refuse and hand
            # the caller the equal-moduli construction instead.
            fallback = disk.b2_equal_moduli(x, y, tol)
            raise MethodInapplicable(
                "EqualModuli",
                f"|x| = |y|: method {method} degenerates; use the equal-moduli construction",
                fallback=fallback,
            )
        if method == "I":
            return disk.b2_method_I(x, y, tol)
        return disk.b2_methods_II_to_VI(x, y, method, tol)
    raise ValueError(f"unknown disk method {method!r}; expected one of {METHOD_NAMES}")


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
    if model is Model.HALF_PLANE:
        runner = H2_METHODS.get(method)
        if runner is None:
            raise ValueError(f"unknown half-plane method {method!r}; expected auto, case1 or I..IV")
        result = runner(x, y, tol)
    else:
        result = _run_b2(x, y, method, kind, tol)
    distance = (result.z - midpoint_oracle(model, x, y, tol)).norm()
    return MidpointResult(result.z, result.trace, result.residual_equal_distance, result.residual_on_geodesic, distance)

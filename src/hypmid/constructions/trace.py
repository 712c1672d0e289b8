"""Recorded compass-and-ruler steps with deterministic replay.

Every midpoint construction records the primitive steps it performs (lines,
circles, intersections, perpendiculars, reflections, inversions) so figures
and audits always reflect the actual construction, not a closed form.

Each primitive is one row of :data:`OPS`, keyed by its ``.hgc`` function
name.  :class:`TraceBuilder`, :func:`replay` and the ``.hgc`` evaluator all
run primitives through :func:`run_op`, so a recorded step and the script line
that names the same op on the same inputs compute the same value.

Step inputs are names of previously produced objects or of the initial data.
Where a step needs a point and the named object is a circle, the circle's
center is used: once a circle is drawn its center is known, and the paper's
step tables treat centers the same way.  Selector anchors are stored by value
inside the step so replay is bit-identical.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ..errors import GeometryError, NoIntersection
from ..geom2d import (
    BOTH,
    DEFAULT_TOL,
    Circle2,
    Line2,
    Point2,
    Selector,
    Tolerance,
    _apply_selector,
    circle_on_diameter,
    circle_through,
    circles_orthogonal,
    collinear,
    dot2,
    intersect_circle_circle,
    intersect_line_circle,
    intersect_line_line,
    invert_unit,
    is_on,
    line_circle_orthogonal,
    line_tangent_to_circle,
    line_through,
    lines_orthogonal,
    perpendicular_through,
    reflect_in_line,
)
from ..hypmetric import (
    Geodesic,
    Model,
    geodesic_of,
    midpoint_oracle,
    ortho_circle_through,
    rho,
    unit_circle_crossings,
)


class ConstructionStep(NamedTuple):
    """One primitive run: ``kind`` is its op name, ``data`` its selector if any.

    A named tuple: it is built once per step, so it must be cheap to build
    (about 0.4 us).
    """

    kind: str
    inputs: tuple[str, ...]
    produces: str
    label: str
    data: tuple = ()
    result: object = None


class ConstructionTrace(NamedTuple):
    """Ordered steps plus the initial data they act on."""

    model: Model
    initial: tuple[tuple[str, object], ...]
    steps: tuple[ConstructionStep, ...]
    result: Point2
    result_name: str | None
    method_id: str

    def objects(self):
        """All named objects, initial data first, in production order."""
        for name, value in self.initial:
            yield name, value
        for step in self.steps:
            yield step.produces, step.result


# oracle distance above which a constructed midpoint disagrees with the oracle
ORACLE_FLAG_THRESHOLD = 1e-8


class MidpointResult(NamedTuple):
    """A constructed midpoint, its trace, and its defining residuals.

    ``oracle_distance`` is filled in by the dispatching ``midpoint`` entry
    point; direct method calls leave it None.
    """

    z: Point2
    trace: ConstructionTrace
    residual_equal_distance: float
    residual_on_geodesic: float
    oracle_distance: float | None = None

    def oracle_disagrees(self) -> bool:
        """Flag a result farther than :data:`ORACLE_FLAG_THRESHOLD` from the oracle."""
        return self.oracle_distance is not None and self.oracle_distance > ORACLE_FLAG_THRESHOLD


def make_midpoint_result(builder: "TraceBuilder", x: Point2, y: Point2, z_name: str) -> MidpointResult:
    z = builder.env[z_name]
    trace = builder.finish(z_name)
    g = geodesic_of(builder.model, x, y, builder.tol)
    return MidpointResult(
        z=z,
        trace=trace,
        residual_equal_distance=abs(rho(builder.model, x, z) - rho(builder.model, z, y)),
        residual_on_geodesic=is_on(z, g.carrier, builder.tol).residual,
    )


# ---------------------------------------------------------------------------
# Argument kinds: each coerces an object to what the primitive takes.


def _as_point(value) -> Point2:
    if isinstance(value, Circle2):
        return value.center
    if isinstance(value, Point2):
        return value
    raise GeometryError(f"expected a point (or circle center), got {type(value).__name__}")


def _as_curve(value):
    if isinstance(value, (Line2, Circle2)):
        return value
    if isinstance(value, Geodesic):
        return value.carrier
    raise GeometryError(f"expected a line, circle or geodesic, got {type(value).__name__}")


def _as_line(value) -> Line2:
    value = _as_curve(value)
    if not isinstance(value, Line2):
        raise GeometryError(f"expected a line, got {type(value).__name__}")
    return value


def _as_circle(value) -> Circle2:
    value = _as_curve(value)
    if not isinstance(value, Circle2):
        raise GeometryError(f"expected a circle, got {type(value).__name__}")
    return value


def _as_radius(value):
    return value if isinstance(value, float) else _as_point(value)


def _as_selector(selector: Selector) -> Selector:
    if selector.anchor is None or isinstance(selector.anchor, Point2):
        return selector
    return Selector(selector.kind, _as_point(selector.anchor))


# kind -> (types passed on unchanged, coercion of any other value)
_KINDS = {
    "point": ({Point2}, _as_point),
    "line": ({Line2}, _as_line),
    "circle": ({Circle2}, _as_circle),
    "curve": ({Line2, Circle2}, _as_curve),
    "radius": ({float, Point2}, _as_radius),  # a number, or a point the circle passes through
    "model": ({Model}, Model),
    "selector": (set(), _as_selector),  # written after the call in .hgc: select ...
}


class Op:
    """One primitive: its callable, argument kinds and result kind.

    ``fn`` takes the arguments, coerced to ``kinds``, then the tolerance.  The
    ``result`` kind is point, line, circle, geodesic or residual (an assertion).
    """

    __slots__ = ("fn", "kinds", "result", "_coerce")

    def __init__(self, fn, kinds: tuple[str, ...], result: str):
        self.fn = fn
        self.kinds = kinds
        self.result = result
        self._coerce = tuple(_KINDS[kind] for kind in kinds)


# ---------------------------------------------------------------------------
# Callables of the rows that are more than one primitive call.  Every row
# reaches geom2d and hypmetric through this module's globals, never through a
# reference held in the row, so a patched primitive is seen by every front end.

_AXIS_NORMAL = Point2(0.0, 1.0)


def _circle(center: Point2, through, tol: Tolerance) -> Circle2:
    radius = through if isinstance(through, float) else (through - center).norm()
    return Circle2(center, radius)


def _intersect(a, b, selector: Selector, tol: Tolerance):
    if isinstance(a, Line2):
        if isinstance(b, Line2):
            value = intersect_line_line(a, b, tol)
            return _apply_selector([value], selector, tol, 1.0 + value.norm())
        return intersect_line_circle(a, b, selector, tol)
    if isinstance(b, Line2):
        return intersect_line_circle(b, a, selector, tol)
    return intersect_circle_circle(a, b, selector, tol)


def _unit_ortho_intersection(circle: Circle2, selector: Selector, tol: Tolerance):
    """Intersect a circle orthogonal to S1 with S1 via its radical line p.a = 1."""
    if circle.center.norm_sq() < 1.0:
        raise NoIntersection("the radical line p.a = 1 misses the unit circle")
    return _apply_selector(list(unit_circle_crossings(circle.center)), selector, tol, 1.0 + circle.radius)


def _radius_ortho_intersection(line: Line2, circle: Circle2, selector: Selector, tol: Tolerance):
    """Intersect a line through 0 with a circle orthogonal to S1.

    The intersection points form an inversion pair t, 1/t along the line,
    which sidesteps the half-chord cancellation on near-straight carriers.
    """
    if abs(line.c) > tol.eps_incidence:
        raise GeometryError(f"{line} does not pass through the origin")
    # points t*d on the line through 0 with |t*d - a| = r and |a|^2 - r^2 = 1
    # solve t^2 - 2 t (d.a) + 1 = 0; the roots are an inversion pair t, 1/t
    d = line.direction()
    a = circle.center
    q = dot2(d.x1, a.x1, d.x2, a.x2)
    if abs(q) < 1.0:
        raise NoIntersection("radius line misses the orthogonal circle")
    s = math.sqrt(max((abs(q) - 1.0) * (abs(q) + 1.0), 0.0))
    t_out = math.copysign(abs(q) + s, q)
    candidates = [d * (1.0 / t_out), d * t_out]
    return _apply_selector(candidates, selector, tol, 1.0 + abs(q))


def _orthogonal(a, b, tol: Tolerance) -> float:
    if isinstance(a, Circle2) and isinstance(b, Circle2):
        return circles_orthogonal(a, b, tol).residual
    if isinstance(a, Line2) and isinstance(b, Line2):
        return lines_orthogonal(a, b, tol).residual
    line, circ = (a, b) if isinstance(a, Line2) else (b, a)
    return line_circle_orthogonal(line, circ, tol).residual


_P = "point"  # the commonest argument kind

# every primitive of the kit, keyed by its .hgc function name
OPS: dict[str, Op] = {
    "line": Op(lambda p, q, tol: line_through(p, q, tol), (_P, _P), "line"),
    "perp": Op(lambda l, p, tol: perpendicular_through(l, p), ("line", _P), "line"),
    "circle": Op(_circle, (_P, "radius"), "circle"),
    "circle_through": Op(lambda p, q, r, tol: circle_through(p, q, r, tol), (_P, _P, _P), "circle"),
    "circle_diameter": Op(lambda p, q, tol: circle_on_diameter(p, q, tol), (_P, _P), "circle"),
    # drawn from its closed-form center, accurate even for near-diameter carriers
    "ortho_circle": Op(lambda x, y, tol: ortho_circle_through(x, y, tol).as_circle(), (_P, _P), "circle"),
    "geodesic": Op(lambda m, x, y, tol: geodesic_of(m, x, y, tol), ("model", _P, _P), "geodesic"),
    "invert": Op(lambda p, tol: invert_unit(p, tol), (_P,), _P),
    "reflect_real": Op(lambda p, tol: reflect_in_line(p, _AXIS_NORMAL, 0.0), (_P,), _P),
    "midpoint_oracle": Op(lambda m, x, y, tol: midpoint_oracle(m, x, y, tol), ("model", _P, _P), _P),
    "intersect": Op(_intersect, ("curve", "curve", "selector"), _P),
    "intersect_unit_ortho": Op(_unit_ortho_intersection, ("circle", "selector"), _P),
    "intersect_radius_ortho": Op(_radius_ortho_intersection, ("line", "circle", "selector"), _P),
    "on": Op(lambda p, c, tol: is_on(p, c, tol).residual, (_P, "curve"), "residual"),
    "orthogonal": Op(_orthogonal, ("curve", "curve"), "residual"),
    "tangent": Op(lambda l, c, tol: line_tangent_to_circle(l, c, tol).residual, ("line", "circle"), "residual"),
    "collinear": Op(lambda p, q, r, tol: collinear(p, q, r, tol).residual, (_P, _P, _P), "residual"),
    "equal_rho": Op(lambda m, a, b, c, d, tol: rho(m, a, b) - rho(m, c, d), ("model", _P, _P, _P, _P), "residual"),
    "equals": Op(lambda p, q, tol: (p - q).norm(), (_P, _P), "residual"),
}


def run_op(op: str, values: list, tol: Tolerance = DEFAULT_TOL):
    """Run primitive ``op`` on argument values (selector last), coerced by kind in place."""
    row = OPS[op]
    i = 0
    for passed, coerce in row._coerce:
        if type(values[i]) not in passed:
            values[i] = coerce(values[i])
        i += 1
    return row.fn(*values, tol)


class TraceBuilder:
    """Executes primitives from :data:`OPS` while recording them as steps."""

    def __init__(self, model: Model, method_id: str, initial: dict, tol: Tolerance = DEFAULT_TOL):
        self.model = model
        self.method_id = method_id
        self.tol = tol
        self.env: dict[str, object] = dict(initial)
        self._initial = tuple(initial.items())
        self.steps: list[ConstructionStep] = []

    def step(self, op: str, *refs: str, name: str, label: str | None = None, select: Selector | None = None):
        """Run ``op`` on the named objects, bind its value to ``name`` and record it.

        ``select`` is the root selector of an intersection op.
        """
        env = self.env
        values = [env[ref] for ref in refs]
        data = ()
        if select is not None:
            values.append(select)
            data = (select,)
        value = run_op(op, values, self.tol)
        if name in env:
            raise GeometryError(f"construction name {name!r} already bound")
        env[name] = value
        self.steps.append(ConstructionStep(op, refs, name, label or name, data, value))
        return value

    def both_roots(self, a_ref: str, b_ref: str) -> tuple:
        """Peek at both intersection points without recording a step."""
        return run_op("intersect", [self.env[a_ref], self.env[b_ref], BOTH], self.tol)

    def finish(self, result_name: str | None, result: Point2 | None = None) -> ConstructionTrace:
        if result is None:
            result = self.env[result_name]
        return ConstructionTrace(
            model=self.model,
            initial=self._initial,
            steps=tuple(self.steps),
            result=result,
            result_name=result_name,
            method_id=self.method_id,
        )


def replay(trace: ConstructionTrace, tol: Tolerance = DEFAULT_TOL):
    """Re-execute the recorded steps; returns the final environment.

    Running the same operations on the same inputs reproduces every produced
    object bit-identically.
    """
    env: dict[str, object] = dict(trace.initial)
    for step in trace.steps:
        env[step.produces] = run_op(step.kind, [env[ref] for ref in step.inputs] + list(step.data), tol)
    return env

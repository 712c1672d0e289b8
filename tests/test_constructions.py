"""Midpoint construction contracts: worked examples, traces, dispatch, transport."""

import math
import random
import sys

import pytest

from hypmid.constructions import (
    b2_case1,
    b2_equal_moduli,
    b2_method_I,
    b2_methods_II_to_VI,
    bisector_circle,
    h2_case1,
    h2_method_I,
    h2_method_II,
    h2_method_III,
    h2_method_IV,
    midpoint,
    scale_sequence,
)
from hypmid import hypmetric, script
from hypmid.constructions import dispatch
from hypmid.constructions.reports import lemma46_report
from hypmid.constructions.trace import OPS, run_op
from hypmid.errors import ChainSaturated, CollinearWithOrigin, DegenerateInput, GeometryError, MethodInapplicable
from hypmid.geom2d import ORIGIN, Circle2, Point2, invert_in_circle, is_on, line_through
from hypmid.hypmetric import Model, midpoint_oracle, rho_disk, rho_halfplane
from hypmid.sweeps import sample_disk_pair, sample_h2_carrier_pair

E30 = Point2(math.cos(math.pi / 6), 0.5)
TOP = Point2(0.0, 1.0)


class TestH2Case1:
    def test_geometric_mean(self):
        res = h2_case1(Point2(0, 1), Point2(0, 4))
        assert (res.z - Point2(0, 2)).norm() <= 1e-12
        assert res.residual_equal_distance <= 1e-12

    def test_offset_column(self):
        res = h2_case1(Point2(3, 1), Point2(3, 9))
        assert (res.z - Point2(3, 3)).norm() <= 1e-12
        assert abs(rho_halfplane(Point2(3, 1), res.z) - math.log(3)) <= 1e-12

    def test_swapped_order_same_midpoint(self):
        assert (h2_case1(Point2(0, 4), Point2(0, 1)).z - Point2(0, 2)).norm() <= 1e-12

    def test_not_vertical_rejected(self):
        with pytest.raises(MethodInapplicable) as err:
            h2_case1(Point2(0, 1), Point2(1, 4))
        assert err.value.reason == "NotVerticallyAligned"

    def test_equal_points_rejected(self):
        with pytest.raises(DegenerateInput):
            h2_case1(Point2(0, 2), Point2(0, 2))


class TestH2CircleMethods:
    def test_method_I_boundary_point(self):
        res = h2_method_I(E30, TOP)
        w = next(s.result for s in res.trace.steps if s.produces == "w")
        assert (w - Point2(math.sqrt(3), 0)).norm() <= 1e-12

    def test_method_I_parallel_chord_inapplicable(self):
        a = math.pi / 3
        x = Point2(math.cos(a), math.sin(a))
        y = Point2(-math.cos(a), math.sin(a))
        with pytest.raises(MethodInapplicable) as err:
            h2_method_I(x, y)
        assert err.value.reason == "ParallelChord"

    def test_method_II_auxiliary_point(self):
        res = h2_method_II(E30, TOP)
        v = next(s.result for s in res.trace.steps if s.produces == "v")
        assert abs(v.x1 - 1 / math.sqrt(3)) <= 1e-12

    def test_method_II_symmetric_pair(self):
        a = math.pi / 4
        res = h2_method_II(Point2(math.cos(a), math.sin(a)), Point2(-math.cos(a), math.sin(a)))
        assert (res.z - Point2(0, 1)).norm() <= 1e-12

    def test_method_III_center(self):
        res = h2_method_III(E30, TOP)
        a = next(s.result for s in res.trace.steps if s.produces == "a")
        assert a.norm() == pytest.approx(2 / math.sqrt(3), abs=1e-12)
        expected = Point2(math.cos(math.pi / 3), math.sin(math.pi / 3)) * (1 / math.cos(math.pi / 6))
        assert (a - expected).norm() <= 1e-12

    def test_method_IV_foot(self):
        res = h2_method_IV(E30, TOP)
        z1 = next(s.result for s in res.trace.steps if s.produces == "z1")
        assert (z1 - Point2(math.cos(math.acos(1 / math.sqrt(3))), 0)).norm() <= 1e-12

    @pytest.mark.parametrize("method", [h2_method_I, h2_method_II, h2_method_III, h2_method_IV])
    def test_methods_agree_with_oracle(self, method):
        x, y = Point2(1, 1), Point2(2.5, 0.7)
        res = method(x, y)
        oracle = midpoint_oracle(Model.HALF_PLANE, x, y)
        assert (res.z - oracle).norm() <= 1e-9
        assert res.residual_equal_distance <= 1e-9
        assert abs(res.residual_on_geodesic) <= 1e-9

    @pytest.mark.parametrize("method", [h2_method_I, h2_method_II, h2_method_III, h2_method_IV])
    def test_argument_swap_same_z(self, method):
        x, y = Point2(0.4, 0.9), Point2(1.9, 1.3)
        assert (method(x, y).z - method(y, x).z).norm() <= 1e-10

    def test_vertical_input_inapplicable(self):
        with pytest.raises(MethodInapplicable):
            h2_method_III(Point2(1, 1), Point2(1, 3))


class TestBisectorCircle:
    def test_spec_values(self):
        w, r_w = bisector_circle(Point2(0.5, 0), Point2(0, 0.25))
        assert (w - Point2(2.5, -1.0)).norm() <= 1e-12
        assert r_w == pytest.approx(2.5, abs=1e-12)
        assert r_w**2 + 1 == pytest.approx(w.norm_sq(), abs=1e-9)

    def test_equal_moduli_rejected(self):
        with pytest.raises(MethodInapplicable) as err:
            bisector_circle(Point2(0.5, 0), Point2(0, 0.5))
        assert err.value.reason == "EqualModuli"

    def test_collinear_rejected(self):
        with pytest.raises(MethodInapplicable) as err:
            bisector_circle(Point2(0.2, 0.2), Point2(0.4, 0.4))
        assert err.value.reason == "CollinearWithOrigin"


class TestB2Case1:
    def test_symmetric(self):
        res = b2_case1(Point2(-0.5, 0), Point2(0.5, 0))
        assert (res.z - ORIGIN).norm() <= 1e-12

    def test_log_ratio_example(self):
        res = b2_case1(Point2(0, 0), Point2(0.8, 0))
        assert (res.z - Point2(0.5, 0)).norm() <= 1e-12

    def test_tilted_diameter(self):
        x, y = Point2(0.1, 0.1), Point2(0.3, 0.3)
        res = b2_case1(x, y)
        assert (res.z - midpoint_oracle(Model.DISK, x, y)).norm() <= 1e-9

    def test_off_diameter_rejected(self):
        with pytest.raises(MethodInapplicable) as err:
            b2_case1(Point2(0.5, 0), Point2(0, 0.25))
        assert err.value.reason == "NotOnDiameter"


class TestB2Methods:
    X, Y = Point2(0.5, 0), Point2(0, 0.25)

    def test_all_methods_mutually_agree(self):
        results = [b2_method_I(self.X, self.Y).z]
        results += [b2_methods_II_to_VI(self.X, self.Y, w).z for w in ("II", "III", "IV", "V", "VI")]
        results.append(midpoint_oracle(Model.DISK, self.X, self.Y))
        for p in results:
            for q in results:
                assert (p - q).norm() <= 1e-9

    def test_equidistance(self):
        res = b2_method_I(self.X, self.Y)
        assert abs(rho_disk(self.X, res.z) - rho_disk(res.z, self.Y)) <= 1e-9

    def test_u_from_closed_form(self):
        res = b2_methods_II_to_VI(self.X, self.Y, "II")
        u = next(s.result for s in res.trace.steps if s.produces == "g")
        expected = Point2(0.46875 / 0.984375, 0.1875 / 0.984375)
        assert (u - expected).norm() <= 1e-12
        assert abs(res.z.cross(u)) / (1 + res.z.norm() * u.norm()) <= 1e-9

    def test_mirrored_pair_is_equal_moduli(self):
        with pytest.raises(MethodInapplicable) as err:
            b2_method_I(Point2(0.5, 0), Point2(0, 0.5))
        assert err.value.reason == "EqualModuli"

    def test_method_I_parallel_chords_on_generic_pair(self):
        # moduli 1.5e-12 apart: generic, yet L(x,y) and L(x^*,y^*) are parallel
        x, y = Point2(0.5, 0.0), Point2(-0.4711111703357424, 0.16749407507845504)
        assert hypmetric.pair_kind(Model.DISK, x, y) is hypmetric.PairKind.GENERIC
        with pytest.raises(MethodInapplicable) as err:
            b2_method_I(x, y)
        assert err.value.reason == "ParallelLines"

    def test_unknown_method_name(self):
        with pytest.raises(ValueError):
            b2_methods_II_to_VI(self.X, self.Y, "VII")

    def test_argument_swap_same_z(self):
        for w in ("II", "III", "IV", "V", "VI"):
            a = b2_methods_II_to_VI(self.X, self.Y, w).z
            b = b2_methods_II_to_VI(self.Y, self.X, w).z
            assert (a - b).norm() <= 1e-10, w


class TestB2EqualModuli:
    def test_diagonal_pair(self):
        x, y = Point2(0.5, 0.1), Point2(0.1, 0.5)
        res = b2_equal_moduli(x, y)
        assert abs(res.z.x1 - res.z.x2) <= 1e-12
        assert (res.z - midpoint_oracle(Model.DISK, x, y)).norm() <= 1e-9

    def test_quarter_turn(self):
        r = 0.5
        res = b2_equal_moduli(Point2(r, 0), Point2(0, r))
        zo = midpoint_oracle(Model.DISK, Point2(r, 0), Point2(0, r))
        assert (res.z - zo).norm() <= 1e-9

    def test_moduli_mismatch_inapplicable(self):
        with pytest.raises(MethodInapplicable):
            b2_equal_moduli(Point2(0.5, 0), Point2(0, 0.25))

    def test_collinear_rejected(self):
        with pytest.raises(MethodInapplicable) as err:
            b2_equal_moduli(Point2(0.5, 0), Point2(-0.5, 0))
        assert err.value.reason == "CollinearWithOrigin"


class TestScaleSequence:
    def test_tanh_values(self):
        chain = scale_sequence(Point2(0.5, 0), 3)
        assert (chain.points[1] - Point2(0.8, 0)).norm() <= 1e-12
        assert (chain.points[2] - Point2(13 / 14, 0)).norm() <= 1e-12

    def test_equal_steps(self):
        chain = scale_sequence(Point2(0.21, 0.35), 6)
        c = chain.c
        for k, p in enumerate(chain.points, start=1):
            assert abs(rho_disk(ORIGIN, p) - k * c) <= 1e-9
            assert abs(p.cross(chain.base)) <= 1e-9
            assert p.dot(chain.base) > 0  # same ray, not the opposite one

    def test_origin_rejected(self):
        with pytest.raises(DegenerateInput):
            scale_sequence(Point2(0, 0), 3)

    def test_saturation(self):
        with pytest.raises(ChainSaturated) as err:
            scale_sequence(Point2(0.9999, 0), 6)
        assert err.value.last_index >= 1

    def test_bad_length(self):
        with pytest.raises(ValueError):
            scale_sequence(Point2(0.5, 0), 0)


class TestDispatch:
    def test_auto_vertical(self):
        res = midpoint(Model.HALF_PLANE, Point2(0, 1), Point2(0, 4))
        assert (res.z - Point2(0, 2)).norm() <= 1e-12
        assert res.trace.method_id == "h2-case1"

    def test_auto_general_halfplane(self):
        res = midpoint(Model.HALF_PLANE, Point2(1, 1), Point2(2, 2))
        assert res.trace.method_id == "h2-III"
        assert res.oracle_distance <= 1e-9

    def test_auto_disk_routes(self):
        assert midpoint(Model.DISK, Point2(0, 0), Point2(0.8, 0)).trace.method_id == "b2-case1"
        assert midpoint(Model.DISK, Point2(0.5, 0.1), Point2(0.1, 0.5)).trace.method_id == "b2-equal-moduli"
        assert midpoint(Model.DISK, Point2(0.5, 0), Point2(0, 0.25)).trace.method_id == "b2-I"

    def test_explicit_method_on_equal_moduli_pair(self):
        with pytest.raises(MethodInapplicable) as err:
            midpoint(Model.DISK, Point2(0.5, 0), Point2(0, 0.5), "I")
        assert err.value.reason == "EqualModuli"
        assert err.value.fallback is not None
        oracle = midpoint_oracle(Model.DISK, Point2(0.5, 0), Point2(0, 0.5))
        assert (err.value.fallback.z - oracle).norm() <= 1e-9

    def test_angles_method(self):
        res = midpoint(Model.DISK, Point2(0.5, 0), Point2(0, 0.25), "angles")
        assert res.oracle_distance <= 1e-9

    def test_oracle_flag(self):
        res = midpoint(Model.DISK, Point2(0.5, 0), Point2(0, 0.25))
        assert not res.oracle_disagrees()
        fake = res._replace(oracle_distance=1e-3)
        assert fake.oracle_disagrees()

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            midpoint(Model.HALF_PLANE, Point2(0, 1), Point2(1, 1), "V")
        with pytest.raises(ValueError):
            midpoint(Model.DISK, Point2(0.5, 0), Point2(0, 0.25), "bogus")

    def test_every_applicable_method_same_z(self):
        x, y = Point2(0.5, 0), Point2(0, 0.25)
        zs = [midpoint(Model.DISK, x, y, m).z for m in ("I", "II", "III", "IV", "V", "VI", "angles")]
        for p in zs:
            for q in zs:
                assert (p - q).norm() <= 1e-9


def _off_diameter(margin: float, r: float = 0.25):
    """(0.5, 0) and a point of modulus r whose collinearity margin with it is ``margin``."""
    phi = math.asin(margin * (1.0 + 0.5 * r) / (0.5 * r))
    return Point2(0.5, 0.0), Point2(r * math.cos(phi), r * math.sin(phi))


def _off_vertical(factor: float, s: float):
    """(s, s) and a point near (s, 2s) with |x1 - y1| = factor * eps * (1 + |x| + |y|)."""
    x, y = Point2(s, s), Point2(s, 2.0 * s)
    return x, Point2(s + factor * 1e-12 * (1.0 + x.norm() + y.norm()), 2.0 * s)


# pairs on each side of each EPS_DEGENERATE = 1e-12 boundary of the case split
CASE_SPLIT = {
    "b2-margin-2e-12": (Model.DISK, *_off_diameter(2e-12), "generic"),
    "b2-margin-5e-13": (Model.DISK, *_off_diameter(5e-13), "line"),
    "b2-moduli-gap-2e-12": (Model.DISK, Point2(0.5, 0.0), Point2(0.0, 0.5 + 2e-12), "generic"),
    "b2-moduli-gap-5e-13": (Model.DISK, Point2(0.5, 0.0), Point2(0.0, 0.5 + 5e-13), "equal"),
    "b2-point-at-0": (Model.DISK, ORIGIN, Point2(0.3, 0.4), "line"),
    "b2-coincident": (Model.DISK, Point2(0.3, 0.4), Point2(0.3, 0.4), "coincident"),
    "h2-offset-2eps-scale-1e-3": (Model.HALF_PLANE, *_off_vertical(2.0, 1e-3), "generic"),
    "h2-offset-eps/2-scale-1e-3": (Model.HALF_PLANE, *_off_vertical(0.5, 1e-3), "line"),
    "h2-offset-2eps-scale-1e3": (Model.HALF_PLANE, *_off_vertical(2.0, 1e3), "generic"),
    "h2-offset-eps/2-scale-1e3": (Model.HALF_PLANE, *_off_vertical(0.5, 1e3), "line"),
    "h2-coincident": (Model.HALF_PLANE, Point2(1.0, 2.0), Point2(1.0, 2.0), "coincident"),
}

# each configuration's method: the dispatch name auto runs, and the function
CASE_METHOD = {
    Model.HALF_PLANE: {"line": ("case1", h2_case1), "generic": ("III", h2_method_III)},
    Model.DISK: {
        "line": ("case1", b2_case1),
        "equal": ("equal", b2_equal_moduli),
        "generic": ("I", b2_method_I),
    },
}

# (model, method's configuration, pair's configuration) -> the refusal's reason
REFUSAL = {
    (Model.HALF_PLANE, "line", "generic"): "NotVerticallyAligned",
    (Model.HALF_PLANE, "generic", "line"): "VerticalCarrier",
    (Model.DISK, "line", "equal"): "NotOnDiameter",
    (Model.DISK, "line", "generic"): "NotOnDiameter",
    (Model.DISK, "equal", "line"): "CollinearWithOrigin",
    (Model.DISK, "equal", "generic"): "ModuliDiffer",
    (Model.DISK, "generic", "line"): "CollinearWithOrigin",
    (Model.DISK, "generic", "equal"): "EqualModuli",
}

# a method's refusal, or the collinear triple that the orthogonal circle refuses
PRECONDITION_ERRORS = (MethodInapplicable, CollinearWithOrigin)


class _Routed(Exception):
    pass


@pytest.mark.parametrize("case", sorted(CASE_SPLIT))
def test_case_split_boundaries(case, monkeypatch):
    model, x, y, config = CASE_SPLIT[case]
    methods = CASE_METHOD[model]
    routed = []

    def spy(kind):
        def run(*args):
            routed.append(kind)
            raise _Routed

        return run

    for kind, (name, _) in methods.items():
        monkeypatch.setitem(dispatch.METHODS[model], name, spy(kind))
    if config == "coincident":
        with pytest.raises(DegenerateInput) as err:
            midpoint(model, x, y)
        assert err.type is DegenerateInput and routed == []
        monkeypatch.undo()
        for _, fn in methods.values():
            with pytest.raises(DegenerateInput) as err:
                fn(x, y)
            assert err.type is DegenerateInput
        return

    with pytest.raises(_Routed):
        midpoint(model, x, y)
    assert routed == [config]
    monkeypatch.undo()
    try:  # the routed method accepts the pair; so close to a boundary it may still lose it numerically
        methods[config][1](x, y)
    except PRECONDITION_ERRORS as exc:
        pytest.fail(f"{methods[config][0]} refused its own configuration: {exc!r}")
    except GeometryError:
        pass
    for kind, (_, fn) in methods.items():
        if kind == config:
            continue
        with pytest.raises(MethodInapplicable) as err:
            fn(x, y)
        assert err.type is MethodInapplicable and err.value.reason == REFUSAL[(model, kind, config)]


class TestTraces:
    def test_steps_reference_known_names(self):
        res = b2_method_I(Point2(0.5, 0), Point2(0, 0.25))
        known = {name for name, _ in res.trace.initial}
        for step in res.trace.steps:
            for ref in step.inputs:
                assert ref in known, f"step {step.produces} references unknown {ref!r}"
            known.add(step.produces)


# traces of both models' cases and of the chain, replayed as scripts
SCRIPT_CASES = {
    "h2_case1": lambda: h2_case1(Point2(2, 1), Point2(2, 4)).trace,
    "h2_I": lambda: h2_method_I(Point2(1, 1), Point2(2.5, 0.7)).trace,
    "h2_II": lambda: h2_method_II(Point2(10, 1), Point2(12, 1.5)).trace,
    "h2_IV": lambda: h2_method_IV(Point2(1, 1), Point2(2.5, 0.7)).trace,
    "b2_I": lambda: b2_method_I(Point2(0.5, 0), Point2(0, 0.25)).trace,
    "b2_III": lambda: b2_methods_II_to_VI(Point2(0.5, 0), Point2(0.3, 0.1), "III").trace,
    "b2_V": lambda: b2_methods_II_to_VI(Point2(0.5, 0), Point2(0, 0.25), "V").trace,
    "b2_VI": lambda: b2_methods_II_to_VI(Point2(0.5, 0.1), Point2(-0.2, 0.6), "VI").trace,
    "b2_case1": lambda: b2_case1(Point2(0.1, 0.1), Point2(0.3, 0.3)).trace,
    "b2_equal": lambda: b2_equal_moduli(Point2(0.5, 0.1), Point2(0.1, 0.5)).trace,
    "chain": lambda: scale_sequence(Point2(0.4, 0.2), 4).trace,
}


def trace_as_hgc(trace) -> str:
    """A recorded construction as .hgc text: one binding per step, then its output.

    A side selector's line is a recorded object; it is written by its name.
    """
    lines = []
    for name, value in trace.initial:
        if name in script.BUILTINS:
            assert script.BUILTINS[name] == value
        else:
            lines.append(f"point {name} = ({value.x1!r}, {value.x2!r})")
    for step in trace.steps:
        result = OPS[step.kind].result
        head = step.produces if result == "point" else f"{result} {step.produces}"
        text = f"{head} = {step.kind}({', '.join(step.inputs)})"
        for selector in step.data:
            anchor = selector.anchor
            if anchor is None:
                text += f" select {selector.kind}"
            elif selector.kind == "nearer":
                near, far = anchor
                text += f" select nearer ({near.x1!r}, {near.x2!r}) than ({far.x1!r}, {far.x2!r})"
            elif selector.kind in ("left", "right"):
                (line,) = [name for name, value in trace.objects() if value is anchor]
                text += f" select {selector.kind} of {line}"
            else:
                text += f" select nearest ({anchor.x1!r}, {anchor.x2!r})"
        lines.append(text)
    lines.append(f"output {trace.result_name}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("case", sorted(SCRIPT_CASES))
def test_trace_as_script_evaluates_bit_identically(case):
    trace = SCRIPT_CASES[case]()
    result = script.evaluate(script.parse(trace_as_hgc(trace)))
    for step in trace.steps:
        assert result.bindings[step.produces] == step.result, step
    assert result.outputs == ((trace.result_name, trace.result),)


def test_recorded_step_kinds_are_table_keys():
    x, y = Point2(0.5, 0.1), Point2(0.1, 0.3)
    traces = [make() for make in SCRIPT_CASES.values()]
    traces += [midpoint(Model.DISK, x, y, m).trace for m in ("II", "III", "IV", "VI", "angles")]
    traces += [f(Point2(1, 1), Point2(2.5, 0.7)).trace for f in (h2_method_II, h2_method_III)]
    kinds = {step.kind for trace in traces for step in trace.steps}
    assert kinds <= set(OPS)
    assert {"intersect_unit_ortho", "intersect_radius_ortho", "reflect_real", "circle"} <= kinds


def test_no_traced_object_is_a_tuple():
    # render.render_trace leaves tuple-valued objects out of a figure
    x, y = Point2(0.5, 0.1), Point2(0.1, 0.3)
    traces = [make() for make in SCRIPT_CASES.values()]
    traces += [midpoint(Model.DISK, x, y, m).trace for m in ("I", "II", "III", "IV", "V", "VI", "angles")]
    traces += [f(Point2(1, 1), Point2(2.5, 0.7)).trace for f in (h2_method_I, h2_method_II, h2_method_III, h2_method_IV)]
    for trace in traces:
        for name, value in trace.objects():
            assert not isinstance(value, tuple), (trace.method_id, name, value)


def test_moebius_transport_halfplane_to_disk():
    """A fixed inversion maps the disk onto the half-plane isometrically;
    oracle midpoints must transport to oracle midpoints."""
    to_h2 = Circle2(Point2(0, -1), math.sqrt(2))
    rng = random.Random(404)
    checked = 0
    while checked < 100:
        x = Point2(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        y = Point2(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        if not (0.05 < x.norm() < 0.85 and 0.05 < y.norm() < 0.85) or (x - y).norm() < 0.05:
            continue
        hx, hy = invert_in_circle(x, to_h2), invert_in_circle(y, to_h2)
        assert abs(rho_disk(x, y) - rho_halfplane(hx, hy)) <= 1e-9 * (1 + rho_disk(x, y))
        m_disk = midpoint_oracle(Model.DISK, x, y)
        m_half = midpoint_oracle(Model.HALF_PLANE, hx, hy)
        assert (invert_in_circle(m_disk, to_h2) - m_half).norm() <= 1e-8
        checked += 1


# Exact symmetries: each maps its model onto itself by a coordinate swap or a
# sign flip, which floating point does exactly, and the constructions use
# each coordinate the same way, so a method's result must map bit for bit.
def _quarter_turn(p: Point2) -> Point2:
    return Point2(-p.x2, p.x1)


def _conjugate(p: Point2) -> Point2:
    return Point2(p.x1, -p.x2)


def _mirror(p: Point2) -> Point2:  # u -> -conj(u), the reflection in the imaginary axis
    return Point2(-p.x1, p.x2)


def _b2_generic(rng):
    return sample_disk_pair(rng)


def _b2_diameter(rng):
    th = rng.uniform(0.0, math.tau)
    d = Point2(math.cos(th), math.sin(th))
    t1 = rng.uniform(-0.9, 0.9)
    return d * t1, d * (t1 + math.copysign(rng.uniform(0.05, 0.8), -t1))


def _b2_equal(rng):
    r, a = rng.uniform(0.1, 0.9), rng.uniform(0.0, math.tau)
    b = a + rng.uniform(0.1, 2.0)
    return Point2(r * math.cos(a), r * math.sin(a)), Point2(r * math.cos(b), r * math.sin(b))


def _h2_pair(rng):
    return sample_h2_carrier_pair(rng)[:2]


# (symmetry, model, pair sampler, methods); "oracle" is midpoint_oracle.  Not
# exact, so not listed: "angles" under conjugation and "case1" under the h2
# mirror, which differ from the mapped result by about 1 ulp on some pairs.
EXACT_SYMMETRY_CASES = {
    "quarter-turn-b2": (_quarter_turn, Model.DISK, _b2_generic, ("I", "II", "III", "IV", "V", "VI", "angles", "oracle")),
    "quarter-turn-b2-diameter": (_quarter_turn, Model.DISK, _b2_diameter, ("case1",)),
    "quarter-turn-b2-equal": (_quarter_turn, Model.DISK, _b2_equal, ("equal",)),
    "conjugation-b2": (_conjugate, Model.DISK, _b2_generic, ("I", "II", "III", "IV", "V", "VI", "oracle")),
    "conjugation-b2-diameter": (_conjugate, Model.DISK, _b2_diameter, ("case1",)),
    "conjugation-b2-equal": (_conjugate, Model.DISK, _b2_equal, ("equal",)),
    "mirror-h2": (_mirror, Model.HALF_PLANE, _h2_pair, ("I", "II", "III", "IV", "oracle")),
}


@pytest.mark.parametrize("case", sorted(EXACT_SYMMETRY_CASES))
def test_exact_symmetry_equivariance(case):
    sym, model, draw, methods = EXACT_SYMMETRY_CASES[case]
    rng = random.Random(f"symmetry/{case}")
    for _ in range(300):
        x, y = draw(rng)
        for method in methods:
            if method == "oracle":
                z, z_sym = midpoint_oracle(model, x, y), midpoint_oracle(model, sym(x), sym(y))
            else:
                z, z_sym = midpoint(model, x, y, method).z, midpoint(model, sym(x), sym(y), method).z
            assert z_sym == sym(z), (method, x, y)


def test_no_method_builds_ideal_endpoints_it_does_not_read(monkeypatch):
    original = hypmetric.geodesic_of

    def refuse(*args, **kwargs):
        raise AssertionError("geodesic_of called")

    for name, module in list(sys.modules.items()):
        if name.startswith("hypmid") and getattr(module, "geodesic_of", None) is original:
            monkeypatch.setattr(module, "geodesic_of", refuse)
    x, y = Point2(0.5, 0.1), Point2(0.1, 0.3)
    for method in ("I", "II", "III", "IV", "V", "VI", "angles"):
        assert midpoint(Model.DISK, x, y, method).oracle_distance <= 1e-12, method
    assert midpoint(Model.DISK, Point2(0.5, 0.1), Point2(0.1, 0.5), "equal").oracle_distance <= 1e-12
    for method in ("I", "II", "III", "IV"):
        assert midpoint(Model.HALF_PLANE, Point2(1, 1), Point2(2.5, 0.7), method).oracle_distance <= 1e-12, method


# one pair of each configuration per model, and the function of each direct method
PAIR_OF = {
    (Model.DISK, "generic"): (Point2(0.5, 0.1), Point2(0.1, 0.3)),
    (Model.DISK, "equal"): (Point2(0.5, 0.1), Point2(0.1, 0.5)),
    (Model.DISK, "line"): (Point2(0.1, 0.1), Point2(0.3, 0.3)),
    (Model.HALF_PLANE, "generic"): (Point2(1.0, 1.0), Point2(2.5, 0.7)),
    (Model.HALF_PLANE, "line"): (Point2(2.0, 1.0), Point2(2.0, 4.0)),
}
DIRECT_METHODS = [
    (Model.DISK, "generic", "I", b2_method_I),
    *[(Model.DISK, "generic", m, lambda x, y, m=m: b2_methods_II_to_VI(x, y, m)) for m in ("II", "III", "IV", "V", "VI")],
    (Model.DISK, "line", "case1", b2_case1),
    (Model.DISK, "equal", "equal", b2_equal_moduli),
    (Model.HALF_PLANE, "line", "case1", h2_case1),
    (Model.HALF_PLANE, "generic", "I", h2_method_I),
    (Model.HALF_PLANE, "generic", "II", h2_method_II),
    (Model.HALF_PLANE, "generic", "III", h2_method_III),
    (Model.HALF_PLANE, "generic", "IV", h2_method_IV),
]


# a method decides the pair's case in its precondition, and the oracle once
# for its own domain check; midpoint() decides it only to route auto
def test_each_call_decides_the_pair_kind_once(monkeypatch):
    original = hypmetric.pair_kind
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("hypmid") and getattr(module, "pair_kind", None) is original:
            monkeypatch.setattr(module, "pair_kind", counted)

    def count(fn, *args):
        calls.clear()
        fn(*args)
        return len(calls)

    for model, config, method, fn in DIRECT_METHODS:
        x, y = PAIR_OF[(model, config)]
        assert count(fn, x, y) == 1, (model, method)
        assert count(midpoint, model, x, y, method) == 2, (model, method)
    for (model, config), (x, y) in PAIR_OF.items():
        assert count(midpoint, model, x, y, "auto") == 3, (model, config)
    assert count(midpoint, Model.DISK, *PAIR_OF[(Model.DISK, "generic")], "angles") == 2
    assert count(lemma46_report, *PAIR_OF[(Model.DISK, "generic")]) == 1


@pytest.mark.parametrize(
    "model, method_config, pair_config", list(REFUSAL), ids=[f"{m.value}-{a}-on-{b}" for m, a, b in REFUSAL]
)
def test_explicit_mismatch_wraps_the_methods_own_refusal(model, method_config, pair_config):
    x, y = PAIR_OF[(model, pair_config)]
    name, fn = CASE_METHOD[model][method_config]
    with pytest.raises(MethodInapplicable) as direct:
        fn(x, y)
    with pytest.raises(MethodInapplicable) as err:
        midpoint(model, x, y, name)
    assert direct.value.reason == err.value.reason == REFUSAL[(model, method_config, pair_config)]
    assert str(err.value) == str(direct.value)
    assert err.value.fallback.z == midpoint(model, x, y).z


def test_angles_refuses_a_pair_on_a_diameter():
    # a line pair to pair_kind, though ortho_circle_through alone would take it
    with pytest.raises(MethodInapplicable) as err:
        midpoint(Model.DISK, *_off_diameter(5e-13), "angles")
    assert err.value.reason == "CollinearWithOrigin"


# off every diameter, the sealed result measures z against the carrier the
# method recorded; it must be the closed-form carrier of the pair
@pytest.mark.parametrize("method", ["I", "II", "III", "IV", "V", "VI", "equal", "angles"])
def test_recorded_disk_carrier_is_the_closed_form_carrier(method):
    rng = random.Random(22)
    checked = 0
    for _ in range(25):
        x, y = sample_disk_pair(rng)
        if method == "equal":
            turn = rng.uniform(0.3, 2.8)
            y = Point2(x.norm() * math.cos(turn), x.norm() * math.sin(turn))
        try:
            res = midpoint(Model.DISK, x, y, method)
        except MethodInapplicable:
            continue
        kind = hypmetric.pair_kind(Model.DISK, x, y)
        carrier = hypmetric.geodesic_carrier(Model.DISK, x, y, kind)
        assert dict(res.trace.objects())["carrier"] == carrier, (x, y)
        assert res.residual_on_geodesic == is_on(res.z, carrier), (x, y)
        checked += 1
    assert checked >= 20


def test_recorded_step_coerces_a_circle_to_its_center_through_run_op(monkeypatch):
    calls = []

    def spy(op, values):
        calls.append((op, [type(v) for v in values]))
        return run_op(op, values)

    monkeypatch.setattr("hypmid.constructions.trace.run_op", spy)
    x, y = Point2(1.0, 1.0), Point2(2.5, 0.7)
    res = h2_method_III(x, y)
    objects = dict(res.trace.objects())
    step = next(s for s in res.trace.steps if s.produces == "Lox")
    assert (step.kind, step.inputs, step.label) == ("line", ("carrier", "x"), "L(o,x)")
    assert step.result == line_through(objects["carrier"].center, x)
    assert ("line", [Circle2, Point2]) in calls
    assert len(calls) == len(res.trace.steps)

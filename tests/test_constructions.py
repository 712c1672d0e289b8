"""Midpoint construction contracts: worked examples, traces, dispatch, transport."""

import math
import random

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
from hypmid import script
from hypmid.constructions import disk, dispatch
from hypmid.constructions.trace import OPS, replay
from hypmid.errors import (
    ChainSaturated,
    CollinearWithOrigin,
    DegenerateInput,
    EqualModuli,
    GeometryError,
    MethodInapplicable,
    NotOnDiameter,
    NotVerticallyAligned,
)
from hypmid.geom2d import ORIGIN, Circle2, Point2, invert_in_circle
from hypmid.hypmetric import Model, midpoint_oracle, rho_disk, rho_halfplane

E30 = Point2(math.cos(math.pi / 6), 0.5)
TOP = Point2(0.0, 1.0)


class TestH2Case1:
    def test_geometric_mean(self):
        res = h2_case1(Point2(0, 1), Point2(0, 4))
        assert res.z.close_to(Point2(0, 2), 1e-12)
        assert res.residual_equal_distance <= 1e-12

    def test_offset_column(self):
        res = h2_case1(Point2(3, 1), Point2(3, 9))
        assert res.z.close_to(Point2(3, 3), 1e-12)
        assert abs(rho_halfplane(Point2(3, 1), res.z) - math.log(3)) <= 1e-12

    def test_swapped_order_same_midpoint(self):
        assert h2_case1(Point2(0, 4), Point2(0, 1)).z.close_to(Point2(0, 2), 1e-12)

    def test_not_vertical_rejected(self):
        with pytest.raises(NotVerticallyAligned):
            h2_case1(Point2(0, 1), Point2(1, 4))

    def test_equal_points_rejected(self):
        with pytest.raises(DegenerateInput):
            h2_case1(Point2(0, 2), Point2(0, 2))


class TestH2CircleMethods:
    def test_method_I_boundary_point(self):
        res = h2_method_I(E30, TOP)
        w = next(s.result for s in res.trace.steps if s.produces == "w")
        assert w.close_to(Point2(math.sqrt(3), 0), 1e-12)

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
        assert res.z.close_to(Point2(0, 1), 1e-12)

    def test_method_III_center(self):
        res = h2_method_III(E30, TOP)
        a = next(s.result for s in res.trace.steps if s.produces == "a")
        assert a.norm() == pytest.approx(2 / math.sqrt(3), abs=1e-12)
        expected = Point2(math.cos(math.pi / 3), math.sin(math.pi / 3)) * (1 / math.cos(math.pi / 6))
        assert a.close_to(expected, 1e-12)

    def test_method_IV_foot(self):
        res = h2_method_IV(E30, TOP)
        z1 = next(s.result for s in res.trace.steps if s.produces == "z1")
        assert z1.close_to(Point2(math.cos(math.acos(1 / math.sqrt(3))), 0), 1e-12)

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
        assert w.close_to(Point2(2.5, -1.0), 1e-12)
        assert r_w == pytest.approx(2.5, abs=1e-12)
        assert r_w**2 + 1 == pytest.approx(w.norm_sq(), abs=1e-9)

    def test_equal_moduli_rejected(self):
        with pytest.raises(EqualModuli):
            bisector_circle(Point2(0.5, 0), Point2(0, 0.5))

    def test_collinear_rejected(self):
        with pytest.raises(CollinearWithOrigin):
            bisector_circle(Point2(0.2, 0.2), Point2(0.4, 0.4))


class TestB2Case1:
    def test_symmetric(self):
        res = b2_case1(Point2(-0.5, 0), Point2(0.5, 0))
        assert res.z.close_to(ORIGIN, 1e-12)

    def test_log_ratio_example(self):
        res = b2_case1(Point2(0, 0), Point2(0.8, 0))
        assert res.z.close_to(Point2(0.5, 0), 1e-12)

    def test_tilted_diameter(self):
        x, y = Point2(0.1, 0.1), Point2(0.3, 0.3)
        res = b2_case1(x, y)
        assert (res.z - midpoint_oracle(Model.DISK, x, y)).norm() <= 1e-9

    def test_off_diameter_rejected(self):
        with pytest.raises(NotOnDiameter):
            b2_case1(Point2(0.5, 0), Point2(0, 0.25))


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
        assert u.close_to(expected, 1e-12)
        assert abs(res.z.cross(u)) / (1 + res.z.norm() * u.norm()) <= 1e-9

    def test_mirrored_pair_is_equal_moduli(self):
        with pytest.raises(EqualModuli):
            b2_method_I(Point2(0.5, 0), Point2(0, 0.5))

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
        with pytest.raises(CollinearWithOrigin):
            b2_equal_moduli(Point2(0.5, 0), Point2(-0.5, 0))


class TestScaleSequence:
    def test_tanh_values(self):
        chain = scale_sequence(Point2(0.5, 0), 3)
        assert chain.points[1].close_to(Point2(0.8, 0), 1e-12)
        assert chain.points[2].close_to(Point2(13 / 14, 0), 1e-12)

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
        assert res.z.close_to(Point2(0, 2), 1e-12)
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
        assert err.value.fallback.z.close_to(
            midpoint_oracle(Model.DISK, Point2(0.5, 0), Point2(0, 0.5)), 1e-9
        )

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


# pairs on each side of each eps_degenerate = 1e-12 boundary of the case split
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
        "line": ("b2_case1", b2_case1),
        "equal": ("b2_equal_moduli", b2_equal_moduli),
        "generic": ("b2_method_I", b2_method_I),
    },
}

# (model, method's configuration, pair's configuration) -> typed refusal, reason
REFUSAL = {
    (Model.HALF_PLANE, "line", "generic"): (NotVerticallyAligned, None),
    (Model.HALF_PLANE, "generic", "line"): (MethodInapplicable, "VerticalCarrier"),
    (Model.DISK, "line", "equal"): (NotOnDiameter, None),
    (Model.DISK, "line", "generic"): (NotOnDiameter, None),
    (Model.DISK, "equal", "line"): (CollinearWithOrigin, None),
    (Model.DISK, "equal", "generic"): (MethodInapplicable, "ModuliDiffer"),
    (Model.DISK, "generic", "line"): (CollinearWithOrigin, None),
    (Model.DISK, "generic", "equal"): (EqualModuli, None),
}

PRECONDITION_ERRORS = (NotVerticallyAligned, NotOnDiameter, CollinearWithOrigin, EqualModuli, MethodInapplicable)


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
        if model is Model.HALF_PLANE:
            monkeypatch.setitem(dispatch.H2_METHODS, name, spy(kind))
        else:
            monkeypatch.setattr(disk, name, spy(kind))
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
        error, reason = REFUSAL[(model, kind, config)]
        with pytest.raises(error) as err:
            fn(x, y)
        assert err.type is error and getattr(err.value, "reason", None) == reason


class TestTraces:
    def test_replay_bit_identical(self):
        cases = [
            h2_case1(Point2(2, 1), Point2(2, 4)),
            h2_method_I(Point2(1, 1), Point2(2.5, 0.7)),
            h2_method_IV(Point2(1, 1), Point2(2.5, 0.7)),
            b2_method_I(Point2(0.5, 0), Point2(0, 0.25)),
            b2_methods_II_to_VI(Point2(0.5, 0), Point2(0, 0.25), "V"),
            b2_case1(Point2(0.1, 0.1), Point2(0.3, 0.3)),
            b2_equal_moduli(Point2(0.5, 0.1), Point2(0.1, 0.5)),
        ]
        for res in cases:
            env = replay(res.trace)
            assert env[res.trace.result_name] == res.z, res.trace.method_id

    def test_steps_reference_known_names(self):
        res = b2_method_I(Point2(0.5, 0), Point2(0, 0.25))
        known = {name for name, _ in res.trace.initial}
        for step in res.trace.steps:
            for ref in step.inputs:
                assert ref in known, f"step {step.produces} references unknown {ref!r}"
            known.add(step.produces)

    def test_chain_trace_replays(self):
        chain = scale_sequence(Point2(0.4, 0.2), 4)
        env = replay(chain.trace)
        assert env["X4"] == chain.points[-1]


# the cases of test_replay_bit_identical plus the chain
SCRIPT_CASES = {
    "h2_case1": lambda: h2_case1(Point2(2, 1), Point2(2, 4)).trace,
    "h2_I": lambda: h2_method_I(Point2(1, 1), Point2(2.5, 0.7)).trace,
    "h2_IV": lambda: h2_method_IV(Point2(1, 1), Point2(2.5, 0.7)).trace,
    "b2_I": lambda: b2_method_I(Point2(0.5, 0), Point2(0, 0.25)).trace,
    "b2_V": lambda: b2_methods_II_to_VI(Point2(0.5, 0), Point2(0, 0.25), "V").trace,
    "b2_case1": lambda: b2_case1(Point2(0.1, 0.1), Point2(0.3, 0.3)).trace,
    "b2_equal": lambda: b2_equal_moduli(Point2(0.5, 0.1), Point2(0.1, 0.5)).trace,
    "chain": lambda: scale_sequence(Point2(0.4, 0.2), 4).trace,
}


def trace_as_hgc(trace) -> str:
    """A recorded construction as .hgc text: one binding per step, then its output."""
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
            text += f" select {selector.kind}" if anchor is None else f" select nearest ({anchor.x1!r}, {anchor.x2!r})"
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

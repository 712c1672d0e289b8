"""Construction-language contracts: parsing, formatting, evaluation, corpus."""

import math
import pathlib
import random
from importlib import resources

import pytest

from hypmid import cli, script
from hypmid.constructions import midpoint, scale_sequence
from hypmid.constructions.trace import OPS
from hypmid.errors import GeometryError
from hypmid.geom2d import Point2, Selector
from hypmid.hypmetric import Model, midpoint_oracle
from hypmid.sweeps import MAX_MODULUS, sample_disk_pair, sample_h2_carrier_pair

BROKEN_DIR = pathlib.Path(__file__).parent / "fixtures" / "broken"

SAMPLE = """\
# tiny script
point x = (0.5, 0.0)
point y = (0.0, 0.25)
line Lxy = line(x, y)
w = intersect(Lxy, axis) select nearest x
zo = midpoint_oracle(b2, x, y)
assert equal_rho(b2, x, zo, zo, y)  # oracle bisects
output zo
"""


def corpus_files():
    corpus = resources.files("hypmid") / "corpus"
    return sorted((e for e in corpus.iterdir() if e.name.endswith(".hgc")), key=lambda e: e.name)


class TestParsing:
    def test_single_binding(self):
        p = script.parse("point x = (0.5, 0)\n")
        stmts = list(p.statements())
        assert len(stmts) == 1
        assert stmts[0].name == "x"
        assert stmts[0].expr == script.PointLit(0.5, 0.0)

    def test_unterminated_literal_position(self):
        with pytest.raises(script.ScriptSyntaxError) as err:
            script.parse("point x = (0.5,")
        assert err.value.line == 1
        assert "number" in err.value.expected

    def test_full_method_script_statement_count(self):
        program = script.parse(SAMPLE)
        assert len(list(program.statements())) == 7

    def test_comment_items_preserved(self):
        program = script.parse(SAMPLE)
        assert any(isinstance(item, script.Comment) for item in program.items)

    def test_zero_radius_circle_is_runtime_error(self):
        program = script.parse("point x = (0.5, 0.0)\ncircle C = circle(x, 0.0)\n")
        with pytest.raises(script.RuntimeGeometryError) as err:
            script.evaluate(program)
        assert err.value.line == 2


class TestFormatting:
    def test_round_trip_fixed_point(self):
        program = script.parse(SAMPLE)
        text = script.format_program(program)
        again = script.parse(text)
        assert again == program
        assert script.format_program(again) == text

    def test_whitespace_mangled_input_canonicalized(self):
        mangled = "point   x=( 0.5 ,0.0 )\nline  L = line( x , origin )\n"
        text = script.format_program(script.parse(mangled))
        assert text == "point x = (0.5, 0.0)\nline L = line(x, origin)\n"

    def test_comments_survive(self):
        src = "# leading note\npoint x = (1.0, 2.0)  # trailing note\n\n# another\n"
        text = script.format_program(script.parse(src))
        assert "# leading note" in text
        assert "# trailing note" in text
        assert "# another" in text

    def test_line_numbers_left_out_of_equality(self):
        def program(first: int) -> script.Program:
            check = script.Call("equals", (script.Ref("x"), script.Ref("origin")))
            return script.Program((
                script.Comment(" note", line=first),
                script.Binding("point", "x", script.PointLit(0.5, 0.0), line=first + 1),
                script.Assertion(check, 1e-3, line=first + 2),
                script.Output("x", line=first + 3),
                script.Blank(line=first + 4),
            ))

        assert program(1) == program(11)
        assert hash(program(1)) == hash(program(11))
        assert program(1).items[1].line == 2 and program(11).items[1].line == 12
        assert program(1) != script.Program(program(1).items[1:])

    @pytest.mark.parametrize("entry", corpus_files(), ids=lambda e: e.name)
    def test_corpus_round_trip(self, entry):
        source = entry.read_text(encoding="utf-8")
        program = script.parse(source)
        formatted = script.format_program(program)
        assert script.parse(formatted) == program
        assert script.format_program(script.parse(formatted)) == formatted


class TestEvaluation:
    def test_outputs_and_assertions(self):
        result = script.evaluate(script.parse(SAMPLE))
        assert result.all_assertions_pass()
        assert result.outputs[0][0] == "zo"

    def test_determinism(self):
        program = script.parse(SAMPLE)
        r1 = script.evaluate(program)
        r2 = script.evaluate(program)
        assert r1.outputs == r2.outputs
        assert [a.residual for a in r1.assertions] == [a.residual for a in r2.assertions]

    def test_bind_overrides_literal(self):
        program = script.parse(SAMPLE)
        result = script.evaluate(program, bind={"y": Point2(0.0, 0.5)})
        zo = dict(result.outputs)["zo"]
        assert zo.x2 != dict(script.evaluate(program).outputs)["zo"].x2

    def test_bind_unknown_name(self):
        program = script.parse(SAMPLE)
        with pytest.raises(script.UnknownNameError):
            script.evaluate(program, bind={"nope": Point2(0, 0)})

    def test_runtime_error_carries_location(self):
        src = "circle A = circle(origin, 1.0)\ncircle B = circle(origin, 0.5)\np = intersect(A, B) select upper\n"
        with pytest.raises(script.RuntimeGeometryError) as err:
            script.evaluate(script.parse(src))
        assert err.value.line == 3
        assert "Concentric" in type(err.value.cause).__name__ or "concentric" in str(err.value.cause).lower()

    def test_disjoint_circles_runtime_error(self):
        src = "point c = (3.0, 0.0)\ncircle A = circle(origin, 1.0)\ncircle B = circle(c, 1.0)\np = intersect(A, B) select upper\n"
        with pytest.raises(script.RuntimeGeometryError) as err:
            script.evaluate(script.parse(src))
        assert err.value.line == 4

    @pytest.mark.parametrize(
        "statement",
        ["p = intersect_unit_ortho(C) select upper", "p = intersect_radius_ortho(line(c, (2.0, 1.0)), S) select in_disk"],
    )
    def test_ortho_intersection_preconditions(self, statement):
        # C's radical line with the unit circle misses it; S is orthogonal, but the line misses 0
        src = f"point c = (2.0, 0.0)\ncircle C = circle(origin, 0.5)\ncircle S = circle(c, {3 ** 0.5!r})\n{statement}\n"
        with pytest.raises(script.RuntimeGeometryError) as err:
            script.evaluate(script.parse(src))
        assert err.value.line == 4

    def test_failed_assertion_is_fail_soft(self):
        src = (
            "point x = (0.5, 0.0)\n"
            "point y = (0.0, 0.25)\n"
            "assert equals(x, y)\n"
            "assert equals(x, x)\n"
            "output x\n"
        )
        result = script.evaluate(script.parse(src))
        assert [a.passed for a in result.assertions] == [False, True]
        assert result.outputs  # evaluation continued past the failure

    def test_tolerance_survives_round_trip(self):
        program = script.parse("point x = (0.5, 0.0)\nassert equals(x, origin)   tol   1e-3\n")
        text = script.format_program(program)
        assert text.splitlines()[1] == "assert equals(x, origin) tol 0.001"
        assert script.parse(text) == program and list(program.statements())[1].tolerance == 1e-3

    def test_tolerance_override(self):
        src = "point x = (0.5, 0.0)\npoint y = (0.5, 1e-6)\nassert equals(x, y) tol 0.001\n"
        result = script.evaluate(script.parse(src))
        assert result.all_assertions_pass()


# a sample value of each argument kind, bound by OP_PRELUDE
KIND_SAMPLES = {"point": "x", "line": "L", "circle": "C", "curve": "C", "radius": "0.5", "model": "b2"}
OP_PRELUDE = "point x = (0.5, 0.25)\nline L = line(x, origin)\ncircle C = circle(origin, 0.5)\n"


@pytest.mark.parametrize("fn", sorted(OPS))
def test_every_table_op_parses(fn):
    op = OPS[fn]
    call = f"{fn}({', '.join(KIND_SAMPLES[k] for k in op.kinds if k != 'selector')})"
    if "selector" in op.kinds:
        call += " select nearest x"
    statement = {"point": f"r = {call}", "residual": f"assert {call}"}.get(op.result, f"{op.result} r = {call}")
    program = script.parse(OP_PRELUDE + statement + "\n")
    last = list(program.statements())[-1]
    assert (last.check if op.result == "residual" else last.expr).fn == fn
    assert script.parse(script.format_program(program)) == program


@pytest.mark.parametrize("fn", sorted(fn for fn, op in OPS.items() if op.result == "residual"))
def test_nested_assertion_is_syntax_error(fn):
    call = f"{fn}({', '.join(KIND_SAMPLES[k] for k in OPS[fn].kinds)})"
    statement = f"line M = line({call}, x)"
    with pytest.raises(script.ScriptSyntaxError) as err:
        script.parse(OP_PRELUDE + statement + "\n")
    assert (err.value.line, err.value.column) == (4, statement.index(call) + 1)


# a value of the wrong kind for each argument kind, after OP_PRELUDE: (statement, what the coercion says)
WRONG_KINDS = [
    ("line M = line(L, x)", "expected a point (or circle center), got Line2"),
    ("line M = perp(x, x)", "expected a line, got Point2"),
    ("line M = perp(C, x)", "expected a line, got Circle2"),
    ("p = intersect_unit_ortho(x) select upper", "expected a circle, got Point2"),
    ("p = intersect_radius_ortho(L, L) select in_disk", "expected a circle, got Line2"),
    ("p = intersect(x, C) select nearest x", "expected a line, circle or geodesic, got Point2"),
    ("assert on(x, x)", "expected a line, circle or geodesic, got Point2"),
    ("p = intersect(L, C) select left of x", "expected a line, got Point2"),
    ("p = intersect(L, C) select right of C", "expected a line, got Circle2"),
]


@pytest.mark.parametrize("statement, message", WRONG_KINDS, ids=[w[0] for w in WRONG_KINDS])
def test_argument_of_wrong_kind_is_runtime_error(statement, message):
    with pytest.raises(script.RuntimeGeometryError) as err:
        script.evaluate(script.parse(OP_PRELUDE + statement + "\n"))
    assert (err.value.line, err.value.statement) == (4, statement)
    assert type(err.value.cause) is GeometryError and str(err.value.cause) == message


def test_circle_stands_for_its_center_as_radius_and_anchor():
    src = (
        "point x = (0.5, 0.25)\ncircle C = circle(x, 0.1)\nline L = line(x, origin)\n"
        "circle D = circle(origin, C)\np = intersect(L, unit) select nearest C\n"
    )
    got = script.evaluate(script.parse(src)).bindings
    want = script.evaluate(script.parse(src.replace("(origin, C)", "(origin, x)").replace("nearest C", "nearest x"))).bindings
    assert got["D"] == want["D"] and got["D"].radius == pytest.approx(math.hypot(0.5, 0.25), abs=1e-15)
    assert got["p"] == want["p"] and got["p"].x1 > 0.0


@pytest.mark.parametrize("line, residual", [("L", 0.0), ("line((0.5, 0.0), (0.5, 1.0))", 0.5 / 1.5)])
def test_orthogonal_line_and_circle(line, residual):
    # a line meets a circle orthogonally iff it passes through the center; either argument order
    result = script.evaluate(script.parse(f"{OP_PRELUDE}assert orthogonal({line}, C)\nassert orthogonal(C, {line})\n"))
    assert [abs(a.residual) for a in result.assertions] == [pytest.approx(residual, abs=1e-15)] * 2
    assert [a.passed for a in result.assertions] == [residual == 0.0] * 2


def test_circle_stands_for_its_center():
    src = "point x = (0.5, 0.0)\ncircle C = circle(x, 0.25)\nassert equals(C, x)\nline L = line(C, origin)\noutput L\n"
    result = script.evaluate(script.parse(src))
    assert result.all_assertions_pass()
    assert result.bindings["L"] == script.evaluate(script.parse(src.replace("line(C,", "line(x,"))).bindings["L"]


@pytest.mark.parametrize(
    "source, model",
    [(SAMPLE, Model.DISK), ("point x = (0.5, 1.0)\ngeodesic G = geodesic(h2, x, (1.0, 2.0))\n", Model.HALF_PLANE),
     ("point x = (0.5, 1.0)\n", Model.DISK)],
)
def test_program_model(source, model):
    assert script.program_model(script.parse(source)) is model


class TestCorpus:
    @pytest.mark.parametrize("entry", corpus_files(), ids=lambda e: e.name)
    def test_corpus_script_passes(self, entry):
        program = script.parse(entry.read_text(encoding="utf-8"))
        result = script.evaluate(program)
        failed = [a for a in result.assertions if not a.passed]
        assert not failed, failed
        assert result.outputs

    def test_corpus_covers_every_construction(self):
        names = {e.name for e in corpus_files()}
        expected = {
            "h2_case1.hgc",
            "h2_method_i.hgc",
            "h2_method_ii.hgc",
            "h2_method_iii.hgc",
            "h2_method_iv.hgc",
            "b2_case1.hgc",
            "b2_equal_moduli.hgc",
            "b2_method_i.hgc",
            "b2_method_ii.hgc",
            "b2_method_iii.hgc",
            "b2_method_iv.hgc",
            "b2_method_v.hgc",
            "b2_method_vi.hgc",
            "b2_chain.hgc",
        }
        assert expected <= names

    # the shipped pair lies on the unit semicircle; these pairs do not
    @pytest.mark.parametrize("name, method", [("h2_method_i.hgc", "I"), ("h2_method_iii.hgc", "III")])
    @pytest.mark.parametrize("x, y", [((-1.0, 0.5), (0.5, 2.0)), ((2.5, 0.3), (4.0, 1.1))])
    def test_h2_script_rebound_off_the_unit_semicircle(self, name, method, x, y):
        source = (resources.files("hypmid") / "corpus" / name).read_text(encoding="utf-8")
        x, y = Point2(*x), Point2(*y)
        result = script.evaluate(script.parse(source), bind={"x": x, "y": y})
        failed = [a for a in result.assertions if not a.passed]
        assert not failed, failed
        ((_, z),) = result.outputs
        assert (z - midpoint(Model.HALF_PLANE, x, y, method).z).norm() <= 1e-9


# each rewritten corpus script is its library method's steps, in order
METHOD_SCRIPTS = {
    **{f"b2_method_{m.lower()}.hgc": (Model.DISK, m) for m in ("I", "II", "III", "IV", "V", "VI")},
    "b2_equal_moduli.hgc": (Model.DISK, "equal"),
    "b2_case1.hgc": (Model.DISK, "case1"),
    "b2_chain.hgc": (Model.DISK, "chain"),
    **{f"h2_method_{m.lower()}.hgc": (Model.HALF_PLANE, m) for m in ("I", "II", "III", "IV")},
}


def _polar(r: float, a: float) -> Point2:
    return Point2(r * math.cos(a), r * math.sin(a))


def _seeded_pairs(model: Model, method: str, n: int = 200) -> list:
    """Seeded inputs of a method: (x, y) pairs, or (x1, None) for the chain."""
    rng = random.Random(f"{model.value}/{method}")
    pairs = []
    for _ in range(n):
        if model is Model.HALF_PLANE:
            x, y, _, _ = sample_h2_carrier_pair(rng)
        elif method == "equal":
            r, a = rng.uniform(0.05, MAX_MODULUS), rng.uniform(0.0, math.tau)
            b = a + rng.choice((-1.0, 1.0)) * rng.uniform(0.05, math.pi - 0.05)
            x, y = _polar(r, a), _polar(r, b)
        elif method == "case1":  # a diameter at any angle
            a = rng.uniform(0.0, math.tau)
            x, y = _polar(rng.uniform(-MAX_MODULUS, MAX_MODULUS), a), _polar(rng.uniform(-MAX_MODULUS, MAX_MODULUS), a)
        elif method == "chain":  # X_1 anywhere off the origin, in both half-planes
            x, y = _polar(rng.uniform(0.05, MAX_MODULUS), rng.uniform(0.0, math.tau)), None
        else:
            x, y = sample_disk_pair(rng)  # any angle at 0, so acute ones too
        pairs.append((x, y))
    return pairs


def _chain_point(x1: Point2, k: int) -> Point2:
    """X_k on the ray through X_1 with rho(0, X_k) = k rho(0, X_1)."""
    r = x1.norm()
    return x1 * (math.tanh(k * math.atanh(r)) / r)


def _library_run(model: Model, method: str, x: Point2, y: Point2 | None):
    """The library's trace and outputs for a script's inputs, and the binds that give them to the script.

    The binds set the script's expected-value literals too, so its assertions hold
    off its shipped inputs.  b2_chain.hgc names the chain's base point x1, the
    trace X1.
    """
    if method == "chain":
        chain = scale_sequence(x, 3)
        binds = {"x1": x, "x2exp": _chain_point(x, 2), "x3exp": _chain_point(x, 3)}
        return chain.trace, (("X2", chain.points[1]), ("X3", chain.points[2])), binds
    res = midpoint(model, x, y, method)
    binds = {"x": x, "y": y}
    if method == "case1":
        binds["zexp"] = midpoint_oracle(model, x, y)
    return res.trace, (("z", res.z),), binds


def _corpus_program(name: str) -> script.Program:
    return script.parse((resources.files("hypmid") / "corpus" / name).read_text(encoding="utf-8"))


def _selector_of(node, env: dict) -> Selector:
    """The selector a script's select clause evaluates to, its anchors looked up by name."""
    if isinstance(node.anchor, tuple):
        return Selector(node.kind, tuple(env[a.name] for a in node.anchor))
    return Selector(node.kind, None if node.anchor is None else env[node.anchor.name])


@pytest.mark.parametrize("name", sorted(METHOD_SCRIPTS))
def test_method_script_runs_its_library_method(name):
    model, method = METHOD_SCRIPTS[name]
    program = _corpus_program(name)
    lines = {b.name: b.expr for b in program.statements() if isinstance(b, script.Binding)}
    if method == "chain":
        shipped = (Point2(lines["x1"].x, lines["x1"].y), None)
    else:
        shipped = tuple(Point2(lines[n].x, lines[n].y) for n in ("x", "y"))
    script_name = {"X1": "x1"}.get
    ran = spread = 0
    for x, y in [shipped, *_seeded_pairs(model, method)]:
        try:
            trace, outputs, binds = _library_run(model, method, x, y)
        except GeometryError:
            continue
        result = script.evaluate(program, bind=binds)
        env = result.bindings
        produced = [step.produces for step in trace.steps]
        assert [n for n in lines if n in produced] == produced  # in the library's order
        for step in trace.steps:
            # the same op on the same names, with the same selector rule, binds the same value
            expr = lines[step.produces]
            args = [a for a in expr.args if not isinstance(a, script.SelectorNode)]
            selects = tuple(_selector_of(a, env) for a in expr.args if isinstance(a, script.SelectorNode))
            inputs = tuple(script_name(n, n) for n in step.inputs)
            assert (expr.fn, tuple(a.name for a in args), selects) == (step.kind, inputs, step.data), step
            assert env[step.produces] == step.result, (x, y, step.produces)
        assert result.outputs == outputs
        failed = [a for a in result.assertions if not a.passed]
        assert not failed, (x, y, failed)
        ran += 1
        spread += (x.x2 if y is None else x.dot(y)) > 0.0  # acute pairs; X_1 in the upper half-plane
    assert ran >= 190
    assert model is Model.HALF_PLANE or 50 <= spread <= ran - 50


# diameter pairs off the real axis, with their 50-digit midpoints
@pytest.mark.parametrize(
    "x, y, zref",
    [
        ((0.1, 0.1), (0.3, 0.3), (0.20445325844925147, 0.20445325844925147)),
        ((0.0, 0.2), (0.0, 0.6), (0.0, 0.42020410288672877)),
    ],
)
def test_b2_case1_script_off_the_real_axis(x, y, zref):
    bind = {"x": Point2(*x), "y": Point2(*y), "zexp": Point2(*zref)}
    result = script.evaluate(_corpus_program("b2_case1.hgc"), bind=bind)
    assert result.all_assertions_pass(), result.assertions
    ((_, z),) = result.outputs
    assert (z - Point2(*zref)).norm() <= 1e-15


def test_b2_chain_script_off_the_real_axis():
    result = script.evaluate(_corpus_program("b2_chain.hgc"), bind={"x1": Point2(-0.3, 0.1)})
    (_, x2), (_, x3) = result.outputs
    assert (x2 - Point2(-0.5454545454545454, 0.18181818181818182)).norm() <= 1e-9
    assert (x3 - Point2(-0.7153846153846154, 0.23846153846153847)).norm() <= 1e-9


SIDE_SOURCE = OP_PRELUDE + (
    "p = intersect(perp(L, origin), C) select left of L\n"
    "q = intersect(perp(L, origin), C) select right of line(x, origin)\n"
    "geodesic G = geodesic(b2, x, origin)\n"
    "r = intersect(perp(L, origin), C) select left of G\n"  # a geodesic stands for its line
)


def test_side_selectors_round_trip_and_pick_mirror_roots():
    program = script.parse(SIDE_SOURCE)
    text = script.format_program(program)
    assert text == SIDE_SOURCE
    assert script.parse(text) == program
    env = script.evaluate(program).bindings
    line = env["L"]
    assert line.residual(env["p"]) == pytest.approx(0.5) and line.residual(env["q"]) == pytest.approx(-0.5)
    assert env["r"] == env["p"]
    with pytest.raises(script.RuntimeGeometryError) as err:  # both roots lie left of the line x1 = 2
        script.evaluate(script.parse(OP_PRELUDE + "p = intersect(L, C) select left of line((2.0, 0.0), (2.0, 1.0))\n"))
    assert str(err.value.cause) == "selector 'left' matched 2 of 2 intersection points"


def test_side_selector_of_a_circle_exits_1_from_script_run(capsys, tmp_path):
    path = tmp_path / "side.hgc"
    path.write_text(OP_PRELUDE + "p = intersect(L, C) select left of C\n", encoding="utf-8")
    assert cli.main(["script", "run", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == "error: line 4 (p = intersect(L, C) select left of C): expected a line, got Circle2\n"


def diagnosis(source: str) -> tuple:
    """What parsing ``source`` reports: (type, line, column, found, expected), or (type, line, name)."""
    with pytest.raises(script.ScriptError) as err:
        script.parse(source)
    e = err.value
    if isinstance(e, script.ScriptSyntaxError):
        return (type(e), e.line, e.column, e.found, e.expected)
    return (type(e), e.line, e.name)


SYNTAX = script.ScriptSyntaxError
ALL_FNS = tuple(sorted(OPS))
ARGUMENT = ("name", "number", "(", ")")
SELECTORS = ("upper", "in_disk", "boundary", "nearest", "nearer", "left", "right")
STATEMENTS = ("point", "line", "circle", "geodesic", "assert", "output", "name")

# each fixture's whole diagnosis: (type, line, column, found, expected), or (type, line, name)
BROKEN_EXPECTATIONS = {
    "01_unterminated_literal.hgc": (SYNTAX, 1, 16, "end of line", ("number",)),
    "02_duplicate_name.hgc": (script.DuplicateNameError, 2, "x"),
    "03_unknown_name.hgc": (script.UnknownNameError, 2, "ghost"),
    "04_missing_select.hgc": (SYNTAX, 3, 32, "end of line", ("'select'",)),
    "05_bad_selector.hgc": (SYNTAX, 3, 40, "sideways", SELECTORS),
    "06_wrong_arity.hgc": (SYNTAX, 3, 31, ")", (",",)),
    "07_unknown_function.hgc": (SYNTAX, 2, 5, "teleport", ALL_FNS),
    "08_trailing_garbage.hgc": (SYNTAX, 2, 10, "junk", ()),
    "09_kind_mismatch.hgc": (SYNTAX, 3, 24, "end of line", ()),
    "10_nested_intersect.hgc": (SYNTAX, 3, 15, "intersect", ()),
}


@pytest.mark.parametrize("name", sorted(BROKEN_EXPECTATIONS), ids=str)
def test_broken_fixture_positions(name):
    source = (BROKEN_DIR / name).read_text(encoding="utf-8")
    assert diagnosis(source) == BROKEN_EXPECTATIONS[name]


# one malformed line after OP_PRELUDE (so on line 4): column, found, expected, message
MALFORMED_LINES = [
    ("point p = (0.5, 0.2) $", 22, "$", (), "unexpected character"),
    ("point p = (0.5, 0.2) é", 22, "é", (), "unexpected character"),
    ("point p = (0.5 0.2) $", 21, "$", (), "unexpected character"),
    ("point p = (+, 0.2)", 12, "+", (), "unexpected character"),
    ("point p = (1e, 0.2)", 13, "e", (",",), "expected ','"),
    ("point p = (0.5 0.2)", 16, "0.2", (",",), "expected ','"),
    ("point p = (0.5, 0.2,)", 20, ",", (")",), "expected ')'"),
    ("point p = (0.5, 0.2))", 21, ")", (), "unexpected trailing input"),
    ("w = intersect(L, C,) select upper", 19, ",", (")",), "expected ')'"),
    ("w = intersect(L, C)", 20, "end of line", ("'select'",), "expected 'select'"),
    ("w = intersect(L, C) upper", 21, "upper", ("select",), "every intersection needs a selector"),
    ("w = intersect(L, C) select sideways", 28, "sideways", SELECTORS, "expected selector keyword"),
    ("w = intersect(L, C) select nearest", 35, "end of line", ARGUMENT, "expected an argument"),
    ("w = intersect(L, C) select nearest intersect(L, C) select upper", 36, "intersect", (),
     "intersect(...) select ... cannot be nested; bind it to a name first"),
    ("line M = line(on(x, C), x)", 15, "on", (), "on(...) is an assertion; it cannot be an argument"),
    ("q = teleport(x)", 5, "teleport", ALL_FNS, "unknown function 'teleport'"),
    ("assert equals(x, origin) tol", 29, "end of line", ("number",), "expected number"),
    ("assert equals(x, origin) tol abc", 30, "abc", ("number",), "expected number"),
    ("assert line(x, origin)", 23, "end of line", ("on", "orthogonal", "tangent", "collinear", "equal_rho", "equals"),
     "'line' is not an assertion kind"),
    ("line M = line(x,", 17, "end of line", ARGUMENT, "expected an argument"),
    ("line M = line(x  # note", 24, "end of line", (",",), "expected ','"),
    ("circle D = circle(x, )", 22, ")", ARGUMENT, "expected an argument"),
    ("line M = line(x, 0.5)", 18, "0.5", (), "a bare number is only valid as a circle radius"),
    ("line M = circle(x, 0.5)", 24, "end of line", (), "a line binding needs one of ('line', 'perp')"),
    ("geodesic G = geodesic(h3, x, origin)", 23, "h3", ("h2", "b2"), "expected model tag"),
    ("p = invert(x) select upper", 15, "select", (), "unexpected trailing input"),
    ("= line(x, x)", 1, "=", STATEMENTS, "expected a statement"),
    ("0.5 = x", 1, "0.5", STATEMENTS, "expected a statement"),
    ("output", 7, "end of line", ("name",), "expected name"),
    ("output 3", 8, "3", ("name",), "expected name"),
    ("line M = line(ghost, origin) junk", 30, "junk", (), "unexpected trailing input"),
]


@pytest.mark.parametrize("line, column, found, expected, message", MALFORMED_LINES, ids=[m[0] for m in MALFORMED_LINES])
def test_malformed_line_diagnosis(line, column, found, expected, message):
    with pytest.raises(script.ScriptSyntaxError) as err:
        script.parse(OP_PRELUDE + line + "\n")
    e = err.value
    assert (e.line, e.column, e.found, e.expected) == (4, column, found, expected)
    assert str(e).startswith(f"line 4, column {column}: {message} (found ")


@pytest.mark.parametrize(
    "line, error, name",
    [
        ("line M = line(ghost1, ghost2)", script.UnknownNameError, "ghost1"),  # the first in source order
        ("w = intersect(L, C) select nearest ghost", script.UnknownNameError, "ghost"),
        ("output ghost", script.UnknownNameError, "ghost"),
        ("line x = line(x, origin)", script.DuplicateNameError, "x"),
        ("line M = line(M, origin)", script.UnknownNameError, "M"),  # bound only once the line has parsed
    ],
)
def test_name_error_diagnosis(line, error, name):
    assert diagnosis(OP_PRELUDE + line + "\n") == (error, 4, name)


@pytest.mark.parametrize("text", ["٣", "１"])
def test_number_digits_are_ascii(text):
    # docs/hgc_grammar.ebnf: a digit is 0-9, so a digit of another script is not a number
    assert diagnosis(f"point p = ({text}, 0.5)\n") == (SYNTAX, 1, 12, text, ())


@pytest.mark.parametrize(
    "line, column, found",
    [
        ("point p = (0.86e60254037844387, 0.5)", 12, "0.86e60254037844387"),
        ("circle C = circle(origin, 1e309)", 27, "1e309"),
        ("assert equals(origin, origin) tol -1e400", 35, "-1e400"),
    ],
)
def test_number_that_overflows_is_syntax_error(line, column, found):
    # float() gives inf, which format_program would write as 'inf', and 'inf' is a name
    assert diagnosis(line + "\n") == (SYNTAX, 1, column, found, ())


MUTATION_ALPHABET = "(),=#._-+e0123456789 \txyzLCselectnarouptb\n$é"


def test_seeded_mutations_round_trip_or_diagnose():
    """One-character edits of the corpus either format and reparse to the same program or raise a ScriptError."""
    rng = random.Random(20240517)
    sources = [entry.read_text(encoding="utf-8") for entry in corpus_files()]
    errors = 0
    for _ in range(1500):
        source = rng.choice(sources)
        pos = rng.randrange(len(source) + 1)
        char = rng.choice(MUTATION_ALPHABET)
        source = rng.choice((
            source[:pos] + char + source[pos:],
            source[:pos] + source[pos + 1 :],
            source[:pos] + char + source[pos + 1 :],
        ))
        try:
            program = script.parse(source)
        except script.ScriptError as exc:
            errors += 1
            lines = source.splitlines()
            assert 1 <= exc.line <= len(lines), (source, exc)
            if isinstance(exc, script.ScriptSyntaxError):
                assert 1 <= exc.column <= len(lines[exc.line - 1]) + 1, (source, exc)
            continue
        assert script.parse(script.format_program(program)) == program, source
    assert 300 <= errors <= 1200  # both outcomes are exercised

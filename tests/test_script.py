"""Construction-language contracts: parsing, formatting, evaluation, corpus."""

import pathlib
from importlib import resources

import pytest

from hypmid import script
from hypmid.constructions.trace import OPS
from hypmid.geom2d import Point2
from hypmid.hypmetric import Model

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


BROKEN_EXPECTATIONS = {
    "01_unterminated_literal.hgc": (script.ScriptSyntaxError, 1),
    "02_duplicate_name.hgc": (script.DuplicateNameError, 2),
    "03_unknown_name.hgc": (script.UnknownNameError, 2),
    "04_missing_select.hgc": (script.ScriptSyntaxError, 3),
    "05_bad_selector.hgc": (script.ScriptSyntaxError, 3),
    "06_wrong_arity.hgc": (script.ScriptSyntaxError, 3),
    "07_unknown_function.hgc": (script.ScriptSyntaxError, 2),
    "08_trailing_garbage.hgc": (script.ScriptSyntaxError, 2),
    "09_kind_mismatch.hgc": (script.ScriptSyntaxError, 3),
    "10_nested_intersect.hgc": (script.ScriptSyntaxError, 3),
}


@pytest.mark.parametrize("name", sorted(BROKEN_EXPECTATIONS), ids=str)
def test_broken_fixture_positions(name):
    expected_type, expected_line = BROKEN_EXPECTATIONS[name]
    source = (BROKEN_DIR / name).read_text(encoding="utf-8")
    with pytest.raises(expected_type) as err:
        script.parse(source)
    assert err.value.line == expected_line
    if isinstance(err.value, script.ScriptSyntaxError):
        assert err.value.column >= 1

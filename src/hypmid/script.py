"""The .hgc construction language: parser, evaluator, canonical formatter.

A script is a line-oriented sequence of single-assignment bindings,
assertions and output directives; there is no control flow and no expression
arithmetic, so the evaluator is total on well-formed programs and a script is
exactly one compass-and-ruler construction.  ``#`` starts a comment; comments
survive formatting.

Statement forms::

    point NAME = (x, y)
    line NAME = line(A, B) | perp(L, P)
    circle NAME = circle(C, r) | circle(C, P) | circle_through(A, B, C)
                | circle_diameter(A, B) | ortho_circle(A, B)
    geodesic NAME = geodesic(h2|b2, A, B)
    NAME = intersect(A, B) | intersect_unit_ortho(C) | intersect_radius_ortho(L, C)
           select upper|in_disk|boundary|nearest P|nearer P than Q|left of L|right of L
    NAME = invert(P) | reflect_real(P) | midpoint_oracle(h2|b2, A, B)
    assert on(P, C) | orthogonal(A, B) | tangent(L, C) | collinear(P, Q, R)
         | equal_rho(h2|b2, A, B, C, D) | equals(P, Q)   [tol NUMBER]
    output NAME

The names ``unit`` (unit circle), ``axis`` (real axis) and ``origin`` are
predefined.  Selectors are mandatory on every intersection.  A point argument
may name a circle, which stands for its center.  The functions, their
argument kinds and their result kinds are the rows of
:data:`hypmid.constructions.trace.OPS`; the evaluator runs each call through
:func:`~hypmid.constructions.trace.run_op`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import NamedTuple

from .constructions.trace import OPS, run_op
from .errors import GeometryError
from .geom2d import EPS_INCIDENCE, ORIGIN, Circle2, Line2, Point2, Selector, Slotted
from .hypmetric import Model

BUILTINS = {
    "unit": Circle2(ORIGIN, 1.0),
    "axis": Line2(Point2(0.0, 1.0), 0.0),
    "origin": ORIGIN,
}


class ScriptError(Exception):
    """Base class for .hgc language errors."""


class ScriptSyntaxError(ScriptError):
    def __init__(self, line: int, column: int, message: str, found: str = "", expected: tuple = ()):
        detail = f"line {line}, column {column}: {message}"
        if found:
            detail += f" (found {found!r})"
        if expected:
            detail += f"; expected one of {', '.join(expected)}"
        super().__init__(detail)
        self.line = line
        self.column = column
        self.found = found
        self.expected = expected


class DuplicateNameError(ScriptError):
    def __init__(self, line: int, name: str):
        super().__init__(f"line {line}: name {name!r} is already bound (single assignment)")
        self.line = line
        self.name = name


class UnknownNameError(ScriptError):
    def __init__(self, name: str, line: int | None = None):
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}unknown name {name!r}")
        self.line = line
        self.name = name


class RuntimeGeometryError(ScriptError):
    """A geometry operation failed while evaluating a statement."""

    def __init__(self, line: int, text: str, cause: Exception):
        super().__init__(f"line {line} ({text}): {cause}")
        self.line = line
        self.statement = text
        self.cause = cause


# ---------------------------------------------------------------------------
# AST


class PointLit(Slotted):
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        self.x = x
        self.y = y


class Ref(Slotted):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class SelectorNode(Slotted):
    __slots__ = ("kind", "anchor")

    def __init__(self, kind: str, anchor=None):
        self.kind = kind
        self.anchor = anchor  # Ref | PointLit | Call (a line for left/right), or a pair of them for nearer


class Call(Slotted):
    __slots__ = ("fn", "args")

    def __init__(self, fn: str, args: tuple):
        self.fn = fn
        self.args = args  # Ref | PointLit | Call | float | str (model tag)


class _Item(Slotted):
    """A line of a program; its source ``line`` is left out of ``==`` and hash."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__slots__ if f != "line"])


class Binding(_Item):
    __slots__ = ("keyword", "name", "expr", "comment", "line")

    def __init__(self, keyword: str | None, name: str, expr, comment: str | None = None, line: int = 0):
        self.keyword = keyword  # point | line | circle | geodesic | None (point op)
        self.name = name
        self.expr = expr
        self.comment = comment
        self.line = line


class Assertion(_Item):
    __slots__ = ("check", "tolerance", "comment", "line")

    def __init__(self, check: Call, tolerance: float | None = None, comment: str | None = None, line: int = 0):
        self.check = check
        self.tolerance = tolerance
        self.comment = comment
        self.line = line


class Output(_Item):
    __slots__ = ("name", "comment", "line")

    def __init__(self, name: str, comment: str | None = None, line: int = 0):
        self.name = name
        self.comment = comment
        self.line = line


class Comment(_Item):
    __slots__ = ("text", "line")

    def __init__(self, text: str, line: int = 0):
        self.text = text
        self.line = line


class Blank(_Item):
    __slots__ = ("line",)

    def __init__(self, line: int = 0):
        self.line = line


class Program(Slotted):
    __slots__ = ("items",)

    def __init__(self, items: tuple):
        self.items = items

    def statements(self):
        for item in self.items:
            if isinstance(item, (Binding, Assertion, Output)):
                yield item


_SELECTOR_KEYWORDS = ("upper", "in_disk", "boundary", "nearest", "nearer", "left", "right")
_BINDING_KEYWORDS = ("point", "line", "circle", "geodesic")
_STATEMENT_STARTS = (*_BINDING_KEYWORDS, "assert", "output", "name")
_MODEL_TAGS = ("h2", "b2")

# One alternative per token kind, so one scan yields (kind, text, column) per
# token; "bad" takes any other non-space character, and whitespace between
# tokens is skipped by the search.  Names and numbers are ASCII, as in
# docs/hgc_grammar.ebnf.
_TOKEN_RE = re.compile(
    r"""(?P<name>[A-Za-z_][A-Za-z0-9_]*)
    |(?P<punct>[(),=])
    |(?P<number>[-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?)
    |(?P<bad>\S)""",
    re.VERBOSE,
)


class Parser:
    """Recursive descent over one line's tokens at a time, read by index.

    A token is a plain ``(kind, text, column)`` tuple, and each line ends in
    an ``("end", "", len(line) + 1)`` sentinel, so reading one token past the
    current one never leaves the list.  Each ``_parse_*`` method takes the
    index of its first token and returns its node and the index after it.
    The names a line reads are collected in ``_refs`` as they are parsed and
    checked once the whole line has parsed, so a syntax error wins over an
    unknown name, and the first unknown name in source order is reported.
    """

    def __init__(self):
        self.names: set[str] = set(BUILTINS)
        self._toks: list[tuple[str, str, int]] = []
        self._lineno = 0
        self._refs: list[str] = []

    def _fail(self, i: int, message: str, expected: tuple = ()):
        """Raise a syntax error at token ``i``.

        No rule accepts a "bad" token, so every line holding one ends here, and
        its first unexpected character is reported in place of ``message``.
        """
        for kind, text, column in self._toks:
            if kind == "bad":
                raise ScriptSyntaxError(self._lineno, column, "unexpected character", found=text)
        _, text, column = self._toks[i]
        raise ScriptSyntaxError(self._lineno, column, message, found=text or "end of line", expected=expected)

    def _expect(self, i: int, ch: str) -> int:
        if self._toks[i][1] != ch:
            self._fail(i, f"expected {ch!r}", expected=(ch,))
        return i + 1

    def _parse_number(self, i: int) -> tuple[float, int]:
        kind, text, _ = self._toks[i]
        if kind != "number":
            self._fail(i, "expected number", expected=("number",))
        value = float(text)
        if math.isinf(value):  # the formatter could not write it back as a number
            self._fail(i, "number overflows to infinity")
        return value, i + 1

    def _parse_point_literal(self, i: int) -> tuple[PointLit, int]:
        i = self._expect(i, "(")
        x, i = self._parse_number(i)
        i = self._expect(i, ",")
        y, i = self._parse_number(i)
        return PointLit(x, y), self._expect(i, ")")

    def _parse_arg(self, i: int, kind: str = "point"):
        toks = self._toks
        tok_kind, text, _ = toks[i]
        if tok_kind == "name":
            if text in OPS and toks[i + 1][1] == "(":
                op = OPS[text]
                if "selector" in op.kinds:
                    self._fail(i, f"{text}(...) select ... cannot be nested; bind it to a name first")
                if op.result == "residual":
                    self._fail(i, f"{text}(...) is an assertion; it cannot be an argument")
                return self._parse_call(i)
            self._refs.append(text)
            return Ref(text), i + 1
        if text == "(":
            return self._parse_point_literal(i)
        if tok_kind == "number":
            if kind != "radius":
                self._fail(i, "a bare number is only valid as a circle radius")
            return self._parse_number(i)
        self._fail(i, "expected an argument", expected=("name", "number", "(", ")"))

    def _parse_call(self, i: int) -> tuple[Call, int]:
        """A call with its arguments as the table orders them; a selector comes after ')'."""
        toks = self._toks
        tok_kind, fn, _ = toks[i]
        op = OPS.get(fn)
        if op is None:
            if tok_kind != "name":
                self._fail(i, "expected function name", expected=("function name",))
            self._fail(i, f"unknown function {fn!r}", expected=tuple(sorted(OPS)))
        i = self._expect(i + 1, "(")
        args: list = []
        for kind in op.kinds:
            if kind == "selector":
                i = self._expect(i, ")")
                tok_kind, keyword, _ = toks[i]
                if keyword != "select":
                    if tok_kind != "name":
                        self._fail(i, "expected 'select'", expected=("'select'",))
                    self._fail(i, "every intersection needs a selector", expected=("select",))
                selector, i = self._parse_selector(i + 1)
                args.append(selector)
                return Call(fn, tuple(args)), i
            if args:
                i = self._expect(i, ",")
            if kind == "model":
                tok_kind, model, _ = toks[i]
                if model not in _MODEL_TAGS:
                    if tok_kind != "name":
                        self._fail(i, "expected model tag (h2 or b2)", expected=("model tag (h2 or b2)",))
                    self._fail(i, "expected model tag", expected=_MODEL_TAGS)
                args.append(model)
                i += 1
            else:
                arg, i = self._parse_arg(i, kind)
                args.append(arg)
        return Call(fn, tuple(args)), self._expect(i, ")")

    def _parse_selector(self, i: int) -> tuple[SelectorNode, int]:
        tok_kind, keyword, _ = self._toks[i]
        if keyword not in _SELECTOR_KEYWORDS:
            if tok_kind != "name":
                self._fail(i, "expected selector keyword", expected=("selector keyword",))
            self._fail(i, "expected selector keyword", expected=_SELECTOR_KEYWORDS)
        if keyword == "nearest":
            anchor, i = self._parse_arg(i + 1)
            return SelectorNode("nearest", anchor), i
        if keyword == "left" or keyword == "right":
            anchor, i = self._parse_arg(self._expect(i + 1, "of"))
            return SelectorNode(keyword, anchor), i
        if keyword == "nearer":
            near, i = self._parse_arg(i + 1)
            far, i = self._parse_arg(self._expect(i, "than"))
            return SelectorNode("nearer", (near, far)), i
        return SelectorNode(keyword), i + 1

    def _finish(self, i: int) -> None:
        """Fail on trailing tokens, then on the first name the line reads that is not bound."""
        if self._toks[i][0] != "end":
            self._fail(i, "unexpected trailing input")
        names = self.names
        for name in self._refs:
            if name not in names:
                raise UnknownNameError(name, self._lineno)

    def parse_line(self, raw: str, lineno: int):
        hash_pos = raw.find("#")
        comment = None
        code = raw
        if hash_pos >= 0:
            comment = raw[hash_pos + 1 :]
            code = raw[:hash_pos]
        toks = [((kind := m.lastgroup), m[kind], m.start() + 1) for m in _TOKEN_RE.finditer(code)]
        if not toks:
            return Blank(line=lineno) if comment is None else Comment(comment, line=lineno)
        toks.append(("end", "", len(raw) + 1))
        self._toks = toks
        self._lineno = lineno
        self._refs = []
        kind, head, _ = toks[0]
        if kind != "name":
            self._fail(0, "expected a statement", expected=_STATEMENT_STARTS)

        if head == "assert":
            check, i = self._parse_call(1)
            if OPS[check.fn].result != "residual":
                self._fail(i, f"{check.fn!r} is not an assertion kind", expected=_fns_giving("residual"))
            tolerance = None
            if toks[i][1] == "tol":
                tolerance, i = self._parse_number(i + 1)
            self._finish(i)
            return Assertion(check, tolerance, comment, line=lineno)

        if head == "output":
            kind, name, _ = toks[1]
            if kind != "name":
                self._fail(1, "expected name", expected=("name",))
            self._refs.append(name)
            self._finish(2)
            return Output(name, comment, line=lineno)

        # a keyword binding, or a bare NAME = point-producing operation
        keyword = head if head in _BINDING_KEYWORDS else None
        i = 0 if keyword is None else 1
        kind, name, _ = toks[i]
        if kind != "name":
            self._fail(i, "expected name", expected=("name",))
        i = self._expect(i + 1, "=")
        if keyword == "point":
            expr, i = self._parse_point_literal(i)
        else:
            expr, i = self._parse_call(i)
            result = keyword or "point"
            if OPS[expr.fn].result != result:
                self._fail(i, f"a {keyword or 'bare'} binding needs one of {_fns_giving(result)}")
        self._finish(i)
        if name in self.names:
            raise DuplicateNameError(lineno, name)
        self.names.add(name)
        return Binding(keyword, name, expr, comment, line=lineno)


def _fns_giving(result: str) -> tuple[str, ...]:
    return tuple(fn for fn, op in OPS.items() if op.result == result)


def parse(source: str) -> Program:
    """Parse .hgc text; errors carry line, column, offending token and expectations."""
    parse_line = Parser().parse_line
    return Program(tuple([parse_line(raw, lineno) for lineno, raw in enumerate(source.splitlines(), start=1)]))


# ---------------------------------------------------------------------------
# Formatting


def _fmt_float(v: float) -> str:
    return repr(v)


def _fmt_node(node) -> str:
    if isinstance(node, PointLit):
        return f"({_fmt_float(node.x)}, {_fmt_float(node.y)})"
    if isinstance(node, Ref):
        return node.name
    if isinstance(node, float):
        return _fmt_float(node)
    if isinstance(node, str):  # model tag
        return node
    if isinstance(node, SelectorNode):
        if node.kind == "nearest":
            return f"nearest {_fmt_node(node.anchor)}"
        if node.kind == "nearer":
            return f"nearer {_fmt_node(node.anchor[0])} than {_fmt_node(node.anchor[1])}"
        if node.anchor is not None:  # left or right
            return f"{node.kind} of {_fmt_node(node.anchor)}"
        return node.kind
    if isinstance(node, Call):
        args = node.args
        if args and isinstance(args[-1], SelectorNode):
            return f"{node.fn}({', '.join(_fmt_node(a) for a in args[:-1])}) select {_fmt_node(args[-1])}"
        return f"{node.fn}({', '.join(_fmt_node(a) for a in args)})"
    raise TypeError(f"cannot format {node!r}")


def _fmt_item(item) -> str:
    if isinstance(item, Blank):
        return ""
    if isinstance(item, Comment):
        return "#" + item.text
    if isinstance(item, Binding):
        head = f"{item.keyword} {item.name}" if item.keyword else item.name
        text = f"{head} = {_fmt_node(item.expr)}"
    elif isinstance(item, Assertion):
        text = f"assert {_fmt_node(item.check)}"
        if item.tolerance is not None:
            text += f" tol {_fmt_float(item.tolerance)}"
    elif isinstance(item, Output):
        text = f"output {item.name}"
    else:
        raise TypeError(f"cannot format {item!r}")
    if item.comment is not None:
        text += "  #" + item.comment
    return text


def format_program(p: Program) -> str:
    """Canonical pretty-print; parsing the output reproduces the program."""
    return "\n".join(_fmt_item(item) for item in p.items) + "\n"


# ---------------------------------------------------------------------------
# Evaluation


class AssertionOutcome(NamedTuple):
    line: int
    text: str
    residual: float
    tolerance: float
    passed: bool


# The one record of the kit kept as a dataclass: perfbench/test_bench.py
# builds a tampered copy of a result with dataclasses.replace.
@dataclass(frozen=True)
class EvaluationResult:
    bindings: dict
    assertions: tuple[AssertionOutcome, ...]
    outputs: tuple[tuple[str, object], ...]

    def all_assertions_pass(self) -> bool:
        return all(a.passed for a in self.assertions)


def _value(node, env: dict):
    """A node's value; run_op coerces each call's arguments to their kinds."""
    if isinstance(node, PointLit):
        return Point2(node.x, node.y)
    if isinstance(node, Ref):
        return env[node.name]
    if isinstance(node, Call):
        return run_op(node.fn, [_value(a, env) for a in node.args])
    if isinstance(node, SelectorNode):
        return Selector(node.kind, None if node.anchor is None else _value(node.anchor, env))
    if isinstance(node, tuple):  # the anchor pair of nearer
        return (_value(node[0], env), _value(node[1], env))
    return node  # radius number or model tag


def program_model(program: Program) -> Model:
    """The model named by the first model argument of a call; the disk if none."""

    def tags(node):
        if isinstance(node, Call):
            for kind, arg in zip(OPS[node.fn].kinds, node.args):
                if kind == "model":
                    yield arg
                else:
                    yield from tags(arg)

    for item in program.statements():
        if isinstance(item, Binding):
            expr = item.expr
        elif isinstance(item, Assertion):
            expr = item.check
        else:
            continue
        for tag in tags(expr):
            return Model(tag)
    return Model.DISK


def evaluate(program: Program, bind: dict[str, Point2] | None = None) -> EvaluationResult:
    """Run a program: execute bindings in order, record assertion residuals.

    ``bind`` overrides the values of point-literal bindings by name; naming a
    binding the script does not define raises UnknownNameError.  Assertions
    are fail-soft (all residuals are reported); geometry failures in bindings
    abort with a RuntimeGeometryError carrying the statement location.
    """
    if bind:
        literal_points = {
            item.name for item in program.statements() if isinstance(item, Binding) and item.keyword == "point"
        }
        for name in bind:
            if name not in literal_points:
                raise UnknownNameError(name)
    env: dict[str, object] = dict(BUILTINS)
    assertions: list[AssertionOutcome] = []
    outputs: list[tuple[str, object]] = []
    for item in program.items:
        if isinstance(item, Binding):
            try:
                if item.keyword == "point" and bind and item.name in bind:
                    value = bind[item.name]
                else:
                    value = _value(item.expr, env)
            except (GeometryError, ValueError) as exc:
                raise RuntimeGeometryError(item.line, _fmt_item(item), exc) from exc
            env[item.name] = value
        elif isinstance(item, Assertion):
            try:
                residual = _value(item.check, env)
            except (GeometryError, ValueError) as exc:
                raise RuntimeGeometryError(item.line, _fmt_item(item), exc) from exc
            tolerance = item.tolerance if item.tolerance is not None else EPS_INCIDENCE
            assertions.append(
                AssertionOutcome(
                    line=item.line,
                    text=_fmt_node(item.check),
                    residual=residual,
                    tolerance=tolerance,
                    passed=abs(residual) <= tolerance and math.isfinite(residual),
                )
            )
        elif isinstance(item, Output):
            outputs.append((item.name, env[item.name]))
    return EvaluationResult(bindings=env, assertions=tuple(assertions), outputs=tuple(outputs))

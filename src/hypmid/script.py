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
           select upper|in_disk|boundary|nearest P
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
from .geom2d import DEFAULT_TOL, ORIGIN, Circle2, Line2, Point2, Selector, Slotted, Tolerance
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
        self.anchor = anchor  # Ref | PointLit | Call


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


_SELECTOR_KEYWORDS = ("upper", "in_disk", "boundary", "nearest")

_TOKEN_RE = re.compile(
    r"""\s*(?:(?P<number>[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)
        |(?P<name>[A-Za-z_][A-Za-z0-9_]*)
        |(?P<punct>[(),=])
        )""",
    re.VERBOSE,
)


class _Token(NamedTuple):
    kind: str  # number | name | punct | end
    text: str
    column: int


def _tokenize(line_text: str, lineno: int) -> tuple[list[_Token], str | None]:
    """Tokens of one line plus its comment text (without '#'), if any."""
    hash_pos = line_text.find("#")
    comment = None
    if hash_pos >= 0:
        comment = line_text[hash_pos + 1 :].rstrip("\n")
        line_text = line_text[:hash_pos]
    tokens: list[_Token] = []
    pos = 0
    while pos < len(line_text):
        if line_text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(line_text, pos)
        if not m or m.end() == pos:
            raise ScriptSyntaxError(lineno, pos + 1, "unexpected character", found=line_text[pos])
        kind = m.lastgroup
        tokens.append(_Token(kind, m.group(kind), m.start(kind) + 1))
        pos = m.end()
    return tokens, comment


class _LineParser:
    def __init__(self, tokens: list[_Token], lineno: int, line_len: int):
        self.tokens = tokens
        self.lineno = lineno
        self.pos = 0
        self.line_len = line_len

    def peek(self) -> _Token:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return _Token("end", "", self.line_len + 1)

    def next(self) -> _Token:
        tok = self.peek()
        self.pos += 1
        return tok

    def fail(self, message: str, expected: tuple = ()):
        tok = self.peek()
        raise ScriptSyntaxError(self.lineno, tok.column, message, found=tok.text or "end of line", expected=expected)

    def expect_punct(self, ch: str) -> None:
        tok = self.next()
        if tok.kind != "punct" or tok.text != ch:
            self.pos -= 1
            self.fail(f"expected {ch!r}", expected=(ch,))

    def expect_name(self, what: str = "name") -> str:
        tok = self.next()
        if tok.kind != "name":
            self.pos -= 1
            self.fail(f"expected {what}", expected=(what,))
        return tok.text

    def expect_number(self) -> float:
        tok = self.next()
        if tok.kind != "number":
            self.pos -= 1
            self.fail("expected number", expected=("number",))
        return float(tok.text)

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)


def _parse_point_literal(p: _LineParser) -> PointLit:
    p.expect_punct("(")
    x = p.expect_number()
    p.expect_punct(",")
    y = p.expect_number()
    p.expect_punct(")")
    return PointLit(x, y)


def _parse_arg(p: _LineParser, kind: str = "point"):
    tok = p.peek()
    if tok.kind == "punct" and tok.text == "(":
        return _parse_point_literal(p)
    if tok.kind == "number":
        if kind != "radius":
            p.fail("a bare number is only valid as a circle radius")
        p.next()
        return float(tok.text)
    if tok.kind == "name":
        nxt = p.tokens[p.pos + 1] if p.pos + 1 < len(p.tokens) else None
        if tok.text in OPS and nxt is not None and nxt.kind == "punct" and nxt.text == "(":
            op = OPS[tok.text]
            if "selector" in op.kinds:
                p.fail(f"{tok.text}(...) select ... cannot be nested; bind it to a name first")
            if op.result == "residual":
                p.fail(f"{tok.text}(...) is an assertion; it cannot be an argument")
            return _parse_call(p)
        p.next()
        return Ref(tok.text)
    p.fail("expected an argument", expected=("name", "number", "(", ")"))


def _parse_call(p: _LineParser) -> Call:
    """A call with its arguments as the table orders them; a selector comes after ')'."""
    fn = p.expect_name("function name")
    if fn not in OPS:
        p.pos -= 1
        p.fail(f"unknown function {fn!r}", expected=tuple(sorted(OPS)))
    p.expect_punct("(")
    args: list = []
    for kind in OPS[fn].kinds:
        if kind == "selector":
            p.expect_punct(")")
            kw = p.expect_name("'select'")
            if kw != "select":
                p.pos -= 1
                p.fail("every intersection needs a selector", expected=("select",))
            args.append(_parse_selector(p))
            return Call(fn, tuple(args))
        if args:
            p.expect_punct(",")
        if kind == "model":
            model = p.expect_name("model tag (h2 or b2)")
            if model not in ("h2", "b2"):
                p.pos -= 1
                p.fail("expected model tag", expected=("h2", "b2"))
            args.append(model)
        else:
            args.append(_parse_arg(p, kind))
    p.expect_punct(")")
    return Call(fn, tuple(args))


def _parse_selector(p: _LineParser) -> SelectorNode:
    kw = p.expect_name("selector keyword")
    if kw not in _SELECTOR_KEYWORDS:
        p.pos -= 1
        p.fail("expected selector keyword", expected=_SELECTOR_KEYWORDS)
    if kw == "nearest":
        return SelectorNode("nearest", _parse_arg(p))
    return SelectorNode(kw)


class Parser:
    def __init__(self):
        self.names: set[str] = set(BUILTINS)

    def _check_refs(self, node, lineno: int):
        if isinstance(node, Ref) and node.name not in self.names:
            raise UnknownNameError(node.name, lineno)
        if isinstance(node, Call):
            for a in node.args:
                self._check_refs(a, lineno)
        if isinstance(node, SelectorNode) and node.anchor is not None:
            self._check_refs(node.anchor, lineno)

    def _bind(self, name: str, lineno: int) -> None:
        if name in self.names:
            raise DuplicateNameError(lineno, name)
        self.names.add(name)

    def parse_line(self, raw: str, lineno: int):
        tokens, comment = _tokenize(raw, lineno)
        if not tokens:
            if comment is not None:
                return Comment(comment, line=lineno)
            return Blank(line=lineno)
        p = _LineParser(tokens, lineno, len(raw))
        head = p.peek()
        if head.kind != "name":
            p.fail("expected a statement", expected=("point", "line", "circle", "geodesic", "assert", "output", "name"))

        if head.text == "assert":
            p.next()
            check = _parse_call(p)
            if OPS[check.fn].result != "residual":
                p.fail(f"{check.fn!r} is not an assertion kind", expected=_fns_giving("residual"))
            tolerance = None
            if not p.at_end() and p.peek().kind == "name" and p.peek().text == "tol":
                p.next()
                tolerance = p.expect_number()
            self._finish(p)
            self._check_refs(check, lineno)
            return Assertion(check, tolerance, comment, line=lineno)

        if head.text == "output":
            p.next()
            name = p.expect_name()
            self._finish(p)
            if name not in self.names:
                raise UnknownNameError(name, lineno)
            return Output(name, comment, line=lineno)

        if head.text in ("point", "line", "circle", "geodesic"):
            keyword = p.next().text
            name = p.expect_name()
            p.expect_punct("=")
            if keyword == "point":
                expr = _parse_point_literal(p)
            else:
                expr = _parse_call(p)
                if OPS[expr.fn].result != keyword:
                    p.fail(f"a {keyword} binding needs one of {_fns_giving(keyword)}")
            self._finish(p)
            self._check_refs(expr, lineno)
            self._bind(name, lineno)
            return Binding(keyword, name, expr, comment, line=lineno)

        # bare NAME = point-producing operation
        name = p.expect_name()
        p.expect_punct("=")
        expr = _parse_call(p)
        if OPS[expr.fn].result != "point":
            p.fail(f"a bare binding needs one of {_fns_giving('point')}")
        self._finish(p)
        self._check_refs(expr, lineno)
        self._bind(name, lineno)
        return Binding(None, name, expr, comment, line=lineno)

    def _finish(self, p: _LineParser) -> None:
        if not p.at_end():
            p.fail("unexpected trailing input")


def _fns_giving(result: str) -> tuple[str, ...]:
    return tuple(fn for fn, op in OPS.items() if op.result == result)


def parse(source: str) -> Program:
    """Parse .hgc text; errors carry line, column, offending token and expectations."""
    parser = Parser()
    items = []
    for lineno, raw in enumerate(source.splitlines(), start=1):
        items.append(parser.parse_line(raw, lineno))
    return Program(tuple(items))


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


def _value(node, env: dict, tol: Tolerance):
    """A node's value; run_op coerces each call's arguments to their kinds."""
    if isinstance(node, PointLit):
        return Point2(node.x, node.y)
    if isinstance(node, Ref):
        return env[node.name]
    if isinstance(node, Call):
        return run_op(node.fn, [_value(a, env, tol) for a in node.args], tol)
    if isinstance(node, SelectorNode):
        return Selector(node.kind, None if node.anchor is None else _value(node.anchor, env, tol))
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


def evaluate(
    program: Program,
    tol: Tolerance = DEFAULT_TOL,
    bind: dict[str, Point2] | None = None,
) -> EvaluationResult:
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
                    value = _value(item.expr, env, tol)
            except (GeometryError, ValueError) as exc:
                raise RuntimeGeometryError(item.line, _fmt_item(item), exc) from exc
            env[item.name] = value
        elif isinstance(item, Assertion):
            try:
                residual = _value(item.check, env, tol)
            except (GeometryError, ValueError) as exc:
                raise RuntimeGeometryError(item.line, _fmt_item(item), exc) from exc
            tolerance = item.tolerance if item.tolerance is not None else tol.eps_incidence
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

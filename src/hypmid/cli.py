"""Command-line front end: midpoints, verification sweeps, scripts, figures.

Exit codes: 0 success, 1 error (``midpoint`` and ``render``: also a result
that disagrees with the oracle), 2 construction inapplicable to the input (so
pipelines can fall back to --method auto), 64 usage.

Each command imports the modules it alone runs (``sweeps``, ``script``,
``render``) when it runs, so ``hypmid midpoint`` loads none of them.
"""

from __future__ import annotations

import argparse
import json
import sys

from .constructions import METHOD_NAMES, METHODS, ORACLE_FLAG_THRESHOLD, SUITES, MidpointResult, midpoint
from .errors import GeometryError, MethodInapplicable
from .geom2d import Point2
from .hypmetric import Geodesic, Model, midpoint_oracle

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INAPPLICABLE = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _point(text: str) -> Point2:
    try:
        a, b = text.split(",")
        return Point2(float(a), float(b))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected 'x,y', got {text!r}") from exc


def _attach_point_values(argv: list[str]) -> list[str]:
    """Rewrite ``--x -0.5,0.2`` as ``--x=-0.5,0.2`` (likewise ``--y``).

    argparse reads a separate value that starts with '-' and is not a plain
    number as an option, so a negative first coordinate would be refused.  No
    option name holds a comma, so a comma marks the token as a point.
    """
    out = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg == "--":
            return out + argv[i:]
        if arg in ("--x", "--y") and i + 1 < len(argv) and argv[i + 1].startswith("-") and "," in argv[i + 1]:
            out.append(f"{arg}={argv[i + 1]}")
            i += 2
        else:
            out.append(arg)
            i += 1
    return out


def _fmt_pt(p: Point2) -> str:
    return f"{p.x1:.12g},{p.x2:.12g}"


def _serialize_value(value):
    if isinstance(value, Point2):
        return [value.x1, value.x2]
    if isinstance(value, Geodesic):
        value = value.carrier
    if hasattr(value, "center"):
        return {"center": [value.center.x1, value.center.x2], "radius": value.radius}
    if hasattr(value, "n"):
        return {"normal": [value.n.x1, value.n.x2], "offset": value.c}
    return repr(value)


def _midpoint_json(model: Model, x: Point2, y: Point2, method: str, result: MidpointResult) -> dict:
    return {
        "model": model.value,
        "x": [x.x1, x.x2],
        "y": [y.x1, y.x2],
        "method": result.trace.method_id,
        "requested_method": method,
        "z": [result.z.x1, result.z.x2],
        "residual_rho": result.residual_equal_distance,
        "residual_carrier": result.residual_on_geodesic,
        "oracle_distance": result.oracle_distance,
        "trace": [
            {"kind": s.kind, "inputs": list(s.inputs), "produces": s.produces, "label": s.label}
            for s in result.trace.steps
        ],
    }


def _run_midpoint(args, emit, refusal_json: bool) -> int:
    """Run ``midpoint`` on the parsed pair, hand its result to ``emit`` and return the exit code.

    64 for a method the model lacks, 2 for a refusal (as JSON if ``refusal_json``),
    1 for another GeometryError, else emit's code, or 1 if that is 0 and the oracle flags z.
    """
    model = Model(args.model)
    methods = METHODS[model]  # h2 has no equal, V, VI or angles
    if args.method != "auto" and args.method not in methods:
        expected = ", ".join(("auto", *methods))
        print(f"error: --method {args.method} is not a {model.value} method; expected {expected}", file=sys.stderr)
        return EXIT_USAGE
    try:
        result = midpoint(model, args.x, args.y, args.method)
    except MethodInapplicable as exc:
        if refusal_json:
            payload = {"error": "MethodInapplicable", "reason": exc.reason, "detail": str(exc)}
            if exc.fallback is not None:
                payload["fallback"] = _midpoint_json(model, args.x, args.y, args.method, exc.fallback)
            print(json.dumps(payload, sort_keys=True))
        else:
            print(f"method inapplicable: {exc.reason}: {exc}", file=sys.stderr)
        return EXIT_INAPPLICABLE
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    code = emit(result)
    if code == EXIT_OK and result.oracle_disagrees():
        oracle = midpoint_oracle(model, args.x, args.y)
        print(
            f"error: z disagrees with the oracle: oracle_distance={result.oracle_distance:.3e} > "
            f"{ORACLE_FLAG_THRESHOLD:.0e}; the oracle's z = {_fmt_pt(oracle)}",
            file=sys.stderr,
        )
        return EXIT_ERROR
    return code


def cmd_midpoint(args) -> int:
    def emit(result: MidpointResult) -> int:
        if args.plain:
            print(
                f"z = {_fmt_pt(result.z)}  method={result.trace.method_id}  "
                f"residual_rho={result.residual_equal_distance:.3e}  "
                f"residual_carrier={result.residual_on_geodesic:.3e}  "
                f"oracle_distance={result.oracle_distance:.3e}"
            )
        else:
            print(json.dumps(_midpoint_json(Model(args.model), args.x, args.y, args.method, result), sort_keys=True))
        return EXIT_OK

    return _run_midpoint(args, emit, refusal_json=not args.plain)


def cmd_verify(args) -> int:
    from . import sweeps

    cfg = sweeps.SweepConfig(samples=args.samples, seed=args.seed)
    results = sweeps.run_suite(args.suite, cfg)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed (suite={args.suite}, samples={args.samples}, seed={args.seed})")
    return EXIT_OK if not failed else EXIT_ERROR


def _load_script(path: str):
    """Parse a script file; a file that is not UTF-8 raises OSError, like one that cannot be read."""
    from . import script

    with open(path, "r", encoding="utf-8") as fh:
        try:
            source = fh.read()
        except UnicodeDecodeError as exc:
            raise OSError(f"{path}: not UTF-8 text ({exc})") from None
    return script.parse(source)


def _binding(text: str) -> tuple[str, Point2]:
    name, eq, coords = text.partition("=")
    if not eq or not name:
        raise argparse.ArgumentTypeError(f"expected NAME=x,y, got {text!r}")
    return name, _point(coords)


def _assertion_line(outcome) -> str:
    tag = "PASS" if outcome.passed else "FAIL"
    return f"{tag} line {outcome.line}: {outcome.text}  residual={outcome.residual:.3e} tol={outcome.tolerance:.1e}"


def cmd_script(args) -> int:
    from . import script

    try:
        program = _load_script(args.file)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except script.ScriptError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if args.action == "fmt":
        text = script.format_program(program)
        if args.write:
            with open(args.file, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return EXIT_OK
    try:
        result = script.evaluate(program, bind=dict(args.bind or ()))
    except script.ScriptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    for outcome in result.assertions:
        print(_assertion_line(outcome))
    for name, value in result.outputs:
        print(f"{name} = {json.dumps(_serialize_value(value))}")
    return EXIT_OK if result.all_assertions_pass() else EXIT_ERROR


def _write_svg(path: str, svg: str) -> int:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(svg)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


def cmd_render(args) -> int:
    from . import render, script

    try:
        spec = render.RenderSpec(width=args.size, height=args.size, labels=not args.no_labels)
    except ValueError as exc:
        print(f"error: --size: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not args.script:
        if args.x is None or args.y is None or args.model is None:
            print("error: render needs either --script or --model/--x/--y", file=sys.stderr)
            return EXIT_USAGE
        return _run_midpoint(
            args, lambda result: _write_svg(args.out, render.render_trace(result.trace, spec)), refusal_json=False
        )
    try:
        program = _load_script(args.script)
        result = script.evaluate(program)
        svg = render.render_script_result(script.program_model(program), result.bindings, result.outputs, spec)
    except (GeometryError, script.ScriptError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if _write_svg(args.out, svg) != EXIT_OK:
        return EXIT_ERROR
    failed = [outcome for outcome in result.assertions if not outcome.passed]
    for outcome in failed:
        print(_assertion_line(outcome), file=sys.stderr)
    return EXIT_ERROR if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hypmid", description="Hyperbolic midpoint construction kit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("midpoint", help="construct the hyperbolic midpoint of two points")
    p.add_argument("--model", required=True, choices=("h2", "b2"))
    p.add_argument("--x", required=True, type=_point, metavar="A,B")
    p.add_argument("--y", required=True, type=_point, metavar="C,D")
    p.add_argument("--method", default="auto", choices=METHOD_NAMES)
    p.add_argument("--plain", action="store_true", help="one line of text instead of JSON")
    p.set_defaults(func=cmd_midpoint)

    p = sub.add_parser("verify", help="run the randomized verification sweeps")
    p.add_argument("--suite", default="all", choices=SUITES)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("script", help="run or format .hgc construction scripts")
    p.add_argument("action", choices=("run", "fmt"))
    p.add_argument("file")
    p.add_argument("--bind", action="append", type=_binding, metavar="NAME=x,y", help="override a point literal")
    p.add_argument("--write", action="store_true", help="fmt: rewrite the file in place")
    p.set_defaults(func=cmd_script)

    p = sub.add_parser("render", help="render a construction figure as SVG")
    p.add_argument("--model", choices=("h2", "b2"))
    p.add_argument("--x", type=_point, metavar="A,B")
    p.add_argument("--y", type=_point, metavar="C,D")
    p.add_argument("--method", default="auto", choices=METHOD_NAMES)
    p.add_argument("--script", metavar="FILE.hgc")
    p.add_argument("--out", required=True, metavar="FILE.svg")
    p.add_argument("--size", type=int, default=640)
    p.add_argument("--no-labels", action="store_true")
    p.set_defaults(func=cmd_render)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_point_values(sys.argv[1:] if argv is None else list(argv)))
    if args.command == "verify" and args.samples <= 0:
        parser.error("--samples must be positive")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

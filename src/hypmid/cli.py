"""Command-line front end: midpoints, verification sweeps, scripts, figures.

Exit codes: 0 success, 1 error, 2 construction inapplicable to the input
(so pipelines can fall back to --method auto), 64 usage.

Each command imports the modules it alone runs (``sweeps``, ``script``,
``render``) when it runs, so ``hypmid midpoint`` loads none of them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .constructions import AGREEMENT_TOL, H2_METHODS, METHOD_NAMES, SUITES, MidpointResult, midpoint
from .errors import GeometryError, MethodInapplicable
from .geom2d import Point2, Tolerance
from .hypmetric import Geodesic, Model

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


def default_tolerance() -> Tolerance:
    """Default eps_incidence, overridable through the HYPMID_TOL variable.

    A value that is not a number, or is below eps_degenerate, is a usage error.
    """
    env = os.environ.get("HYPMID_TOL")
    if not env:
        return Tolerance()
    try:
        return Tolerance(eps_incidence=float(env))
    except ValueError as exc:
        print(f"error: HYPMID_TOL={env!r}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from None


def _lacks_method(model: Model, method: str) -> bool:
    """Print a usage error if the model lacks the method (h2 has no equal, V, VI or angles)."""
    if model is Model.HALF_PLANE and method != "auto" and method not in H2_METHODS:
        expected = ", ".join(("auto", *H2_METHODS))
        print(f"error: --method {method} is not a half-plane method; expected {expected}", file=sys.stderr)
        return True
    return False


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


def cmd_midpoint(args) -> int:
    tol = default_tolerance()
    model = Model(args.model)
    if _lacks_method(model, args.method):
        return EXIT_USAGE
    try:
        result = midpoint(model, args.x, args.y, args.method, tol)
    except MethodInapplicable as exc:
        payload = {"error": "MethodInapplicable", "reason": exc.reason, "detail": str(exc)}
        if exc.fallback is not None:
            payload["fallback"] = _midpoint_json(model, args.x, args.y, args.method, exc.fallback)
        if args.plain:
            print(f"method inapplicable: {exc.reason}: {exc}", file=sys.stderr)
        else:
            print(json.dumps(payload, sort_keys=True))
        return EXIT_INAPPLICABLE
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if args.plain:
        print(
            f"z = {_fmt_pt(result.z)}  method={result.trace.method_id}  "
            f"residual_rho={result.residual_equal_distance:.3e}  "
            f"residual_carrier={result.residual_on_geodesic:.3e}"
        )
    else:
        print(json.dumps(_midpoint_json(model, args.x, args.y, args.method, result), sort_keys=True))
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import sweeps

    tol = default_tolerance()
    cfg = sweeps.SweepConfig(samples=args.samples, seed=args.seed, tolerance=args.tol)
    results = sweeps.run_suite(args.suite, cfg, tol)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed (suite={args.suite}, samples={args.samples}, seed={args.seed})")
    return EXIT_OK if not failed else EXIT_ERROR


def _load_script(path: str):
    from . import script

    with open(path, "r", encoding="utf-8") as fh:
        return script.parse(fh.read())


def _parse_bindings(pairs) -> dict[str, Point2]:
    out = {}
    for pair in pairs or ():
        name, _, coords = pair.partition("=")
        if not _ or not name:
            raise argparse.ArgumentTypeError(f"expected NAME=x,y, got {pair!r}")
        out[name] = _point(coords)
    return out


def cmd_script(args) -> int:
    from . import script

    tol = default_tolerance()
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
        result = script.evaluate(program, tol, bind=_parse_bindings(args.bind))
    except script.ScriptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    for outcome in result.assertions:
        tag = "PASS" if outcome.passed else "FAIL"
        print(f"{tag} line {outcome.line}: {outcome.text}  residual={outcome.residual:.3e} tol={outcome.tolerance:.1e}")
    for name, value in result.outputs:
        print(f"{name} = {json.dumps(_serialize_value(value))}")
    return EXIT_OK if result.all_assertions_pass() else EXIT_ERROR


def cmd_render(args) -> int:
    from . import render, script

    tol = default_tolerance()
    if args.size <= 0:
        print("error: --size must be positive", file=sys.stderr)
        return EXIT_USAGE
    spec = render.RenderSpec(width=args.size, height=args.size, labels=not args.no_labels)
    try:
        if args.script:
            program = _load_script(args.script)
            result = script.evaluate(program, tol)
            svg = render.render_script_result(script.program_model(program), result.bindings, result.outputs, spec)
        else:
            if args.x is None or args.y is None or args.model is None:
                print("error: render needs either --script or --model/--x/--y", file=sys.stderr)
                return EXIT_USAGE
            if _lacks_method(Model(args.model), args.method):
                return EXIT_USAGE
            result = midpoint(Model(args.model), args.x, args.y, args.method, tol)
            svg = render.render_trace(result.trace, spec)
    except MethodInapplicable as exc:
        print(f"method inapplicable: {exc.reason}: {exc}", file=sys.stderr)
        return EXIT_INAPPLICABLE
    except (GeometryError, script.ScriptError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hypmid", description="Hyperbolic midpoint construction kit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("midpoint", help="construct the hyperbolic midpoint of two points")
    p.add_argument("--model", required=True, choices=("h2", "b2"))
    p.add_argument("--x", required=True, type=_point, metavar="A,B")
    p.add_argument("--y", required=True, type=_point, metavar="C,D")
    p.add_argument("--method", default="auto", choices=METHOD_NAMES)
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", default=True)
    fmt.add_argument("--plain", action="store_true")
    p.set_defaults(func=cmd_midpoint)

    p = sub.add_parser("verify", help="run the randomized verification sweeps")
    p.add_argument("--suite", default="all", choices=SUITES)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--tol", type=float, default=AGREEMENT_TOL)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("script", help="run or format .hgc construction scripts")
    p.add_argument("action", choices=("run", "fmt"))
    p.add_argument("file")
    p.add_argument("--bind", action="append", metavar="NAME=x,y", help="override a point literal")
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
    args = parser.parse_args(argv)
    if args.command == "verify":
        if args.samples <= 0:
            parser.error("--samples must be positive")
        if not 0.0 < args.tol < float("inf"):
            parser.error(f"--tol must be finite and positive, got {args.tol!r}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

"""Cold-start probe: a fresh interpreter imports hypmid.cli and completes the
workload's smallest whole operation, then prints ``done``.

Usage: python3 perfbench/coldstart.py <workload> <seed>

The caller times process start to the ``done`` line.  This file imports no
benchmark module that the kit's own start-up would not load (no mpmath).
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hypmid.cli  # noqa: E402,F401  (the start-up being measured)


def main(workload: str, seed: int) -> None:
    if workload == "midpoint-stream":
        import inputs
        from hypmid.constructions import midpoint
        from hypmid.geom2d import Point2
        from hypmid.hypmetric import Model

        pair = next(inputs.pair_stream(seed))
        midpoint(Model(pair.model), Point2(*pair.x), Point2(*pair.y), "auto")
    elif workload == "verify-sweep":
        from hypmid import sweeps

        sweeps.run_suite("all", sweeps.SweepConfig(samples=1, seed=seed))
    elif workload == "script-corpus":
        from hypmid import render, script
        from hypmid.hypmetric import Model

        source = (ROOT / "src" / "hypmid" / "corpus" / "b2_method_i.hgc").read_text(encoding="utf-8")
        program = script.parse(source)
        script.parse(script.format_program(program))
        result = script.evaluate(program)
        render.render_script_result(Model.DISK, result.bindings, result.outputs)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    print("done", flush=True)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))

#!/usr/bin/env python3
"""Render every corpus construction script to SVG (default: ./figures)."""

import pathlib
import sys
from importlib import resources

from hypmid import render, script


def main() -> int:
    outdir = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path("figures")
    outdir.mkdir(parents=True, exist_ok=True)
    corpus = resources.files("hypmid") / "corpus"
    for entry in sorted(corpus.iterdir(), key=lambda e: e.name):
        if not entry.name.endswith(".hgc"):
            continue
        program = script.parse(entry.read_text(encoding="utf-8"))
        result = script.evaluate(program)
        svg = render.render_script_result(script.program_model(program), result.bindings, result.outputs)
        target = outdir / (entry.name.removesuffix(".hgc") + ".svg")
        target.write_text(svg, encoding="utf-8")
        print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

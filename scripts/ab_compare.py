#!/usr/bin/env python3
"""In-process A/B of two checkouts on the ``midpoint-stream`` pairs.

Loads ``<A>/src/hypmid`` and ``<B>/src/hypmid`` side by side under the package
names ``hypmid_a`` and ``hypmid_b`` (the kit imports itself only relatively),
then runs ``midpoint(model, x, y, "auto")`` on the seeded stream pairs of
``perfbench/inputs.py`` in alternating chunks: A then B, B then A, and so on.
Each chunk gives one ratio, B's time over A's on the same pairs; the report is
the median ratio with its quartiles.  Wall-clock runs in separate processes
swing with the machine's spell, while two chunks a few milliseconds apart see
the same spell, so the ratio resolves a few percent.  Give the same checkout
twice for an A/A control, whose median should read 1.

    python3 scripts/ab_compare.py PARENT_CHECKOUT CHANGE_CHECKOUT [--seed 7]
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import itertools
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 4000  # stream pairs per pass
PASSES = 5
CHUNK = 40  # operations per timed chunk


def load_kit(checkout: Path, name: str):
    """Import ``checkout/src/hypmid`` as the package ``name``."""
    init = checkout / "src" / "hypmid" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    kit = importlib.util.module_from_spec(spec)
    sys.modules[name] = kit
    spec.loader.exec_module(kit)
    return kit


def time_chunk(midpoint, error, items) -> tuple[int, int]:
    """Nanoseconds to run ``items`` through ``midpoint``, and how many raised."""
    failed = 0
    t0 = time.perf_counter_ns()
    for model, x, y in items:
        try:
            midpoint(model, x, y, "auto")
        except error:
            failed += 1
    return time.perf_counter_ns() - t0, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="baseline checkout")
    parser.add_argument("b", type=Path, help="checkout to compare with it")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "perfbench"))
    import inputs

    pairs = list(itertools.islice(inputs.pair_stream(args.seed), PAIRS))
    sides = []
    for checkout, name in ((args.a, "hypmid_a"), (args.b, "hypmid_b")):
        kit = load_kit(checkout.resolve(), name)
        items = [(kit.Model(p.model), kit.Point2(*p.x), kit.Point2(*p.y)) for p in pairs]
        sides.append((kit.midpoint, kit.errors.GeometryError, items))

    # warm both sides once over every pair before timing
    for midpoint, error, items in sides:
        time_chunk(midpoint, error, items)
    ratios, ns, failed = [], [0, 0], [0, 0]
    order = (0, 1)
    for _ in range(PASSES):
        for start in range(0, PAIRS, CHUNK):
            chunk_ns = [0, 0]
            for side in order:
                midpoint, error, items = sides[side]
                chunk_ns[side], fails = time_chunk(midpoint, error, items[start : start + CHUNK])
                failed[side] += fails
            order = order[::-1]
            ratios.append(chunk_ns[1] / chunk_ns[0])
            ns[0] += chunk_ns[0]
            ns[1] += chunk_ns[1]
        gc.collect()
    ops = PASSES * PAIRS
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    report = {
        "workload": "midpoint-stream",
        "seed": args.seed,
        "a": str(args.a),
        "b": str(args.b),
        "chunks": len(ratios),
        "ops_per_side": ops,
        "failed": {"a": failed[0], "b": failed[1]},
        "a_us_per_op": round(ns[0] / ops / 1e3, 3),
        "b_us_per_op": round(ns[1] / ops / 1e3, 3),
        "b_over_a": {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)},
    }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""hypmid benchmark: one workload, one seed, untraced or traced.

Usage:
    python3 perfbench/run.py --workload midpoint-stream --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the kit is imported from its ``src``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

from speed import SpeedSampler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

SETUP_SAMPLES = 15

# times are reference-speed times (speed.py)
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "latency_p50_us": "us",
    "latency_tail_us": "us",
    "sweep_s": "s",
}

# worst case over unit 0, deterministic per seed; printed by untraced runs and
# reported by traced runs, because across seeds they spread far wider than
# any end-to-end bound allows
ACCURACY_UNITS = {"max_rel_err": "rel", "worst_check_margin": "ratio"}


def _import_kit() -> None:
    """Import hypmid from this checkout's src, or exit 1 without a result."""
    if not (SRC / "hypmid" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'hypmid'} not found; run from the root of a hypmid checkout")
    sys.path.insert(0, str(SRC))
    import hypmid

    if Path(hypmid.__file__).resolve().parent != (SRC / "hypmid").resolve():
        sys.exit(f"error: imported hypmid from {hypmid.__file__}, not from {SRC}")


def cold_start(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Reference-speed seconds from spawn to first completed operation, and
    wall seconds of bare interpreter starts.

    The samplers run in this process while the child starts; the machine's
    slow and fast spells are machine-wide, so they scale the child too.
    """
    bare, spans = [], []
    with SpeedSampler() as speed:
        for _ in range(SETUP_SAMPLES):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], check=True)
            bare.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            with subprocess.Popen(
                [sys.executable, str(HERE / "coldstart.py"), workload, str(seed)], stdout=subprocess.PIPE, text=True
            ) as proc:
                line = proc.stdout.readline()
                spans.append((t0, time.perf_counter()))
            if line.strip() != "done" or proc.returncode != 0:
                raise RuntimeError(f"cold-start probe failed (exit {proc.returncode}): {line!r}")
    return [(t1 - t0) * speed.factor(t0, t1) for t0, t1 in spans], bare


class Tally:
    """Attempted/failed counts, per group and overall, and the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.groups: dict[str, dict] = {}
        self.failures: list[str] = []

    def add(self, v) -> None:
        self.attempted += 1
        g = self.groups.setdefault(v.group, {"attempted": 0, "failed": 0, "max_rel_err": 0.0, "worst_margin": 0.0})
        g["attempted"] += 1
        g["max_rel_err"] = max(g["max_rel_err"], v.rel_err)
        g["worst_margin"] = max(g["worst_margin"], v.margin)
        if v.failed:
            self.failed += 1
            g["failed"] += 1
            if len(self.failures) < 10:
                self.failures.append(v.note)


def run_unit(wl, items, latencies=None, speed=None) -> list:
    """Run and time each operation; returns the digested outputs.

    With a SpeedSampler, time spent in its handler is taken out of each latency.
    """
    records = []
    op, digest = wl.op, wl.digest
    for item in items:
        stolen = speed.stolen if speed else 0.0
        t0 = time.perf_counter()
        try:
            out = op(item)
        except Exception as exc:  # a failed operation is counted, not fatal
            out = exc
        t1 = time.perf_counter()
        if latencies is not None:
            latencies.append(t1 - t0 - ((speed.stolen if speed else 0.0) - stolen))
        records.append(digest(item, out))
        del out
    return records


def tail(sorted_values) -> tuple[float, float]:
    """(value, percentile): the highest percentile with ten samples beyond it.

    With n samples that is the 11th largest, percentile 100 (n - 10) / n; with
    fewer than 11 samples it is the maximum, reported as percentile 100.
    """
    n = len(sorted_values)
    if n < 11:
        return sorted_values[-1], 100.0
    return sorted_values[n - 11], 100.0 * (n - 10) / n


def _accuracy(verdicts) -> dict[str, float]:
    return {
        "max_rel_err": max(v.rel_err for v in verdicts),
        "worst_check_margin": max(v.margin for v in verdicts),
    }


def _probe(wl) -> dict:
    probe = Tally()
    items = wl.probe_items()
    for item, record in zip(items, run_unit(wl, items)):
        probe.add(wl.check(item, record))
    return {"attempted": probe.attempted, "failed": probe.failed, "groups": probe.groups, "first_failures": probe.failures}


def untraced(wl_cls, seed: int, seconds: float) -> tuple[dict, dict, Tally]:
    """Time whole units until ``seconds`` of operation time (at least one unit)."""
    cold, bare = cold_start(wl_cls.name, seed)
    wl = wl_cls(seed)
    tally = Tally()
    latencies = array("d")
    units = []  # (start, end, wall less sampling, index of the unit's first latency)
    measured = 0.0
    with SpeedSampler() as speed:
        while not units or measured < seconds:
            items = wl.next_unit()
            first = len(latencies)
            stolen = speed.stolen
            t0 = time.perf_counter()
            records = run_unit(wl, items, latencies, speed)
            t1 = time.perf_counter()
            wall = t1 - t0 - (speed.stolen - stolen)
            measured += wall
            units.append((t0, t1, wall, first))
            verdicts = [wl.check(item, record) for item, record in zip(items, records)]
            for v in verdicts:
                tally.add(v)
            if len(units) == 1:
                accuracy = _accuracy(verdicts)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    walls = []
    for k, (t0, t1, wall, first) in enumerate(units):
        f = speed.factor(t0, t1)
        end = units[k + 1][3] if k + 1 < len(units) else len(latencies)
        for j in range(first, end):
            latencies[j] *= f
        walls.append(wall * f)
    lat = sorted(latencies)
    tail_value, tail_pct = tail(lat)
    metrics = {
        "setup_s": statistics.median(cold),
        "peak_rss_mb": peak_rss_mb,
        "ops_per_s": len(lat) / sum(walls),
        "latency_p50_us": statistics.median(lat) * 1e6,
        "latency_tail_us": tail_value * 1e6,
        "sweep_s": statistics.median(walls),
    }
    detail = {
        **accuracy,
        "bare_start_s": statistics.median(bare),
        "setup_samples_s": cold,
        "latency_samples": len(lat),
        "latency_tail_percentile": tail_pct,
        "units": len(units),
        "measured_wall_s": measured,
        "wall_ops_per_s": len(lat) / measured,
        "speed_samples": len(speed.seconds),
        "speed_factor": speed.mean_factor(),
        "groups": tally.groups,
    }
    if hasattr(wl, "probe_items"):
        detail["probe"] = _probe(wl)
    return metrics, detail, tally


COUNT_UNITS = ("count", "bytes", "calls/call")


def traced(wl_cls, seed: int, seconds: float) -> tuple[dict, dict, Tally]:
    """Alternate untraced and traced runs of unit 0 for ``seconds``; one of each at least."""
    from tracer import PER_LAYER_UNITS, Tracer

    wl = wl_cls(seed)
    items = wl.next_unit()
    tally = Tally()
    plain_walls, traced_walls, totals, accuracies = [], [], [], []
    first = None
    while not traced_walls or sum(plain_walls) + sum(traced_walls) < seconds:
        tracer = Tracer()
        for walls, context in ((plain_walls, None), (traced_walls, tracer)):
            t0 = time.perf_counter()
            if context is None:
                records = run_unit(wl, items)
            else:
                with context:
                    records = run_unit(wl, items)
            walls.append(time.perf_counter() - t0)
            verdicts = [wl.check(item, record) for item, record in zip(items, records)]
            for v in verdicts:
                tally.add(v)
            accuracies.append(_accuracy(verdicts))
        totals.append(tracer.layer_totals())
        first = first or tracer
    metrics = {}
    for name in totals[0]:
        values = [t[name] for t in totals]
        metrics[name] = values[0] if PER_LAYER_UNITS[name] in COUNT_UNITS else statistics.median(values)
    metrics["trace_overhead"] = statistics.median(traced_walls) / statistics.median(plain_walls)
    metrics.update(accuracies[0])
    # unit 0 ran several times: its counts and its accuracy must repeat exactly
    unsteady = [n for n, u in PER_LAYER_UNITS.items() if u in COUNT_UNITS and any(t[n] != metrics[n] for t in totals)]
    unsteady += [n for n in ACCURACY_UNITS if any(a[n] != metrics[n] for a in accuracies)]
    if unsteady:
        tally.failed += 1
        tally.failures.append(f"identical runs of unit 0 differ in {unsteady}")
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{wl_cls.name}-seed{seed}.tsv.gz"
    first.write_spans(str(spans_path))
    detail = {
        "traced_units": len(traced_walls),
        "spans_per_unit": len(first.fn),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "untraced_unit_s": statistics.median(plain_walls),
        "traced_unit_s": statistics.median(traced_walls),
    }
    return metrics, detail, tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hypmid benchmark")
    parser.add_argument("--workload", required=True, choices=("midpoint-stream", "verify-sweep", "script-corpus"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_kit()
    import reference
    import tracer
    import workloads

    spot = reference.self_check()
    if spot:
        sys.exit("error: reference failed its spot checks: " + "; ".join(spot))
    wl_cls = workloads.WORKLOADS[args.workload]
    if args.trace:
        metrics, detail, tally = traced(wl_cls, args.seed, args.seconds)
        units = {**tracer.PER_LAYER_UNITS, **ACCURACY_UNITS}
    else:
        metrics, detail, tally = untraced(wl_cls, args.seed, args.seconds)
        units = END_TO_END_UNITS
        for name, unit in ACCURACY_UNITS.items():
            print(f"{name:42s} {detail[name]:.6g} {unit}  (unit 0; not a bounded metric)")

    for name, value in metrics.items():
        print(f"{name:42s} {value:.6g} {units[name]}")
    print(f"attempted {tally.attempted}, failed {tally.failed}")
    for note in tally.failures:
        print(f"FAIL {note}")
    print("detail " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark harness; they are not part of the kit's test suite.

Run from the repository root:
    python3 -m pytest -q -p no:cacheprovider perfbench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import shutil
import subprocess
import sys

import pytest

import run

run._import_kit()

import inputs  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from hypmid import sweeps  # noqa: E402
from hypmid.constructions.trace import TraceBuilder  # noqa: E402
from hypmid.geom2d import Point2  # noqa: E402


def test_reference_passes_spot_checks():
    assert reference.self_check() == []


def test_same_seed_gives_identical_inputs():
    first = list(itertools.islice(inputs.pair_stream(5), 2000))
    assert first == list(itertools.islice(inputs.pair_stream(5), 2000))
    assert first != list(itertools.islice(inputs.pair_stream(6), 2000))
    assert len({(p.x, p.y) for p in first}) == len(first)
    probe = list(itertools.islice(inputs.pair_stream("5/probe", inputs.PROBE_KINDS), 200))
    assert probe == list(itertools.islice(inputs.pair_stream("5/probe", inputs.PROBE_KINDS), 200))

    def jobs(seed):
        return [(j.name, j.bind, j.expected) for j in workloads.ScriptCorpus(seed).next_unit()]

    assert jobs(5) == jobs(5)
    assert jobs(5) != jobs(6)


def _repeatable(metrics: dict) -> dict:
    counts = run.COUNT_UNITS
    return {k: v for k, v in metrics.items() if k in run.ACCURACY_UNITS or tracer.PER_LAYER_UNITS.get(k) in counts}


@pytest.mark.parametrize("name", ["midpoint-stream", "script-corpus", "verify-sweep"])
def test_fixed_seed_repeats_accuracy_and_counts(name):
    metrics, _, tally = run.traced(workloads.WORKLOADS[name], 3, 0.0)
    assert tally.failed == 0, tally.failures
    again, _, _ = run.traced(workloads.WORKLOADS[name], 3, 0.0)
    assert _repeatable(metrics) == _repeatable(again)
    assert metrics["max_rel_err"] > 0.0 and metrics["worst_check_margin"] > 0.0


def _bindings() -> dict:
    snapshot = {("TraceBuilder", "finish"): TraceBuilder.finish}
    for mod_name, module in list(sys.modules.items()):
        if not (mod_name == "hypmid" or mod_name.startswith("hypmid.")):
            continue
        for key, value in vars(module).items():
            if callable(value):
                snapshot[(mod_name, key)] = value
            elif type(value) is dict:
                for dkey, dvalue in value.items():
                    if callable(dvalue):
                        snapshot[(mod_name, key, dkey)] = dvalue
    return snapshot


def test_traced_run_restores_every_original():
    before = _bindings()
    wl = workloads.MidpointStream(1)
    with tracer.Tracer() as t:
        wrapped = [k for k, v in _bindings().items() if v is not before[k]]
        for item in wl.next_unit()[:20]:
            wl.op(item)
    assert len(wrapped) > 50
    assert ("hypmid.constructions.disk", "rho_disk") in wrapped  # a copied name
    assert ("hypmid.constructions.dispatch", "H2_METHODS", "III") in wrapped  # a dict entry
    assert len(t.fn) > 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []

    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            raise RuntimeError("interrupted traced run")
    assert all(v is before[k] for k, v in _bindings().items())


def test_perturbed_output_counts_as_failed():
    wl = workloads.MidpointStream(2)
    item = wl.next_unit()[0]
    z, distance, flagged, method = wl.digest(item, wl.op(item))
    assert not wl.check(item, (z, distance, flagged, method)).failed
    assert wl.check(item, ((z[0] + 1e-6, z[1]), distance, flagged, method)).failed
    assert wl.check(item, RuntimeError("raised")).failed

    corpus = workloads.ScriptCorpus(2)
    job = corpus.next_unit()[0]
    out = corpus.op(job)
    assert not corpus.check(job, out).failed
    program, text, reparsed, text_again, result, svg = out
    (name, value), = result.outputs
    moved = dataclasses.replace(result, outputs=((name, Point2(value.x1 + 1e-6, value.x2)),))
    assert corpus.check(job, (program, text, reparsed, text_again, moved, svg)).failed
    assert corpus.check(job, (program, text, reparsed, text_again + "# edit\n", result, svg)).failed

    cfg = sweeps.SweepConfig(samples=10, seed=2)
    good = sweeps.CheckResult("agreement", 10, 1e-12, cfg.tolerance, True)
    bad = sweeps.CheckResult("identity", 10, 2e-9, 1e-9, False)
    assert not workloads.VerifySweep.check(cfg, [good]).failed
    assert workloads.VerifySweep.check(cfg, [good, bad]).failed


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {**tracer.PER_LAYER_UNITS, **run.ACCURACY_UNITS}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_exits_nonzero_without_the_kit():
    bare = run.OUT_DIR / "no-kit"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        for path in run.HERE.iterdir():
            if path.is_file():
                shutil.copy(path, bare / "perfbench")
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "midpoint-stream", "--seed", "1", "--seconds", "1"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""

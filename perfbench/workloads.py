"""The three workloads: inputs per unit of work, the operation, the check.

A workload's inputs come in units (1000 stream pairs, one corpus pass of 14
scripts, one suite pass).  ``next_unit()`` builds the next unit from the seed
before it is timed; ``op`` is the one call a caller makes; ``check`` compares one
output with the 50-digit reference or with the kit's own verdicts, after
timing.  Every operation is looked up through a module attribute at call
time, so the tracer's wrappers see it.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from pathlib import Path

import inputs
import reference
from hypmid import constructions, render, script, sweeps
from hypmid.geom2d import Point2
from hypmid.hypmetric import Model

REL_TOL = 1e-8  # the kit's method agreement tolerance, applied as relative error

CORPUS_DIR = Path(__file__).resolve().parent.parent / "src" / "hypmid" / "corpus"

_BRANCH_METHOD = {
    ("b2", "I"): "b2-I",
    ("b2", "case1"): "b2-case1",
    ("b2", "equal"): "b2-equal-moduli",
    ("h2", "III"): "h2-III",
    ("h2", "case1"): "h2-case1",
}


@dataclass
class Verdict:
    """Outcome of checking one operation's output."""

    group: str  # band/branch, script name, or "suite"
    failed: bool
    rel_err: float  # against the reference (verify-sweep: agreement spread)
    margin: float  # worst residual / threshold of the kit's own checks
    note: str = ""


def _pt(p: Point2) -> tuple[float, float]:
    return (p.x1, p.x2)


def _items(pairs) -> list:
    return [(p, Model(p.model), Point2(*p.x), Point2(*p.y)) for p in pairs]


class MidpointStream:
    """Unique banded pairs, each through ``midpoint(model, x, y, "auto")``."""

    name = "midpoint-stream"
    unit_size = 1000
    probe_size = 600

    def __init__(self, seed: int):
        self.seed = seed
        self._stream = inputs.pair_stream(seed)

    def next_unit(self) -> list:
        return _items(itertools.islice(self._stream, self.unit_size))

    @staticmethod
    def op(item):
        _, model, x, y = item
        return constructions.midpoint(model, x, y, "auto")

    @staticmethod
    def digest(item, out):
        # keep only what the check reads, so no result outlives its operation
        if isinstance(out, Exception):
            return out
        return _pt(out.z), out.oracle_distance, out.oracle_disagrees(), out.trace.method_id

    @staticmethod
    def check(item, record) -> Verdict:
        pair = item[0]
        group = f"{pair.model}/{pair.band}/{pair.branch}"
        if isinstance(record, Exception):
            return Verdict(group, True, float("inf"), float("inf"), f"{pair}: {record!r}")
        z, oracle_distance, flagged, method_id = record
        err = reference.rel_err(pair.model, z, reference.midpoint(pair.model, pair.x, pair.y))
        notes = []
        if err > REL_TOL:
            notes.append(f"relative error {err:.3e}")
        if flagged:
            notes.append(f"oracle flag {oracle_distance:.3e}")
        if method_id != _BRANCH_METHOD[(pair.model, pair.branch)]:
            notes.append(f"auto chose {method_id}")
        failed = bool(notes)
        margin = oracle_distance / constructions.ORACLE_FLAG_THRESHOLD
        return Verdict(group, failed, err, margin, f"{pair}: " + "; ".join(notes) if failed else "")

    def probe_items(self) -> list:
        """The hard bands with known defects, run apart from the timed stream."""
        pairs = itertools.islice(inputs.pair_stream(f"{self.seed}/probe", inputs.PROBE_KINDS), self.probe_size)
        return _items(pairs)


def _point_literals(source: str) -> dict[str, tuple[float, float]]:
    return {
        m.group(1): (float(m.group(2)), float(m.group(3)))
        for m in re.finditer(r"^point (\w+) = \(([^,]+), ([^)]+)\)", source, re.MULTILINE)
    }


@dataclass
class ScriptJob:
    name: str
    model: Model
    source: str
    bind: dict  # name -> Point2
    output: str
    expected: tuple[float, float]


class ScriptCorpus:
    """Every corpus script through parse, format round-trip, evaluate, render."""

    name = "script-corpus"
    probe_rounds = 60

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = random.Random(f"{seed}/scripts")
        self._sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(CORPUS_DIR.glob("*.hgc"))}

    def _job(self, name: str, source: str, rng: random.Random, probe: bool = False) -> ScriptJob:
        model = Model(name[:2])
        points = _point_literals(source)
        bind = inputs.script_binding(rng, name, probe)
        points.update(bind)
        output = re.search(r"^output (\w+)", source, re.MULTILINE).group(1)
        if name == "b2_chain":
            expected = reference.chain_point_b2(points["x1"], 2)
        else:
            expected = reference.midpoint(model.value, points["x"], points["y"])
        if bind and "zexp" in points:
            bind["zexp"] = expected
        return ScriptJob(name, model, source, {k: Point2(*v) for k, v in bind.items()}, output, expected)

    def next_unit(self) -> list:
        return [self._job(name, src, self._rng) for name, src in self._sources.items()]

    def probe_items(self) -> list:
        """Disk method scripts bound at the narrow margins, apart from the timed stream."""
        rng = random.Random(f"{self.seed}/script-probe")
        return [
            self._job(name, self._sources[name], rng, probe=True)
            for _ in range(self.probe_rounds)
            for name in inputs.PROBE_SCRIPTS
        ]

    @staticmethod
    def digest(job, out):
        return out

    @staticmethod
    def op(job: ScriptJob):
        program = script.parse(job.source)
        text = script.format_program(program)
        reparsed = script.parse(text)
        text_again = script.format_program(reparsed)
        result = script.evaluate(program, bind=job.bind)
        svg = render.render_script_result(job.model, result.bindings, result.outputs)
        return program, text, reparsed, text_again, result, svg

    @staticmethod
    def check(job: ScriptJob, out) -> Verdict:
        if isinstance(out, Exception):
            return Verdict(job.name, True, float("inf"), float("inf"), f"{job.name} {job.bind}: {out!r}")
        program, text, reparsed, text_again, result, svg = out
        notes = []
        if reparsed != program or text_again != text:
            notes.append("format round-trip changed the program")
        bad = [a for a in result.assertions if not a.passed]
        if bad:
            notes.append("failed assertions: " + ", ".join(f"line {a.line} {a.text} ({a.residual:.3e})" for a in bad))
        if not (svg.startswith("<svg") or svg.startswith("<?xml")) or not svg.rstrip().endswith("</svg>"):
            notes.append("render did not produce an SVG document")
        outputs = dict(result.outputs)
        value = outputs.get(job.output)
        if isinstance(value, Point2):
            err = reference.rel_err(job.model.value, _pt(value), job.expected)
        else:
            err = float("inf")
        if err > REL_TOL:
            notes.append(f"output {job.output} relative error {err:.3e}")
        margin = max((abs(a.residual) / a.tolerance for a in result.assertions), default=0.0)
        failed = bool(notes)
        binding = {k: _pt(v) for k, v in job.bind.items()}
        return Verdict(job.name, failed, err, margin, f"{job.name} {binding}: " + "; ".join(notes) if failed else "")


class VerifySweep:
    """One pass of ``run_suite("all", SweepConfig(samples=1000, seed))``.

    Pass i samples with seed + i, so no pass repeats another's pairs.
    """

    name = "verify-sweep"
    samples = 1000

    def __init__(self, seed: int):
        self._seeds = itertools.count(seed)

    def next_unit(self) -> list:
        return [sweeps.SweepConfig(samples=self.samples, seed=next(self._seeds))]

    @staticmethod
    def digest(cfg, out):
        return out

    @staticmethod
    def op(cfg):
        return sweeps.run_suite("all", cfg)

    @staticmethod
    def check(cfg, out) -> Verdict:
        if isinstance(out, Exception):
            return Verdict("suite", True, float("inf"), float("inf"), f"seed {cfg.seed}: {out!r}")

        def ratio(r):
            if r.threshold > 0.0:
                return r.max_residual / r.threshold
            return 0.0 if r.max_residual == 0.0 else float("inf")

        failed = [r for r in out if not r.passed]
        # midpoints of independent methods, the oracle and the closed forms,
        # compared at unit scale (the b2 reading of relative error)
        spread = max(r.max_residual for r in out if r.threshold == cfg.tolerance)
        margin = max(ratio(r) for r in out)
        note = f"seed {cfg.seed}: " + "; ".join(r.line() for r in failed) if failed else ""
        return Verdict("suite", bool(failed), spread, margin, note)


WORKLOADS = {w.name: w for w in (MidpointStream, VerifySweep, ScriptCorpus)}

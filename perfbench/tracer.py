"""Per-layer tracing from outside the kit, by wrapping its public functions.

:class:`Tracer` replaces each traced function by a timing wrapper in every
``hypmid`` namespace that bound it (modules copy names in with ``from .x
import f``, and ``dispatch.H2_METHODS`` holds method objects in a dict), and
puts every original back on exit.  Each call becomes a span ``(function,
start, end, parent)`` kept in flat arrays; self time is a span's duration
minus the durations of its direct children, which do not overlap because the
kit is single-threaded.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array

# layer -> (module, public functions that make up the layer)
LAYERS = {
    "hypmetric.oracle": ("hypmid.hypmetric", ("midpoint_oracle",)),
    "hypmetric.rho": ("hypmid.hypmetric", ("rho_disk", "rho_halfplane")),
    "hypmetric.geodesic_of": ("hypmid.hypmetric", ("geodesic_of",)),
    "hypmetric.closed_form": (
        "hypmid.hypmetric",
        (
            "midpoint_disk_angles",
            "midpoint_halfplane_unitcircle",
            "ortho_circle_through",
            "projection_pr",
            "rho_disk_arc",
            "rho_via_cross_ratio",
        ),
    ),
    "constructions.dispatch": ("hypmid.constructions.dispatch", ("midpoint",)),
    "constructions.b2": (
        "hypmid.constructions.disk",
        ("b2_case1", "b2_equal_moduli", "b2_method_I", "b2_methods_II_to_VI", "bisector_circle", "scale_sequence"),
    ),
    "constructions.h2": (
        "hypmid.constructions.halfplane",
        ("h2_case1", "h2_method_I", "h2_method_II", "h2_method_III", "h2_method_IV"),
    ),
    "constructions.reports": (
        "hypmid.constructions.reports",
        ("lemma31_report", "lemma46_report", "prop47_report", "prop48_orthogonality", "semicircle_residual"),
    ),
    "moebius.absolute_ratio": ("hypmid.moebius", ("absolute_ratio",)),
    "geom2d.construct": (
        "hypmid.geom2d",
        (
            "circle_on_diameter",
            "circle_through",
            "invert_in_circle",
            "invert_unit",
            "line_through",
            "perpendicular_through",
            "reflect_in_line",
        ),
    ),
    "geom2d.intersect": ("hypmid.geom2d", ("intersect_circle_circle", "intersect_line_circle", "intersect_line_line")),
    "geom2d.predicate": (
        "hypmid.geom2d",
        (
            "circles_orthogonal",
            "collinear",
            "is_on",
            "line_circle_orthogonal",
            "line_tangent_to_circle",
            "lines_orthogonal",
        ),
    ),
    "script.parse": ("hypmid.script", ("parse",)),
    "script.format": ("hypmid.script", ("format_program",)),
    "script.evaluate": ("hypmid.script", ("evaluate",)),
    "render": ("hypmid.render", ("render_objects", "render_script_result", "render_trace")),
}

# every check_* function of the sweeps, timed inclusively
SWEEP_CHECKS = (
    "check_b2_concurrency",
    "check_b2_identities",
    "check_case1_constructions",
    "check_h2_concurrency",
    "check_h2_identities",
    "check_metric_agreement",
    "check_projection",
    "check_prop47",
    "check_prop48_sweep",
    "check_scale_chain",
)

_CALLS_AND_SELF = (
    "hypmetric.oracle",
    "hypmetric.rho",
    "hypmetric.geodesic_of",
    "hypmetric.closed_form",
    "constructions.b2",
    "constructions.h2",
    "constructions.reports",
    "moebius.absolute_ratio",
    "geom2d.construct",
    "geom2d.intersect",
    "geom2d.predicate",
)
_SELF_ONLY = ("constructions.dispatch", "script.parse", "script.format", "script.evaluate", "render")
_COUNTERS = ("constructions.trace.steps", "script.parse.lines", "render.svg_bytes")

# metric name -> unit; trace_overhead is added by the harness
PER_LAYER_UNITS = {}
for _layer in _CALLS_AND_SELF:
    PER_LAYER_UNITS[f"{_layer}.calls"] = "count"
    PER_LAYER_UNITS[f"{_layer}.self_s"] = "s"
PER_LAYER_UNITS["hypmetric.oracle.rho_per_call"] = "calls/call"
for _layer in _SELF_ONLY:
    PER_LAYER_UNITS[f"{_layer}.self_s"] = "s"
PER_LAYER_UNITS["constructions.trace.steps"] = "count"
PER_LAYER_UNITS["script.parse.lines"] = "count"
PER_LAYER_UNITS["render.svg_bytes"] = "bytes"
for _check in SWEEP_CHECKS:
    PER_LAYER_UNITS[f"sweeps.{_check}.wall_s"] = "s"
PER_LAYER_UNITS["trace_overhead"] = "ratio"


class Tracer:
    """Wraps on enter and restores on exit; holds the spans of what ran inside.

    Use a fresh Tracer for each traced unit of work::

        with Tracer() as tracer:
            run_unit()
        totals = tracer.layer_totals()
    """

    def __init__(self):
        self.names: list[str] = []  # function id -> "module.function"
        self.layer_of: list[str] = []  # function id -> layer, or sweeps.<check>
        self.fn = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.counters = dict.fromkeys(_COUNTERS, 0)
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []  # (namespace, key, original)

    # -- wrapping ------------------------------------------------------------

    def _wrapper(self, fid: int, fn, on_args=None, on_result=None):
        fids, starts, ends, parents, stack = self.fn, self.start, self.end, self.parent, self._stack
        layer_of, clock = self.layer_of, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(fids)
            parent = stack[-1]
            fids.append(fid)
            parents.append(parent)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            if on_args is not None:
                on_args(args)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            # count results once per layer entry, not again for nested calls
            if on_result is not None and (parent < 0 or layer_of[fids[parent]] != layer_of[fid]):
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch_everywhere(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "hypmid" or mod_name.startswith("hypmid.")):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    self._patched.append((namespace, key, original))
                    namespace[key] = replacement
                elif type(value) is dict:
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            self._patched.append((value, dkey, original))
                            value[dkey] = replacement

    def _add(self, module_name: str, func_name: str, layer: str, **hooks) -> None:
        original = getattr(sys.modules[module_name], func_name)
        fid = len(self.names)
        self.names.append(f"{module_name}.{func_name}")
        self.layer_of.append(layer)
        self._patch_everywhere(original, self._wrapper(fid, original, **hooks))

    def _parsed(self, args) -> None:
        self.counters["script.parse.lines"] += len(args[0].splitlines())

    def _rendered(self, svg: str) -> None:
        self.counters["render.svg_bytes"] += len(svg.encode("utf-8"))

    def __enter__(self) -> "Tracer":
        # load every module whose namespace may hold a traced function
        import hypmid.cli  # noqa: F401
        from hypmid.constructions.trace import TraceBuilder

        try:
            for layer, (module_name, funcs) in LAYERS.items():
                hooks = {}
                if layer == "script.parse":
                    hooks["on_args"] = self._parsed
                elif layer == "render":
                    hooks["on_result"] = self._rendered
                for func_name in funcs:
                    self._add(module_name, func_name, layer, **hooks)
            for check in SWEEP_CHECKS:
                self._add("hypmid.sweeps", check, f"sweeps.{check}")

            # every construction trace is sealed by TraceBuilder.finish
            finish = TraceBuilder.finish
            counters = self.counters

            def counted_finish(builder, *args, **kwargs):
                trace = finish(builder, *args, **kwargs)
                counters["constructions.trace.steps"] += len(trace.steps)
                return trace

            counted_finish.__wrapped__ = finish
            self._patched.append((TraceBuilder, "finish", finish))
            TraceBuilder.finish = counted_finish
        except BaseException:
            self._restore()
            raise
        return self

    def _restore(self) -> None:
        for namespace, key, original in reversed(self._patched):
            if isinstance(namespace, type):
                setattr(namespace, key, original)
            else:
                namespace[key] = original
        self._patched.clear()

    def __exit__(self, *exc) -> None:
        self._restore()

    # -- analysis ------------------------------------------------------------

    def layer_totals(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded so far (all but trace_overhead)."""
        n = len(self.fn)
        child_ns = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        calls: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        wall_ns: dict[str, int] = {}
        oracle_rho = 0
        for i in range(n):
            layer = self.layer_of[self.fn[i]]
            dur = self.end[i] - self.start[i]
            calls[layer] = calls.get(layer, 0) + 1
            self_ns[layer] = self_ns.get(layer, 0) + dur - child_ns[i]
            wall_ns[layer] = wall_ns.get(layer, 0) + dur
            p = self.parent[i]
            if layer == "hypmetric.rho" and p >= 0 and self.layer_of[self.fn[p]] == "hypmetric.oracle":
                oracle_rho += 1
        out: dict[str, float] = {}
        for layer in _CALLS_AND_SELF:
            out[f"{layer}.calls"] = calls.get(layer, 0)
            out[f"{layer}.self_s"] = self_ns.get(layer, 0) / 1e9
        oracle_calls = calls.get("hypmetric.oracle", 0)
        out["hypmetric.oracle.rho_per_call"] = oracle_rho / oracle_calls if oracle_calls else 0.0
        for layer in _SELF_ONLY:
            out[f"{layer}.self_s"] = self_ns.get(layer, 0) / 1e9
        out.update(self.counters)
        for check in SWEEP_CHECKS:
            out[f"sweeps.{check}.wall_s"] = wall_ns.get(f"sweeps.{check}", 0) / 1e9
        return out

    def write_spans(self, path: str) -> None:
        """Write the spans as gzipped TSV: index, function, start_ns, end_ns, parent."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index\tfunction\tstart_ns\tend_ns\tparent\n")
            for i in range(len(self.fn)):
                fh.write(f"{i}\t{self.names[self.fn[i]]}\t{self.start[i]}\t{self.end[i]}\t{self.parent[i]}\n")

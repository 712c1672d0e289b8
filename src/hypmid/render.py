"""Deterministic SVG rendering of construction traces and script results.

Output is plain SVG 1.1 text with floats fixed to 9 significant digits, so a
render is byte-identical for identical inputs.  The vertical axis is flipped
to mathematical orientation (noted in the header comment of every file).
"""

from __future__ import annotations

import math

from .geom2d import Circle2, Line2, Point2, Slotted
from .hypmetric import Geodesic, Model
from .constructions.trace import ConstructionTrace

DEFAULT_STYLES = {
    "boundary": "stroke:#333333;stroke-width:1.6;fill:none",
    "carrier": "stroke:#1f77b4;stroke-width:1.4;fill:none",
    "line": "stroke:#888888;stroke-width:0.9;fill:none",
    "circle": "stroke:#2ca02c;stroke-width:0.9;fill:none;stroke-dasharray:4 3",
    "point": "fill:#444444;stroke:none",
    "input": "fill:#d62728;stroke:none",
    "result": "fill:#9467bd;stroke:#9467bd",
    "label": "font-family:monospace;font-size:11px;fill:#222222",
}


class RenderSpec(Slotted):
    """Canvas size and labelling for one figure; the viewport fits its objects."""

    __slots__ = ("width", "height", "labels")

    def __init__(self, width: int = 640, height: int = 640, labels: bool = True):
        if width <= 0 or height <= 0:
            raise ValueError(f"canvas must be positive, got {width}x{height}")
        self.width = width
        self.height = height
        self.labels = labels


def _f(v: float) -> str:
    out = f"{v:.9g}"
    return "0" if out == "-0" else out


class _Canvas:
    def __init__(self, spec: RenderSpec, viewport):
        self.spec = spec
        self.xmin, self.xmax, self.ymin, self.ymax = viewport
        self.scale = min(spec.width / (self.xmax - self.xmin), spec.height / (self.ymax - self.ymin))
        self.elems: list[str] = []

    def to_px(self, p: Point2) -> tuple[float, float]:
        return ((p.x1 - self.xmin) * self.scale, self.spec.height - (p.x2 - self.ymin) * self.scale)

    def circle(self, c: Circle2, cls: str):
        cx, cy = self.to_px(c.center)
        self.elems.append(
            f'<circle cx="{_f(cx)}" cy="{_f(cy)}" r="{_f(c.radius * self.scale)}" style="{DEFAULT_STYLES[cls]}"/>'
        )

    def segment(self, p: Point2, q: Point2, cls: str):
        (x1, y1), (x2, y2) = self.to_px(p), self.to_px(q)
        self.elems.append(
            f'<line x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" y2="{_f(y2)}" style="{DEFAULT_STYLES[cls]}"/>'
        )

    def line(self, l: Line2, cls: str):
        clipped = self._clip_line(l)
        if clipped is not None:
            self.segment(*clipped, cls)

    def _clip_line(self, l: Line2):
        # intersect {p0 + t d} with the viewport rectangle
        p0 = l.n * l.c
        d = l.direction()
        tlo, thi = -math.inf, math.inf
        for coord, direction, lo, hi in (
            (p0.x1, d.x1, self.xmin, self.xmax),
            (p0.x2, d.x2, self.ymin, self.ymax),
        ):
            if abs(direction) < 1e-15:
                if not (lo <= coord <= hi):
                    return None
                continue
            t1, t2 = (lo - coord) / direction, (hi - coord) / direction
            if t1 > t2:
                t1, t2 = t2, t1
            tlo, thi = max(tlo, t1), min(thi, t2)
        if tlo >= thi:
            return None
        return p0 + d * tlo, p0 + d * thi

    def dot(self, p: Point2, cls: str, r: float = 3.0):
        cx, cy = self.to_px(p)
        self.elems.append(f'<circle cx="{_f(cx)}" cy="{_f(cy)}" r="{_f(r)}" style="{DEFAULT_STYLES[cls]}"/>')

    def text(self, p: Point2, s: str, dx: float = 5.0, dy: float = -5.0):
        cx, cy = self.to_px(p)
        self.elems.append(
            f'<text x="{_f(cx + dx)}" y="{_f(cy + dy)}" style="{DEFAULT_STYLES["label"]}">{_escape(s)}</text>'
        )


def _escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _bounds_of(objects, model: Model) -> tuple[float, float, float, float]:
    if model is Model.DISK:
        lo, hi = -1.25, 1.25
        xmin, xmax, ymin, ymax = lo, hi, lo, hi
    else:
        xmin, xmax, ymin, ymax = -1.0, 1.0, -0.4, 1.5
    for _, value in objects:
        pts = []
        if isinstance(value, Point2):
            pts = [value]
        elif isinstance(value, Circle2):
            c, r = value.center, value.radius
            pts = [c + Point2(r, r), c - Point2(r, r)]
        for p in pts:
            # cap the viewport so far-flung auxiliary points cannot flatten the figure
            if p.norm() > 6.0:
                continue
            xmin, xmax = min(xmin, p.x1 - 0.2), max(xmax, p.x1 + 0.2)
            ymin, ymax = min(ymin, p.x2 - 0.2), max(ymax, p.x2 + 0.2)
    return xmin, xmax, ymin, ymax


def _header(spec: RenderSpec) -> list[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        "<!-- y axis points up (mathematical orientation); generated deterministically -->",
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{spec.width}" height="{spec.height}">',
        f'<rect width="{spec.width}" height="{spec.height}" fill="#ffffff"/>',
    ]


def render_objects(model: Model, objects, result_names, initial_names, spec: RenderSpec) -> str:
    """Render named geometry: the model boundary, carriers, then points on top."""
    objects = list(objects)
    viewport = _bounds_of(objects, model)
    cv = _Canvas(spec, viewport)
    if model is Model.DISK:
        cv.circle(Circle2(Point2(0.0, 0.0), 1.0), "boundary")
    else:
        cv.segment(Point2(viewport[0], 0.0), Point2(viewport[1], 0.0), "boundary")
    for name, value in objects:
        if isinstance(value, Geodesic):
            value = value.carrier
        if isinstance(value, Circle2):
            cv.circle(value, "carrier" if name in ("carrier", "G") else "circle")
            if spec.labels:
                cv.text(value.center + Point2(0.0, value.radius), name, dy=12.0)
        elif isinstance(value, Line2):
            cv.line(value, "line")
    for name, value in objects:
        if not isinstance(value, Point2):
            continue
        if name in result_names:
            cv.dot(value, "result", r=4.5)
        elif name in initial_names:
            cv.dot(value, "input", r=3.5)
        else:
            cv.dot(value, "point", r=2.5)
        if spec.labels:
            cv.text(value, name)
    parts = _header(spec) + cv.elems + ["</svg>"]
    return "\n".join(parts) + "\n"


def render_trace(trace: ConstructionTrace, spec: RenderSpec = RenderSpec()) -> str:
    """Figure of one construction: every recorded object, the result highlighted."""
    objects = [(name, value) for name, value in trace.objects() if not isinstance(value, tuple)]
    labels = {}
    for step in trace.steps:
        labels[step.produces] = step.label
    named = [(labels.get(name, name), value) for name, value in objects if name not in ("unit", "axis")]
    if trace.result_name not in {n for n, _ in objects}:  # a closed form's z is no step
        named.append(("z", trace.result))
        result = {"z"}
    else:
        result = {labels.get(trace.result_name, trace.result_name)}
    initial = {name for name, _ in trace.initial}
    return render_objects(trace.model, named, result, initial, spec)


def render_script_result(model: Model, bindings: dict, outputs, spec: RenderSpec = RenderSpec()) -> str:
    """Figure of an evaluated script: all bindings, outputs highlighted."""
    named = [(n, v) for n, v in bindings.items() if n not in ("unit", "axis", "origin")]
    result = {name for name, _ in outputs}
    return render_objects(model, named, result, set(), spec)

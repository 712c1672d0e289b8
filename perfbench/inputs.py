"""Seeded inputs: banded point pairs for midpoint-stream, bindings for script-corpus.

Every pair carries the band it was drawn from and the ``auto`` branch its
configuration selects, so results can be reported per band.  The same seed
always gives the same pairs, in the same order.

The comfortable band is the region the seeded sweeps sample (moduli gap and
noncollinearity margin >= 1e-3, |x| <= 0.95).  The hard bands reach to the
edges of the admissible domain: |x| up to 1 - 1e-6 (in the timed stream),
and moduli gap down to 1e-9, margin down to 1e-9 and half-plane scales from
1e-6 to 1e6 (in the probe, where the kit has known defects).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

Pt = tuple[float, float]


@dataclass(frozen=True)
class Pair:
    model: str  # "b2" or "h2"
    x: Pt
    y: Pt
    band: str  # "comfortable", "hard-gap", "hard-margin", "hard-boundary", "hard-scale"
    branch: str  # the method ``auto`` picks: "I", "III", "case1" or "equal"


def _log_uniform(rng: random.Random, lo_exp: float, hi_exp: float) -> float:
    return 10.0 ** rng.uniform(lo_exp, hi_exp)


def _polar(r: float, th: float) -> Pt:
    return (r * math.cos(th), r * math.sin(th))


def _margin(x: Pt, y: Pt) -> float:
    return abs(x[0] * y[1] - x[1] * y[0]) / (math.hypot(*x) * math.hypot(*y))


def _generic_b2(rng, rx, ry, min_margin=1e-3):
    # x at modulus rx, y at modulus ry, with |sin(angle at 0)| >= min_margin
    while True:
        th = rng.uniform(0.0, math.tau)
        x, y = _polar(rx, th), _polar(ry, th + rng.uniform(0.0, math.tau))
        if _margin(x, y) >= min_margin:
            return x, y


def _comfortable_modulus(rng) -> float:
    return rng.uniform(0.05, 0.95)


def _b2_moduli(rng) -> tuple[float, float]:
    # two comfortable moduli at least 1e-3 apart
    while True:
        rx, ry = _comfortable_modulus(rng), _comfortable_modulus(rng)
        if abs(rx - ry) >= 1e-3:
            return rx, ry


def _b2_comfortable(rng) -> tuple[Pt, Pt]:
    return _generic_b2(rng, *_b2_moduli(rng))


def _b2_gap(rng) -> tuple[Pt, Pt]:
    rx = rng.uniform(0.05, 0.9)
    return _generic_b2(rng, rx, rx + _log_uniform(rng, -9.0, -3.0))


def _b2_margin(rng) -> tuple[Pt, Pt]:
    rx, ry = _b2_moduli(rng)
    th = rng.uniform(0.0, math.tau)
    delta = math.asin(_log_uniform(rng, -9.0, -3.0))
    if rng.random() < 0.5:
        delta = math.pi - delta
    return _polar(rx, th), _polar(ry, th + rng.choice((-1.0, 1.0)) * delta)


def _boundary_modulus(rng) -> float:
    return 1.0 - _log_uniform(rng, -6.0, -1.3)


def _b2_boundary(rng) -> tuple[Pt, Pt]:
    return _generic_b2(rng, _boundary_modulus(rng), _comfortable_modulus(rng))


def _b2_diameter(rng, tmax_of) -> tuple[Pt, Pt]:
    th = rng.uniform(0.0, math.tau)
    while True:
        t1, t2 = tmax_of(rng) * rng.choice((-1.0, 1.0)), rng.uniform(-0.95, 0.95)
        if abs(t1 - t2) >= 1e-3:
            return _polar(t1, th), _polar(t2, th)


def _b2_equal(rng, r) -> tuple[Pt, Pt]:
    return _generic_b2(rng, r, r)


def _semicircle_angles(rng) -> tuple[float, float]:
    while True:
        a, b = rng.uniform(0.05, math.pi - 0.05), rng.uniform(0.05, math.pi - 0.05)
        if abs(a - b) >= 0.02:
            return a, b


def _h2_circle(rng, scale) -> tuple[Pt, Pt]:
    # two points on a semicircle centered on the real axis, as the sweeps draw them
    o1, r = rng.uniform(-2.0, 2.0), rng.uniform(0.5, 2.5)
    a, b = _semicircle_angles(rng)
    x = (scale * (o1 + r * math.cos(a)), scale * r * math.sin(a))
    y = (scale * (o1 + r * math.cos(b)), scale * r * math.sin(b))
    return x, y


def _h2_vertical(rng, scale) -> tuple[Pt, Pt]:
    x1 = rng.uniform(-2.0, 2.0)
    while True:
        h1, h2 = rng.uniform(0.05, 3.0), rng.uniform(0.05, 3.0)
        if abs(h1 - h2) >= 1e-3:
            return (scale * x1, scale * h1), (scale * x1, scale * h2)


def _h2_scale(rng) -> float:
    return _log_uniform(rng, -6.0, 6.0)


# (model, band, branch, draw).  The stream holds the bands on which every
# auto result is within 1e-8 of the reference and unflagged; the probe holds
# the hard bands with known defects (ROADMAP item 2), reported apart.  No
# record of real midpoint traffic exists to weight the kinds by, so every
# kind has the same share and results are reported per kind.
STREAM_KINDS = (
    ("b2", "comfortable", "I", _b2_comfortable),
    ("b2", "comfortable", "case1", lambda rng: _b2_diameter(rng, lambda r: r.uniform(0.0, 0.95))),
    ("b2", "comfortable", "equal", lambda rng: _b2_equal(rng, _comfortable_modulus(rng))),
    ("h2", "comfortable", "III", lambda rng: _h2_circle(rng, 1.0)),
    ("h2", "comfortable", "case1", lambda rng: _h2_vertical(rng, 1.0)),
    ("b2", "hard-boundary", "I", _b2_boundary),
    ("b2", "hard-boundary", "case1", lambda rng: _b2_diameter(rng, _boundary_modulus)),
    ("b2", "hard-boundary", "equal", lambda rng: _b2_equal(rng, _boundary_modulus(rng))),
)
PROBE_KINDS = (
    ("b2", "hard-gap", "I", _b2_gap),
    ("b2", "hard-margin", "I", _b2_margin),
    ("h2", "hard-scale", "III", lambda rng: _h2_circle(rng, _h2_scale(rng))),
    ("h2", "hard-scale", "case1", lambda rng: _h2_vertical(rng, _h2_scale(rng))),
)


def pair_stream(seed: int | str, kinds=STREAM_KINDS):
    """Endless stream of pairs; each round holds every kind once, in a seeded order.

    Coordinates come from continuous draws of 53-bit floats, so pairs do not
    repeat; the stream keeps no record of past pairs, so its memory does not
    grow with the number of operations a run gets through.
    """
    rng = random.Random(seed)
    order = list(kinds)
    while True:
        rng.shuffle(order)
        for model, band, branch, draw in order:
            x, y = draw(rng)
            yield Pair(model, x, y, band, branch)


# ---------------------------------------------------------------------------
# script-corpus bindings


def _unit_semicircle(rng) -> tuple[Pt, Pt]:
    a, b = _semicircle_angles(rng)
    return _polar(1.0, a), _polar(1.0, b)


def _real_diameter(rng) -> tuple[Pt, Pt]:
    while True:
        t1, t2 = rng.uniform(-0.95, 0.95), rng.uniform(-0.95, 0.95)
        if abs(t1 - t2) >= 1e-3:
            return (t1, 0.0), (t2, 0.0)


def _vertical_with_anchors(rng) -> dict[str, Pt]:
    # h2_case1 also names selector anchors: the right and left crossings of
    # the two compass circles and a point off the vertical line
    x, y = _h2_vertical(rng, 1.0)
    c, mid, span = x[0], (x[1] + y[1]) / 2.0, abs(y[1] - x[1])
    return {"x": x, "y": y, "pr": (c + span, mid), "pl": (c - span, mid), "ar": (c + 2.0 * span, mid)}


# The corpus scripts draw the disk carrier with the generic circle_through(x,
# y, x*), which loses digits on near-straight carriers: at noncollinearity
# margins below 1e-1 some binds of methods II-VI miss the 1e-9 assertions.
# The timed binds keep margin >= 1e-1; margins from the sweeps' 1e-3 floor up
# to 1e-1 are the script probe, reported apart.  Methods III-VI take x_*, y_*
# as the ideal endpoints nearest x and y, which holds when the carrier point
# nearest 0 lies between x and y; an angle of at least 90 degrees at 0 (the
# shipped pair has 90) ensures it.
SCRIPT_MARGIN = 1e-1


def _b2_script_pair(min_angle: float):
    def draw(rng) -> tuple[Pt, Pt]:
        rx, ry = _b2_moduli(rng)
        while True:
            delta = rng.uniform(min_angle, math.pi)
            if math.sin(delta) >= SCRIPT_MARGIN:
                break
        th = rng.uniform(0.0, math.tau)
        return _polar(rx, th), _polar(ry, th + rng.choice((-1.0, 1.0)) * delta)

    return draw


def _b2_script_probe_pair(min_angle: float):
    def draw(rng) -> tuple[Pt, Pt]:
        rx, ry = _b2_moduli(rng)
        delta = math.asin(_log_uniform(rng, -3.0, -1.0))
        if min_angle > 0.0 or rng.random() < 0.5:  # near-opposite, else near-aligned
            delta = math.pi - delta
        th = rng.uniform(0.0, math.tau)
        return _polar(rx, th), _polar(ry, th + rng.choice((-1.0, 1.0)) * delta)

    return draw


# scripts that are generic in x, y: name -> draw of the point literals to bind
_GENERIC = {
    "b2_method_i": _b2_script_pair(0.0),
    "b2_method_ii": _b2_script_pair(0.0),
    **{f"b2_method_{m}": _b2_script_pair(math.pi / 2.0) for m in ("iii", "iv", "v", "vi")},
    "b2_equal_moduli": lambda rng: _b2_equal(rng, _comfortable_modulus(rng)),
    "b2_case1": _real_diameter,
    "h2_case1": _vertical_with_anchors,
    "h2_method_iii": _unit_semicircle,
}
_PROBE = {
    "b2_method_i": _b2_script_probe_pair(0.0),
    "b2_method_ii": _b2_script_probe_pair(0.0),
    **{f"b2_method_{m}": _b2_script_probe_pair(math.pi / 2.0) for m in ("iii", "iv", "v", "vi")},
}

PROBE_SCRIPTS = tuple(sorted(_PROBE))


def script_binding(rng: random.Random, name: str, probe: bool = False) -> dict[str, Pt]:
    """Point literals to rebind in corpus script ``name`` (empty: run as shipped)."""
    draw = (_PROBE if probe else _GENERIC).get(name)
    if draw is None:
        return {}
    drawn = draw(rng)
    return drawn if isinstance(drawn, dict) else {"x": drawn[0], "y": drawn[1]}

"""Independent 50-digit reference midpoints, sharing no code with hypmid.

Disk (b2): the Moebius map phi_x(z) = (z - x) / (1 - conj(x) z) is a disk
isometry sending x to 0.  The image w = phi_x(y) lies on a diameter, where
the midpoint of [0, w] is tanh(artanh|w| / 2) w/|w|; mapping back with
phi_x^{-1}(m) = (m + x) / (1 + conj(x) m) gives the midpoint of [x, y].

Half-plane (h2): the Cayley map C(z) = (z - i) / (z + i) is an isometry onto
the disk, so the half-plane midpoint is C^{-1}(mid_b2(C x, C y)), with
C^{-1}(w) = i (1 + w) / (1 - w).

Inputs and outputs are plain ``(x1, x2)`` float tuples.
"""

from __future__ import annotations

import mpmath

DIGITS = 50

_ctx = mpmath.MPContext()
_ctx.dps = DIGITS


def _disk_midpoint(x, y):
    w = (y - x) / (1 - _ctx.conj(x) * y)
    r = abs(w)
    m = w * (_ctx.tanh(_ctx.atanh(r) / 2) / r)
    return (m + x) / (1 + _ctx.conj(x) * m)


def midpoint_b2(x: tuple[float, float], y: tuple[float, float]) -> tuple[float, float]:
    """Hyperbolic midpoint of x and y in the unit disk, rounded to floats."""
    m = _disk_midpoint(_ctx.mpc(*x), _ctx.mpc(*y))
    return float(m.real), float(m.imag)


def midpoint_h2(x: tuple[float, float], y: tuple[float, float]) -> tuple[float, float]:
    """Hyperbolic midpoint of x and y in the upper half-plane, rounded to floats."""
    i = _ctx.mpc(0, 1)
    zx, zy = _ctx.mpc(*x), _ctx.mpc(*y)
    m = _disk_midpoint((zx - i) / (zx + i), (zy - i) / (zy + i))
    z = i * (1 + m) / (1 - m)
    return float(z.real), float(z.imag)


def midpoint(model: str, x: tuple[float, float], y: tuple[float, float]) -> tuple[float, float]:
    """Reference midpoint for model ``"b2"`` or ``"h2"``."""
    if model == "b2":
        return midpoint_b2(x, y)
    if model == "h2":
        return midpoint_h2(x, y)
    raise ValueError(f"model must be 'b2' or 'h2', got {model!r}")


def chain_point_b2(x1: tuple[float, float], k: int) -> tuple[float, float]:
    """X_k on the ray through X_1 with rho(0, X_k) = k rho(0, X_1)."""
    p = _ctx.mpc(*x1)
    r = abs(p)
    q = p * (_ctx.tanh(k * _ctx.atanh(r)) / r)
    return float(q.real), float(q.imag)


def rel_err(model: str, z: tuple[float, float], ref: tuple[float, float]) -> float:
    """Relative error of z against ref.

    On h2 the error is relative to |ref|.  On b2 it is relative to the disk
    radius 1, i.e. the Euclidean distance, so a midpoint at the origin is
    measured like any other.
    """
    d = abs(complex(*z) - complex(*ref))
    if model == "h2":
        return d / abs(complex(*ref))
    return d


def self_check() -> list[str]:
    """Spot values the reference must reproduce to 1e-12; returns failures."""
    cases = [
        ("h2", (0.0, 1.0), (0.0, 4.0), (0.0, 2.0)),
        ("b2", (0.0, 0.0), (0.8, 0.0), (0.5, 0.0)),
        # chain: |X_2| = tanh(2 artanh 1/2) = 4/5
        ("chain", (0.5, 0.0), 2, (0.8, 0.0)),
    ]
    bad = []
    for model, x, y, want in cases:
        got = chain_point_b2(x, y) if model == "chain" else midpoint(model, x, y)
        if abs(complex(*got) - complex(*want)) > 1e-12:
            bad.append(f"{model} {x} {y}: got {got}, want {want}")
    return bad

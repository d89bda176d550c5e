"""Adaptive Simpson quadrature, the independent oracle for every closed
form that is defined as an integral. Self-contained on purpose: the
closed forms must never be checked against code that shares their
implementation."""

from __future__ import annotations

import math


def _simpson(f, a, fa, b, fb, m, fm):
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive(f, a, fa, b, fb, m, fm, whole, tol, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = _simpson(f, a, fa, m, fm, lm, flm)
    right = _simpson(f, m, fm, b, fb, rm, frm)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    return (_adaptive(f, a, fa, m, fm, lm, flm, left, tol / 2.0, depth - 1)
            + _adaptive(f, m, fm, b, fb, rm, frm, right, tol / 2.0, depth - 1))


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-12, depth: int = 48) -> float:
    m = 0.5 * (a + b)
    fa, fb, fm = f(a), f(b), f(m)
    whole = _simpson(f, a, fa, b, fb, m, fm)
    return _adaptive(f, a, fa, b, fb, m, fm, whole, tol, depth)


def gaussian_weighted_integral(f, mean: float, sigma: float, tol: float = 1e-12) -> float:
    """Integral of f over (mean - 40 sigma, mean + 40 sigma), split at 0
    (integrands here may be kinked there) and panelized to width <= sigma
    so no panel's initial probes can straddle the Gaussian bump and
    terminate on spurious zeros. Omitted tails are below 1e-300 for the
    Gaussian-decay integrands this serves."""
    lo = mean - 40.0 * sigma
    hi = mean + 40.0 * sigma
    cuts = {lo, hi}
    if lo < 0.0 < hi:
        cuts.add(0.0)
    edges = sorted(cuts)
    panels = []
    for a, b in zip(edges, edges[1:]):
        n = max(1, math.ceil((b - a) / sigma))
        step = (b - a) / n
        panels.extend((a + i * step, a + (i + 1) * step) for i in range(n))
    per_panel_tol = tol / len(panels)
    return sum(adaptive_simpson(f, a, b, tol=per_panel_tol) for a, b in panels)


def heat_kernel(s: float, t: float) -> float:
    """Fundamental solution of the backward heat equation, variance -t.

    Phi(s, t) = exp(s^2 / (2t)) / sqrt(-2 pi t), defined for t < 0 only.
    """
    if t >= 0.0:
        raise ValueError(f"heat_kernel requires t < 0, got t={t}")
    return math.exp(s * s / (2.0 * t)) / math.sqrt(-2.0 * math.pi * t)


def heat_kernel_mass(t: float, tol: float = 1e-12) -> float:
    """Quadrature of the heat kernel over the real line (should be 1)."""
    return gaussian_weighted_integral(lambda s: heat_kernel(s, t), 0.0, math.sqrt(-t), tol=tol)

"""Closed-form solutions of the two parabolic value equations.

The regret equation u_t + eps*u_xr + eps*u_xh + (1/2)(u_xrxr + u_xhxh)
+ eps^2*u_xhxr = q with q = +-eps by the sign of xi_r, terminal payoff
mu; and its pseudoregret analogue u_t + eps*u_xr + (1/2)u_xrxr = qbar
with qbar = -2*eps on xi_r < 0, terminal 2*eps*s2.

Solutions split into a smooth part (a drifted heat flow of the terminal
payoff, a folded-normal mean in one effective coordinate) and a steady
layer phi absorbing the source, minus its drifted heat smoothing
phi_hat. The layer family is indexed by a branch constant b: b = 1/eps
is the unique C^1 member, b = 1/(eps - eps^3) trades the kink at
xi_r = 0 for a cancellation of the second-derivative jump against the
drift. phi_hat has an explicit erf/exponential form, obtained by
splitting the defining integral at 0 and using Gaussian moment and
exponential-tilt identities; the tests gate it against adaptive
quadrature of the defining integral.

In xi_r both equations carry d_t + eps d_xr + (1/2) d_xrxr, which maps
xi_r to eps = q - qbar. So the regret layer is the pseudoregret layer
plus xi_r, its smoothing adds the mean xi_r - eps t, and
u_n = bar_u_n + eps t: each regret piece is one line over its twin.
"""

from __future__ import annotations

import math
from math import erf, erfc

from .core import SQRT_PI, SQRT_TWO_PI, check_gap

SMALL_GAP_LIMIT_C = 1.0 / SQRT_PI  # limit of c(gamma) as gamma -> 0
SQRT2 = math.sqrt(2.0)


class ClosedForm:
    """Gap, branch constant b, and derived kappa = 2(1 + eps^2).

    A plain class rather than a dataclass, so that importing `pde` (and
    the closed-form commands) does not load `dataclasses`.
    """

    __slots__ = ("eps", "b")

    def __init__(self, eps: float, b: float) -> None:
        self.eps = check_gap(eps)
        self.b = b

    @property
    def kappa(self) -> float:
        return 2.0 * (1.0 + self.eps * self.eps)

    @classmethod
    def c1(cls, eps: float) -> "ClosedForm":
        """The C^1 member, b = 1/eps."""
        if eps <= 0.0:
            raise ValueError(f"C1 branch needs eps > 0, got {eps}")
        return cls(eps=eps, b=1.0 / eps)

    @classmethod
    def c0(cls, eps: float) -> "ClosedForm":
        """The C^0 member, b = 1/(eps - eps^3).

        It keeps a slope jump at xi_r = 0, and b is the value at which the
        jumps there satisfy (1/2)[phi'] + (eps/4)[phi''] = 0.
        """
        if eps <= 0.0:
            raise ValueError(f"C0 branch needs eps > 0, got {eps}")
        return cls(eps=eps, b=1.0 / (eps - eps**3))

    @classmethod
    def make(cls, branch: str, eps: float) -> "ClosedForm":
        if branch == "C1":
            return cls.c1(eps)
        if branch == "C0":
            return cls.c0(eps)
        raise ValueError(f"branch must be 'C1' or 'C0', got {branch!r}")


def _require_negative_t(t: float) -> None:
    if t >= 0.0:
        raise ValueError(f"closed forms are defined for t < 0 only, got t={t}")


def folded_normal_mean(x: float) -> float:
    """E|x + Z| for standard normal Z: sqrt(2/pi) e^{-x^2/2} + x erf(x/sqrt2)."""
    return math.sqrt(2.0 / math.pi) * math.exp(-0.5 * x * x) + x * erf(x / SQRT2)


def _normal_cdf(x: float) -> float:
    return 0.5 * erfc(-x / SQRT2)


def _normal_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / SQRT_TWO_PI


def _exp_times_normal_cdf(c: float, w: float) -> float:
    """exp(c) * NormalCDF(w) without inf * 0 in the far tails.

    Above w = -37 the cdf is a normal float (>= 5.7e-300), and the one
    caller, `bar_phi_hat`, keeps c < w^2/2 < 684.5 there, so the product
    cannot overflow. Below, the log of the cdf is its Mills-ratio
    expansion to the 105/w^8 term, within 2.5e-13 relative from w = -37 on.
    """
    if w > -37.0:
        return math.exp(c) * _normal_cdf(w)
    r = 1.0 / (w * w)
    series = r * (-1.0 + r * (3.0 + r * (-15.0 + 105.0 * r)))
    return math.exp(c - 0.5 * w * w - math.log(-w * SQRT_TWO_PI) + math.log1p(series))


# ---------------------------------------------------------------------------
# Regret solution u = u_h + phi - phi_hat
# ---------------------------------------------------------------------------

def u_h(eta: float, xi_h: float, xi_r: float, t: float, cf: ClosedForm) -> float:
    """Smooth part: (eta + sqrt(-kappa t) E|z/sqrt(-t) + Z|) / 2.

    z = (xi_r + xi_h - 2 eps t)/sqrt(kappa); converges to the terminal
    payoff as t -> 0^-.
    """
    _require_negative_t(t)
    k = cf.kappa
    z = (xi_r + xi_h - 2.0 * cf.eps * t) / math.sqrt(k)
    return 0.5 * (eta + math.sqrt(-k * t) * folded_normal_mean(z / math.sqrt(-t)))


def phi_fn(xi_r: float, cf: ClosedForm) -> float:
    """Steady source layer bar_phi + xi_r: -xi_r on the left,
    xi_r + b e^{-2 eps xi_r} - b on the right, pinned to phi(0) = 0."""
    return bar_phi(xi_r, cf) + xi_r


def phi_deriv(xi_r: float, cf: ClosedForm, order: int = 1, side: int = 0) -> float:
    """One-sided derivatives of phi; `side` (+1/-1) is required at xi_r = 0."""
    return _bar_phi_deriv(xi_r, cf, order, side) + float(order == 1)


def phi_hat(xi_r: float, t: float, cf: ClosedForm) -> float:
    """Drifted heat smoothing of phi: bar_phi_hat plus E[S] = xi_r - eps t."""
    return bar_phi_hat(xi_r, t, cf) + (xi_r - cf.eps * t)


def u_n(xi_r: float, t: float, cf: ClosedForm) -> float:
    """Non-smooth part phi - phi_hat = bar_u_n + eps t; vanishes as t -> 0^-."""
    return bar_u_n(xi_r, t, cf) + cf.eps * t


def u_total(eta: float, xi_h: float, xi_r: float, t: float, cf: ClosedForm) -> float:
    """Full regret solution u = u_h + phi - phi_hat."""
    return u_h(eta, xi_h, xi_r, t, cf) + u_n(xi_r, t, cf)


def regret_source(xi_r: float, cf: ClosedForm) -> float:
    """Source q = qbar + eps: +eps for xi_r > 0, -eps below."""
    return pseudoregret_source(xi_r, cf) + cf.eps


# ---------------------------------------------------------------------------
# Pseudoregret solution ubar = 2 eps s2 + bar_phi - bar_phi_hat
# ---------------------------------------------------------------------------

def bar_phi(xi_r: float, cf: ClosedForm) -> float:
    """Pseudoregret layer: -2 xi_r on the left, b e^{-2 eps xi_r} - b right."""
    if xi_r <= 0.0:
        return -2.0 * xi_r + 0.0  # +0.0, not -0.0, at the origin
    return cf.b * math.exp(-2.0 * cf.eps * xi_r) - cf.b


def _bar_phi_deriv(xi_r: float, cf: ClosedForm, order: int, side: int) -> float:
    """One-sided derivatives of bar_phi; `side` (+1/-1) is required at xi_r = 0."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if xi_r == 0.0 and side not in (1, -1):
        raise ValueError("phi is kinked at xi_r = 0; pass side=+1 or side=-1")
    if xi_r < 0.0 or (xi_r == 0.0 and side == -1):
        return -2.0 if order == 1 else 0.0
    return cf.b * (-2.0 * cf.eps) ** order * math.exp(-2.0 * cf.eps * xi_r)


def bar_phi_hat(xi_r: float, t: float, cf: ClosedForm) -> float:
    """Drifted heat smoothing of bar_phi, in closed form.

    With S ~ N(m, -t), m = xi_r - eps t: the left piece contributes
    2 E[(-S)^+], and the exponential branch tilts the Gaussian, shifting
    its mean to xi_r + eps t, which gives
    b e^{-2 eps xi_r} NormalCDF((xi_r + eps t)/sqrt(-t)) - b NormalCDF(m/sqrt(-t)).
    """
    _require_negative_t(t)
    sigma = math.sqrt(-t)
    m = xi_r - cf.eps * t
    a = m / sigma
    left = 2.0 * (-m * _normal_cdf(-a) + sigma * _normal_pdf(a))
    tilt = _exp_times_normal_cdf(-2.0 * cf.eps * xi_r, (xi_r + cf.eps * t) / sigma)
    return left + cf.b * tilt - cf.b * _normal_cdf(a)


def bar_u_n(xi_r: float, t: float, cf: ClosedForm) -> float:
    return bar_phi(xi_r, cf) - bar_phi_hat(xi_r, t, cf)


def bar_u_total(xi_r: float, s2: float, t: float, cf: ClosedForm) -> float:
    """Full pseudoregret solution ubar = 2 eps s2 + bar_phi - bar_phi_hat."""
    _require_negative_t(t)
    return 2.0 * cf.eps * s2 + bar_u_n(xi_r, t, cf)


def pseudoregret_source(xi_r: float, cf: ClosedForm) -> float:
    """Source qbar: 0 for xi_r > 0, -2 eps for xi_r < 0."""
    if xi_r == 0.0:
        raise ValueError("source is discontinuous at xi_r = 0")
    return 0.0 if xi_r > 0.0 else -2.0 * cf.eps


# ---------------------------------------------------------------------------
# Finite-difference residuals (smooth-region verification)
# ---------------------------------------------------------------------------

def _check_stencil(xi_r: float, t: float, h: float) -> None:
    """The stencil must stay off the kink at xi_r = 0 and before t = 0."""
    if h <= 0.0:
        raise ValueError(f"step must be positive, got {h}")
    if abs(xi_r) <= 2.0 * h:
        raise ValueError(f"point too close to the kink: |xi_r|={abs(xi_r)} <= 2h")
    if t + 2.0 * h >= 0.0:
        raise ValueError(f"stencil would cross t = 0: t={t}, h={h}")


def pde_residual(
    eta: float, xi_h: float, xi_r: float, t: float, cf: ClosedForm, h: float = 1e-3
) -> float:
    """Central-difference residual of the regret equation at a smooth point.

    Requires |xi_r| > 2h (away from the kink) and t + 2h < 0; vanishes at
    O(h^2) plus roundoff.
    """
    _check_stencil(xi_r, t, h)

    def u(e, xh, xr, tt):
        return u_total(e, xh, xr, tt, cf)

    u0 = u(eta, xi_h, xi_r, t)
    u_t = (u(eta, xi_h, xi_r, t + h) - u(eta, xi_h, xi_r, t - h)) / (2.0 * h)
    u_xr = (u(eta, xi_h, xi_r + h, t) - u(eta, xi_h, xi_r - h, t)) / (2.0 * h)
    u_xh = (u(eta, xi_h + h, xi_r, t) - u(eta, xi_h - h, xi_r, t)) / (2.0 * h)
    u_xrxr = (u(eta, xi_h, xi_r + h, t) - 2.0 * u0 + u(eta, xi_h, xi_r - h, t)) / (h * h)
    u_xhxh = (u(eta, xi_h + h, xi_r, t) - 2.0 * u0 + u(eta, xi_h - h, xi_r, t)) / (h * h)
    u_xhxr = (
        u(eta, xi_h + h, xi_r + h, t)
        - u(eta, xi_h + h, xi_r - h, t)
        - u(eta, xi_h - h, xi_r + h, t)
        + u(eta, xi_h - h, xi_r - h, t)
    ) / (4.0 * h * h)
    q = regret_source(xi_r, cf)
    return (u_t + cf.eps * u_xr + cf.eps * u_xh + 0.5 * (u_xrxr + u_xhxh)
            + cf.eps**2 * u_xhxr - q)


def bar_pde_residual(
    xi_r: float, s2: float, t: float, cf: ClosedForm, h: float = 1e-3
) -> float:
    """Central-difference residual of the pseudoregret equation."""
    _check_stencil(xi_r, t, h)

    def u(xr, tt):
        return bar_u_total(xr, s2, tt, cf)

    u0 = u(xi_r, t)
    u_t = (u(xi_r, t + h) - u(xi_r, t - h)) / (2.0 * h)
    u_xr = (u(xi_r + h, t) - u(xi_r - h, t)) / (2.0 * h)
    u_xrxr = (u(xi_r + h, t) - 2.0 * u0 + u(xi_r - h, t)) / (h * h)
    q = pseudoregret_source(xi_r, cf)
    return u_t + cf.eps * u_xr + 0.5 * u_xrxr - q


# ---------------------------------------------------------------------------
# Leading-order prefactors and their maximizers
# ---------------------------------------------------------------------------

def prefactor_pair(gamma: float) -> tuple[float, float]:
    """(c, cbar) at gamma = eps sqrt(T), c the regret solution's origin value / sqrt(T):

    c(gamma) = e^{-g^2}/sqrt(pi) + g erf(g) + (1/g - g) erf(g/sqrt2)
               - sqrt(2/pi) e^{-g^2/2}
             = cbar(gamma) + e^{-g^2}/sqrt(pi) - g erfc(g):
    at the origin u = ubar + u_h - eps T, and the added terms are the
    leading order of (u_h - eps T)/sqrt(T). Evaluated so, c shares the
    small- and large-gamma forms of cbar. The gamma -> 0 limit is
    SMALL_GAP_LIMIT_C.
    """
    cbar = prefactor_c_bar(gamma)
    return cbar + math.exp(-gamma * gamma) / SQRT_PI - gamma * erfc(gamma), cbar


def prefactor_c(gamma: float) -> float:
    """c(gamma), the first of `prefactor_pair`."""
    return prefactor_pair(gamma)[0]


def prefactor_c_bar(gamma: float) -> float:
    """Pseudoregret analogue:
    cbar(gamma) = (1/g - g) erf(g/sqrt2) - sqrt(2/pi) e^{-g^2/2} + g.

    Below gamma = 0.01 the terms near sqrt(2/pi) cancel down to about
    gamma, so the Maclaurin series
    g - sqrt(2/pi) (2/3 g^2 - g^4/15 + g^6/140) takes over; past
    gamma = 8 the erfc complements do, where the direct form loses the
    1/gamma answer to cancellation.
    """
    if not 0.0 < gamma < math.inf:  # also rejects nan
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    g = gamma
    if g < 0.01:
        g2 = g * g
        return g - math.sqrt(2.0 / math.pi) * g2 * (2.0 / 3.0 - g2 * (1.0 / 15.0 - g2 / 140.0))
    if g <= 8.0:
        return ((1.0 / g - g) * erf(g / SQRT2)
                - math.sqrt(2.0 / math.pi) * math.exp(-0.5 * g * g) + g)
    return (1.0 / g + (g - 1.0 / g) * erfc(g / SQRT2)
            - math.sqrt(2.0 / math.pi) * math.exp(-0.5 * g * g))


def _prefactor_c_bar_slope(gamma: float) -> float:
    """cbar'(g) = 1 - (1 + 1/g^2) erf(g/sqrt2) + sqrt(2/pi) e^{-g^2/2}/g."""
    g = gamma
    return (1.0 - (1.0 + 1.0 / (g * g)) * erf(g / SQRT2)
            + math.sqrt(2.0 / math.pi) * math.exp(-0.5 * g * g) / g)


def _prefactor_c_slope(gamma: float) -> float:
    """c'(g) = cbar'(g) - erfc(g): the added terms of c have slope -erfc(g)."""
    return _prefactor_c_bar_slope(gamma) - erfc(gamma)


PREFACTORS = {"c": (prefactor_c, _prefactor_c_slope),
              "c_bar": (prefactor_c_bar, _prefactor_c_bar_slope)}


def maximize_prefactor(which: str) -> tuple[float, float]:
    """Argmax and max of c or cbar over gamma > 0.

    Each prefactor rises to one peak, at 0.707 for c and 1.247 for cbar,
    and falls back like 1/gamma. Its analytic slope changes sign once on
    the fixed bracket (1e-3, 10), checked at both ends, and bisection of
    that slope finds the argmax to adjacent floats. The function itself
    is flat to second order at its peak, so comparing its values could
    place the argmax only to about the square root of its rounding.
    """
    if which not in PREFACTORS:
        raise ValueError(f"which must be {' or '.join(map(repr, PREFACTORS))}, got {which!r}")
    f, slope = PREFACTORS[which]
    lo, hi = 1e-3, 10.0
    if not slope(lo) > 0.0 > slope(hi):
        raise RuntimeError(f"the slope of {which} does not change sign on ({lo}, {hi})")
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if slope(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return mid, f(mid)

"""Exact values of the myopic player: regret v and pseudoregret vbar.

Two production routes compute the same values at two scales, and
``bayes_pseudoregret`` certifies them minimax:

* ``origin_values`` -- O(T) time and memory, from one array of central
  binomial probabilities: the values of every horizon up to T at once.
  ``value_trace`` and ``symbandit dp --trace`` read its arrays, and
  ``values`` reads their last entries outside the window below. It
  refuses more than ``_MAX_TERMS`` (2e7) terms, about 1.8 GB of arrays.
* ``values`` (and ``regret_value``, ``pseudoregret_value``, the sweeps
  and ``symbandit dp``) -- one horizon in O(1) time, without numpy, from
  two incomplete-beta tails, for T >= 256 and T*eps^2 >= 0.09.

Both production routes rest on the myopic player following xi_r, which
moves up with probability p = (1 + eps)/2 whichever arm is pulled: xi_r
is the simple walk W from 0, and the player pulls the risky arm when W
is behind (a fair coin at W = 0). So, with q = 1 - p,

* vbar_k = 2*eps * sum_{j<k} [P(W_j < 0) + P(W_j = 0)/2];
* v_k = vbar_k + 2*g(k), g(k) = E[(k - X)^+], X ~ Bin(2k, p): the terminal
  payoff adds |zeta/2|, and zeta/2 is the simple walk seen at even times
  (a lazy walk with steps +1, 0, -1 w.p. p^2, 2pq, q^2) with mean eps*k.

Both reduce to a_m = P(W_2m = 0) = C(2m, m) (pq)^m. The O(T) route takes
a_m as the product of (1 - 1/(2j)) over j <= m times (1 - eps^2)^m: the
exp of a compensated running sum of log1p(-1/(2j)) times
exp(m log1p(-eps^2)), within 3 ulps for m <= 1e7 plus the rounding of
m log1p(-eps^2). L_2m = P(W_2m < 0) is a prefix sum of its exact
two-step increment a_m q (q - eps m)/(m + 1), L_2m+1 = L_2m + q a_m, and
g(k + 1) - g(k) = q^2 a_k - eps L_2k. Every prefix sum is compensated
for the rounding of its additions. When gamma = eps sqrt(T) is large, L
and g fall towards zero inside the horizon; their tails are then summed
from the far end, so they keep their relative accuracy and v >= vbar
holds in floating point too.

The one-horizon route sums those series in closed form. With the
negative-binomial tail R(k) = sum_{i>=k} a_i = I_{1-eps^2}(k, 1/2)/eps
(R(0) = 1/eps) and M = T // 2, P(W_2k < 0) + P(W_2k = 0)/2 = eps R(k)/2
and P(W_2k+1 < 0) = eps R(k + 1)/2, so

* vbar_T = 1/eps - (1 - 2 eps^2 M) R(M) - 2 M a_M, plus eps^2 R(M) for odd T;
* v_T = vbar_T + T (a_T - eps^2 R(T)).

a_k is C(2k, k)/4^k from Loader's Stirling error (C. Loader, "Fast and
Accurate Computation of Binomial Probabilities", 2000) times
exp(k log1p(-eps^2)); I_x(k, 1/2) is Temme's uniform expansion as coded
in BGRAT of DiDonato and Morris (ACM TOMS 18, 1992, Algorithm 708). Below
the window the difference of 1/eps and R(M) cancels like 1/gamma; from
T*eps^2 = 80 on both values equal their limit 1/eps within an ulp, so
the route returns 1/eps. v(T, eps) <= 1/eps holds at every horizon.

The tests hold the routes to 1e-13 relative of an exact rational oracle
at T <= 400 (measured 7.4e-16), the far-end tail path of the O(T) route
to 2 ulps of it, and the one-horizon route to 1e-14 of the O(T) route for
T from 256 to 1e6 (measured 4.8e-15). Above T = 400 the O(T) arrays are
held at every k <= 1e6 + 1 by exact identities: vbar_k rebuilt from
S0(M) = sum_{i<M} a_i (or R(M)) and a_M alone within 1e-14 relative where
eps sqrt(k) >= 0.1, and within 1e-15/(eps sqrt(k)) below, where the
eps^2 division loses about 1/gamma (measured worst 0.78 of that budget);
v_k - vbar_k = k (a_k - eps^2 R(k)) within 1e-14 of v_k (measured
1.0e-15); and v_k <= 1/eps, with equality within an ulp from
k eps^2 = 80 on.

The certificate, O(T^2): the posterior of the safe arm depends on xi_r
alone, and xi_r moves the same way whichever arm is pulled, so a min over
the arms at each (t, xi_r) bounds every player's prior-averaged
pseudoregret V from below. The myopic player attains it, V = (vbar_1 +
vbar_2)/2, so V = vbar (``symbandit verify``) proves vbar minimax and the
same for both labels; v - vbar does not depend on the player.
"""

from __future__ import annotations

import math

from .core import arm_probs, check_game


# ---------------------------------------------------------------------------
# Every horizon up to T: one central-binomial array, O(T)
# ---------------------------------------------------------------------------

def _prefix_sums(x: np.ndarray, vanishing: bool = False) -> np.ndarray:
    """s_k = sum_{j<k} x_j for k = 0..len(x), each corrected by the
    running sum of the rounding errors of its additions (Knuth's TwoSum,
    vectorized).

    With `vanishing`, the terms change sign once and sum to zero up to a
    negligible remainder: past the peak of s each entry is minus the sum
    of the remaining terms, the same sums of the reversed terms. Both
    sides are then sums of one-signed terms, so the tail keeps its
    relative accuracy as it falls to zero.
    """
    import numpy as np

    s = np.zeros(len(x) + 1)
    prev, cur = s[:-1], s[1:]
    np.cumsum(x, out=cur)
    step = cur - prev
    # the errors (prev - (cur - step)) + (x - step), in place
    err = np.subtract(cur, step)
    np.subtract(prev, err, out=err)
    err += np.subtract(x, step, out=step)
    cur += np.cumsum(err, out=err)
    if vanishing:
        rest = _prefix_sums(x[::-1])[::-1]
        past = np.arange(len(s)) > np.argmax(s)
        s[past] = -rest[past]
    return s


def _central_binomial(n: int, eps: float) -> np.ndarray:
    """a_m = C(2m, m) (pq)^m = P(W_2m = 0) for m = 0..n-1."""
    import numpy as np

    log_prod = _prefix_sums(np.log1p(-0.5 / np.arange(1.0, n)))
    # two exps: adding the logs first would round their sum once more
    return np.exp(log_prod) * np.exp(np.arange(n) * math.log1p(-eps * eps))


# Once T*eps^2 passes _DEEP_TAIL, L_2m and g(k) fall below the round-off
# of their peaks inside the horizon (a_m <= exp(-m eps^2) / sqrt(pi m)),
# so their tails are summed from the far end of _TAIL_PAD/eps^2 extra terms.
_DEEP_TAIL = 30.0
_TAIL_PAD = 40.0
# The pass holds its n terms in several n-long arrays at once, 72-89 bytes
# per term (measured: 715 MB at T = 1e7, gamma 0.707), so _MAX_TERMS terms
# take about 1.8 GB; beyond it the request is refused rather than left to
# fail inside numpy or be killed. A chunked pass would lift the limit.
_MAX_TERMS = 20_000_000


def origin_values(T: int, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Arrays (v_k, vbar_k), k = 0..T: the exact values at the origin of
    every horizon up to T, from one O(T) pass. The pass sums T terms, plus
    _TAIL_PAD/eps^2 on the deep-tail path; more than _MAX_TERMS is refused
    with a ValueError before anything is allocated."""
    check_game(T, eps)
    _, q = arm_probs(eps)
    deep = eps * eps * T >= _DEEP_TAIL
    n = T + math.ceil(_TAIL_PAD / (eps * eps)) if deep else T
    if n > _MAX_TERMS:
        raise ValueError(f"the O(T) route would sum {n} terms at T={T}, eps={eps!r}, above "
                         f"its limit of {_MAX_TERMS} terms (about 90 bytes each)")
    import numpy as np

    a = _central_binomial(n, eps)
    m = np.arange(n)
    lower_even = _prefix_sums(a * q * (q - eps * m) / (m + 1), deep)[:n]  # L_2m
    # P(W_j < 0) + P(W_j = 0)/2 for j = 0..T-1, even and odd j interleaved
    behind = np.empty(T)
    behind[0::2] = (lower_even + 0.5 * a)[: (T + 1) // 2]
    behind[1::2] = (lower_even + q * a)[: T // 2]
    vbar = 2.0 * eps * _prefix_sums(behind)
    g = _prefix_sums(q * q * a - eps * lower_even, deep)[: T + 1]  # E[(k - X)^+]
    # just short of the far-end tail path, the forward sum can end a few
    # ulps of its peak below 0; g >= 0, so the clamp only removes error
    return vbar + 2.0 * np.maximum(g, 0.0), vbar


# ---------------------------------------------------------------------------
# One horizon: two incomplete-beta tails, O(1)
# ---------------------------------------------------------------------------

# Loader's Stirling error delta(n) = log(n!) - (n log n - n + log(2 pi n)/2):
# the first five terms of its asymptotic series, within ~1e-16 absolute
# for n >= 16
_S0, _S1, _S2, _S3, _S4 = 1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188


def _stirlerr(n: float) -> float:
    r = 1.0 / (n * n)
    return (_S0 - (_S1 - (_S2 - (_S3 - _S4 * r) * r) * r) * r) / n


def _stirling_ratio(k: int) -> float:
    """exp(delta(2k) - 2 delta(k)) = c_k sqrt(pi k), where c_k = C(2k, k)/4^k;
    for k >= 16."""
    return math.exp(_stirlerr(2.0 * k) - 2.0 * _stirlerr(float(k)))


def _bgrat_coefficients(terms: int) -> list[float]:
    """d_0..d_{terms-1} of BGRAT's expansion at b = 1/2: with
    c_n = 1/(2n + 1)!, d_n = (b - 1) c_n + sum_{i<n} (b i - n) c_i d_{n-i} / n."""
    c, d = [1.0], [1.0]
    for n in range(1, terms):
        c.append(c[-1] / (2 * n * (2 * n + 1)))
        d.append(-0.5 * c[n] + sum((0.5 * i - n) * c[i] * d[n - i] for i in range(1, n)) / n)
    return d


# inside the window below, the expansion meets the rounding of its sum
# after at most 7 terms (measured); the table holds twice that many
_BGRAT_D = _bgrat_coefficients(16)


def _central_and_tail(k: int, eps: float) -> tuple[float, float]:
    """(a_k, R(k)): a_k = C(2k, k) (pq)^k, and the negative-binomial tail
    R(k) = sum_{i>=k} a_i = I_x(k, 1/2)/eps with x = 1 - eps^2; k >= 128.

    I_x(k, 1/2) is Temme's uniform expansion as DiDonato and Morris code
    it in BGRAT (ACM TOMS 18, 1992, Algorithm 708), at b = 1/2. With
    nu = k - 1/4 and z = -nu log x, it is G sum_n d_n H_n, where

    * G = Gamma(k + 1/2)/(Gamma(k) sqrt(nu)) = _stirling_ratio(k) sqrt(k/nu);
    * H_0 = Gamma(1/2, z)/Gamma(1/2) = erfc(sqrt(z));
    * H_n = ((2n - 3/2)(2n - 1/2) H_{n-1} + (z + 2n - 1/2) r_n)/(4 nu^2),
      with r_n = exp(-z) sqrt(z/pi) (log(x)^2/4)^(n-1).
    """
    log_x = math.log1p(-eps * eps)
    ratio = _stirling_ratio(k)
    # two exps: adding the logs first would round their sum once more
    a = ratio / math.sqrt(math.pi * k) * math.exp(k * log_x)
    nu = k - 0.25
    z = -nu * log_x
    power = math.exp(-z) * math.sqrt(z / math.pi)  # r_1
    step, square = 0.25 / (nu * nu), 0.25 * log_x * log_x
    h = total = math.erfc(math.sqrt(z))
    for n, d in enumerate(_BGRAT_D[1:], 1):
        h = ((2 * n - 1.5) * (2 * n - 0.5) * h + (z + 2 * n - 0.5) * power) * step
        power *= square
        total += d * h
        if abs(d * h) <= 2.0**-53 * total:
            break
    return a, ratio * total / (eps * math.sqrt(1.0 - 0.25 / k))


# The one-horizon window: T >= _ONE_HORIZON_MIN_T and T*eps^2 >=
# _ONE_HORIZON_MIN_TE2 (gamma >= 0.3); the O(T) route serves the rest.
# Below gamma 0.3, vbar is a difference of 1/eps and R(M) that cancels
# like 1/gamma (1.3e-14 relative at gamma 0.1, 9e-13 at gamma 0.01); below
# T = 256 the O(T) route costs under 0.1 ms. Inside the window the routes
# agree within 5e-15 relative for T up to 1e6 and gamma up to 9, and the
# one-horizon route is within 3.1e-15 of 50-digit values at T = 1e8..1e12.
_ONE_HORIZON_MIN_T = 256
_ONE_HORIZON_MIN_TE2 = 0.09
# Both values rise to 1/eps: a walk with drift eps expects q/eps^2 steps
# below 0, and E[(T - X)^+] -> 0. From T*eps^2 = _SATURATED_TE2 on they
# equal 1/eps within an ulp, as 1/eps - v falls like exp(-T eps^2).
_SATURATED_TE2 = 80.0


def _one_horizon_values(T: int, eps: float) -> tuple[float, float]:
    """(v, vbar) of the T-round game by the closed expressions of the module
    docstring, from a_M, R(M), a_T and R(T), M = T // 2."""
    limit = 1.0 / eps
    if T * eps * eps >= _SATURATED_TE2:
        return limit, limit
    e2, half = eps * eps, T // 2
    a_half, tail_half = _central_and_tail(half, eps)
    a_T, tail_T = _central_and_tail(T, eps)
    vbar = limit - ((1.0 - 2.0 * e2 * half) * tail_half + 2.0 * half * a_half)
    if T % 2:
        vbar += e2 * tail_half
    vbar = min(vbar, limit)
    v = vbar + T * (a_T - e2 * tail_T)
    # both values rise to 1/eps, and v - vbar = 2 E[(T - X)^+] >= 0
    return min(max(v, vbar), limit), vbar


def values(T: int, eps: float) -> tuple[float, float]:
    """Exact (v, vbar) at the origin of the T-round game: O(1) inside the
    one-horizon window, O(T) time and memory outside it."""
    check_game(T, eps)
    if T >= _ONE_HORIZON_MIN_T and T * eps * eps >= _ONE_HORIZON_MIN_TE2:
        return _one_horizon_values(T, eps)
    v, vbar = origin_values(T, eps)
    return float(v[-1]), float(vbar[-1])


def regret_value(T: int, eps: float) -> float:
    """Exact regret v(0, 0, -T) under the myopic player."""
    return values(T, eps)[0]


def pseudoregret_value(T: int, eps: float) -> float:
    """Exact pseudoregret vbar(0, 0, -T) under the myopic player."""
    return values(T, eps)[1]


def value_trace(T: int, eps: float) -> list[tuple[int, float, float]]:
    """Rows (t, v(0,0,t), vbar(0,0,t)) for t = -T..0.

    The recursions are time homogeneous, so the value at the origin with
    k rounds left is the value of the k-round game.
    """
    v, vbar = origin_values(T, eps)
    return list(zip(range(-T, 1), v[::-1].tolist(), vbar[::-1].tolist()))


# ---------------------------------------------------------------------------
# The Bayes lower bound of every player: one recursion over (t, xi_r), O(T^2)
# ---------------------------------------------------------------------------

def bayes_pseudoregret(T: int, eps: float) -> float:
    """The least pseudoregret of any player, averaged over a uniform prior
    on the safe-arm label: V_0(0), where V_T = 0 and V_k(x) = 2 eps
    min(post, 1 - post) + up V_{k+1}(x + 1) + (1 - up) V_{k+1}(x - 1), with
    post = P(arm 1 safe | xi_r = x) = (1 + tanh(x atanh eps))/2 and
    up = 1/2 + eps (post - 1/2). O(T^2) time, O(T) memory."""
    check_game(T, eps)
    import numpy as np

    # tanh, not the likelihood ratio ((1 + eps)/(1 - eps))^x, which overflows
    slope = np.tanh(np.arange(-T, T + 1) * math.atanh(eps))  # 2 post - 1 at x = -T..T
    cost = eps * (1.0 - np.abs(slope))
    up = 0.5 * (1.0 + eps * slope)
    down = 1.0 - up
    value = np.zeros(2 * T + 1)  # V_T at x = -T..T
    for k in range(T - 1, -1, -1):  # V_k at x = -k..k from V_{k+1} at -(k+1)..k+1
        at = slice(T - k, T + k + 1)
        value = cost[at] + up[at] * value[2:] + down[at] * value[:-2]
    return float(value[0])

"""Exact values of the myopic player: regret v and pseudoregret vbar.

Two production routes compute the same values at two scales, and
``bayes_pseudoregret`` certifies them minimax:

* ``trace_rows`` (``value_trace``, ``symbandit dp --trace``, ``verify``)
  -- O(T) time and memory, from one array of central binomial
  probabilities: the rows (t, v, vbar) of every horizon up to T at once.
  It alone reads the arrays of ``_origin_values``, which refuses T above
  ``_MAX_TERMS`` (2e7), about 1 GB of arrays.
* ``values`` (the sweeps, ``symbandit dp`` and ``verify``; its halves
  ``regret_value`` and ``pseudoregret_value`` serve the benchmark) --
  one horizon in O(1) time and memory, without numpy, at every (T, eps):
  a series in eps^2 up to gamma = eps sqrt(T) = 1, and two incomplete-beta
  tails beyond it.

The negative-binomial tail R(k) below has one home, ``_central_and_tail``,
which both routes read.

Both production routes rest on the myopic player following xi_r, which
moves up with probability p = (1 + eps)/2 whichever arm is pulled: xi_r
is the simple walk W from 0, and the player pulls the risky arm when W
is behind (a fair coin at W = 0). So

* vbar_k = 2*eps * sum_{j<k} [P(W_j < 0) + P(W_j = 0)/2];
* v_k = vbar_k + 2 E[(k - X)^+], X ~ Bin(2k, p): the terminal payoff adds
  |zeta/2|, and zeta/2 is the simple walk seen at even times (a lazy walk
  with steps +1, 0, -1 w.p. p^2, 2pq, q^2, q = 1 - p) with mean eps*k.

Both reduce to a_m = P(W_2m = 0) = C(2m, m) (pq)^m and its
negative-binomial tail R(k) = sum_{i>=k} a_i = I_{1-eps^2}(k, 1/2)/eps
(R(0) = 1/eps), with complement S0(k) = 1/eps - R(k) = sum_{i<k} a_i.
With rho(k) = eps R(k) = 1 - eps S0(k), P(W_2k < 0) + P(W_2k = 0)/2 =
rho(k)/2, P(W_2k+1 < 0) = rho(k + 1)/2 and 2 E[(k - X)^+] =
k (a_k - eps rho(k)), so (F4)

* vbar_k = eps * sum_{j<k} rho((j + 1)//2);
* v_k = vbar_k + k (a_k - eps rho(k)).

The O(T) route sums F4 at every k <= T. It takes a_m as the product of
(1 - 1/(2j)) over j <= m times (1 - eps^2)^m: the exp of a compensated
running sum of log1p(-1/(2j)) times exp(m log1p(-eps^2)), within 3 ulps
for m <= 1e7 plus the rounding of m log1p(-eps^2). rho is one prefix sum
of 1, -eps a_0, -eps a_1, ..., so it is 1 at eps = 0, and vbar a prefix
sum of rho; each is compensated for the rounding of its additions. When
gamma = eps sqrt(T) is large, rho falls towards zero inside the horizon;
it is then eps times R, a_T, ..., a_0 summed from the far end onto the
R(T + 1) of the one-horizon routes, so it keeps its relative accuracy.
v - vbar is clamped at 0, so v >= vbar holds in floating point too.

The one-horizon routes sum F4 in closed form. With M = T // 2,

* vbar_T = 1/eps - (1 - eps^2 T) R(M) - 2 M a_M
         = eps T - eps^2 T S0(M) + (S0(M) - 2 M a_M);
* v_T = vbar_T + T (a_T - eps^2 R(T)) = vbar_T + T (a_T - eps + eps^2 S0(T)).

Up to gamma = 1 the second forms are series in -eps^2: with c_i =
C(2i, i)/4^i and B_k = 2n c_n C(n, k), the hockey-stick identity gives
sum_{i<n} c_i C(i, k) = A_k = B_k (n - k)/(n (2k + 1)), so S0(n) =
sum_k (-eps^2)^k A_k and 2n a_n = sum_k (-eps^2)^k B_k. Their terms fall
like (gamma^2)^k/k!, and math.fsum adds each value's terms exactly; A_0 =
B_0, so vbar = 0 exactly at eps = 0. Beyond gamma = 1, R comes from
Temme's uniform expansion of I_x(k, 1/2) as coded in BGRAT of DiDonato
and Morris (ACM TOMS 18, 1992, Algorithm 708) from k = 12 on, and below
as a_k + ... + a_11 + R(12) (the expansion is off by 1.5e-13 at k = 11).
c_k is the exact ratio below k = 16 and Loader's Stirling error from 16
on (C. Loader, "Fast and Accurate Computation of Binomial
Probabilities", 2000). From T*eps^2 = 80 on both values equal their
limit 1/eps within an ulp, so the route returns 1/eps. v(T, eps) <= 1/eps
holds at every horizon.

The tests hold ``values`` to 1e-13 relative of an exact rational oracle
at T <= 400 (measured worst 3.5e-16), and to 5e-15 at gamma > 1 on every
T from 2 to 25, either side of k = 12 for both T and M (measured
2.8e-16); every row of the O(T) arrays on both sides of its far-end
switch to 5e-15 of the oracle (measured 1.5e-15), and the far-end path to
2 ulps, and to an ulp of the same sum padded with 40/eps^2 more a_i in
place of R(T + 1) (measured bit-identical); the series to 2e-15 of the
O(T) route for T from 256 to 1e6 + 1 and gamma from 0.001 to 1
(measured 6.3e-16), and to 5e-15 of the tails where both
serve, 0.3 <= gamma <= 1, up to T = 1e12 (measured 2.6e-15); and the
tails to 1e-14 of the O(T) route up to gamma 9 (measured 3.5e-15).
Above T = 400 the O(T) arrays are held at every k <= 1e6 + 1 by
exact identities: vbar_k rebuilt from S0(M) (or R(M)) and a_M alone within
1e-14 relative where eps sqrt(k) >= 0.1, and within 1e-15/(eps sqrt(k))
below, where the eps^2 division loses about 1/gamma (measured worst 0.80
of that budget); v_k - vbar_k = k (a_k - eps^2 R(k)) within 1e-14 of v_k
(measured 5.9e-16), which restates F4's own v_k on the far-end path; and
v_k <= 1/eps, with equality within an ulp from k eps^2 = 80 on.

The certificate, O(T^2), is Le Cam's two-point bound (F8). Under label 1
(2) xi_r is the walk W stepping up w.p. p (q) whichever arm is pulled, so
no player changes its law, and the label's posterior depends on xi_r
alone. At each (k, x) any player, history-dependent or not, pulls the
unsafe arm w.p. at least min(post, 1 - post): its prior-averaged
pseudoregret is at least eps sum_{k<T} sum_x min(P_p(W_k = x), P_p(W_k =
-x)), the myopic vbar term by term. So V = vbar (``symbandit verify``)
proves vbar minimax for both labels; v - vbar does not depend on the player.
"""

from __future__ import annotations

import itertools
import math

from .core import arm_probs, check_game


# ---------------------------------------------------------------------------
# Every horizon up to T: one central-binomial array, O(T)
# ---------------------------------------------------------------------------

def _prefix_sums(x: np.ndarray) -> np.ndarray:
    """s_k = sum_{j<k} x_j for k = 0..len(x), each corrected by the
    running sum of the rounding errors of its additions (Knuth's TwoSum,
    vectorized)."""
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
    return s


def _central_binomial(n: int, eps: float) -> np.ndarray:
    """a_m = C(2m, m) (pq)^m = P(W_2m = 0) for m = 0..n-1."""
    import numpy as np

    log_prod = _prefix_sums(np.log1p(-0.5 / np.arange(1.0, n)))
    # two exps: adding the logs first would round their sum once more
    return np.exp(log_prod) * np.exp(np.arange(n) * math.log1p(-eps * eps))


# Once T*eps^2 passes _DEEP_TAIL, rho(k) = 1 - eps S0(k) falls to at most a
# few dozen ulps of 1 inside the horizon (a_m <= exp(-m eps^2)/sqrt(pi m)), so
# it is eps times R: a_T, ..., a_0 summed from the far end onto R(T + 1) of
# _central_and_tail.
_DEEP_TAIL = 30.0
# The pass holds its T terms in several T-long arrays at once, 32-48 bytes
# per term (measured: 486 MB peak RSS of `symbandit dp --trace` at T = 1e7,
# gamma 0.707), so _MAX_TERMS terms take about 1 GB; beyond it the request
# is refused rather than left to fail inside numpy or be killed. A chunked
# pass would lift the limit.
_MAX_TERMS = 20_000_000


def _origin_values(T: int, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Arrays (v_k, vbar_k), k = 0..T: the exact values at the origin of
    every horizon up to T, from one O(T) pass. T above _MAX_TERMS is refused
    with a ValueError before anything is allocated."""
    check_game(T, eps)
    if T > _MAX_TERMS:
        raise ValueError(f"the O(T) route would sum {T} terms at T={T}, eps={eps!r}, above "
                         f"its limit of {_MAX_TERMS} terms (about 50 bytes each)")
    import numpy as np

    a = _central_binomial(T + 1, eps)
    # rho(k) = eps R(k) = 1 - eps S0(k), k = 0..T
    if eps * eps * T >= _DEEP_TAIL:
        far_end = np.concatenate(([_central_and_tail(T + 1, eps)[1]], a[::-1]))
        rho = eps * _prefix_sums(far_end)[::-1][: T + 1]
    else:
        rho = _prefix_sums(np.concatenate(([1.0], -eps * a[:T])))[1:]
    # P(W_j < 0) + P(W_j = 0)/2 = rho((j + 1)//2)/2, j = 0..T-1
    vbar = eps * _prefix_sums(rho[(np.arange(T) + 1) // 2])
    # v_k - vbar_k = 2 E[(k - X)^+] >= 0: the clamp only removes round-off
    return vbar + np.maximum(np.arange(T + 1) * (a - eps * rho), 0.0), vbar


# ---------------------------------------------------------------------------
# One horizon, O(1): an eps^2 series, or two incomplete-beta tails
# ---------------------------------------------------------------------------

# Loader's Stirling error delta(n) = log(n!) - (n log n - n + log(2 pi n)/2):
# the first five terms of its asymptotic series, within ~1e-16 absolute
# for n >= 16
_S0, _S1, _S2, _S3, _S4 = 1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188


def _stirlerr(n: float) -> float:
    r = 1.0 / (n * n)
    return (_S0 - (_S1 - (_S2 - (_S3 - _S4 * r) * r) * r) * r) / n


def _central_ratio(k: int) -> tuple[float, float]:
    """(c_k, c_k sqrt(pi k)), where c_k = C(2k, k)/4^k: the exact ratio
    rounded once below k = 16; from 16 on Loader's ratio
    s = exp(delta(2k) - 2 delta(k)) = c_k sqrt(pi k), and c_k = s/sqrt(pi k)."""
    if k < 16:
        c = math.comb(2 * k, k) / 4**k
        return c, c * math.sqrt(math.pi * k)
    s = math.exp(_stirlerr(2.0 * k) - 2.0 * _stirlerr(float(k)))
    return s / math.sqrt(math.pi * k), s


def _bgrat_coefficients(terms: int) -> list[float]:
    """d_0..d_{terms-1} of BGRAT's expansion at b = 1/2: with
    c_n = 1/(2n + 1)!, d_n = (b - 1) c_n + sum_{i<n} (b i - n) c_i d_{n-i} / n."""
    c, d = [1.0], [1.0]
    for n in range(1, terms):
        c.append(c[-1] / (2 * n * (2 * n + 1)))
        d.append(-0.5 * c[n] + sum((0.5 * i - n) * c[i] * d[n - i] for i in range(1, n)) / n)
    return d


# from T = 256 on, the expansion meets the rounding of its sum after at most
# 7 terms (measured). Below, at large gamma, it can run all 16 without
# meeting it; R(M) then weighs little in the values, which stay within
# 7.2e-16 of exact ones at T = 12..129 (measured).
_BGRAT_D = _bgrat_coefficients(16)


def _central_and_tail(k: int, eps: float) -> tuple[float, float]:
    """(a_k, R(k)): a_k = C(2k, k) (pq)^k, and the negative-binomial tail
    R(k) = sum_{i>=k} a_i = I_x(k, 1/2)/eps with x = 1 - eps^2; k >= 0.

    From k = 12 on, I_x(k, 1/2) is Temme's uniform expansion as DiDonato
    and Morris code it in BGRAT (ACM TOMS 18, 1992, Algorithm 708), at
    b = 1/2. With nu = k - 1/4 and z = -nu log x, it is G sum_n d_n H_n, where

    * G = Gamma(k + 1/2)/(Gamma(k) sqrt(nu)) = c_k sqrt(pi k) sqrt(k/nu);
    * H_0 = Gamma(1/2, z)/Gamma(1/2) = erfc(sqrt(z));
    * H_n = ((2n - 3/2)(2n - 1/2) H_{n-1} + (z + 2n - 1/2) r_n)/(4 nu^2),
      with r_n = exp(-z) sqrt(z/pi) (log(x)^2/4)^(n-1).

    Below k = 12, where the expansion is too short (off by 1.5e-13 at
    k = 11), R(k) = a_k + ... + a_11 + R(12), its positive terms summed
    exactly and rounded once.
    """
    log_x = math.log1p(-eps * eps)
    if k < 12:
        a = [_central_ratio(i)[0] * math.exp(i * log_x) for i in range(k, 12)]
        return a[0], math.fsum([*a, _central_and_tail(12, eps)[1]])
    c, ratio = _central_ratio(k)  # c_k and c_k sqrt(pi k)
    # two exps: adding the logs first would round their sum once more
    a = c * math.exp(k * log_x)
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


# Both values rise to 1/eps: a walk with drift eps expects q/eps^2 steps
# below 0, and E[(T - X)^+] -> 0. From T*eps^2 = _SATURATED_TE2 on they
# equal 1/eps within an ulp, as 1/eps - v falls like exp(-T eps^2).
_SATURATED_TE2 = 80.0


def _tail_values(T: int, eps: float) -> tuple[float, float]:
    """(v, vbar) of the T-round game by the first forms of the module
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


def _series_terms(n: int, eps: float) -> tuple[list[float], list[float]]:
    """The terms (-eps^2)^k A_k of S0(n) and (-eps^2)^k B_k of 2n a_n,
    k = 0, 1, ..., for n eps^2 <= 1, where they alternate and fall. They
    stop at the first term below 2^-60 eps n, with n <= T under 2^-59 of
    vbar <= v (vbar > eps T/2 up to gamma = 1, measured)."""
    a_terms, b_terms = [], []
    b = 2.0 * n * _central_ratio(n)[0]
    for k in range(n + 1):
        if k:
            b *= -eps * eps * (n - k + 1) / k
        if abs(b) <= 2.0**-60 * eps * n:
            break
        b_terms.append(b)
        a_terms.append(b * ((n - k) / (n * (2 * k + 1))))  # exactly b at k = 0
    return a_terms, b_terms


def _series_values(T: int, eps: float) -> tuple[float, float]:
    """(v, vbar) for T eps^2 <= 1 by the second forms of the module
    docstring, from the eps^2 series of S0(M), S0(M) - 2M a_M, S0(T) and
    2T a_T, each value's terms summed exactly and rounded once; the eps T
    of v cancels."""
    s0_half, b_half = _series_terms(T // 2, eps)
    s0_T, b_T = _series_terms(T, eps)
    # A_0 = B_0 exactly: vbar = 0 at eps = 0
    gap_half = [a - b for a, b in zip(s0_half, b_half)]
    e2T = eps * eps * T
    shift = [-e2T * s for s in s0_half]
    vbar = math.fsum([eps * T, *gap_half, *shift])
    v = math.fsum([*gap_half, *shift, *(0.5 * b for b in b_T), *(e2T * s for s in s0_T)])
    # v - vbar = 2 E[(T - X)^+] >= 0
    return max(v, vbar), vbar


def values(T: int, eps: float) -> tuple[float, float]:
    """Exact (v, vbar) at the origin of the T-round game, in O(1) time and
    memory at every (T, eps): the eps^2 series up to gamma = 1, where its
    terms fall from the first on, and the two tails beyond."""
    check_game(T, eps)
    if T * eps * eps <= 1.0:
        return _series_values(T, eps)
    return _tail_values(T, eps)


def regret_value(T: int, eps: float) -> float:
    """Exact regret v(0, 0, -T) under the myopic player."""
    return values(T, eps)[0]


def pseudoregret_value(T: int, eps: float) -> float:
    """Exact pseudoregret vbar(0, 0, -T) under the myopic player."""
    return values(T, eps)[1]


# the trace turns its arrays into Python floats this many rows at a time
_TRACE_CHUNK = 1 << 16


def trace_rows(T: int, eps: float):
    """An iterator of the rows (t, v(0,0,t), vbar(0,0,t)), t = -T..0: by time
    homogeneity the values of every horizon up to T. Built, or refused, at the call,
    the arrays become Python floats one row first, then _TRACE_CHUNK rows at a time."""
    v, vbar = _origin_values(T, eps)
    cuts = [0, 1, *range(_TRACE_CHUNK, T + 1, _TRACE_CHUNK), T + 1]
    return itertools.chain.from_iterable(
        zip(range(a - T, 1), v[::-1][a:b].tolist(), vbar[::-1][a:b].tolist())
        for a, b in itertools.pairwise(cuts))


def value_trace(T: int, eps: float) -> list[tuple[int, float, float]]:
    """The rows of `trace_rows` as one list."""
    return list(trace_rows(T, eps))


# ---------------------------------------------------------------------------
# The law of W, and Le Cam's bound of every player over it (F8), O(T^2)
# ---------------------------------------------------------------------------

def walk_law(T: int, up: float):
    """Yield the rows P(W_k = -k + 2i), i = 0..k, k = 0..T-1, of the walk W
    from 0 stepping up w.p. `up`, one Pascal step apart, each a fresh array."""
    import numpy as np

    row = np.ones(1)
    for k in range(T):
        yield row
        row, prev = np.zeros(k + 2), row
        row[:-1] = (1.0 - up) * prev
        row[1:] += up * prev


def bayes_pseudoregret(T: int, eps: float) -> float:
    """The least pseudoregret of any player under a uniform label prior (F8):
    eps sum_{k<T} sum_x min(P_p(W_k = x), P_p(W_k = -x)). O(T^2) time, O(T) memory."""
    check_game(T, eps)
    import numpy as np

    return eps * math.fsum(np.minimum(r, r[::-1]).sum() for r in walk_law(T, arm_probs(eps)[0]))

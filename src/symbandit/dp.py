"""Exact values of the myopic player: regret v and pseudoregret vbar.

Two routes compute the same values at two scales:

* ``regret_value_full`` / ``pseudoregret_value_full`` -- backward
  induction on the raw (eta, xi_h, xi_r) and (xi_r, s2) lattices,
  T <= 12. Transparent dict-based oracles that play both safe-arm labels.
* ``origin_values`` -- the production route, O(T) time and memory, from
  one array of central binomial probabilities: the values of every
  horizon up to T at once. ``values``, ``regret_value``,
  ``pseudoregret_value`` and ``value_trace`` read them off its arrays.

The production route rests on the myopic player following xi_r, which
moves up with probability p = (1 + eps)/2 whichever arm is pulled: xi_r
is the simple walk W from 0, and the player pulls the risky arm when W
is behind (a fair coin at W = 0). So, with q = 1 - p,

* vbar_k = 2*eps * sum_{j<k} [P(W_j < 0) + P(W_j = 0)/2];
* v_k = vbar_k + 2*g(k), g(k) = E[(k - X)^+], X ~ Bin(2k, p): the terminal
  payoff adds |zeta/2|, and zeta/2 is the simple walk seen at even times
  (a lazy walk with steps +1, 0, -1 w.p. p^2, 2pq, q^2) with mean eps*k.

Both reduce to a_m = P(W_2m = 0) = C(2m, m) (pq)^m, the product of
(1 - 1/(2j)) over j <= m times (1 - eps^2)^m: the exp of a compensated
running sum of log1p(-1/(2j)) times exp(m log1p(-eps^2)), within 3 ulps
for m <= 1e7 plus the rounding of m log1p(-eps^2). L_2m = P(W_2m < 0) is
a prefix sum of its exact two-step increment a_m q (q - eps m)/(m + 1),
L_2m+1 = L_2m + q a_m, and g(k + 1) - g(k) = q^2 a_k - eps L_2k. Every
prefix sum is compensated for the rounding of its additions. When
gamma = eps sqrt(T) is large, L and g fall towards zero inside the
horizon; their tails are then summed from the far end, so they keep
their relative accuracy and v >= vbar holds in floating point too. The
tests hold the route to 1e-13 relative of an exact rational oracle
(measured 7.4e-16) and check it against the O(T^2) walk decomposition
and the O(T^3) reduced lattice kept under tests/.

The value does not depend on which arm is safe, so the production route
takes no safe-arm label. The full-lattice oracles play both labels, and
they are the label-swap check.
"""

from __future__ import annotations

import math

import numpy as np

from .core import arm_probs, check_game, reward_table, terminal_payoff

FULL_TABLE_MAX_T = 12


# ---------------------------------------------------------------------------
# Full-state oracles (desk scale)
# ---------------------------------------------------------------------------

def _lattice_tables(T, eps, safe_arm, origin, xi_r_at, moves, terminal) -> list[dict]:
    """Backward induction of the myopic player over the reachable states.

    `moves(state, g1, g2)` gives the successors after choosing arm 1 and
    arm 2; entry `xi_r_at` of a state is the revealed difference the
    player follows. Returns all slices, terminal first: entry k maps each
    reachable state at t = -k to its value.
    """
    check_game(T, eps, safe_arm)
    if T > FULL_TABLE_MAX_T:
        raise ValueError(f"full-state table is limited to T <= {FULL_TABLE_MAX_T}, got {T}")
    outcomes = reward_table(eps, safe_arm)

    def successors(state):
        xi_r = state[xi_r_at]
        for g1, g2, pr in outcomes:
            one, two = moves(state, g1, g2)
            if xi_r > 0:
                yield one, pr
            elif xi_r < 0:
                yield two, pr
            else:
                yield one, 0.5 * pr
                yield two, 0.5 * pr

    layers = [{origin}]
    for _ in range(T):
        layers.append({succ for state in layers[-1] for succ, _ in successors(state)})

    tables = [{s: terminal(s) for s in layers[T]}]
    for back in range(1, T + 1):
        prev = tables[-1]
        tables.append({state: sum(pr * prev[succ] for succ, pr in successors(state))
                       for state in layers[T - back]})
    return tables


def regret_tables_full(T: int, eps: float, safe_arm: int = 1) -> list[dict]:
    """All slices of the raw (eta, xi_h, xi_r) regret recursion, terminal
    first; exact on the finite lattice."""

    def moves(state, g1, g2):
        eta, xi_h, xi_r = state
        return ((eta + g1 + g2 - 2 * g1, xi_h - g2, xi_r + g1),
                (eta + g1 + g2 - 2 * g2, xi_h + g1, xi_r - g2))

    return _lattice_tables(T, eps, safe_arm, (0, 0, 0), 2, moves,
                           lambda s: terminal_payoff(*s))


def regret_value_full(T: int, eps: float, safe_arm: int = 1) -> float:
    """v(0, 0, -T) on the raw (eta, xi_h, xi_r) lattice; oracle scale."""
    return regret_tables_full(T, eps, safe_arm)[-1][(0, 0, 0)]


def pseudoregret_tables_full(T: int, eps: float, safe_arm: int = 1) -> list[dict]:
    """All slices of the unreduced (xi_r, s2) pseudoregret recursion,
    terminal first."""
    risky_one = 1 if safe_arm == 2 else 0

    def moves(state, g1, g2):
        xi_r, s2 = state
        return (xi_r + g1, s2 + risky_one), (xi_r - g2, s2 + 1 - risky_one)

    gap2 = 2.0 * eps
    return _lattice_tables(T, eps, safe_arm, (0, 0), 0, moves, lambda s: gap2 * s[1])


def pseudoregret_value_full(T: int, eps: float, safe_arm: int = 1) -> float:
    """vbar(0, 0, -T) on the unreduced (xi_r, s2) lattice; oracle scale."""
    return pseudoregret_tables_full(T, eps, safe_arm)[-1][(0, 0)]


# ---------------------------------------------------------------------------
# Production route: one central-binomial array, O(T)
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
    log_prod = _prefix_sums(np.log1p(-0.5 / np.arange(1.0, n)))
    # two exps: adding the logs first would round their sum once more
    return np.exp(log_prod) * np.exp(np.arange(n) * math.log1p(-eps * eps))


# Once T*eps^2 passes _DEEP_TAIL, L_2m and g(k) fall below the round-off
# of their peaks inside the horizon (a_m <= exp(-m eps^2) / sqrt(pi m)),
# so their tails are summed from the far end of _TAIL_PAD/eps^2 extra terms.
_DEEP_TAIL = 30.0
_TAIL_PAD = 40.0


def origin_values(T: int, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Arrays (v_k, vbar_k), k = 0..T: the exact values at the origin of
    every horizon up to T, from one O(T) pass."""
    check_game(T, eps)
    _, q = arm_probs(eps)
    deep = eps * eps * T >= _DEEP_TAIL
    n = T + math.ceil(_TAIL_PAD / (eps * eps)) if deep else T
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


def values(T: int, eps: float) -> tuple[float, float]:
    """Exact (v, vbar) at the origin of the T-round game, O(T) time and memory."""
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

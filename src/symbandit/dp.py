"""Exact backward induction for the myopic player's value functions.

Two routes compute the same regret value at two scales, and the tests
prove the cheaper one against the dearer one and against a reduced
(xi_r, zeta) lattice oracle kept under tests/:

* ``regret_value_full``  -- the raw (eta, xi_h, xi_r) lattice, T <= 12.
  Transparent oracle, dict-based.
* ``regret_value`` -- production route, O(T^2) work and O(T) memory.

The production route rests on two exact facts. First, the terminal
payoff is (eta + |zeta|)/2 and eta enters all values linearly, so the
value at the origin splits into E[|zeta_0|]/2 plus the accumulated
E[d eta]/2 source. Second, the joint law of the per-round increments
(d xi_r, d zeta) is the same whichever arm is chosen (the revealed
difference moves up with probability (1 + eps)/2 either way), so each
piece is an expectation over a one-dimensional uncontrolled random walk:

* zeta/2 walks with steps +1, 0, -1 w.p. (1+eps)^2/4, (1-eps^2)/2,
  (1-eps)^2/4 and terminal score |zeta/2|;
* xi_r walks with steps +-1 (up w.p. (1+eps)/2) and per-round source
  -eps*sign(xi_r) (the eta drift of the myopic choice), the two choice
  branches averaging exactly to zero at xi_r = 0.

Pseudoregret reduces the same way: the value is linear in s2 with slope
2*eps, leaving a single xi_r walk with source 2*eps*P(pull risky arm).
Both reductions flip sign with the safe-arm label, which makes the
indifference check under label swap a real two-route test.
"""

from __future__ import annotations

from typing import Callable

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
# Production route: exact one-dimensional walk decomposition
# ---------------------------------------------------------------------------

def _walk_source_sum(T: int, up: float, source: Callable[[np.ndarray], np.ndarray]) -> float:
    """Backward induction of sum_t E[source(W_t)] for the +-1 walk from 0.

    Parity-packed slices: at k rounds elapsed the walk sits on
    xi_r = -k + 2j, j = 0..k, and entry j feeds from entries j (down step)
    and j+1 (up step) of the next slice. The source over the widest slice
    is precomputed once; radius-k slices are strided views into it.
    """
    down = 1.0 - up
    src_all = np.ascontiguousarray(source(np.arange(-T, T + 1, dtype=np.float64)))
    w = np.zeros(T + 1)
    for k in range(T - 1, -1, -1):
        w = src_all[T - k : T + k + 1 : 2] + up * w[1 : k + 2] + down * w[0 : k + 1]
    return float(w[0])


def _abs_walk_terminal(T: int, p_up: float, p_down: float) -> float:
    """Backward induction of E[|M_T|] for the lazy +-1 walk M (= zeta/2)."""
    w = np.abs(np.arange(-T, T + 1)).astype(float)
    p_stay = 1.0 - p_up - p_down
    for k in range(T - 1, -1, -1):
        w = p_up * w[2 : 2 * k + 3] + p_stay * w[1 : 2 * k + 2] + p_down * w[0 : 2 * k + 1]
    return float(w[0])


def _lazy_walk_probs(drift: float) -> tuple[float, float]:
    """Up and down step probabilities of the lazy walk zeta/2."""
    return (1.0 + drift) ** 2 / 4.0, (1.0 - drift) ** 2 / 4.0


def _pseudo_source(xi: np.ndarray, eps: float, safe_arm: int) -> np.ndarray:
    """2*eps*P(the myopic player pulls the risky arm) at xi_r = xi."""
    behind = xi < 0 if safe_arm == 1 else xi > 0
    return 2.0 * eps * (behind + 0.5 * (xi == 0))


def regret_value(T: int, eps: float, safe_arm: int = 1) -> float:
    """Exact v(0, 0, -T) under the myopic player, O(T^2) time, O(T) memory.

    E[|zeta_0|]/2 over the drifted lazy walk plus the accumulated
    -eps*sign(xi_r) source over the revealed-difference walk; see the
    module docstring for why this equals the lattice recursion exactly.
    """
    check_game(T, eps, safe_arm)
    drift = eps if safe_arm == 1 else -eps
    w_n = _walk_source_sum(T, arm_probs(eps, safe_arm)[0], lambda xi: -drift * np.sign(xi))
    w_h = _abs_walk_terminal(T, *_lazy_walk_probs(drift))
    return w_h + w_n


def pseudoregret_value(T: int, eps: float, safe_arm: int = 1) -> float:
    """Exact vbar(0, 0, -T): accumulated 2*eps*P(pull risky) over the walk."""
    check_game(T, eps, safe_arm)
    return _walk_source_sum(T, arm_probs(eps, safe_arm)[0],
                            lambda xi: _pseudo_source(xi, eps, safe_arm))


def bayesian_pseudoregret_check(T: int, eps: float) -> float:
    """Pseudoregret under a uniform prior on the safe-arm label.

    (vbar(safe=1) + vbar(safe=2)) / 2; equals the minimax value because
    the myopic player is indifferent to the label.
    """
    return 0.5 * (pseudoregret_value(T, eps, safe_arm=1)
                  + pseudoregret_value(T, eps, safe_arm=2))


# ---------------------------------------------------------------------------
# Value-at-origin traces (for convergence plots / CSV dumps)
# ---------------------------------------------------------------------------

def value_trace(T: int, eps: float, safe_arm: int = 1) -> list[tuple[int, float, float]]:
    """Rows (t, v(0,0,t), vbar(0,0,t)) for t = -T..0 from single passes.

    The recursions are time homogeneous, so the slice values at the
    origin are the values of the shorter games; computed on unpacked
    integer windows so every t has an origin entry.
    """
    check_game(T, eps, safe_arm)
    drift = eps if safe_arm == 1 else -eps
    up = (1.0 + drift) / 2.0
    down = 1.0 - up
    src_scale = -eps if safe_arm == 1 else eps

    n = 2 * T + 1
    xi = np.arange(-T, T + 1).astype(float)

    # regret source walk, full window: entry x feeds from x-1 and x+1
    w = np.zeros(n)
    wn_origin = [0.0]
    src_n = src_scale * np.sign(xi)
    for _ in range(T):
        nxt = np.empty(n)
        nxt[1:-1] = up * w[2:] + down * w[:-2]
        nxt[0] = up * w[1]      # boundary rows never reach the origin cone
        nxt[-1] = down * w[-2]
        w = src_n + nxt
        wn_origin.append(w[T])

    p_up, p_down = _lazy_walk_probs(drift)
    p_stay = 1.0 - p_up - p_down
    h = np.abs(np.arange(-T, T + 1)).astype(float)
    wh_origin = [0.0]
    for _ in range(T):
        nxt = np.empty(n)
        nxt[1:-1] = p_up * h[2:] + p_stay * h[1:-1] + p_down * h[:-2]
        nxt[0] = p_up * h[1] + p_stay * h[0]
        nxt[-1] = p_down * h[-2] + p_stay * h[-1]
        h = nxt
        wh_origin.append(h[T])

    src_b = _pseudo_source(xi, eps, safe_arm)
    b = np.zeros(n)
    vbar_origin = [0.0]
    for _ in range(T):
        nxt = np.empty(n)
        nxt[1:-1] = up * b[2:] + down * b[:-2]
        nxt[0] = up * b[1]
        nxt[-1] = down * b[-2]
        b = src_b + nxt
        vbar_origin.append(b[T])

    return [
        (-k, float(wh_origin[k] + wn_origin[k]), float(vbar_origin[k]))
        for k in range(T, -1, -1)
    ]

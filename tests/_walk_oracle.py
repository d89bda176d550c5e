"""The O(T^2) one-dimensional walk decomposition, the mid-scale oracle
for the O(T) route in `symbandit.dp`.

The terminal payoff is (eta + |zeta|)/2 and eta enters all values
linearly, so the regret at the origin splits into E[|zeta_T|]/2 plus the
accumulated E[d eta]/2 source. The joint law of the per-round increments
(d xi_r, d zeta) is the same whichever arm is chosen, so each piece is an
expectation over an uncontrolled walk:

* zeta/2 walks with steps +1, 0, -1 w.p. (1+eps)^2/4, (1-eps^2)/2,
  (1-eps)^2/4 and terminal score |zeta/2|;
* xi_r walks with steps +-1 (up w.p. (1+eps)/2) and per-round source
  -eps*sign(xi_r), the two choice branches averaging to zero at xi_r = 0.

Pseudoregret is the same xi_r walk with source 2*eps*P(pull risky arm).
Each backward walk sums its slices by plain recursion, so it needs no
central-binomial arithmetic. Error budgets against the rational oracle
are pinned in tests/test_exact.py: the regret walk adds two sums that
cancel when gamma = eps*sqrt(T) is large.
"""

from typing import Callable

import numpy as np

from symbandit.core import arm_probs, check_game


def _walk_source_sum(T: int, up: float, source: Callable[[np.ndarray], np.ndarray]) -> float:
    """Backward induction of sum_t E[source(W_t)] for the +-1 walk from 0.

    Parity-packed slices: at k rounds elapsed the walk sits on
    xi_r = -k + 2j, j = 0..k, and entry j feeds from entries j (down step)
    and j+1 (up step) of the next slice.
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


def _pseudo_source(xi: np.ndarray, eps: float, safe_arm: int) -> np.ndarray:
    """2*eps*P(the myopic player pulls the risky arm) at xi_r = xi."""
    behind = xi < 0 if safe_arm == 1 else xi > 0
    return 2.0 * eps * (behind + 0.5 * (xi == 0))


def walk_regret_value(T: int, eps: float, safe_arm: int = 1) -> float:
    """v(0, 0, -T): E[|zeta_T|]/2 plus the -eps*sign(xi_r) source walk."""
    check_game(T, eps, safe_arm)
    drift = eps if safe_arm == 1 else -eps
    w_n = _walk_source_sum(T, arm_probs(eps, safe_arm)[0], lambda xi: -drift * np.sign(xi))
    w_h = _abs_walk_terminal(T, (1.0 + drift) ** 2 / 4.0, (1.0 - drift) ** 2 / 4.0)
    return w_h + w_n


def walk_pseudoregret_value(T: int, eps: float, safe_arm: int = 1) -> float:
    """vbar(0, 0, -T): accumulated 2*eps*P(pull risky) over the xi_r walk."""
    check_game(T, eps, safe_arm)
    return _walk_source_sum(T, arm_probs(eps, safe_arm)[0],
                            lambda xi: _pseudo_source(xi, eps, safe_arm))

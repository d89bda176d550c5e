"""The reduced (xi_r, zeta) lattice recursion, an O(T^3) oracle for the
production walk decomposition in `symbandit.dp` at horizons the full
(eta, xi_h, xi_r) table cannot reach."""

import numpy as np

from symbandit.core import check_game, reward_table

REDUCED_2D_MAX_T = 512


def regret_value_reduced(T: int, eps: float, safe_arm: int = 1) -> float:
    """v(0, 0, -T) on the (xi_r, zeta) lattice with scalar eta source.

    O(T^2) states per slice, O(T^3) work; cross-checks the production
    decomposition at horizons the full table cannot reach.
    """
    check_game(T, eps, safe_arm)
    if T > REDUCED_2D_MAX_T:
        raise ValueError(f"reduced 2-d recursion is limited to T <= {REDUCED_2D_MAX_T}, got {T}")
    sign = 1.0 if safe_arm == 1 else -1.0
    outcomes = reward_table(eps, safe_arm)

    # w[x_idx, m_idx]: x = xi_r in [-T, T], m = zeta/2 in [-T, T]
    n = 2 * T + 1
    off = T
    x = np.arange(-T, T + 1).reshape(-1, 1)
    m = np.arange(-T, T + 1).reshape(1, -1)
    w = np.broadcast_to(np.abs(m).astype(float), (n, n)).copy()

    def shifted(arr, dx, dm):
        out = np.zeros_like(arr)
        xs = slice(max(0, -dx), n - max(0, dx))
        ms = slice(max(0, -dm), n - max(0, dm))
        xd = slice(max(0, dx), n - max(0, -dx))
        md = slice(max(0, dm), n - max(0, -dm))
        out[xs, ms] = arr[xd, md]
        return out

    for _ in range(T):
        pick1 = np.zeros_like(w)
        pick2 = np.zeros_like(w)
        for g1, g2, pr in outcomes:
            dm = (g1 - g2) // 2
            pick1 += pr * shifted(w, g1, dm)
            pick2 += pr * shifted(w, -g2, dm)
        pick1 -= sign * eps
        pick2 += sign * eps
        w = np.where(x > 0, pick1, np.where(x < 0, pick2, 0.5 * (pick1 + pick2)))
    return float(w[off, off])

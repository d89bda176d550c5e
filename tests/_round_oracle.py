"""The round loop as it was before the branch-free rewrite: the oracle
that `env._play_rounds` must match bit for bit on the same draws.

It selects the chosen arm's reward with `np.where` and counts risky
pulls round by round; the production loop does both by arithmetic.
"""

import numpy as np

from symbandit.core import arm_probs


def _play_rounds(T, eps, strategy, n, draws, safe_arm, record=None):
    """Play n episodes through T rounds.

    `draws` yields T arrays of shape (3, n): choice coins, g1 uniforms
    and g2 uniforms. Arm 1 reveals g1 (xi_r += g1), arm 2 reveals g2
    (xi_r -= g2); eta += g1 + g2 - 2*g_chosen and zeta = xi_r + xi_h moves
    by g1 - g2 whatever the choice. When `record` is given, round k's
    arm-1 picks, g1 and g2 go into row k of its three (T, n) arrays.
    Returns (final payoff mu, risky pulls).
    """
    p_g1, p_g2 = arm_probs(eps, safe_arm)
    eta = np.zeros(n, dtype=np.int64)
    xi_r = np.zeros(n, dtype=np.int64)
    zeta = np.zeros(n, dtype=np.int64)
    risky = np.zeros(n, dtype=np.int64)
    for k, (coin, u1, u2) in enumerate(draws):
        pick1 = coin < strategy.p1_batch(k - T, xi_r)
        # rewards are +-1; int8 keeps the per-round temporaries small
        g1 = 2 * (u1 < p_g1).astype(np.int8) - 1
        g2 = 2 * (u2 < p_g2).astype(np.int8) - 1
        eta += g1 + g2 - 2 * np.where(pick1, g1, g2)
        xi_r += np.where(pick1, g1, -g2)
        zeta += g1 - g2
        risky += pick1 if safe_arm == 2 else ~pick1
        if record is not None:
            record[0][k], record[1][k], record[2][k] = pick1, g1, g2
    return 0.5 * (eta + np.abs(zeta)), risky

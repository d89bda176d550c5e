"""Desk-scale oracle of the myopic player's values: backward induction on
the raw (eta, xi_h, xi_r) regret lattice and the unreduced (xi_r, s2)
pseudoregret lattice, T <= 12.

Transparent dict-based recursions over the reachable states, sharing no
code with the production routes in `symbandit.dp`. They play both
safe-arm labels, so they are the tests' label-swap check, and acceptance
criterion 8 holds the production route to them.
"""

from symbandit.core import arm_probs, check_game, terminal_payoff

FULL_TABLE_MAX_T = 12


def reward_table(eps, safe_arm=1):
    """The four reward pairs (g1, g2) of one round with their probabilities."""
    p1, p2 = arm_probs(eps, safe_arm)
    return [
        (g1, g2, (p1 if g1 == 1 else 1.0 - p1) * (p2 if g2 == 1 else 1.0 - p2))
        for g1 in (1, -1)
        for g2 in (1, -1)
    ]


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

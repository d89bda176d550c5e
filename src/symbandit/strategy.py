"""Player strategies and the small-horizon brute-force minimax oracle.

The myopic player picks the arm with the larger revealed cumulative
reward difference xi_r (a maximum-likelihood guess of the safe arm) and
splits 1/2 - 1/2 on a tie. The brute-force search shows, at tiny
horizons, that no strategy on a probability grid beats it by more than a
grid-resolution bound. It values every grid strategy at once from the
rows of `dp.walk_law`, the law of xi_r, which no player changes. It is
the oracle of acceptance criterion 9 and a benchmark probe; `symbandit
verify` certifies minimax for every player by Le Cam's bound in `dp`.

Each player has one decision method, p1_batch(t, xi_r): the probability
of pulling arm 1 at round t, for every revealed difference in an array.
The simulator passes xi_r in the narrow signed integer dtype of its
round loop (int16 up to T = 2^15 - 1, see `env`).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import arm_probs, check_game, content_lines


class MyopicStrategy:
    """Arm 1 iff xi_r > 0, arm 2 iff xi_r < 0, fair coin at xi_r = 0."""

    def p1_batch(self, t: int, xi_r: np.ndarray) -> np.ndarray:
        # sign/2 + 1/2 in one float64 array: exactly 0.0, 0.5 or 1.0
        p1 = np.sign(xi_r).astype(np.float64)
        p1 *= 0.5
        p1 += 0.5
        return p1


class UniformStrategy:
    """Baseline that ignores the history: a fair coin every round."""

    def p1_batch(self, t: int, xi_r: np.ndarray) -> np.ndarray:
        return np.full(xi_r.shape, 0.5)


class TabularStrategy:
    """Explicit (t, xi_r) -> p1 table, loadable from a plain-text file.

    File format: one `t xi_r p1` triple per line, '#' starts a comment.
    A key no game reaches is refused: t >= 0, or |xi_r| > t - t_min, or
    xi_r and t - t_min of unlike parity, for the earliest key's t_min.
    The table is held as one dense array over the rectangle of its keys'
    t and xi_r ranges, with NaN where the table has no entry, plus a NaN
    row past the last t and a NaN column each side: a decision is one row
    lookup clipped into that border, so no index wraps around. With
    T = -t_min that is at most (T + 1) * (2T + 1) cells of 8 bytes, about
    32 bytes per reachable state.
    """

    def __init__(self, table: dict[tuple[int, int], float]):
        t_min = min((t for t, _ in table), default=0)
        for (t, x), p in table.items():
            if t >= 0 or abs(x) > t - t_min or (x - t + t_min) % 2:
                raise ValueError(f"table key ({t}, {x}) is unreachable: a game from t = {t_min} "
                                 f"has t < 0, and |xi_r| <= {t - t_min} of like parity there")
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"p1 must lie in [0, 1], got {p} at ({t}, {x})")
        ts = [t for t, _ in table] or [0]
        xs = [x for _, x in table] or [0]
        self._t0, self._x0 = min(ts), min(xs) - 1  # column 0 is the left border
        self._p1 = np.full((max(ts) - self._t0 + 2, max(xs) - self._x0 + 2), np.nan)
        for (t, x), p in table.items():
            self._p1[t - self._t0, x - self._x0] = p

    def p1_batch(self, t: int, xi_r: np.ndarray) -> np.ndarray:
        row = t - self._t0
        row = row if 0 <= row < len(self._p1) - 1 else -1  # -1: the border row
        # in intp whatever xi_r's dtype: in a narrow dtype the difference
        # could wrap, or numpy 2 refuses an _x0 outside its range
        p1 = self._p1[row].take(np.subtract(xi_r, self._x0, dtype=np.intp), mode="clip")
        holes = np.isnan(p1)
        if holes.any():
            x = xi_r[holes.argmax()]
            raise ValueError(f"strategy table has no entry for (t={t}, xi_r={x})")
        return p1

    @classmethod
    def from_file(cls, path) -> "TabularStrategy":
        table = {}
        for place, body, line in content_lines(path):
            try:
                t, x, p1 = body.split()
                key, p1 = (int(t), int(x)), float(p1)
            except ValueError:
                raise ValueError(f"{place}: expected integers t and xi_r and a "
                                 f"number p1, got {line!r}") from None
            if key in table:
                raise ValueError(f"{place}: state (t={key[0]}, xi_r={key[1]}) is listed twice")
            table[key] = p1
        try:
            return cls(table)
        except ValueError as exc:  # an entry's refusal names its key (t, xi_r)
            raise ValueError(f"{path}: {exc}") from None


class BruteForceCertificate(NamedTuple):
    """Result of the exhaustive grid search over tabular strategies."""

    value: float                # min over the strategy grid of worst-case regret
    myopic_value: float         # regret of the myopic player, the same under either label
    achieved_by_myopic: bool    # myopic within `tolerance` of the grid minimum
    tolerance: float            # conservative grid-resolution (Lipschitz) bound


def brute_force_minimax(T: int, eps: float, grid: int) -> BruteForceCertificate:
    """Exhaustive minimax search over tabular strategies on a probability grid.

    Every strategy assigns one of `grid` evenly spaced arm-1 probabilities
    to each decision class (t, xi_r); class k's varies along axis k of the
    strategy grid. Under either label xi_r is that label's +-1 walk,
    stepping up w.p. `arm_probs(eps, label)[0]` whatever the player does,
    so the expected pseudoregret is 2 eps * sum_k P(reach class k) *
    P(risky pull at k), each reach read from `dp.walk_law`; regret adds
    v - vbar of `dp.values`, the same for every player. The myopic
    player's exact regret v must attain the grid minimum of the worse
    label within one conservative Lipschitz bound (2 * classes / grid).
    """
    from . import dp

    if T > 3:
        raise ValueError(f"brute force search is limited to T <= 3, got {T}")
    if grid < 2:
        raise ValueError(f"grid must have at least 2 levels, got {grid}")
    check_game(T, eps)

    classes = [(t, x) for t in range(-T, 0) for x in range(-(T + t), T + t + 1, 2)]
    n = len(classes)
    if grid**n > 4e6:
        raise ValueError(
            f"strategy grid too large: {grid}^{n} points; lower `grid` or T"
        )
    levels = np.linspace(0.0, 1.0, grid)
    pseudoregret = []
    for safe_arm in (1, 2):
        law = list(dp.walk_law(T, arm_probs(eps, safe_arm)[0]))
        total = 0.0
        # the last class first: its axis is the last, so the sum gains one axis per class
        for k in reversed(range(n)):
            t, x = classes[k]
            reach = law[T + t][(T + t + x) // 2]
            p1 = levels.reshape((grid,) + (1,) * (n - 1 - k))
            total = total + reach * (1.0 - p1 if safe_arm == 1 else p1)
        pseudoregret.append(2.0 * eps * total)

    v, vbar = dp.values(T, eps)
    grid_min = float(np.maximum(*pseudoregret).min()) + (v - vbar)
    tolerance = 2.0 * n / grid
    return BruteForceCertificate(
        value=grid_min,
        myopic_value=v,
        achieved_by_myopic=v <= grid_min + tolerance + 1e-12,
        tolerance=tolerance,
    )

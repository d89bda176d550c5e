import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symbandit import dp
from symbandit.core import check_game, terminal_payoff
from symbandit.strategy import (
    MyopicStrategy,
    TabularStrategy,
    UniformStrategy,
    brute_force_minimax,
)

from _lattice import pseudoregret_value_full, regret_value_full, reward_table


def history_tree_regret(T, eps, p1_of, safe_arm=1):
    """Exact expected final regret by full outcome-tree enumeration, for a
    player whose arm-1 probability `p1_of(t, xi_r, history)` may read the
    whole history: the tuple of (choice, revealed reward) pairs so far.

    Exponential in T; a desk oracle for the full-lattice dynamic program
    and the brute-force search at tiny horizons, sharing none of their code.
    """
    check_game(T, eps, safe_arm)
    outcomes = reward_table(eps, safe_arm)

    def walk(t, eta, xi_h, xi_r, hist, prob):
        if t == 0:
            return prob * terminal_payoff(eta, xi_h, xi_r)
        p1 = p1_of(t, xi_r, hist)
        total = 0.0
        for g1, g2, pr in outcomes:
            if p1 > 0.0:
                total += walk(t + 1, eta + g1 + g2 - 2 * g1, xi_h - g2, xi_r + g1,
                              hist + ((1, g1),), prob * pr * p1)
            if p1 < 1.0:
                total += walk(t + 1, eta + g1 + g2 - 2 * g2, xi_h + g1, xi_r - g2,
                              hist + ((2, g2),), prob * pr * (1.0 - p1))
        return total

    return walk(-T, 0, 0, 0, (), 1.0)


def tree_expected_regret(T, eps, strategy, safe_arm=1):
    """`history_tree_regret` of a player that reads only (t, xi_r)."""
    return history_tree_regret(
        T, eps, lambda t, xi_r, _: float(strategy.p1_batch(t, np.array([xi_r]))[0]), safe_arm)


def histories(T):
    """Every history a player meets in a T-round game, shortest first."""
    return [hist for rounds in range(T) for hist in
            itertools.product([(1, 1), (1, -1), (2, 1), (2, -1)], repeat=rounds)]


class TestMyopic:
    def test_rule(self):
        # in every counter dtype, up to its extremes: exactly 1, 1/2 or 0, in float64
        for dtype in (np.int8, np.int16, np.int32, np.int64):
            info = np.iinfo(dtype)
            xi_r = np.array([info.max, 1, 0, -1, info.min], dtype)
            p1 = MyopicStrategy().p1_batch(-5, xi_r)
            assert p1.dtype == np.float64, dtype
            assert p1.tolist() == [1.0, 1.0, 0.5, 0.0, 0.0], dtype

    def test_decision_validation(self):
        with pytest.raises(ValueError):
            TabularStrategy({(-1, 0): 1.5})


class TestLikelihoodRatio:
    @given(st.integers(-30, 30), st.floats(min_value=1e-6, max_value=0.999))
    def test_argmax_agreement_with_myopic(self, xi_r, eps):
        # odds that arm 1 is safe given the revealed difference xi_r
        ratio = ((1.0 + eps) / (1.0 - eps)) ** xi_r
        p1 = MyopicStrategy().p1_batch(-1, np.array([xi_r]))[0]
        if ratio > 1.0:
            assert p1 == 1.0
        elif ratio < 1.0:
            assert p1 == 0.0
        else:
            assert p1 == 0.5


class TestTabular:
    def test_from_text(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text("# t xi_r p1\n-2 0 0.5\n-1 1 1.0  # sure\n\n-1 -1 0.25\n")
        s = TabularStrategy.from_file(path)
        assert s.p1_batch(-2, np.array([0])).tolist() == [0.5]
        assert s.p1_batch(-1, np.array([1, -1, 1])).tolist() == [1.0, 0.25, 1.0]
        path.write_text("-2 0 0.5\n-1 1\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: ")):
            TabularStrategy.from_file(path)

    @pytest.mark.parametrize("text, message", [
        ("-2 0 0.5\n-1.5 1 1.0\n", "line 2: expected integers t and xi_r"),
        ("-2 0 0.5\n-1 x 1.0\n", "line 2: expected integers t and xi_r"),
        ("-2 0 0.5\n-1 1 half\n", "line 2: expected integers t and xi_r"),
        # a state given twice must not quietly keep the last line
        ("-2 0 0.5\n-1 1 1.0\n# again\n-1 1 0.0\n",
         "line 4: state (t=-1, xi_r=1) is listed twice"),
    ])
    def test_malformed_line_is_named(self, tmp_path, text, message):
        path = tmp_path / "table.txt"
        path.write_text(text)
        lineno, reason = message.removeprefix("line ").split(": ", 1)
        with pytest.raises(ValueError, match=re.escape(f"{path}:{lineno}: {reason}")):
            TabularStrategy.from_file(path)

    # the table's keys span t in [-4, -1] and xi_r in [-1, 3], all reachable
    # from t = -4, with a hole at (-1, 1), t = -4 and -2 holding only
    # xi_r = 0, and t = -3 no entry
    TABLE = {(-4, 0): 0.5, (-2, 0): 0.5, (-1, -1): 0.0, (-1, 3): 1.0}

    @pytest.mark.parametrize("t, xi_r, missing", [
        (-1, [3, 1, -1], 1),     # a hole inside the range
        (-1, [-1, 3, 4], 4),     # above the largest key
        (-1, [3, -2], -2),       # below the smallest: column -1 would wrap to xi_r 3
        (-1, [3, -7], -7),       # further below: past the row's start
        (-2, [0, 3], 3),         # a hole in another row
        (-3, [0, -1], 0),        # a row without entries
        (0, [-1], -1),           # t after the table
        (-5, [0, -1], 0),        # t before it
    ])
    def test_missing_state_raises(self, t, xi_r, missing):
        s = TabularStrategy(self.TABLE)
        with pytest.raises(ValueError, match=rf"\(t={t}, xi_r={missing}\)"):
            s.p1_batch(t, np.array(xi_r, dtype=np.int64))

    @settings(max_examples=200, deadline=None)
    @given(T=st.integers(1, 6), data=st.data())
    def test_lookup_equals_a_dict(self, T, data):
        # a random table over the states a game from t = -T reaches, with
        # holes, queried on and off its rectangle: each answer is the
        # dict's, or the first miss is named
        states = [(t, x) for t in range(-T, 0) for x in range(-(T + t), T + t + 1, 2)]
        table = data.draw(st.dictionaries(st.sampled_from(states), st.floats(0.0, 1.0)))
        table[(-T, 0)] = data.draw(st.floats(0.0, 1.0))  # the origin fixes t_min
        t = data.draw(st.integers(-T - 2, 1))
        xi_r = np.array(data.draw(st.lists(st.integers(-T - 3, T + 3), max_size=12)),
                        dtype=np.int64)
        s = TabularStrategy(table)
        expected = [table.get((t, x)) for x in xi_r.tolist()]
        if None in expected:
            missing = xi_r[expected.index(None)]
            with pytest.raises(ValueError, match=rf"\(t={t}, xi_r={missing}\)"):
                s.p1_batch(t, xi_r)
        else:
            assert s.p1_batch(t, xi_r).tolist() == expected

    def test_lookup(self):
        s = TabularStrategy(self.TABLE)
        assert s.p1_batch(-1, np.array([3, -1, 3])).tolist() == [1.0, 0.0, 1.0]
        assert s.p1_batch(-2, np.array([0, 0])).tolist() == [0.5, 0.5]
        assert s.p1_batch(-4, np.array([0])).tolist() == [0.5]

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
    def test_lookup_in_any_integer_dtype(self, dtype):
        # the columns start at xi_r = -201, outside int8: the lookup indexes
        # in intp, so a narrow xi_r neither overflows nor wraps into the NaN
        # border. The simulator's int16 xi_r would meet the same fault only
        # on a table of 2^15 rounds, an array of over 8 GB.
        T = 200
        s = TabularStrategy({(t, x): (x + T) / (2 * T)
                             for t in range(-T, 0) for x in range(-(T + t), T + t + 1, 2)})
        xi_r = [-127, -1, 1, 127]  # int8's extremes, reachable at t = -73
        assert (s.p1_batch(-73, np.array(xi_r, dtype=dtype)).tolist()
                == [(x + T) / (2 * T) for x in xi_r])

    @pytest.mark.parametrize("table, key", [
        # a game from t = -100 has |xi_r| <= 99 at t = -1: the rectangle
        # up to xi_r = 100000 would take 80 MB
        ({(-100, 0): 0.5, (-1, 100000): 0.5}, (-1, 100000)),
        ({(-2, 0): 0.5, (-1, -2): 0.5}, (-1, -2)),  # below the reachable range
        ({(-2, 0): 0.5, (-2, 1): 0.5}, (-2, 1)),    # off the origin at the first round
        ({(-1, 0): 0.5, (0, 0): 0.5}, (0, 0)),      # t = 0 is after the last round
        ({(-2, 0): 0.5, (-1, 0): 0.25}, (-1, 0)),   # xi_r is odd one round after the origin
    ])
    def test_unreachable_key_raises(self, table, key):
        with pytest.raises(ValueError, match=re.escape(f"table key {key} is unreachable")):
            TabularStrategy(table)

    def test_undefined_class_raises(self):
        s = TabularStrategy({(-1, 0): 0.5})
        with pytest.raises(ValueError, match=r"\(t=-1, xi_r=2\)"):
            s.p1_batch(-1, np.array([0, 2]))


class TestOutcomeTree:
    def test_matches_full_dp_for_myopic(self):
        # two independently coded exact routes
        for T, eps in [(1, 0.3), (2, 0.5), (3, 0.15)]:
            tree = tree_expected_regret(T, eps, MyopicStrategy(), safe_arm=1)
            table = regret_value_full(T, eps, safe_arm=1)
            assert tree == pytest.approx(table, abs=1e-13)

    def test_uniform_player_one_round(self):
        # E max(g1, g2) = (1 + eps^2)/2 and E g_I = 0 for the uniform player
        eps = 0.4
        val = tree_expected_regret(1, eps, UniformStrategy(), safe_arm=1)
        assert val == pytest.approx((1 + eps * eps) / 2, abs=1e-15)


class TestBruteForce:
    def test_one_round_matches_formula(self):
        eps = 0.3
        cert = brute_force_minimax(1, eps, grid=101)
        assert abs(cert.value - (1 + eps * eps) / 2) <= 2.0 / 101
        assert cert.achieved_by_myopic

    def test_one_round_zero_gap(self):
        cert = brute_force_minimax(1, 0.0, grid=101)
        assert cert.value == pytest.approx(0.5, abs=1e-12)

    def test_two_rounds_myopic_optimal(self):
        cert = brute_force_minimax(2, 0.3, grid=51)
        assert cert.achieved_by_myopic
        # the myopic decisions sit on the odd grid, so the grid minimum
        # cannot undercut the true minimax value attained by the myopic rule
        assert cert.myopic_value <= cert.value + 1e-12

    @pytest.mark.parametrize("T,eps,grid", list(itertools.product([1, 2], [0.0, 0.15, 0.3, 0.8],
                                                                  [2, 3])))
    def test_value_is_the_min_over_every_tabular_strategy(self, T, eps, grid):
        # one outcome-tree walk per grid strategy and label, sharing no code
        # with the broadcast sum over the law of xi_r
        states = [(t, x) for t in range(-T, 0) for x in range(-(T + t), T + t + 1, 2)]
        want = min(
            max(tree_expected_regret(T, eps, TabularStrategy(dict(zip(states, p1s))), safe_arm=a)
                for a in (1, 2))
            for p1s in itertools.product(np.linspace(0.0, 1.0, grid), repeat=len(states)))
        assert abs(brute_force_minimax(T, eps, grid).value - want) <= 1e-15

    def test_guards(self):
        with pytest.raises(ValueError):
            brute_force_minimax(4, 0.2, grid=5)
        with pytest.raises(ValueError):
            brute_force_minimax(3, 0.2, grid=51)  # 51^6 strategy points
        with pytest.raises(ValueError, match="grid must have at least 2 levels, got 1"):
            brute_force_minimax(1, 0.3, grid=1)


def bayes_regret_bound(T, eps):
    """No player's worse-label regret is below this: the Bayes bound on
    pseudoregret plus v - vbar, which is the same for every player."""
    v, vbar = dp.values(T, eps)
    return dp.bayes_pseudoregret(T, eps) + (v - vbar)


class TestBayesBound:
    @settings(max_examples=50, deadline=None)
    @given(T=st.integers(1, 4), eps=st.floats(0.0, 0.95), data=st.data())
    def test_no_table_beats_the_bound(self, T, eps, data):
        states = [(t, x) for t in range(-T, 0) for x in range(-(T + t), T + t + 1, 2)]
        p1s = data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(states),
                                 max_size=len(states)))
        s = TabularStrategy(dict(zip(states, p1s)))
        worst = max(tree_expected_regret(T, eps, s, safe_arm=a) for a in (1, 2))
        assert worst >= bayes_regret_bound(T, eps) - 1e-12

    @pytest.mark.parametrize("T,eps", list(itertools.product([1, 2, 3, 4],
                                                             [0.0, 0.1, 0.45, 0.9])))
    def test_myopic_meets_the_bound(self, T, eps):
        for a in (1, 2):
            regret = tree_expected_regret(T, eps, MyopicStrategy(), safe_arm=a)
            assert abs(regret - bayes_regret_bound(T, eps)) <= 1e-15

    def test_grid_minimum_sits_on_the_bound(self):
        # the grid holds the myopic decisions 0, 1/2 and 1, so its minimum
        # meets the bound up to rounding, and no grid point goes below it
        cert = brute_force_minimax(2, 0.4, grid=11)
        bound = bayes_regret_bound(2, 0.4)
        assert bound - 1e-12 <= cert.value <= bound + 1e-12

    @settings(max_examples=50, deadline=None)
    @given(T=st.integers(1, 3), eps=st.floats(0.0, 0.95), data=st.data())
    def test_no_history_player_beats_the_bound(self, T, eps, data):
        # a player keyed by the whole (choice, revealed reward) history sees
        # more than (t, xi_r), yet cannot go below the Bayes bound
        hists = histories(T)
        p1s = data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(hists),
                                 max_size=len(hists)))
        table = dict(zip(hists, p1s))
        worst = max(history_tree_regret(T, eps, lambda t, x, hist: table[hist], safe_arm=a)
                    for a in (1, 2))
        assert worst >= bayes_regret_bound(T, eps) - 1e-12

    @pytest.mark.parametrize("T,eps", list(itertools.product([1, 2, 3], [0.0, 0.1, 0.45, 0.9])))
    def test_myopic_history_table_meets_the_bound(self, T, eps):
        # the myopic rule written as a history table: xi_r sums +g for an
        # arm-1 pull and -g for an arm-2 pull
        table = {}
        for hist in histories(T):
            xi_r = sum(g if choice == 1 else -g for choice, g in hist)
            table[hist] = 1.0 if xi_r > 0 else 0.0 if xi_r < 0 else 0.5
        for a in (1, 2):
            regret = history_tree_regret(T, eps, lambda t, x, hist: table[hist], safe_arm=a)
            assert abs(regret - bayes_regret_bound(T, eps)) <= 1e-15


class TestIndifference:
    @pytest.mark.parametrize("T,eps", list(itertools.product([1, 4, 9, 12],
                                                             [0.1, 0.3, 0.7])))
    def test_safe_arm_swap(self, T, eps):
        # the production route takes no label; the full lattices play each
        # label, and the label-2 value must equal the production one
        v1 = regret_value_full(T, eps, safe_arm=1)
        v2 = regret_value_full(T, eps, safe_arm=2)
        assert abs(v1 - v2) <= 1e-12
        assert abs(v2 - dp.regret_value(T, eps)) <= 1e-12
        b1 = pseudoregret_value_full(T, eps, safe_arm=1)
        b2 = pseudoregret_value_full(T, eps, safe_arm=2)
        assert abs(b1 - b2) <= 1e-12
        assert abs(b2 - dp.pseudoregret_value(T, eps)) <= 1e-12

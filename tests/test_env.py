import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from _round_oracle import _play_rounds as oracle_rounds
from symbandit import env
from symbandit.core import terminal_payoff
from symbandit.env import EpisodeLog, play_episode, play_episodes, simulate_batch
from symbandit.experiments import SIMULATE, _mc_chunk, mc_estimate
from symbandit.strategy import MyopicStrategy, TabularStrategy, UniformStrategy


def replay(choices, rewards):
    """Final payoff and risky-arm-2 pulls of a logged episode, one round at
    a time: arm 1 reveals g1 (xi_r += g1, xi_h -= g2), arm 2 reveals g2
    (xi_r -= g2, xi_h += g1), and eta += g1 + g2 - 2*g_chosen."""
    eta = xi_h = xi_r = 0
    for choice, (g1, g2) in zip(choices, rewards):
        eta += g1 + g2 - 2 * (g1 if choice == 1 else g2)
        if choice == 1:
            xi_r, xi_h = xi_r + g1, xi_h - g2
        else:
            xi_r, xi_h = xi_r - g2, xi_h + g1
    return terminal_payoff(eta, xi_h, xi_r), sum(c == 2 for c in choices)


def traced_peak(f, *args):
    """The tracemalloc peak, in bytes, of f(*args) after one warm-up call."""
    f(*args)
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def forced_rounds(choices, g1s, g2s):
    """Play one episode whose draws force the given choices and rewards:
    a fair-coin player at eps = 0 picks arm 1 iff coin < 1/2, and a
    reward is +1 iff its uniform is < 1/2."""
    draws = [np.array([[0.25 if c == 1 else 0.75], [0.25 if a == 1 else 0.75],
                       [0.25 if b == 1 else 0.75]]) for c, a, b in zip(choices, g1s, g2s)]
    mu, risky = env._play_rounds(len(choices), 0.0, UniformStrategy(), 1, iter(draws), 1)
    return float(mu[0]), int(risky[0])


def test_reward_pair_validation():
    line = play_episode(3, 0.2, MyopicStrategy(), seed=1).to_line()
    EpisodeLog.from_line(line)
    with pytest.raises(ValueError):
        EpisodeLog.from_line(line.replace('"rewards":[[', '"rewards":[[0,1],['))
    with pytest.raises(ValueError):
        EpisodeLog.from_line(line.replace('"choices":[', '"choices":[3,'))
    with pytest.raises(ValueError, match="audit record keys"):  # a record without s2
        EpisodeLog.from_line(line.replace(',"s2":', ',"risky_pulls":'))
    with pytest.raises(ValueError, match="safe_arm must be 1 or 2, got 7"):
        EpisodeLog.from_line(line.replace('"safe_arm":1', '"safe_arm":7'))
    with pytest.raises(ValueError, match="eps=3.0"):
        EpisodeLog.from_line(line.replace('"eps":0.2', '"eps":3.0'))
    rec = json.loads(line)
    rec["choices"] = rec["choices"][:1]  # one choice against three reward pairs
    with pytest.raises(ValueError, match="rewards must hold one pair per choice"):
        EpisodeLog.from_line(json.dumps(rec))


# one field of the record of play_episode(3, 0.2, MyopicStrategy(), seed=1),
# whose choices [2, 2, 2] and rewards give final_regret 2.0 and s2 3
@pytest.mark.parametrize("key, value, message", [
    ("s2", -5, "'s2' is -5, but the choices and rewards give 3"),
    ("final_regret", 99.0, "'final_regret' is 99.0, but the choices and rewards give 2.0"),
    ("safe_arm", True, "'safe_arm' must be of type int, got True"),
    ("choices", [True, 2, 2], r"choices must be a list of 1s and 2s, got \[True, 2, 2\]"),
    ("eps", "x", "'eps' must be of type float or int, got 'x'"),
], ids=["s2", "final_regret", "safe_arm_bool", "choice_bool", "eps_string"])
def test_from_line_refuses_a_record_no_episode_writes(key, value, message):
    rec = json.loads(play_episode(3, 0.2, MyopicStrategy(), seed=1).to_line())
    assert (rec["choices"], rec["final_regret"], rec["s2"]) == ([2, 2, 2], 2.0, 3)
    rec[key] = value
    with pytest.raises(ValueError, match=message):
        EpisodeLog.from_line(json.dumps(rec))


def test_play_episodes_refuses_a_seed_its_log_cannot_hold():
    # a SeedSequence from a list has a list for entropy, which from_line
    # refuses; it is refused by name before any episode of its block plays
    seeds = [1, np.random.SeedSequence([1, 2])]
    with pytest.raises(ValueError, match="seed must be an int"):
        next(play_episodes(3, 0.2, MyopicStrategy(), seeds))
    # a numpy integer logs as the int it is
    for seed in (np.int64(4), np.random.SeedSequence(np.int64(4))):
        log = next(play_episodes(3, 0.2, MyopicStrategy(), [seed]))
        assert EpisodeLog.from_line(log.to_line()).seed == 4


def test_golden_audit_logs_load():
    for path in sorted((Path(__file__).parent / "golden").glob("audit_*.jsonl")):
        for line in path.read_text().splitlines():
            assert EpisodeLog.from_line(line).to_line() == line


class TestSampleRewards:
    def test_rejects_bad_gap(self):
        rng = np.random.default_rng(0)
        for eps in (1.0, -0.1):
            with pytest.raises(ValueError):
                simulate_batch(5, eps, MyopicStrategy(), 10, rng)
            with pytest.raises(ValueError):
                play_episode(5, eps, MyopicStrategy(), seed=0)

    def test_degenerate_gap(self):
        log = play_episode(200, 1 - 1e-9, MyopicStrategy(), seed=1, safe_arm=1)
        assert all(r == (1, -1) for r in log.rewards)

    def test_mean_matches_gap(self):
        # deterministic given the seeds; binomial 3-sigma window
        eps, T = 0.2, 500
        logs = list(play_episodes(T, eps, UniformStrategy(), range(2000)))
        n = T * len(logs)
        total = sum(g1 for log in logs for g1, _ in log.rewards)
        se = 2.0 * math.sqrt((1 - eps * eps) / 4 / n)
        assert abs(total / n - eps) <= 3 * se

    def test_zero_gap_symmetric(self):
        T = 400
        logs = list(play_episodes(T, 0.0, UniformStrategy(), range(500)))
        n = T * len(logs)
        t1 = sum(g1 for log in logs for g1, _ in log.rewards)
        assert abs(t1 / n) <= 3 / math.sqrt(n)


class TestStep:
    def test_choice_one_example(self):
        # eta -2, xi_h 1, xi_r 1: payoff (-2 + |2|)/2, no risky pull
        assert forced_rounds([1], [1], [-1]) == (0.0, 0)

    def test_choice_two_example(self):
        # eta 2, xi_h 1, xi_r 1: payoff (2 + |2|)/2, one risky pull
        assert forced_rounds([2], [1], [-1]) == (2.0, 1)

    def test_rejects_finished_game(self):
        with pytest.raises(ValueError):
            play_episode(0, 0.2, MyopicStrategy(), seed=0)

    @given(st.lists(st.tuples(st.sampled_from([1, 2]), st.sampled_from([-1, 1]),
                              st.sampled_from([-1, 1])), min_size=1, max_size=8))
    def test_increment_algebra(self, rounds):
        choices, g1s, g2s = zip(*rounds)
        assert forced_rounds(choices, g1s, g2s) == replay(choices, list(zip(g1s, g2s)))


class TestEpisodes:
    def test_log_consistency(self):
        log = play_episode(50, 0.3, MyopicStrategy(), seed=7)
        assert len(log.choices) == len(log.rewards) == 50
        assert (log.final_regret, log.s2) == replay(log.choices, log.rewards)

    def test_roundtrip_serialization(self):
        log = play_episode(12, 0.25, UniformStrategy(), seed=3)
        assert EpisodeLog.from_line(log.to_line()) == log

    def test_label_swap_symmetry_at_zero_gap(self):
        # same seed, eps = 0: the two labelings give identical episodes
        a = play_episode(30, 0.0, MyopicStrategy(), seed=11, safe_arm=1)
        b = play_episode(30, 0.0, MyopicStrategy(), seed=11, safe_arm=2)
        assert a.choices == b.choices
        assert a.final_regret == b.final_regret

    def test_blocks_do_not_change_episodes(self, monkeypatch):
        # an episode depends on its own seed only, not on the episodes
        # played beside it or on how its rounds are drawn
        seeds = [np.random.SeedSequence(4, spawn_key=(9999, i)) for i in range(9)]
        whole = list(play_episodes(10, 0.3, MyopicStrategy(), seeds))
        monkeypatch.setattr(env, "AUDIT_BLOCK", 4)
        monkeypatch.setattr(env, "AUDIT_DRAW_ROUNDS", 3)
        assert list(play_episodes(10, 0.3, MyopicStrategy(), seeds)) == whole
        assert [play_episode(10, 0.3, MyopicStrategy(), s) for s in seeds] == whole

    def test_one_chunk_peak_memory(self):
        # numpy reports its buffers to tracemalloc, so this peak, unlike
        # ru_maxrss, does not move with the heap's layout. Measured: 2.06 MiB
        # (one 0.5 MiB row of draws, int16 counters, the scratch or the
        # returned arrays, one myopic decision), against 3.44 MiB with a
        # (3, n) draw buffer and 5.32 MiB with int64 counters; the bound
        # rounds up to 1/4 MiB.
        args = (100, 0.0707, MyopicStrategy(), 65536, np.random.default_rng(1))
        assert traced_peak(simulate_batch, *args) <= 2.25 * 2**20

    def test_one_mc_chunk_peak_memory(self):
        # the chunk's moment sums square mu and the pseudoregret in place,
        # so it adds nothing to the batch's peak: measured 2.07 MiB, against
        # 3.44 MiB with squared temporaries and a (3, n) draw buffer
        job = (MyopicStrategy(), 100, 0.0707, 65536, 1, 1, (SIMULATE, 0))
        assert traced_peak(_mc_chunk, job) <= 2.25 * 2**20

    def test_batch_risky_pulls_zero_gap_uniform(self):
        rng = np.random.default_rng(5)
        mu, s2 = simulate_batch(10, 0.0, UniformStrategy(), 5000, rng)
        # pseudoregret weight 2*eps vanishes; pulls still counted
        assert 0 <= s2.min() and s2.max() <= 10
        assert abs(float(s2.mean()) - 5.0) < 0.2


def reachable(T):
    """The (t, xi_r) decision states of a T-round game."""
    return [(t, x) for t in range(-T, 0) for x in range(-(T + t), T + t + 1, 2)]


class TestDrawStream:
    """The batch's one row buffer against a (3, n) draw per round."""

    @given(T=st.integers(1, 12), n=st.integers(0, 20).map(lambda i: 2 * i + 1),
           seed=st.integers(0, 2**32 - 1), eps=st.sampled_from([0.0, 0.1, 0.45]),
           safe_arm=st.sampled_from([1, 2]))
    def test_rows_are_a_3_by_n_draw(self, T, n, seed, eps, safe_arm):
        self.check(T, eps, n, seed, safe_arm)

    @pytest.mark.parametrize("safe_arm", [1, 2])
    def test_rows_are_a_3_by_n_draw_on_a_full_chunk(self, safe_arm):
        self.check(3, 0.1, 65536, 5, safe_arm)

    @staticmethod
    def check(T, eps, n, seed, safe_arm):
        mu, risky = simulate_batch(T, eps, MyopicStrategy(), n, np.random.default_rng(seed),
                                   safe_arm)
        rng = np.random.default_rng(seed)
        draws = (rng.random((3, n)) for _ in range(T))
        mu_3n, risky_3n = env._play_rounds(T, eps, MyopicStrategy(), n, draws, safe_arm)
        assert mu.dtype == mu_3n.dtype and risky.dtype == risky_3n.dtype
        assert np.array_equal(mu, mu_3n) and np.array_equal(risky, risky_3n)


class TestBranchFreeLoop:
    """The production round loop against the np.where loop it replaced."""

    @given(T=st.integers(1, 9), n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
           eps=st.sampled_from([0.0, 0.1, 0.45, 0.9]), safe_arm=st.sampled_from([1, 2]),
           record=st.booleans())
    def test_matches_oracle_bit_for_bit(self, T, n, seed, eps, safe_arm, record):
        rng = np.random.default_rng(seed)
        states = reachable(T)
        # the sure and tie decisions 0, 1/2, 1 and an interior probability
        p1 = rng.choice([0.0, 0.5, 1.0, rng.random()], len(states))
        table = TabularStrategy(dict(zip(states, p1.tolist())))
        draws = [rng.random((3, n)) for _ in range(T)]
        outs = []
        for play in (env._play_rounds, oracle_rounds):
            rec = ((np.empty((T, n), bool), np.empty((T, n), np.int8),
                    np.empty((T, n), np.int8)) if record else None)
            mu, risky = play(T, eps, table, n, iter(draws), safe_arm, rec)
            outs.append((mu, risky) + (rec or ()))
        for new, old in zip(*outs):
            assert new.dtype == old.dtype
            assert np.array_equal(new, old)

    @pytest.mark.parametrize("safe_arm", [1, 2])
    def test_myopic_table_plays_like_myopic(self, safe_arm):
        T, eps = 12, 0.2
        table = TabularStrategy({(t, x): 1.0 if x > 0 else 0.0 if x < 0 else 0.5
                                 for t, x in reachable(T)})
        runs = [mc_estimate(s, T, eps, 3000, seed=8, safe_arm=safe_arm)
                for s in (MyopicStrategy(), table)]
        assert runs[0] == runs[1]

    def test_counters_reach_plus_minus_T_past_int16(self):
        # T = 2^15 + 1 is the first horizon past int16. At eps = 0 a uniform
        # of 1/4 is an arm-1 coin or a +1 reward, 3/4 the opposite. Episode
        # 0 (g1 = +1, g2 = -1) pulls arm 1 every round: xi_r, zeta/2 and the
        # arm-1 gain end at +T, and the myopic player sees xi_r = 2^15 before
        # the last round. Episode 1 (g1 = -1, g2 = +1) leaves arm 1 after the
        # first round: xi_r and zeta/2 end at -T. A wrapped xi_r would flip
        # the player's choice, a wrapped zeta/2 or gain the payoff.
        T = 2**15 + 1
        assert (env._state_dtype(T - 2), env._state_dtype(T)) == (np.int16, np.int32)
        draws = np.full((T, 3, 2), 0.25)
        draws[:, 2, 0] = draws[:, 1, 1] = 0.75
        outs = []
        for play in (env._play_rounds, oracle_rounds):
            rec = (np.empty((T, 2), bool), np.empty((T, 2), np.int8), np.empty((T, 2), np.int8))
            outs.append(play(T, 0.0, MyopicStrategy(), 2, iter(draws), 1, rec) + rec)
        for new, old in zip(*outs):
            assert new.dtype == old.dtype
            assert np.array_equal(new, old)
        mu, risky, picks = outs[0][:3]
        # episode 0: eta = -2T, |zeta| = 2T; episode 1: eta = -2T + 4
        assert mu.tolist() == [0.0, 2.0] and risky.tolist() == [0, T - 1]
        assert picks[:, 0].all() and picks[0, 1] and not picks[1:, 1].any()

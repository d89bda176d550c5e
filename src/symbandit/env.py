"""Centered symmetric two-armed Bernoulli environment and its simulator.

Rewards live on the +-1 scale; `core.arm_probs` gives the reward law.
One vectorized round loop plays every episode: Monte Carlo batches keep
only the final payoff and the risky pulls, audit episodes also keep
their per-round choices and rewards.

The loop is branch-free and keeps its per-episode state narrow. With
b1 = [u1 < P(g1 = +1)] and b2 likewise (so g = 2b - 1), and p = 1 if
arm 1 is pulled and 0 otherwise, one round updates

    zeta/2 += b1 - b2              (= (g1 - g2)/2, whatever the choice)
    gain   += p * (b1 - b2)        (the part of zeta/2 earned on arm-1 rounds)
    xi_r   += 2c - 1               (c = b1 if p else not b2: arm 1 reveals
                                    +g1, arm 2 reveals -g2)
    picks  += p

The final payoff and risky pulls come once at the end. As

    eta = sum (g1 + g2 - 2 g_chosen) = sum (1 - 2p)(g1 - g2) = 2 (zeta/2) - 4 gain,

the payoff is mu = (eta + |zeta|)/2 = 2 (max(zeta/2, 0) - gain), exact in
float64; the risky pulls are T minus the arm-1 pulls when arm 1 is safe,
the arm-1 pulls when arm 2 is, in int64. Each round's steps are computed
in place in a few preallocated bool and int8 scratch arrays; a select by
mask (`np.where`) would cost a branch misprediction per random element.

Each counter stays within +-T, so it is held in the narrowest signed
integer dtype that holds +-T, from int16 up (`_state_dtype`): int16 up
to T = 2^15 - 1, int32 above. The reason is the working set of a
65,536-episode chunk, which every round streams through: its 0.5 MB
draw buffer, 0.5 MB of int16 counters and 0.4 MB of scratch, where int64
counters took 2 MB and their updates ran through int64 temporaries.
Strategies receive xi_r in that dtype. The scratch is freed before the
float64 payoff and the int64 risky pulls are built.

Randomness convention: every round consumes three uniforms per episode,
in the order choice coin, g1, g2. A Monte Carlo batch draws them from a
single generator as three n-long rows per round, each into the same
buffer just before the loop reads it; successive draws continue one
stream, so these are the numbers of one (3, n) array per round. An
audit episode owns a generator and draws its uniforms in (rounds, 3)
chunks, which yields the same numbers as drawing round by round.
Batches split work into fixed-size chunks whose generators are spawned
from SeedSequence(seed), so results are bit-identical regardless of how
many workers process the chunks.
"""

from __future__ import annotations

import itertools
import json
import numbers
from typing import NamedTuple

import numpy as np

from .core import arm_probs, check_game, terminal_payoff

# audit episodes played together, and rounds drawn per generator call:
# together they bound the audit's memory whatever the number of episodes
AUDIT_BLOCK = 64
AUDIT_DRAW_ROUNDS = 4096


def _state_dtype(T: int) -> type:
    """The narrowest signed integer dtype that holds +-T, from int16 up:
    every counter of the round loop stays within +-T. int8 is left out
    because strategies receive xi_r in this dtype, and their own
    arithmetic on it (2 * xi_r, say) would wrap from |xi_r| = 64."""
    return np.int16 if T < 2**15 else np.int32 if T < 2**31 else np.int64


def _play_rounds(T, eps, strategy, n, draws, safe_arm, record=None):
    """Play n episodes through T rounds, by the update rules above.

    `draws` yields T items, each three length-n rows in turn: choice
    coins, g1 uniforms and g2 uniforms. A (3, n) array is such an item;
    so is a generator that refills one buffer per row, as each row is
    read just before its comparison. When `record` is given, round k's
    arm-1 picks, g1 and g2 go into row k of its three (T, n) arrays.
    Returns (final payoff mu, risky pulls), float64 and int64.
    """
    p_g1, p_g2 = arm_probs(eps, safe_arm)
    half_zeta, gain, xi_r, picks = np.zeros((4, n), _state_dtype(T))
    pick1, b1, b2, c = np.empty((4, n), bool)
    p, b1_8, b2_8, c8 = (mask.view(np.int8) for mask in (pick1, b1, b2, c))
    d, step = np.empty((2, n), np.int8)
    for k, rows in enumerate(draws):
        rows = iter(rows)
        np.less(next(rows), strategy.p1_batch(k - T, xi_r), out=pick1)
        np.less(next(rows), p_g1, out=b1)
        np.less(next(rows), p_g2, out=b2)
        np.subtract(b1_8, b2_8, out=d)
        half_zeta += d
        d *= p
        gain += d
        # c = (b1 == ((b1 ^ b2) | p)): b1 when p, not b2 when not p
        np.logical_xor(b1, b2, out=c)
        c |= pick1
        np.equal(b1, c, out=c)
        np.add(c8, c8, out=step)
        step -= 1
        xi_r += step
        picks += p
        if record is not None:
            record[0][k], record[1][k], record[2][k] = pick1, 2 * b1_8 - 1, 2 * b2_8 - 1
    del pick1, b1, b2, c, p, b1_8, b2_8, c8, d, step  # free the scratch before mu and risky
    mu = np.maximum(half_zeta, 0, dtype=np.float64)
    mu -= gain
    mu *= 2.0
    risky = picks.astype(np.int64) if safe_arm == 2 else np.subtract(T, picks, dtype=np.int64)
    return mu, risky


def simulate_batch(
    T: int,
    eps: float,
    strategy,
    n: int,
    rng: np.random.Generator,
    safe_arm: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate n episodes vectorized; returns (final payoff mu, risky pulls).

    `strategy` needs p1_batch(t, xi_r array).
    """
    check_game(T, eps, safe_arm)
    # one n-long buffer takes every row of every round: successive draws
    # continue the stream, so these are the numbers of one (3, n) draw per
    # round, and no fresh array per round leaves the peak to the heap's layout
    buf = np.empty(n)
    draws = ((rng.random(out=buf) for _ in range(3)) for _ in range(T))
    return _play_rounds(T, eps, strategy, n, draws, safe_arm)


# the JSON types of an audit record's scalar fields
_NUMBER_FIELDS = {"seed": (int,), "safe_arm": (int,), "eps": (float, int),
                  "final_regret": (float, int), "s2": (int,)}


def _ints_in(items, allowed) -> bool:
    """Whether `items` is a JSON list of integers, each one in `allowed`."""
    return type(items) is list and all(type(x) is int and x in allowed for x in items)


class EpisodeLog(NamedTuple):
    """One simulated play-through, serializable one-per-line for audit."""

    seed: int
    safe_arm: int
    eps: float
    choices: list[int]
    rewards: list[tuple[int, int]]
    final_regret: float
    s2: int  # risky-arm pulls

    def to_line(self) -> str:
        return json.dumps(self._asdict(), separators=(",", ":"))

    @classmethod
    def from_line(cls, line: str) -> "EpisodeLog":
        """The record of one audit line, refused unless `play_episodes`
        could have written it: each field of its JSON type (a bool is no
        number), and the final regret (by `core.terminal_payoff`) and risky
        pulls those that replaying the choices and rewards gives."""
        rec = json.loads(line)
        keys = list(cls._fields)
        if rec.keys() != set(keys):
            raise ValueError(f"audit record keys must be {keys}, got {list(rec)}")
        for key, types in _NUMBER_FIELDS.items():
            if type(rec[key]) not in types:
                raise ValueError(f"audit field {key!r} must be of type "
                                 f"{' or '.join(t.__name__ for t in types)}, got {rec[key]!r}")
        choices, rewards = rec["choices"], rec["rewards"]
        if not _ints_in(choices, (1, 2)):
            raise ValueError(f"choices must be a list of 1s and 2s, got {choices!r}")
        if type(rewards) is not list or not all(_ints_in(pair, (-1, 1)) and len(pair) == 2
                                                for pair in rewards):
            raise ValueError(f"rewards must be a list of pairs of +-1, got {rewards!r}")
        check_game(len(choices), rec["eps"], rec["safe_arm"])
        if len(rewards) != len(choices):
            raise ValueError(f"rewards must hold one pair per choice, got "
                             f"{len(rewards)} pairs for {len(choices)} choices")
        eta = xi_h = xi_r = 0
        for choice, (g1, g2) in zip(choices, rewards):
            eta += g1 + g2 - 2 * (g1 if choice == 1 else g2)
            # arm 1 reveals +g1 and hides -g2; arm 2 reveals -g2 and hides +g1
            xi_r, xi_h = (xi_r + g1, xi_h - g2) if choice == 1 else (xi_r - g2, xi_h + g1)
        replayed = {"final_regret": terminal_payoff(eta, xi_h, xi_r),
                    "s2": sum(c != rec["safe_arm"] for c in choices)}
        for key, value in replayed.items():
            if rec[key] != value:
                raise ValueError(f"audit field {key!r} is {rec[key]!r}, but the choices "
                                 f"and rewards give {value!r}")
        rec["rewards"] = [tuple(pair) for pair in rewards]
        return cls(**rec)


def _episode_draws(rngs, T):
    """Per-round (3, n) uniforms of n episodes, each from its own generator.

    Successive `random((k, 3))` calls continue one stream, so a chunked
    draw gives the numbers of a round-by-round one.
    """
    for start in range(0, T, AUDIT_DRAW_ROUNDS):
        rounds = min(AUDIT_DRAW_ROUNDS, T - start)
        yield from np.stack([r.random((rounds, 3)) for r in rngs], axis=2)


def _logged_seed(seed) -> int:
    """The int an audit log records for `seed`: the int itself, or a
    SeedSequence's master seed (its `entropy`). `from_line` reads back
    only an int, so any other seed is refused."""
    logged = getattr(seed, "entropy", seed)
    if isinstance(logged, bool) or not isinstance(logged, numbers.Integral):
        raise ValueError(f"audit seed must be an int or a SeedSequence whose entropy is "
                         f"an int, got {seed!r}")
    return int(logged)


def play_episodes(T: int, eps: float, strategy, seeds, safe_arm: int = 1):
    """Yield one EpisodeLog per seed, AUDIT_BLOCK episodes at a time.

    Each seed (an int or a SeedSequence) drives its own generator, so an
    episode does not depend on the others played with it; the log records
    the int, or the SeedSequence's master seed (its `entropy`). A seed
    whose log could not be read back, such as a SeedSequence built from a
    list, is refused before its block is played. `strategy` needs
    p1_batch(t, xi_r array).
    """
    check_game(T, eps, safe_arm)
    seeds = iter(seeds)
    while block := list(itertools.islice(seeds, AUDIT_BLOCK)):
        logged = [_logged_seed(s) for s in block]
        n = len(block)
        record = (np.empty((T, n), bool), np.empty((T, n), np.int8), np.empty((T, n), np.int8))
        draws = _episode_draws([np.random.default_rng(s) for s in block], T)
        mu, risky = _play_rounds(T, eps, strategy, n, draws, safe_arm, record)
        picks, g1, g2 = record
        for j, seed in enumerate(logged):
            yield EpisodeLog(
                seed=seed,
                safe_arm=safe_arm,
                eps=eps,
                choices=np.where(picks[:, j], 1, 2).tolist(),
                rewards=list(zip(g1[:, j].tolist(), g2[:, j].tolist())),
                final_regret=float(mu[j]),
                s2=int(risky[j]),
            )


def play_episode(T: int, eps: float, strategy, seed, safe_arm: int = 1) -> EpisodeLog:
    """Play one full episode; the one-seed case of `play_episodes`."""
    return next(play_episodes(T, eps, strategy, [seed], safe_arm))

"""Exact-output tests: CLI outputs against committed golden files.

The files in tests/golden/ were written by the per-round scalar episode
loop and the three-draws-per-round batch loop that the single vectorized
simulator replaced, so these tests pin that the replacement reproduces
them byte for byte. simulate_table.json was written by the np.where
round loop now kept as tests/_round_oracle.py, before the branch-free
loop and the dense table lookup replaced it. sweep_mc.csv was written
with one Monte Carlo estimate per cell, drawn from the sweep's own
streams. Regenerate a file only for an intended change of output: run
the case's argv through `symbandit.cli.main` and copy what it writes
over the file. Each Monte Carlo golden is also held within 4 standard
errors of its exact value, so a regenerated file is checked against
more than itself.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from symbandit import dp
from symbandit.cli import main
from symbandit.experiments import SweepSpec, read_csv
from symbandit.strategy import TabularStrategy

GOLDEN = Path(__file__).parent / "golden"
TABLE = GOLDEN / "strategy_T8.txt"

SIMULATE_JSON = {
    "simulate_myopic": ["simulate", "--T", "20", "--eps", "0.1", "--episodes", "3000",
                        "--seed", "42", "--json"],
    "simulate_uniform_arm2": ["simulate", "--T", "15", "--gamma", "0.9", "--episodes", "2000",
                              "--seed", "7", "--strategy", "uniform", "--safe-arm", "2",
                              "--json"],
}

# a table player through the Monte Carlo batch path; the JSON's config
# embeds the table's path, so the numbers are compared, not the bytes
SIMULATE_TABLE = ["simulate", "--T", "8", "--eps", "0.3", "--episodes", "3000", "--seed", "11",
                  "--strategy", f"table:{TABLE}", "--json"]
MC_FIELDS = ["regret_mean", "regret_se", "pseudo_mean", "pseudo_se", "episodes"]

# name -> (strategy, safe_arm, T, audit episodes); 150 episodes span
# several audit blocks
AUDIT = {
    "myopic_arm1": ("myopic", 1, 12, 150),
    "myopic_arm2": ("myopic", 2, 12, 5),
    "uniform_arm1": ("uniform", 1, 12, 5),
    "uniform_arm2": ("uniform", 2, 12, 5),
    "table_arm1": (f"table:{TABLE}", 1, 8, 5),
    "table_arm2": (f"table:{TABLE}", 2, 8, 5),
}

SWEEP_CONFIG = (
    "regime = medium\n"
    "T_list = 16, 64\n"
    "gamma = 0.707\n"
    "seed = 5\n"
    "episodes = 1200\n"
)
# columns computed by the exact walks and the simulator: byte-identical;
# the closed-form columns go through erf and are held to 1e-11 relative
SWEEP_EXACT = ["T", "eps", "gamma", "branch", "v", "vbar", "v_norm", "vbar_norm",
               "mc_regret_mean", "mc_regret_se", "mc_pseudo_mean", "mc_pseudo_se"]
SWEEP_CLOSED = ["u", "ubar", "u_minus_v", "ubar_minus_vbar", "u_norm", "ubar_norm"]


def audit_argv(strategy, safe_arm, T, episodes, path):
    return ["simulate", "--T", str(T), "--eps", "0.3", "--episodes", "10", "--seed", "11",
            "--strategy", strategy, "--safe-arm", str(safe_arm),
            "--audit", str(path), "--audit-episodes", str(episodes)]


@pytest.mark.parametrize("name", sorted(SIMULATE_JSON))
def test_simulate_json(name, capsys):
    assert main(SIMULATE_JSON[name]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.json").read_text()


def test_simulate_table_json(capsys):
    assert main(SIMULATE_TABLE) == 0
    out = json.loads(capsys.readouterr().out)
    gold = json.loads((GOLDEN / "simulate_table.json").read_text())
    assert [out[k] for k in MC_FIELDS] == [gold[k] for k in MC_FIELDS]


@pytest.mark.parametrize("name", sorted(AUDIT))
def test_simulate_audit(name, capsys, tmp_path):
    path = tmp_path / "audit.jsonl"
    assert main(audit_argv(*AUDIT[name], path)) == 0
    assert path.read_bytes() == (GOLDEN / f"audit_{name}.jsonl").read_bytes()


def test_sweep_mc_columns(capsys, tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CONFIG)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    meta, rows = read_csv(out)
    gold_meta, gold_rows = read_csv(GOLDEN / "sweep_mc.csv")
    assert meta == gold_meta
    assert len(rows) == len(gold_rows)
    for row, gold in zip(rows, gold_rows):
        assert row.keys() == gold.keys()
        assert [row[c] for c in SWEEP_EXACT] == [gold[c] for c in SWEEP_EXACT]
        for c in SWEEP_CLOSED:
            assert math.isclose(float(row[c]), float(gold[c]), rel_tol=1e-11, abs_tol=1e-12), c


def test_sweep_spec_renders_the_golden_config():
    # the spec SWEEP_CONFIG parses to, built without the parser
    spec = SweepSpec("medium", [16, 64], gamma=0.707, seed=5, episodes=1200)
    gold_meta, _ = read_csv(GOLDEN / "sweep_mc.csv")
    assert spec.meta("convergence") == {"config": gold_meta["config"], "seed": "5"}


def within_4se(mean, se, exact):
    return abs(mean - exact) <= 4 * se


def test_simulate_myopic_golden_against_exact_values():
    gold = json.loads((GOLDEN / "simulate_myopic.json").read_text())
    v, vbar = dp.values(20, 0.1)
    assert within_4se(gold["regret_mean"], gold["regret_se"], v)
    assert within_4se(gold["pseudo_mean"], gold["pseudo_se"], vbar)


def test_simulate_uniform_golden_against_exact_values():
    # the uniform player pulls the risky arm half the time: vbar = eps T;
    # regret minus pseudoregret does not depend on the player, so its
    # regret is eps T plus the myopic v - vbar
    gold = json.loads((GOLDEN / "simulate_uniform_arm2.json").read_text())
    T, eps = 15, 0.9 / math.sqrt(15)
    v, vbar = dp.values(T, eps)
    assert within_4se(gold["regret_mean"], gold["regret_se"], eps * T + (v - vbar))
    assert within_4se(gold["pseudo_mean"], gold["pseudo_se"], eps * T)


def test_simulate_table_golden_against_exact_values():
    # the table player's xi_r is the +-1 walk W stepping up w.p. (1 + eps)/2
    # whatever it plays (arm 1 is safe), so vbar = 2 eps sum_{k<T} sum_x
    # P(W_k = x) (1 - p1(k - T, x)); regret adds v - vbar of the myopic
    # player, the same for every player (measured: vbar 2.3207135113,
    # v 2.5159919291, at z = +1.14 and -1.26)
    gold = json.loads((GOLDEN / "simulate_table.json").read_text())
    T, eps = 8, 0.3
    table = TabularStrategy.from_text(TABLE.read_text())
    vbar = 0.0
    for k, law in enumerate(dp.walk_law(T, (1 + eps) / 2)):
        x = np.arange(-k, k + 1, 2)
        vbar += 2 * eps * float(np.dot(law, 1 - table.p1_batch(k - T, x)))
    v, vbar_myopic = dp.values(T, eps)
    assert within_4se(gold["regret_mean"], gold["regret_se"], vbar + (v - vbar_myopic))
    assert within_4se(gold["pseudo_mean"], gold["pseudo_se"], vbar)


def test_sweep_mc_golden_against_exact_values():
    _, rows = read_csv(GOLDEN / "sweep_mc.csv")
    for row in rows:
        row = {k: float(x) for k, x in row.items() if k != "branch"}
        assert within_4se(row["mc_regret_mean"], row["mc_regret_se"], row["v"])
        assert within_4se(row["mc_pseudo_mean"], row["mc_pseudo_se"], row["vbar"])

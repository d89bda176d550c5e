import json
import math
import os
import re
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from symbandit import dp, pde
from symbandit.cli import _parse_grid, _verify_checks, main
from symbandit.experiments import SweepSpec, read_csv, write_csv

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def readme_configs():
    """The bodies of the README's ```ini blocks."""
    return re.findall(r"```ini\n(.*?)```", README.read_text(), re.S)


def config_of(path):
    """The kind and the `key = value` config file that a sweep CSV's config line spells."""
    command, *pairs = read_csv(path)[0]["config"].split(" ")
    return command.removeprefix("sweep:"), "".join(
        f"{key} = {value}\n" for key, value in (pair.split("=", 1) for pair in pairs))


# (kind, config) of README's sweeps, of tests/golden/sweep_mc.csv, of the
# benchmark's cli-session sweep and of a Monte Carlo sweep left to seed 0
ROUND_TRIP = [
    *(pytest.param("error-scaling" if "error_scaling" in block else "convergence", block,
                   id=block.partition("\n")[0].lstrip("# ")) for block in readme_configs()),
    pytest.param("convergence", "regime = medium\nT_list = 16, 64\ngamma = 0.707\nseed = 5\n"
                 "episodes = 1200\n", id="golden sweep_mc"),
    pytest.param("convergence", "regime = medium\nT_list = 1000,2000,4000\n"
                 "gamma = 1.0731963298434542\n", id="cli-session"),
    pytest.param("convergence", "regime = large\nT_list = 64\npower = 0.3\nepisodes = 300\n",
                 id="no seed"),
]


def rounded_grid(text):
    """Reference points of a grid of at most 12 decimals: start + i*step
    summed in floats, each rounded to 12 decimals, kept up to stop + 1e-12."""
    a, b, s = (float(x) for x in text.split(":"))
    n = int(round((b - a) / s)) + 1
    return [round(a + i * s, 12) for i in range(n) if a + i * s <= b + 1e-12]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDp:
    def test_one_round_values(self, capsys):
        code, out, _ = run(capsys, "dp", "--T", "1", "--eps", "0.3")
        assert code == 0
        assert "v = 0.545" in out
        assert "vbar = 0.3" in out

    def test_gamma_parameterization(self, capsys):
        code, out, _ = run(capsys, "dp", "--T", "100", "--gamma", "0.707")
        assert code == 0
        assert out.startswith("v = ")

    def test_requires_exactly_one_gap_flag(self, capsys):
        code, _, err = run(capsys, "dp", "--T", "10")
        assert code == 1
        assert "exactly one of --eps or --gamma" in err
        code, _, err = run(capsys, "dp", "--T", "10", "--eps", "0.1", "--gamma", "1.0")
        assert code == 1

    def test_precondition_violation_exits_1(self, capsys):
        code, _, err = run(capsys, "dp", "--T", "0", "--eps", "0.1")
        assert code == 1
        assert "horizon" in err

    def test_o_t_route_size_guard_exits_1(self, capsys, tmp_path):
        # the trace of T = 1e9 is refused by name, not handed to numpy as
        # gigabytes of arrays, after the values, which need no arrays
        path = tmp_path / "trace.csv"
        code, out, err = run(capsys, "dp", "--T", "1000000000", "--gamma", "0.1",
                             "--trace", str(path))
        assert code == 1
        assert [line.split(" = ")[0] for line in out.splitlines()] == ["v", "vbar"]
        assert "T=1000000000" in err and "limit of 20000000 terms" in err
        assert not path.exists()

    @pytest.mark.parametrize("gamma", ["0.3", "0.30000001", "0.29999999"])
    def test_gamma_0_3_at_1e8_prints(self, capsys, gamma):
        # T*eps^2 rounds below 0.3^2 at gamma = 0.3: no route edge sits there
        code, out, _ = run(capsys, "dp", "--T", "100000000", "--gamma", gamma)
        assert code == 0
        assert [line.split(" = ")[0] for line in out.splitlines()] == ["v", "vbar"]

    @pytest.mark.parametrize("cmd", [["dp"], ["pde"],
                                     ["simulate", "--episodes", "10", "--seed", "1"]])
    @pytest.mark.parametrize("T", ["0", "-4"])
    def test_non_positive_horizon_is_named(self, capsys, cmd, T):
        # --gamma divides by sqrt(T): the horizon is checked first
        code, _, err = run(capsys, cmd[0], "--T", T, "--gamma", "1", *cmd[1:])
        assert code == 1
        assert f"horizon must be a positive integer, got {T}" in err

    def test_trace_file(self, capsys, tmp_path):
        path = tmp_path / "trace.csv"
        code, out, _ = run(capsys, "dp", "--T", "8", "--eps", "0.2",
                           "--trace", str(path))
        assert code == 0
        meta, rows = read_csv(path)
        assert len(rows) == 9
        assert meta["config"] == "dp T=8 eps=0.2"
        assert meta["symbandit_version"] == "0.1.0"
        cells = [[float(row[c]) for c in ("t", "v", "vbar")] for row in rows]
        printed = dict(line.split(" = ") for line in out.splitlines()[:2])
        assert cells[0][0] == -8
        assert cells[0][1] == pytest.approx(float(printed["v"]), rel=1e-11)
        assert cells[0][2] == pytest.approx(float(printed["vbar"]), rel=1e-11)

    @pytest.mark.parametrize("T, eps", [(8, 0.2), (13, 0.05)])
    def test_trace_bytes_match_value_trace(self, capsys, tmp_path, T, eps):
        path, ref = tmp_path / "trace.csv", tmp_path / "ref.csv"
        assert run(capsys, "dp", "--T", str(T), "--eps", str(eps), "--trace", str(path))[0] == 0
        rows = [{"t": t, "v": v, "vbar": vb} for t, v, vb in dp.value_trace(T, eps)]
        write_csv(ref, ["t", "v", "vbar"], rows, {"config": f"dp T={T} eps={eps!r}"})
        assert path.read_bytes() == ref.read_bytes()


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag_exits_2(self, capsys):
        assert main(["dp"]) == 2


class TestPrefactor:
    def test_maximizer_paper_mode(self, capsys):
        code, out, _ = run(capsys, "prefactor", "--which", "c", "--round3")
        assert code == 0
        assert "gamma_star = 0.707" in out
        assert "c(gamma_star) = 0.572" in out

    def test_point_evaluation(self, capsys):
        code, out, _ = run(capsys, "prefactor", "--which", "c_bar",
                           "--gamma", "1.274", "--round3")
        assert code == 0
        assert "0.530" in out

    @pytest.mark.parametrize("which", ["c", "c_bar"])
    def test_infinite_gamma_exits_1(self, capsys, which):
        code, out, err = run(capsys, "prefactor", "--which", which, "--gamma", "inf")
        assert code == 1
        assert "nan" not in out
        assert "gamma must be positive" in err


class TestPde:
    def test_components_printed(self, capsys):
        code, out, _ = run(capsys, "pde", "--T", "100", "--gamma", "0.707",
                           "--branch", "C1")
        assert code == 0
        for key in ("u =", "u_h =", "phi =", "phi_hat =", "ubar ="):
            assert key in out
        assert "bar_phi = 0" in out.splitlines()  # not -0 at the default xi_r = 0

    # the last three cells print u or u_n one digit apart when the CLI
    # sums the components itself
    @pytest.mark.parametrize("T, gamma, branch, eta, xi_h, xi_r", [
        (400, 0.707, "C1", 0.4, -1.2, 0.0),
        (400, 0.707, "C0", 0.4, -1.2, 0.0),
        (1600, 0.707, "C0", 16.0, 10.4, -7.3),
        (100, 1.0, "C1", -15.5, 18.8, 18.7),
        (100, 2.0, "C0", -18.4, -6.0, 19.1),
    ])
    def test_prints_the_library_values(self, capsys, T, gamma, branch, eta, xi_h, xi_r):
        s2 = 2.0
        code, out, _ = run(capsys, "pde", "--T", str(T), "--gamma", str(gamma),
                           "--branch", branch, "--eta", str(eta), "--xi-h", str(xi_h),
                           "--xi-r", str(xi_r), "--s2", str(s2))
        assert code == 0
        printed = dict(line.split(" = ") for line in out.splitlines())
        cf, t = pde.ClosedForm.make(branch, gamma / math.sqrt(T)), -float(T)
        assert printed["u"] == f"{pde.u_total(eta, xi_h, xi_r, t, cf):.12g}"
        assert printed["u_n"] == f"{pde.u_n(xi_r, t, cf):.12g}"
        assert printed["ubar"] == f"{pde.bar_u_total(xi_r, s2, t, cf):.12g}"

    def test_zero_gap_rejected(self, capsys):
        # refused by the closed form itself, which has no C1 member at eps = 0
        code, out, err = run(capsys, "pde", "--T", "10", "--eps", "0")
        assert (code, out) == (1, "")
        assert "C1 branch needs eps > 0, got 0.0" in err

    @pytest.mark.parametrize("flag, value", [("--xi-r", "nan"), ("--eta", "inf"),
                                             ("--s2", "nan"), ("--xi-h", "-inf")])
    def test_non_finite_coordinate_exits_1(self, capsys, flag, value):
        code, out, err = run(capsys, "pde", "--T", "10", "--eps", "0.1", f"{flag}={value}")
        assert (code, out) == (1, "")
        assert f"{flag} must be finite" in err


class TestSimulate:
    def test_json_output_deterministic(self, capsys):
        args = ("simulate", "--T", "20", "--eps", "0.1", "--episodes", "2000",
                "--seed", "42", "--json")
        code, out1, _ = run(capsys, *args)
        assert code == 0
        code, out2, _ = run(capsys, *args)
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["episodes"] == 2000
        assert payload["seed"] == 42
        assert "config" in payload

    def test_audit_log(self, capsys, tmp_path):
        path = tmp_path / "audit.jsonl"
        code, out, _ = run(capsys, "simulate", "--T", "10", "--eps", "0.2",
                           "--episodes", "100", "--seed", "1",
                           "--audit", str(path), "--audit-episodes", "3")
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        rec = json.loads(lines[0])
        assert len(rec["choices"]) == 10

    def test_table_strategy(self, capsys, tmp_path):
        table = tmp_path / "strategy.txt"
        lines = ["# t xi_r p1"]
        T = 3
        for t in range(-T, 0):
            k = T + t
            for x in range(-k, k + 1, 2):
                lines.append(f"{t} {x} 0.5")
        table.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "simulate", "--T", "3", "--eps", "0.2",
                           "--episodes", "500", "--seed", "2",
                           "--strategy", f"table:{table}")
        assert code == 0
        assert "regret_mean" in out

    def test_one_episode_exits_1(self, capsys):
        # one episode has no standard error; --json would print NaN, which is not JSON
        code, out, err = run(capsys, "simulate", "--T", "5", "--eps", "0.1", "--episodes", "1",
                             "--seed", "1", "--json")
        assert (code, out) == (1, "")
        assert "episodes must be >= 2 for a standard error, got 1" in err

    def test_audit_episodes_below_one_exits_1(self, capsys, tmp_path):
        path = tmp_path / "audit.jsonl"
        code, out, err = run(capsys, "simulate", "--T", "5", "--eps", "0.1", "--episodes", "10",
                             "--seed", "1", "--audit", str(path), "--audit-episodes", "-3")
        assert (code, out) == (1, "")
        assert "--audit-episodes must be >= 1, got -3" in err
        assert not path.exists()

    def test_bad_seed_or_strategy_exits_1(self, capsys, tmp_path):
        path = tmp_path / "audit.jsonl"
        for flags, message in [
            # numpy would refuse it only inside the first chunk, naming no key
            (["--seed", "-1"], "seed must be >= 0, got -1"),
            (["--seed", "1", "--strategy", "bogus"], "unknown strategy 'bogus'"),
        ]:
            code, out, err = run(capsys, "simulate", "--T", "5", "--eps", "0.1", "--episodes",
                                 "10", *flags, "--audit", str(path))
            assert (code, out) == (1, "")
            assert message in err
            assert not path.exists()

    @pytest.mark.parametrize("text, message", [
        # an entry's refusal names the file and the entry's key, a line's the line
        ("-2 0 0.5\n-1 1 1.5\n", ": p1 must lie in [0, 1], got 1.5 at (-1, 1)"),
        ("-2 0 0.5\n-1 5 0.5\n", ": table key (-1, 5) is unreachable"),
        ("-2 0 0.5\n-1 0 0.5\n", ": table key (-1, 0) is unreachable: a game from t = -2 has "
                                 "t < 0, and |xi_r| <= 1 of like parity there"),
        ("-2 0 0.5\n-1 1\n", ":2: expected integers t and xi_r and a number p1, got '-1 1'"),
    ], ids=["p1 above 1", "unreachable key", "unreachable parity", "two fields"])
    def test_bad_table_names_its_file(self, capsys, tmp_path, text, message):
        table, audit = tmp_path / "strategy.txt", tmp_path / "audit.jsonl"
        table.write_text(text)
        code, out, err = run(capsys, "simulate", "--T", "2", "--eps", "0.2", "--episodes", "5",
                             "--seed", "2", "--strategy", f"table:{table}", "--audit", str(audit))
        assert (code, out) == (1, "")
        assert f"error: {table}{message}" in err
        assert not audit.exists()

    def test_missing_table_file_exits_1(self, capsys, tmp_path):
        table = tmp_path / "absent.txt"
        code, _, err = run(capsys, "simulate", "--T", "3", "--eps", "0.2", "--episodes", "5",
                           "--seed", "2", "--strategy", f"table:{table}")
        assert code == 1
        assert err.startswith("error: ") and str(table) in err


class TestSweep:
    def test_convergence_sweep_reproducible(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "# medium-gap convergence\n"
            "regime = medium\n"
            "T_list = 16, 64\n"
            "gamma = 0.707\n"
            "branch = C1\n"
            "seed = 5\n"
            "episodes = 200\n"
        )
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, "sweep", "--config", str(cfg), "--out", str(out1))[0] == 0
        assert run(capsys, "sweep", "--config", str(cfg), "--out", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()
        meta, rows = read_csv(out1)
        assert len(rows) == 2
        assert meta["config"].startswith("sweep:convergence")

    def test_error_scaling_sweep(self, capsys, tmp_path):
        cfg = tmp_path / "fit.cfg"
        cfg.write_text(
            "regime = large\n"
            "T_list = 256\n"
            "eps_list = 0.1, 0.2, 0.4\n"
            "branch = C0\n"
        )
        out = tmp_path / "fit.csv"
        code, stdout, _ = run(capsys, "sweep", "--config", str(cfg),
                              "--kind", "error-scaling", "--out", str(out))
        assert code == 0
        assert stdout == f"3 rows written to {out}\n"
        meta, rows = read_csv(out)
        assert sorted(meta) == ["config", "symbandit_version"]
        assert list(rows[0]) == ["T", "eps", "branch", "v", "u", "u_minus_v", "predicted"]
        # within 3e-4 of u - v, relative, on C0 (README's "Numerical findings")
        for row in rows:
            assert float(row["predicted"]) == pytest.approx(float(row["u_minus_v"]), rel=3e-4)

    @pytest.mark.parametrize("text", [
        "regime = large\nT_list = 256\neps_list = 0, 0.2, 0.4\n",
        # at T = 400, gamma 0.7 the C1 term eps^2 T = 0.49 is below eps ln T + 1
        "regime = medium\nT_list = 100, 400\ngamma = 0.7\n",
        # a gamma rule makes every C1 predictor eps^2 T the same gamma^2
        "regime = medium\nT_list = 100, 400, 1600, 6400\ngamma = 1.274\n",
    ], ids=["zero-gap", "undominated-envelope", "constant-predictor"])
    def test_error_scaling_runs_what_the_fit_refused(self, capsys, tmp_path, text):
        cfg, out = tmp_path / "fit.cfg", tmp_path / "fit.csv"
        cfg.write_text(text)
        code, _, err = run(capsys, "sweep", "--config", str(cfg),
                           "--kind", "error-scaling", "--out", str(out))
        assert code == 0, err
        for row in read_csv(out)[1]:
            # the law's O(T^-3/2) remainder, at most 0.37 T^-3/2 where measured
            gap = abs(float(row["predicted"]) - float(row["u_minus_v"]))
            assert gap <= 0.5 * int(row["T"]) ** -1.5, row

    def test_bad_config_exits_1(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        for text, message in [
            ("regime = medium\n", f"{cfg}: sweep config is missing keys: ['T_list']"),
            # a rule across keys names the file alone
            ("regime = medium\nT_list = 16\n",
             f"{cfg}: exactly one of gamma, power, eps_list must be set"),
            # a misspelt key must not quietly drop the Monte Carlo columns
            ("regime = medium\nT_list = 16\ngamma = 0.7\nepisodes = 100\n"
             "replication = 3\n", f"{cfg}:5: unknown key 'replication'"),
            # a value of the wrong type names its line and key
            ("regime = medium\nT_list = 16\nseed = 1.5\n", f"{cfg}:3: bad value for 'seed'"),
            # a key given twice must not quietly keep the last value
            ("regime = medium\nT_list = 16\ngamma = 0.7\ngamma = 0.9\n",
             f"{cfg}:4: key 'gamma' is set twice"),
            # a negative episode count must not quietly write no MC columns
            ("regime = medium\nT_list = 16\ngamma = 0.7\nepisodes = -5\n",
             f"{cfg}:4: episodes must be >= 0, got -5"),
            # nor one episode, whose standard error would be written as nan
            ("regime = medium\nT_list = 16\ngamma = 0.7\nepisodes = 1\n",
             f"{cfg}:4: episodes must be 0 (no Monte Carlo) or >= 2 for a standard error, "
             "got 1"),
            # each cell makes one estimate: a replication count is an unknown key
            ("regime = medium\nT_list = 16\ngamma = 0.7\nreplications = 3\n",
             f"{cfg}:4: unknown key 'replications'"),
            # refused before any cell is computed, and named
            ("regime = medium\nT_list = 16\ngamma = 0.7\nseed = -3\nepisodes = 10\n",
             f"{cfg}:4: seed must be >= 0, got -3"),
            ("regime = medium\nT_list =\ngamma = 0.7\n",
             f"{cfg}:2: T_list must be nonempty and strictly ascending, got []"),
            ("regime = medium\nT_list = 64, 16\ngamma = 0.7\n",
             f"{cfg}:2: T_list must be nonempty and strictly ascending, got [64, 16]"),
            # a repeated horizon would write its cell, and draw its estimate, twice
            ("regime = medium\nT_list = 100, 100\ngamma = 0.7\n",
             f"{cfg}:2: T_list must be nonempty and strictly ascending, got [100, 100]"),
            ("regime = tiny\nT_list = 16\ngamma = 0.7\n",
             f"{cfg}:1: regime must be small/medium/large, got 'tiny'"),
            ("regime = medium\nT_list = 16\ngamma = 0.7\nbranch = C2\n",
             f"{cfg}:4: branch must be 'C1' or 'C0', got 'C2'"),
            # the line is quoted as written, without its newline, as a table line is
            ("regime = medium\nT_list 16\n", f"{cfg}:2: expected 'key = value', got 'T_list 16'"),
            # one eps_list value out of range is that key's: its line is named
            ("regime = large\nT_list = 16\neps_list = 0.1, 1.5\n",
             f"{cfg}:3: eps_list gap must satisfy 0 <= eps < 1, got eps=1.5"),
        ]:
            cfg.write_text(text)
            code, _, err = run(capsys, "sweep", "--config", str(cfg),
                               "--out", str(tmp_path / "x.csv"))
            assert code == 1
            assert message in err
            assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("key", ["episodes = 1000", "seed = 3"])
    def test_error_scaling_refuses_the_keys_it_does_not_read(self, capsys, tmp_path, key):
        # it runs no Monte Carlo: neither key may reach its config line unread
        cfg, out = tmp_path / "fit.cfg", tmp_path / "fit.csv"
        cfg.write_text(f"regime = large\nT_list = 4096\neps_list = 0.05, 0.1, 0.2\n{key}\n")
        code, _, err = run(capsys, "sweep", "--config", str(cfg), "--kind", "error-scaling",
                           "--out", str(out))
        assert code == 1
        assert f"{cfg}:4: unknown key {key.split()[0]!r} for sweep kind 'error-scaling'" in err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["convergence", "error-scaling"])
    @pytest.mark.parametrize("rule", ["eps_list =", "eps_list = ,"])
    def test_empty_eps_list_exits_1(self, capsys, tmp_path, kind, rule):
        # neither an empty CSV nor a fit over no cells
        cfg, out = tmp_path / "sweep.cfg", tmp_path / "x.csv"
        cfg.write_text(f"regime = large\nT_list = 256\n{rule}\n")
        code, _, err = run(capsys, "sweep", "--config", str(cfg), "--kind", kind,
                           "--out", str(out))
        assert code == 1
        assert f"{cfg}:3: eps_list must be nonempty" in err
        assert not out.exists()

    @pytest.mark.parametrize("rule", ["gamma = 0.4", "power = 0.3"])
    def test_non_positive_horizon_is_named(self, capsys, tmp_path, rule):
        # each gap rule divides by T or raises it to a negative power
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"regime = small\nT_list = 0, 16\n{rule}\n")
        code, _, err = run(capsys, "sweep", "--config", str(cfg),
                           "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert f"{cfg}:2: T_list horizon must be a positive integer, got 0" in err

    def test_missing_config_file_exits_1(self, capsys, tmp_path):
        cfg = tmp_path / "absent.cfg"
        code, _, err = run(capsys, "sweep", "--config", str(cfg),
                           "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert err.startswith("error: ") and str(cfg) in err

    @pytest.mark.parametrize("kind,text", ROUND_TRIP)
    def test_config_line_runs_the_sweep_again(self, capsys, tmp_path, kind, text):
        cfg, first, second = tmp_path / "sweep.cfg", tmp_path / "a.csv", tmp_path / "b.csv"
        cfg.write_text(text)
        assert run(capsys, "sweep", "--kind", kind, "--config", str(cfg),
                   "--out", str(first))[0] == 0
        kind_read, cfg_text = config_of(first)
        assert kind_read == kind
        cfg.write_text(cfg_text)
        code, _, err = run(capsys, "sweep", "--kind", kind, "--config", str(cfg),
                           "--out", str(second))
        assert code == 0, err
        assert second.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("episodes", ["", "episodes = 0\n"],
                             ids=["no episodes", "episodes 0"])
    def test_seed_without_monte_carlo_is_refused(self, capsys, tmp_path, episodes):
        # an exact-only sweep draws no random number, so it reads no seed
        cfg, out = tmp_path / "sweep.cfg", tmp_path / "sweep.csv"
        cfg.write_text(f"regime = medium\nT_list = 16, 64\ngamma = 0.707\nseed = 3\n{episodes}")
        code, _, err = run(capsys, "sweep", "--config", str(cfg), "--out", str(out))
        assert code == 1
        assert f"{cfg}:4: seed is read only by a Monte Carlo sweep; set episodes > 0" in err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["error_scaling_C1.cfg", "convergence_regret.cfg"])
    def test_a_sweep_without_monte_carlo_records_no_seed(self, capsys, tmp_path, name):
        cfg, out = tmp_path / name, tmp_path / "sweep.csv"
        cfg.write_text(next(block for block in readme_configs()
                            if block.startswith(f"# {name}\n")))
        kind = "error-scaling" if name.startswith("error_scaling") else "convergence"
        assert run(capsys, "sweep", "--kind", kind, "--config", str(cfg),
                   "--out", str(out))[0] == 0
        keys = {line.partition(" = ")[0] for line in config_of(out)[1].splitlines()}
        assert "seed" not in read_csv(out)[0] and "seed" not in keys
        assert ("episodes" in keys) == (kind == "convergence")

    def test_readme_configs_parse(self, tmp_path):
        blocks = readme_configs()
        assert len(blocks) >= 4
        for i, block in enumerate(blocks):
            cfg = tmp_path / f"readme{i}.cfg"
            cfg.write_text(block)
            SweepSpec.from_file(str(cfg), "error-scaling" if "error_scaling" in block
                                else "convergence")


class TestFigure:
    def test_grid_row_count(self, capsys, tmp_path):
        out = tmp_path / "figure_c.csv"
        code, stdout, _ = run(capsys, "figure", "--grid", "0.01:5:0.01",
                              "--out", str(out))
        assert code == 0
        meta, rows = read_csv(out)
        assert len(rows) == 500
        assert "500 rows" in stdout

    def test_reproducible_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "figure", "--grid", "0.5:2:0.5", "--out", str(a))
        run(capsys, "figure", "--grid", "0.5:2:0.5", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_bad_grid_exits_1(self, capsys, tmp_path):
        out = tmp_path / "x.csv"
        for grid, message in [
            ("nope", "grid must be start:stop:step"),
            ("0.1:inf:0.1", "grid bounds and step must be finite"),
            ("nan:1:0.1", "grid bounds and step must be finite"),
            ("abc:1:0.1", "grid must be start:stop:step"),
            ("snan:1:0.1", "grid bounds and step must be finite"),
            # finite decimals whose float is inf
            ("0:1e400:1e399", "grid bounds and step must be finite"),
            # about 9e299 points: refused before the list is built
            ("0.1:1:1e-300", "has more than 100000 points"),
            # start and stop are one float, but 1e10 and 1e40 exact-decimal points
            ("1:1.00000000000000000001:1e-30", "has more than 100000 points"),
            ("1:1.00000000000000000001:1e-60", "has more than 100000 points"),
            # 10,001 exact decimals within 1e-14 of 1, about 45 to a float
            ("1:1.00000000000001:1e-18", "has points closer than a float can tell apart"),
            ("2:1:0.1", "grid must satisfy start <= stop, step > 0"),
            # 1 - 1e-999999999 has a billion digits: refused, not rounded
            ("1e-999999999:1:0.5", "grid '1e-999999999:1:0.5' needs more than 100 digits"),
        ]:
            code, _, err = run(capsys, "figure", "--grid", grid, "--out", str(out))
            assert code == 1
            assert message in err
            assert not out.exists()

    @pytest.mark.parametrize("grid, rows, first", [
        # finer than 12 decimals, every point distinct and the start not 0
        ("1:1.000000000001:1e-14", 101, "1.0"),
        ("4e-13:0.01:0.001", 10, "4e-13"),
        # 1e-30 + 2*0.5 lies past stop, though it rounds to 1 in 28 digits
        ("1e-30:1:0.5", 2, "1e-30"),
    ])
    def test_points_finer_than_12_decimals(self, capsys, tmp_path, grid, rows, first):
        out = tmp_path / "figure.csv"
        assert run(capsys, "figure", "--grid", grid, "--out", str(out))[0] == 0
        gammas = [row["gamma"] for row in read_csv(out)[1]]
        assert len(set(gammas)) == len(gammas) == rows
        assert gammas[0] == first

    def test_no_point_past_stop(self):
        # 5.0 lies 1e-12 past stop
        assert _parse_grid("0.5:4.999999999999:0.5") == [0.5 * i for i in range(1, 10)]

    @pytest.mark.parametrize("grid", ["0.01:5:0.01", "0.1:5:0.1", "0.5:2:0.5", "1e-3:1:1e-3"])
    def test_points_of_the_documented_grids(self, grid):
        assert _parse_grid(grid) == rounded_grid(grid)

    @settings(max_examples=1000, deadline=None)
    @given(st.data())
    def test_points_equal_the_rounded_float_sum(self, data):
        # grids of at most 12 decimals in the gamma domain, up to 2001 points
        digits = data.draw(st.integers(0, 12), label="digits")
        unit = 10**digits
        start = data.draw(st.integers(0, 5 * unit - 1), label="start")
        count = data.draw(st.integers(0, 2000), label="count")
        step = data.draw(st.integers(1, max(1, (5 * unit - start) // max(count, 1))),
                         label="step")
        rest = data.draw(st.integers(0, step - 1), label="rest")
        # a next point 1e-12 past stop is the one the tolerance kept
        assume(rest == 0 or (step - rest) * 10 ** (12 - digits) > 1)
        grid = ":".join(format(Decimal(x).scaleb(-digits), "f")
                        for x in (start, start + count * step + rest, step))
        assert _parse_grid(grid) == rounded_grid(grid)


class TestVerify:
    def test_verify_passes(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 15
        assert "0 failures" in out

    def test_a_failing_check_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr("symbandit.cli._verify_checks",
                            lambda: [("holds", True, ""), ("breaks", False, "off by 1")])
        code, out, _ = run(capsys, "verify")
        assert code == 1
        assert out.splitlines() == ["PASS holds", "FAIL breaks (off by 1)", "1 failures"]

    def _certificate_checks(self):
        return [ok for name, ok, _ in _verify_checks()
                if name.startswith("myopic pseudoregret equals the Bayes lower bound")]

    def test_certificate_catches_a_raised_value(self, monkeypatch):
        values = dp.values

        def raised(T, eps):
            v, vbar = values(T, eps)
            return v, vbar * (1 + 1e-9)

        monkeypatch.setattr(dp, "values", raised)
        checks = self._certificate_checks()
        assert len(checks) == 6 and not any(checks)

    def test_certificate_catches_a_raised_bound(self, monkeypatch):
        bound = dp.bayes_pseudoregret
        monkeypatch.setattr(dp, "bayes_pseudoregret", lambda T, eps: bound(T, eps) * (1 + 1e-9))
        checks = self._certificate_checks()
        assert len(checks) == 6 and not any(checks)


def modules_loaded_by(argvs, cwd, watched=("numpy", "multiprocessing",
                                           "concurrent.futures.process"),
                      preload=("symbandit.experiments",)):
    """Which of the `watched` modules a fresh interpreter has loaded after
    importing the `preload` modules and `cli` and running `main` on each argv."""
    script = (
        "import sys\n"
        + "".join(f"import {name}\n" for name in preload)
        + "from symbandit.cli import main\n"
        f"for argv in {argvs!r}:\n"
        "    assert main(argv) == 0, argv\n"
        f"loaded = [m for m in {list(watched)!r} if m in sys.modules]\n"
        "import json\n"
        "print(json.dumps(loaded))\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestStartup:
    def test_closed_form_commands_load_no_numpy(self, tmp_path):
        argvs = [["pde", "--T", "100", "--gamma", "0.707"],
                 ["prefactor", "--which", "c"],
                 ["figure", "--grid", "0.5:2:0.5", "--out", str(tmp_path / "figure.csv")]]
        watched = ["numpy", "multiprocessing", "concurrent.futures.process", "json"]
        assert modules_loaded_by(argvs, tmp_path, watched) == []

    def test_no_command_loads_dataclasses(self, tmp_path):
        # `dataclasses` pulls in `inspect`, a third of what `cli` takes to import;
        # the records are named tuples and `SPEC_KEYS` parses a sweep config
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("regime = medium\nT_list = 16, 64\ngamma = 0.4\n")
        argvs = [["dp", "--T", "100", "--gamma", "0.707"],
                 ["pde", "--T", "100", "--gamma", "0.707"],
                 ["prefactor", "--which", "c"],
                 ["figure", "--grid", "0.5:2:0.5", "--out", str(tmp_path / "figure.csv")],
                 ["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep.csv")],
                 ["simulate", "--T", "20", "--eps", "0.1", "--episodes", "100", "--seed", "1",
                  "--json", "--audit", str(tmp_path / "audit.jsonl")],
                 ["verify"]]
        assert modules_loaded_by(argvs, tmp_path, ["dataclasses"], preload=()) == []

    def test_simulate_loads_no_dp(self, tmp_path):
        # only the brute-force oracle of `strategy` reads `dp`
        argvs = [["simulate", "--T", "100", "--gamma", "0.9", "--episodes", "1000",
                  "--seed", "1", "--json"]]
        assert modules_loaded_by(argvs, tmp_path, ["symbandit.dp"], preload=()) == []

    def test_verify_loads_no_strategy(self, tmp_path):
        # the Bayes recursion of `dp` is the certificate; the grid search
        # of `strategy`, and the `dataclasses` it pulls in, stay unloaded
        watched = ("symbandit.strategy", "dataclasses")
        assert modules_loaded_by([["verify"]], tmp_path, watched, preload=()) == []

    def test_serial_runs_load_no_process_pool(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("regime = medium\nT_list = 16, 64\ngamma = 0.4\nepisodes = 200\n")
        argvs = [["simulate", "--T", "20", "--eps", "0.1", "--episodes", "100",
                  "--seed", "1", "--workers", "1"],
                 ["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep.csv")]]
        assert modules_loaded_by(argvs, tmp_path) == ["numpy"]

    def test_one_horizon_commands_load_no_numpy(self, tmp_path):
        # every route of `dp.values`: the eps^2 series, the tails, the a_i of
        # T < 12; the error-scaling law is `pde.origin_error`'s, in `math`
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("regime = medium\nT_list = 1000, 1000000000\ngamma = 0.707\n")
        small_gap = tmp_path / "small_gap.cfg"
        small_gap.write_text("regime = medium\nT_list = 1000, 1000000000\ngamma = 0.1\n")
        fit = tmp_path / "error_scaling_C0.cfg"
        fit.write_text(next(block for block in readme_configs()
                            if block.startswith(f"# {fit.name}\n")))
        argvs = [["dp", "--T", "2000", "--gamma", "0.9"],
                 ["dp", "--T", "1000000000000", "--gamma", "0.707"],
                 ["dp", "--T", "1000000000000", "--gamma", "0.001"],
                 ["dp", "--T", "100", "--gamma", "2"],
                 ["dp", "--T", "8", "--eps", "0.7"],
                 ["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep.csv")],
                 ["sweep", "--config", str(small_gap), "--out", str(tmp_path / "small.csv")],
                 ["sweep", "--kind", "error-scaling", "--config", str(fit),
                  "--out", str(tmp_path / "fit.csv")]]
        assert modules_loaded_by(argvs, tmp_path, ["numpy"]) == []

    def test_dp_trace_loads_numpy(self, tmp_path):
        argv = ["dp", "--T", "2000", "--gamma", "0.9", "--trace", str(tmp_path / "t.csv")]
        assert modules_loaded_by([argv], tmp_path, ["numpy"]) == ["numpy"]

    @pytest.mark.parametrize("T,gamma", [(2000, 0.9), (100, 0.9), (3000, 10.0)])
    def test_dp_prints_the_same_values_with_and_without_trace(self, capsys, tmp_path, T, gamma):
        argv = ["dp", "--T", str(T), "--gamma", str(gamma)]
        plain = run(capsys, *argv)
        traced = run(capsys, *argv, "--trace", str(tmp_path / "t.csv"))
        assert plain[0] == traced[0] == 0
        assert traced[1].splitlines()[:2] == plain[1].splitlines()

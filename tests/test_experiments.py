import concurrent.futures
import math
import random
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from symbandit import dp, experiments, pde
from symbandit.cli import main
from symbandit.experiments import (
    SweepSpec,
    convergence_sweep,
    error_scaling,
    figure_data,
    mc_estimate,
    read_csv,
    write_csv,
)
from symbandit.strategy import MyopicStrategy, UniformStrategy


class TestMCEstimate:
    def test_deterministic_given_seed(self):
        a = mc_estimate(MyopicStrategy(), 20, 0.2, 3000, seed=5)
        b = mc_estimate(MyopicStrategy(), 20, 0.2, 3000, seed=5)
        assert a == b

    def test_worker_count_invariance(self, monkeypatch):
        # chunked sub-seeding: results must not depend on the worker count
        monkeypatch.setattr(experiments, "CHUNK_SIZE", 512)
        kw = dict(T=15, eps=0.1, episodes=2500, seed=9)
        a = mc_estimate(MyopicStrategy(), workers=1, **kw)
        b = mc_estimate(MyopicStrategy(), workers=2, **kw)
        assert a == b

    def test_workers_capped_at_chunk_count(self, monkeypatch):
        # a process pool forks all of its workers up front, so it must not
        # be asked for more than there are chunks; this pool starts none
        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        # the pool is imported from concurrent.futures when it is needed
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        kw = dict(T=2, eps=0.1, episodes=2 * (1 << 16) + 1, seed=4)  # three chunks
        pooled = mc_estimate(MyopicStrategy(), workers=5000, **kw)
        assert asked == [3]
        assert pooled == mc_estimate(MyopicStrategy(), workers=1, **kw)
        with pytest.raises(ValueError, match="workers"):
            mc_estimate(MyopicStrategy(), workers=0, **kw)

    def test_matches_dp_within_4se(self):
        T, eps, n = 30, 0.1, 40_000
        res = mc_estimate(MyopicStrategy(), T, eps, n, seed=17)
        exact = dp.regret_value(T, eps)
        assert abs(res.regret_mean - exact) <= 4 * res.regret_se
        exact_pseudo = dp.pseudoregret_value(T, eps)
        assert abs(res.pseudo_mean - exact_pseudo) <= 4 * res.pseudo_se

    def test_uniform_player_pseudoregret_scale(self):
        # uniform pulls the risky arm half the time: pseudo mean ~ eps*T
        T, eps = 40, 0.2
        res = mc_estimate(UniformStrategy(), T, eps, 30_000, seed=3)
        assert abs(res.pseudo_mean - eps * T) <= 4 * res.pseudo_se

    def test_zero_gap_pseudo_is_exactly_zero(self):
        res = mc_estimate(MyopicStrategy(), 10, 0.0, 500, seed=1)
        assert res.pseudo_mean == 0.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            mc_estimate(MyopicStrategy(), 10, 1.5, 100, seed=0)
        with pytest.raises(ValueError):
            mc_estimate(MyopicStrategy(), 10, 0.1, 0, seed=0)
        # numpy would refuse it only inside the first chunk, naming no key
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            mc_estimate(MyopicStrategy(), 10, 0.1, 100, seed=-1)


class TestSweepSpec:
    def test_requires_exactly_one_rule(self):
        with pytest.raises(ValueError):
            SweepSpec(regime="medium", T_list=[100])
        with pytest.raises(ValueError):
            SweepSpec(regime="medium", T_list=[100], gamma=0.7, power=0.3)

    def test_eps_list_needs_single_horizon(self):
        with pytest.raises(ValueError):
            SweepSpec(regime="large", T_list=[100, 200], eps_list=[0.1])

    @pytest.mark.parametrize("rule", ["eps_list =", "eps_list = ,"])
    def test_empty_eps_list_is_refused(self, tmp_path, rule):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"regime = large\nT_list = 256\n{rule}\n")
        with pytest.raises(ValueError, match="eps_list must be nonempty"):
            SweepSpec.from_file(cfg, "convergence")

    def test_rule_must_keep_gap_feasible(self):
        with pytest.raises(ValueError):
            SweepSpec(regime="medium", T_list=[4], gamma=2.5)  # eps = 1.25

    def test_seed_is_set_exactly_with_monte_carlo(self):
        with pytest.raises(ValueError, match="^seed is read only by a Monte Carlo sweep"):
            SweepSpec(regime="medium", T_list=[16], gamma=0.7, seed=3)
        assert SweepSpec(regime="medium", T_list=[16], gamma=0.7, episodes=100).seed == 0
        exact = SweepSpec(regime="medium", T_list=[16], gamma=0.7)
        assert exact.seed is None and "seed" not in exact.meta("convergence")
        assert exact.meta("convergence")["config"] == (
            "sweep:convergence T_list=16 branch=C1 episodes=0 gamma=0.7 regime=medium")

    def test_cells(self):
        spec = SweepSpec(regime="medium", T_list=[100, 400], gamma=0.8)
        assert spec.cells() == [(100, 0.08), (400, 0.04)]
        spec = SweepSpec(regime="large", T_list=[100], power=0.5)
        assert spec.cells() == [(100, 0.1)]


class TestConvergenceSweep:
    def test_one_round_anchor(self):
        spec = SweepSpec(regime="medium", T_list=[1, 16], gamma=0.4)
        rows = convergence_sweep(spec)
        eps0 = 0.4
        assert rows[0]["v"] == pytest.approx((1 + eps0**2) / 2, abs=1e-14)

    def test_zero_gap_rows(self):
        # eps = 0: u is the smooth part alone, sqrt(2T) E|Z|/2 = sqrt(T/pi),
        # v = E|X - T| = T C(2T, T)/4^T for X ~ Bin(2T, 1/2), and both
        # pseudoregrets vanish
        rows = convergence_sweep(SweepSpec(regime="medium", T_list=[1, 16, 400], gamma=0.0))
        for row in rows:
            T = row["T"]
            exact = T * math.comb(2 * T, T) / 4**T
            assert abs(row["u"] - math.sqrt(T / math.pi)) <= 4 * math.ulp(row["u"]), T
            assert abs(row["v"] - exact) <= 1e-15 * exact, T
            assert row["ubar"] == row["vbar"] == 0.0

    def test_medium_gap_deviation_shrinks(self):
        spec = SweepSpec(regime="medium", T_list=[64, 256, 1024], gamma=0.707)
        rows = convergence_sweep(spec)
        devs = [abs(r["v_norm"] - r["u_norm"]) for r in rows]
        assert devs[0] > devs[1] > devs[2]

    def test_mc_columns_present_when_requested(self):
        spec = SweepSpec(regime="medium", T_list=[16], gamma=0.4, seed=11, episodes=4000)
        rows = convergence_sweep(spec)
        assert "mc_regret_mean" in rows[0] and "mc_regret_se" in rows[0]
        assert abs(rows[0]["mc_regret_mean"] - rows[0]["v"]) <= 6 * rows[0]["mc_regret_se"]


class TestStreams:
    def test_purposes_draw_disjoint_streams(self, monkeypatch, tmp_path):
        # record the spawn key of every SeedSequence the commands make
        keys = []
        seed_sequence = np.random.SeedSequence

        def recording(*args, spawn_key=(), **kw):
            keys.append(tuple(spawn_key))
            return seed_sequence(*args, spawn_key=spawn_key, **kw)

        monkeypatch.setattr(np.random, "SeedSequence", recording)
        monkeypatch.setattr(experiments, "CHUNK_SIZE", 64)

        def used(*argv):
            keys.clear()
            assert main(list(argv)) == 0
            return set(keys)

        simulate = ["simulate", "--T", "6", "--eps", "0.2", "--episodes", "150", "--seed", "3"]
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("regime = medium\nT_list = 4, 16\ngamma = 0.4\nseed = 3\n"
                       "episodes = 100\n")
        streams = {
            "simulate": used(*simulate),
            "sweep": used("sweep", "--config", str(cfg), "--out", str(tmp_path / "s.csv")),
            # the audit's keys are those `simulate --audit` adds to `simulate`'s
            "audit": used(*simulate, "--audit", str(tmp_path / "a.jsonl"),
                          "--audit-episodes", "5") - used(*simulate),
        }
        assert streams == {
            "simulate": {(experiments.SIMULATE, i) for i in range(3)},
            "sweep": {(experiments.SWEEP, c, i) for c in range(2) for i in range(2)},
            "audit": {(experiments.AUDIT, i) for i in range(5)},
        }
        sim, sweep, audit = streams.values()
        assert not (sim & sweep or sim & audit or sweep & audit)


# |predicted - (u - v)| <= REMAINDER * T^-3/2, the O(T^-3/2) remainder of the
# law; measured at most 0.37 on T from 16 to 1e6 and eps from 0 to 0.9
REMAINDER = 0.5


class TestErrorScalingFit:
    """How the error-scaling rows fit their closed law, `pde.origin_error`."""

    @pytest.mark.parametrize("spec", [
        SweepSpec(regime="small", T_list=[1000], power=0.75, branch="C1"),
        SweepSpec(regime="large", T_list=[256], eps_list=[0.0], branch="C1"),
        SweepSpec(regime="medium", T_list=[100, 400], gamma=0.0),
        SweepSpec(regime="medium", T_list=[100, 400, 1600, 6400], gamma=1.274),
        SweepSpec(regime="medium", T_list=[1000, 3000, 7000], gamma=2.2),
        SweepSpec(regime="large", T_list=[256], eps_list=[0.2], branch="C1"),
    ], ids=["undominated-envelope", "zero-gap", "zero-gamma", "one-predictor-1.274",
            "one-predictor-2.2", "one-cell"])
    def test_predicts_what_a_fit_refused(self, spec):
        # the envelope fit refused these: an undominated envelope, a zero
        # gap, fewer than two distinct x values
        rows = error_scaling(spec)
        assert [(r["T"], r["eps"]) for r in rows] == spec.cells()
        for r in rows:
            assert abs(r["predicted"] - r["u_minus_v"]) <= REMAINDER * r["T"] ** -1.5, r

    def test_refuses_monte_carlo(self):
        # its rows carry no Monte Carlo columns: episodes would be written unread
        spec = SweepSpec(regime="large", T_list=[256], eps_list=[0.1, 0.2, 0.4],
                         branch="C0", episodes=100)
        with pytest.raises(ValueError, match="episodes must be 0, got 100"):
            error_scaling(spec)

    @pytest.mark.parametrize("branch", ["C0", "C1"])
    def test_rows_are_the_convergence_rows_and_the_law(self, branch):
        spec = SweepSpec(regime="large", T_list=[256], eps_list=[0.1, 0.2, 0.4], branch=branch)
        rows = error_scaling(spec)
        assert [{k: v for k, v in r.items() if k != "predicted"} for r in rows] == \
            convergence_sweep(spec)
        assert [r["predicted"] for r in rows] == [pde.origin_error(256, eps, branch)
                                                  for eps in (0.1, 0.2, 0.4)]

    def test_a_zero_error_cell_is_predicted_below_an_ulp_of_u(self):
        # at T = 4096 the C1 closed form at eps = 0.2 equals v to the last bit,
        # and the law there is about -3e-36
        spec = SweepSpec(regime="large", T_list=[4096], eps_list=[0.05, 0.1, 0.2],
                         branch="C1")
        rows = error_scaling(spec)
        assert rows[2]["u_minus_v"] == 0.0
        assert abs(rows[2]["predicted"]) <= math.ulp(rows[2]["u"])
        assert rows[0]["predicted"] == pytest.approx(rows[0]["u_minus_v"], rel=1e-2)


class TestRegimeLaws:
    def test_small_gap_pseudoregret_ratio(self):
        T = 10_000
        eps = T ** -0.75
        r = dp.pseudoregret_value(T, eps) / (eps * T)
        assert 0.9 < r < 1.0

    def test_large_gap_regret_ratio(self):
        T = 10_000
        eps = T ** -0.3
        assert abs(eps * dp.regret_value(T, eps) - 1.0) < 0.01


class TestFigureData:
    def test_row_count_and_flags(self):
        grid = [round(0.01 + 0.01 * i, 12) for i in range(500)]
        rows = figure_data(grid)
        assert len(rows) == 500
        assert sum(r["is_max_c"] for r in rows) == 1
        assert sum(r["is_max_c_bar"] for r in rows) == 1
        flagged_c = next(r for r in rows if r["is_max_c"])
        assert abs(flagged_c["gamma"] - 0.707) < 0.011
        flagged_cb = next(r for r in rows if r["is_max_c_bar"])
        # measured maximizer of the pseudoregret prefactor formula
        assert abs(flagged_cb["gamma"] - 1.2468587) < 0.011

    @staticmethod
    def per_gamma_rows(grid):
        """Rows of per-gamma `prefactor_c` and `prefactor_c_bar` calls, the
        row nearest each maximizer flagged."""
        nearest = {}
        for which in ("c", "c_bar"):
            gstar, _ = pde.maximize_prefactor(which)
            nearest[which] = min(range(len(grid)), key=lambda i: abs(grid[i] - gstar))
        return [{"gamma": g, "c": pde.prefactor_c(g), "c_bar": pde.prefactor_c_bar(g),
                 "is_max_c": int(i == nearest["c"]), "is_max_c_bar": int(i == nearest["c_bar"])}
                for i, g in enumerate(grid)]

    @pytest.mark.parametrize("grid", [
        [float(Decimal("0.01") * i) for i in range(1, 501)],  # the figure's 0.01:5:0.01
        sorted(random.Random(35).uniform(1e-6, 5.0) for _ in range(2000)),
    ], ids=["0.01:5:0.01", "random"])
    def test_rows_equal_per_gamma_prefactor_calls(self, grid):
        assert figure_data(grid) == self.per_gamma_rows(grid)

    def test_one_prefactor_pair_call_per_gamma(self, monkeypatch):
        grid = [0.25 * i for i in range(1, 21)]
        gstar_c, _ = pde.maximize_prefactor("c")
        calls, pair = [], pde.prefactor_pair
        monkeypatch.setattr(pde, "prefactor_pair", lambda g: calls.append(g) or pair(g))
        figure_data(grid)
        # maximize_prefactor("c") reads c once at its argmax, through the pair
        assert sorted(calls) == sorted([*grid, gstar_c])

    def test_small_gamma_values(self):
        rows = figure_data([0.01])
        assert rows[0]["c"] == pytest.approx(0.564, abs=5e-4)
        assert rows[0]["c_bar"] == pytest.approx(0.01, abs=1e-4)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            figure_data([0.0, 1.0])
        with pytest.raises(ValueError):
            figure_data([6.0])
        with pytest.raises(ValueError, match="gamma grid is empty"):
            figure_data([])


class TestCSVRoundTrip:
    def test_deterministic_bytes(self, tmp_path):
        rows = [{"a": 1, "b": 0.5}, {"a": 2, "b": 1.0 / 3.0}]
        meta = {"config": "test a=1", "seed": "7"}
        p1, p2 = tmp_path / "x1.csv", tmp_path / "x2.csv"
        write_csv(p1, ["a", "b"], rows, meta)
        write_csv(p2, ["a", "b"], rows, meta)
        assert p1.read_bytes() == p2.read_bytes()

    def test_numpy_scalars_are_written_as_numbers(self, tmp_path):
        path = tmp_path / "np.csv"
        write_csv(path, ["x", "n"], [{"x": np.float64(0.5), "n": np.int64(3)}], {})
        assert path.read_text().splitlines()[-1] == "0.5,3"

    def test_missing_column_raises(self, tmp_path):
        with pytest.raises(KeyError, match="b"):
            write_csv(tmp_path / "m.csv", ["a", "b"], [{"a": 1}], {})

    def test_floats_roundtrip_exactly(self, tmp_path):
        rows = [{"x": 1.0 / 3.0}]
        path = tmp_path / "r.csv"
        write_csv(path, ["x"], rows, {})
        meta, back = read_csv(path)
        assert float(back[0]["x"]) == 1.0 / 3.0
        assert meta["symbandit_version"] == "0.1.0"

    def test_the_package_reads_its_version_from_the_artifact_version(self):
        # one version: `pyproject.toml` names `symbandit.__version__`, which
        # every CSV header and `simulate --json` record, and states none itself
        tomllib = pytest.importorskip("tomllib")  # the standard library's from Python 3.11
        with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as fh:
            config = tomllib.load(fh)
        assert "version" not in config["project"]
        assert "version" in config["project"]["dynamic"]
        assert config["tool"]["setuptools"]["dynamic"]["version"] == {
            "attr": "symbandit.__version__"}

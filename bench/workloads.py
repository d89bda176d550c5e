"""The four benchmark workloads.

Each workload is built from a seed (the same seed gives the same inputs)
and makes one warm-up call when it is built; building it is the set-up
that `setup_s` times. Then the harness runs passes, closed loop: one pass
is one full run of the workload and every call starts when the previous
one returns. Per workload:

* `run(tracer)` does one pass, with a span around each public call;
* `check(out, gate)` gates the pass's outputs against `references()`;
* `probes(tracer)` calls, directly and on the same inputs, the layers the
  pass reaches only through another layer (never patching a module);
* `layer_metrics(passes, probe)` turns those spans into per-layer metrics,
  as {name: (value, unit)}.

Importing this module imports symbandit: the harness puts the checkout's
`src` first on sys.path before it does.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from spans import NullTracer, duration, median_total
from symbandit import cli, core, dp, env, experiments, pde, strategy

SRC = Path(__file__).resolve().parent.parent / "src"

# (gamma*, value) of the prefactor maxima, correct to 1e-6.
MAXIMIZERS = {"c": (0.706830, 0.571589), "c_bar": (1.246859, 0.529789)}
MAXIMIZER_TOL = 1e-6
# T*|v/sqrt(T) - c(gamma)| and T*|vbar/sqrt(T) - cbar(gamma)| for gamma in
# [0.5, 1.5] and 20 <= T <= 16000 measure at most 0.254 and 0.296.
ENVELOPE = {"v": 0.30, "vbar": 0.35}
# ubar(origin)/sqrt(T) against cbar(gamma), relative; measured <= 1e-12
# for gamma >= 0.05.
CBAR_REL_TOL = 1e-11
# value_trace origin rows against regret_value/pseudoregret_value,
# relative; measured about 1e-15.
TRACE_REL_TOL = 1e-12
# Monte Carlo means must sit within this many standard errors of exact.
Z_MAX = 5.0


class Gate:
    """Correctness checks; each one gates the output of one operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def round_trips(rows: list[dict], back: list[dict], columns: list[str]) -> bool:
    """Rows read back from CSV equal the rows written, value for value."""
    return len(rows) == len(back) and all(
        type(r[c])(b[c]) == r[c] for r, b in zip(rows, back) for c in columns)


def run_child(args: list[str], cwd: Path) -> tuple[int, str, float]:
    """Run a Python child on the checkout's sources; (exit code, output, peak RSS MB)."""
    environ = dict(os.environ)
    environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), environ.get("PYTHONPATH")) if p)
    with subprocess.Popen([sys.executable, *args], cwd=cwd, env=environ, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT) as proc:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss / 1024.0


def timed_calls(tr, name: str, fn, args: list) -> None:
    """Call fn on each argument inside one span."""
    with tr.span(name, calls=len(args)):
        for a in args:
            fn(a)


def per_call(probe, name: str) -> float:
    """Seconds per call of a `timed_calls` span."""
    rec = probe.find(name)[0]
    return duration(rec) / rec["attrs"]["calls"]


class InProcess:
    """A workload that runs in the harness's own process."""

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class ExactLadder(InProcess):
    """Convergence sweep over a ladder of horizons plus one value trace: all dp."""

    name = "exact-ladder"
    op = "exact cells"
    FULL = {"ladder": (1000, 2000, 4000, 8000, 16000), "trace_T": 6400}
    TINY = {"ladder": (20, 40, 60, 80, 100), "trace_T": 64}

    def __init__(self, seed: int, workdir: Path, size: dict = FULL) -> None:
        rng = np.random.default_rng(seed)
        self.ladder = size["ladder"]
        self.gammas = rng.uniform(0.5, 1.5, len(self.ladder)).tolist()
        self.trace_T = size["trace_T"]
        self.trace_eps = float(rng.uniform(0.5, 1.5)) / math.sqrt(self.trace_T)
        self.csv = workdir / "ladder.csv"
        self.work = len(self.ladder) + 1
        experiments.convergence_sweep(experiments.SweepSpec("medium", [10], gamma=1.0))
        dp.value_trace(10, 0.1)

    def references(self) -> None:
        self.ref = {
            "envelope": dict(ENVELOPE),
            "trace_origin": (dp.regret_value(self.trace_T, self.trace_eps),
                             dp.pseudoregret_value(self.trace_T, self.trace_eps)),
        }

    def run(self, tr) -> dict:
        rows = []
        for T, g in zip(self.ladder, self.gammas):
            spec = experiments.SweepSpec("medium", [T], gamma=g)
            with tr.span("experiments.convergence_sweep", T=T):
                rows += experiments.convergence_sweep(spec)
        with tr.span("experiments.write_csv"):
            experiments.write_csv(self.csv, experiments.CONVERGENCE_COLUMNS, rows,
                                  {"workload": self.name})
        with tr.span("dp.value_trace", T=self.trace_T):
            trace = dp.value_trace(self.trace_T, self.trace_eps)
        return {"rows": rows, "trace": trace}

    def check(self, out: dict, gate: Gate) -> None:
        env_v, env_vb = self.ref["envelope"]["v"], self.ref["envelope"]["vbar"]
        for row in out["rows"]:
            T, g, v, vb = row["T"], row["gamma"], row["v"], row["vbar"]
            sq = math.sqrt(T)
            err_v = T * abs(v / sq - pde.prefactor_c(g))
            err_vb = T * abs(vb / sq - pde.prefactor_c_bar(g))
            gate.check(v >= vb >= 0.0 and err_v <= env_v and err_vb <= env_vb,
                       f"cell T={T} gamma={g!r}: v={v!r} vbar={vb!r}, "
                       f"T|v/sqrtT - c|={err_v:.3g}, T|vbar/sqrtT - cbar|={err_vb:.3g}")
        _, back = experiments.read_csv(self.csv)
        gate.check(round_trips(out["rows"], back, experiments.CONVERGENCE_COLUMNS),
                   "ladder CSV does not read back float-exact")
        trace = out["trace"]
        v_ref, vb_ref = self.ref["trace_origin"]
        t0, v0, vb0 = trace[0]
        gate.check(len(trace) == self.trace_T + 1 and t0 == -self.trace_T
                   and close(v0, v_ref, TRACE_REL_TOL) and close(vb0, vb_ref, TRACE_REL_TOL)
                   and trace[-1] == (0, 0.0, 0.0),
                   f"value_trace origin row {trace[0]} against ({v_ref!r}, {vb_ref!r})")

    def probes(self, tr) -> None:
        for T, g in zip(self.ladder, self.gammas):
            eps = g / math.sqrt(T)
            with tr.span("dp.regret_value", T=T) as rec:
                before = resource.getrusage(resource.RUSAGE_SELF)
                dp.regret_value(T, eps)
                after = resource.getrusage(resource.RUSAGE_SELF)
            rec["attrs"].update(minflt=after.ru_minflt - before.ru_minflt,
                                sys_s=after.ru_stime - before.ru_stime)
            with tr.span("dp.pseudoregret_value", T=T):
                dp.pseudoregret_value(T, eps)

    def layer_metrics(self, passes: list, probe) -> dict:
        m = {}
        busy = 0.0
        sites = 0
        for T in self.ladder:
            for fn in ("regret_value", "pseudoregret_value"):
                s = probe.total(f"dp.{fn}", T=T)
                m[f"dp.{fn}.T{T}.s"] = (s, "s")
                busy += s
            # two +-1 walks over k + 1 sites and one lazy walk over 2k + 1
            # sites per slice k < T
            sites += T * (T + 1) + T * T
        top = probe.find("dp.regret_value", T=self.ladder[-1])[0]["attrs"]
        m["dp.regret_value.minflt"] = (top["minflt"], "count")
        m["dp.regret_value.sys_s"] = (top["sys_s"], "s")
        trace_s = median_total(passes, "dp.value_trace")
        m["dp.value_trace.s"] = (trace_s, "s")
        busy += trace_s
        sites += 3 * self.trace_T * (2 * self.trace_T + 1)  # three full-window walks
        m["dp.busy_s"] = (busy, "s")
        m["dp.ns_per_site"] = (1e9 * busy / sites, "ns")
        m["experiments.convergence_sweep.s"] = (
            median_total(passes, "experiments.convergence_sweep"), "s")
        return m

class ClosedFormGrid(InProcess):
    """Prefactor curves, CSV round trip, maximizers and closed forms: core + pde."""

    name = "closed-form-grid"
    op = "closed-form evaluations"
    FULL = {"grid": 50000, "cells": 2000}
    TINY = {"grid": 500, "cells": 50}

    def __init__(self, seed: int, workdir: Path, size: dict = FULL) -> None:
        n = size["grid"]
        self.grid = [5.0 * i / n for i in range(1, n + 1)]  # step 1e-4 at full size
        rng = np.random.default_rng(seed)
        horizons = np.floor(10.0 ** rng.uniform(2.5, 7.0, size["cells"])).astype(int)
        gammas = rng.uniform(0.05, 12.0, size["cells"])  # a third past the erfc switch at 8
        self.cells = [(int(T), float(g)) for T, g in zip(horizons, gammas)]
        self.csv = workdir / "figure.csv"
        self.work = 2 * len(self.grid) + 2 * len(self.cells)
        experiments.figure_data([0.5, 1.0])
        pde.u_total(0.0, 0.0, 0.0, -100.0, pde.ClosedForm.c1(0.1))

    def references(self) -> None:
        self.ref = {"maximizers": dict(MAXIMIZERS),
                    "c_bar": [pde.prefactor_c_bar(g) for _, g in self.cells]}

    def run(self, tr) -> dict:
        with tr.span("experiments.figure_data"):
            rows = experiments.figure_data(self.grid)
        with tr.span("experiments.write_csv"):
            experiments.write_csv(self.csv, experiments.FIGURE_COLUMNS, rows,
                                  {"workload": self.name})
        with tr.span("experiments.read_csv"):
            _, back = experiments.read_csv(self.csv)
        maxima = {}
        for which in ("c", "c_bar"):
            with tr.span("pde.maximize_prefactor", which=which):
                maxima[which] = pde.maximize_prefactor(which)
        forms = [(-float(T), pde.ClosedForm.c1(g / math.sqrt(T))) for T, g in self.cells]
        with tr.span("pde.u_total"):
            u = [pde.u_total(0.0, 0.0, 0.0, t, cf) for t, cf in forms]
        with tr.span("pde.bar_u_total"):
            ubar = [pde.bar_u_total(0.0, 0.0, t, cf) for t, cf in forms]
        return {"rows": rows, "back": back, "maxima": maxima, "u": u, "ubar": ubar}

    def check(self, out: dict, gate: Gate) -> None:
        rows = out["rows"]
        step = self.grid[1] - self.grid[0]
        flagged = {k: [r["gamma"] for r in rows if r[f"is_max_{k}"]] for k in ("c", "c_bar")}
        gate.check(all(0.0 < r["c_bar"] < r["c"] for r in rows)
                   and all(len(flagged[k]) == 1
                           and abs(flagged[k][0] - self.ref["maximizers"][k][0])
                           <= step / 2 + MAXIMIZER_TOL for k in flagged),
                   f"figure rows: 0 < c_bar < c fails or maximizer flags {flagged}")
        gate.check(round_trips(rows, out["back"], experiments.FIGURE_COLUMNS),
                   "figure CSV does not read back float-exact")
        for which, (g_star, value) in out["maxima"].items():
            g_ref, v_ref = self.ref["maximizers"][which]
            gate.check(abs(g_star - g_ref) <= MAXIMIZER_TOL and abs(value - v_ref) <= MAXIMIZER_TOL,
                       f"maximize_prefactor({which!r}) = ({g_star!r}, {value!r}), "
                       f"expected ({g_ref}, {v_ref})")
        for (T, g), u, ub, cb in zip(self.cells, out["u"], out["ubar"], self.ref["c_bar"]):
            gate.check(u > 0.0 and ub >= 0.0 and close(ub / math.sqrt(T), cb, CBAR_REL_TOL),
                       f"closed form T={T} gamma={g!r}: u={u!r}, ubar/sqrtT={ub / math.sqrt(T)!r}, "
                       f"cbar={cb!r}")

    def probes(self, tr) -> None:
        erf_args = [x for g in self.grid for x in (g, g / pde.SQRT2)]
        erfc_args = [x for _, g in self.cells for x in (g, g / pde.SQRT2, -g / pde.SQRT2)]
        timed_calls(tr, "core.erf", core.erf, erf_args)
        timed_calls(tr, "core.erfc", core.erfc, erfc_args)
        timed_calls(tr, "pde.prefactor_c", pde.prefactor_c, self.grid)
        timed_calls(tr, "pde.prefactor_c_bar", pde.prefactor_c_bar, self.grid)
        self.erf_err = max(abs(core.erf(x) - math.erf(x)) for x in erf_args)

    def layer_metrics(self, passes: list, probe) -> dict:
        n = len(self.cells)
        body = {name: median_total(passes, name) for name in (
            "pde.maximize_prefactor", "pde.u_total", "pde.bar_u_total",
            "experiments.figure_data", "experiments.write_csv", "experiments.read_csv")}
        prefactors = probe.total("pde.prefactor_c") + probe.total("pde.prefactor_c_bar")
        return {
            "core.erf.ns_per_call": (1e9 * per_call(probe, "core.erf"), "ns"),
            "core.erfc.ns_per_call": (1e9 * per_call(probe, "core.erfc"), "ns"),
            "core.erf.max_abs_err": (self.erf_err, "abs"),
            "pde.prefactor_c.us_per_call": (1e6 * per_call(probe, "pde.prefactor_c"), "us"),
            "pde.prefactor_c_bar.us_per_call": (1e6 * per_call(probe, "pde.prefactor_c_bar"), "us"),
            "pde.u_total.us_per_call": (1e6 * body["pde.u_total"] / n, "us"),
            "pde.bar_u_total.us_per_call": (1e6 * body["pde.bar_u_total"] / n, "us"),
            "pde.maximize_prefactor.s": (body["pde.maximize_prefactor"], "s"),
            # figure_data's time in pde is its prefactor calls, probed directly
            "pde.busy_s": (body["pde.maximize_prefactor"] + body["pde.u_total"]
                           + body["pde.bar_u_total"] + prefactors, "s"),
            "experiments.figure_data.s": (body["experiments.figure_data"], "s"),
            "experiments.write_csv.s": (body["experiments.write_csv"], "s"),
            "experiments.write_csv.bytes": (self.csv.stat().st_size, "bytes"),
            "experiments.read_csv.s": (body["experiments.read_csv"], "s"),
        }


def myopic_table(T: int) -> strategy.TabularStrategy:
    """The myopic rule written out as a (t, xi_r) table over reachable states."""
    return strategy.TabularStrategy({
        (t, x): 1.0 if x > 0 else 0.0 if x < 0 else 0.5
        for t in range(-T, 0) for x in range(-(T + t), T + t + 1, 2)})


class MCEpisodes(InProcess):
    """Monte Carlo with the vectorized myopic player and a tabular one: env + strategy."""

    name = "mc-episodes"
    op = "episode-rounds"
    GAMMA = 0.707
    CHUNK = 1 << 16  # mc_estimate's default chunk size
    FULL = {"T": 100, "myopic": 262144, "tabular": 16384}
    TINY = {"T": 20, "myopic": 2048, "tabular": 512}

    def __init__(self, seed: int, workdir: Path, size: dict = FULL) -> None:
        self.seed = seed
        self.T = size["T"]
        self.eps = self.GAMMA / math.sqrt(self.T)
        self.players = {"myopic": (strategy.MyopicStrategy(), size["myopic"]),
                        "tabular": (myopic_table(self.T), size["tabular"])}
        self.work = self.T * (size["myopic"] + size["tabular"])
        self.z: list[float] = []
        for player, _ in self.players.values():
            experiments.mc_estimate(player, self.T, self.eps, 64, seed=seed)

    def references(self) -> None:
        self.ref = {"v": dp.regret_value(self.T, self.eps),
                    "vbar": dp.pseudoregret_value(self.T, self.eps)}

    def run(self, tr) -> dict:
        out = {}
        for name, (player, n) in self.players.items():
            with tr.span("experiments.mc_estimate", player=name):
                out[name] = experiments.mc_estimate(player, self.T, self.eps, n,
                                                    seed=self.seed, workers=1)
        return out

    def check(self, out: dict, gate: Gate) -> None:
        for name, res in out.items():
            z_v = abs(res.regret_mean - self.ref["v"]) / res.regret_se
            z_vb = abs(res.pseudo_mean - self.ref["vbar"]) / res.pseudo_se
            self.z += [z_v, z_vb]
            gate.check(z_v <= Z_MAX and z_vb <= Z_MAX,
                       f"mc_estimate {name}: regret {res.regret_mean!r} (z={z_v:.2f}) "
                       f"vs v={self.ref['v']!r}, pseudo {res.pseudo_mean!r} (z={z_vb:.2f}) "
                       f"vs vbar={self.ref['vbar']!r}")

    def probes(self, tr) -> None:
        for name, (player, n) in self.players.items():
            # mc_estimate's chunking and streams: chunk i draws from spawn_key (0, i)
            for i in range(0, n, self.CHUNK):
                rng = np.random.default_rng(
                    np.random.SeedSequence(self.seed, spawn_key=(0, i // self.CHUNK)))
                with tr.span("env.simulate_batch", player=name):
                    env.simulate_batch(self.T, self.eps, player, min(self.CHUNK, n - i), rng)
            # p1_batch on the states one chunk visits: a +-1 walk per element
            rng = np.random.default_rng(self.seed)
            xi_r = np.zeros(min(self.CHUNK, n), dtype=np.int64)
            for t in range(-self.T, 0):
                with tr.span("strategy.p1_batch", player=name, elems=xi_r.size):
                    player.p1_batch(t, xi_r)
                xi_r += rng.integers(0, 2, xi_r.size) * 2 - 1
        player, n = self.players["myopic"]
        with tr.span("experiments.mc_estimate.w2"):
            experiments.mc_estimate(player, self.T, self.eps, n, seed=self.seed, workers=2)

    def layer_metrics(self, passes: list, probe) -> dict:
        m = {}
        for name in self.players:
            m[f"experiments.mc_estimate.{name}.s"] = (
                median_total(passes, "experiments.mc_estimate", player=name), "s")
            elems = sum(s["attrs"]["elems"] for s in probe.find("strategy.p1_batch", player=name))
            m[f"strategy.p1_batch.{name}.ns_per_elem"] = (
                1e9 * probe.total("strategy.p1_batch", player=name) / elems, "ns")
        sim = probe.total("env.simulate_batch")
        mc = m["experiments.mc_estimate.myopic.s"][0] + m["experiments.mc_estimate.tabular.s"][0]
        m["env.simulate_batch.s"] = (sim, "s")
        m["env.episode_rounds_per_s"] = (self.work / sim, "1/s")
        m["experiments.mc_estimate.self_s"] = (mc - sim, "s")
        m["experiments.mc_estimate.w2_speedup"] = (
            m["experiments.mc_estimate.myopic.s"][0] / probe.total("experiments.mc_estimate.w2"),
            "ratio")
        m["experiments.mc_estimate.max_z"] = (max(self.z), "z")
        return m

class CliSession:
    """Seven sequential `python -m symbandit.cli` commands: start-up, argparse, files."""

    name = "cli-session"
    op = "CLI commands"
    FULL = {"dp_T": 2000, "sim_T": 100, "episodes": 65536, "audit": 200,
            "sweep": (1000, 2000, 4000), "grid": "0.01:5:0.01"}
    TINY = {"dp_T": 50, "sim_T": 20, "episodes": 1024, "audit": 5,
            "sweep": (20, 40, 60), "grid": "0.1:5:0.1"}
    BRUTE_FORCE = [(1, 0.3, 51), (2, 0.3, 51)]  # the certificates `verify` runs

    def __init__(self, seed: int, workdir: Path, size: dict = FULL) -> None:
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.gamma = float(rng.uniform(0.5, 1.5))
        sweep_gamma = float(rng.uniform(0.5, 1.5))
        self.sweep = [(T, sweep_gamma / math.sqrt(T)) for T in size["sweep"]]
        (workdir / "sweep.cfg").write_text(
            "regime = medium\n"
            f"T_list = {','.join(map(str, size['sweep']))}\n"
            f"gamma = {sweep_gamma!r}\n")
        g = repr(self.gamma)
        self.commands = {
            # no --trace: `dp --trace` writes numpy scalars as "np.float64(...)"
            # cells under numpy >= 2 (bench/README.md, "A program defect")
            "dp": ["dp", "--T", str(size["dp_T"]), "--gamma", g],
            "pde": ["pde", "--T", str(size["dp_T"]), "--gamma", g],
            "prefactor": ["prefactor", "--which", "c"],
            "simulate": ["simulate", "--T", str(size["sim_T"]), "--gamma", g,
                         "--episodes", str(size["episodes"]), "--seed", str(seed), "--json",
                         "--audit", "audit.jsonl", "--audit-episodes", str(size["audit"])],
            "sweep": ["sweep", "--config", "sweep.cfg", "--out", "sweep.csv"],
            "figure": ["figure", "--grid", size["grid"], "--out", "figure.csv"],
            "verify": ["verify"],
        }
        self.work = len(self.commands)
        self.child_peaks: list[float] = []
        parser = cli.build_parser()
        for argv in self.commands.values():
            parser.parse_args(argv)

    def references(self) -> None:
        T, sim_T = self.size["dp_T"], self.size["sim_T"]
        eps, sim_eps = self.gamma / math.sqrt(T), self.gamma / math.sqrt(sim_T)
        cf = pde.ClosedForm.c1(eps)
        start, stop, step = map(float, self.size["grid"].split(":"))
        self.ref = {
            "dp": (dp.regret_value(T, eps), dp.pseudoregret_value(T, eps)),
            "pde": (pde.u_total(0.0, 0.0, 0.0, -float(T), cf),
                    pde.bar_u_total(0.0, 0.0, -float(T), cf)),
            "maximizer": MAXIMIZERS["c"],
            "simulate": (dp.regret_value(sim_T, sim_eps), dp.pseudoregret_value(sim_T, sim_eps)),
            "sweep": [(dp.regret_value(T, e), dp.pseudoregret_value(T, e)) for T, e in self.sweep],
            "figure_rows": round((stop - start) / step) + 1,
        }

    def run(self, tr) -> dict:
        out = {}
        for name, argv in self.commands.items():
            with tr.span(f"cli.{name}"):
                code, text, peak = run_child(["-m", "symbandit.cli", *argv], self.workdir)
            self.child_peaks.append(peak)
            out[name] = (code, text)
        return out

    def check(self, out: dict, gate: Gate) -> None:
        for name, (code, text) in out.items():
            try:
                ok = code == 0 and getattr(self, f"_check_{name}")(text)
            except (ValueError, KeyError, IndexError, StopIteration, OSError) as exc:
                # output missing or unparsable
                ok, text = False, f"{text}\n{exc!r}"
            gate.check(ok, f"cli {name} exited {code}:\n{text}")

    @staticmethod
    def _printed(text: str, key: str) -> float:
        return float(next(l for l in text.splitlines() if l.startswith(f"{key} = ")).split()[2])

    def _check_dp(self, text: str) -> bool:
        v, vb = self.ref["dp"]
        return (self._printed(text, "v") == float(f"{v:.12g}")
                and self._printed(text, "vbar") == float(f"{vb:.12g}"))

    def _check_pde(self, text: str) -> bool:
        u, ub = self.ref["pde"]
        return close(self._printed(text, "u"), u, 1e-9) and close(self._printed(text, "ubar"), ub, 1e-9)

    def _check_prefactor(self, text: str) -> bool:
        g_ref, v_ref = self.ref["maximizer"]
        return (abs(self._printed(text, "gamma_star") - g_ref) <= MAXIMIZER_TOL
                and abs(self._printed(text, "c(gamma_star)") - v_ref) <= MAXIMIZER_TOL)

    def _check_simulate(self, text: str) -> bool:
        res = json.loads(text.splitlines()[0])
        v, vb = self.ref["simulate"]
        logs = (self.workdir / "audit.jsonl").read_text().splitlines()
        return (abs(res["regret_mean"] - v) <= Z_MAX * res["regret_se"]
                and abs(res["pseudo_mean"] - vb) <= Z_MAX * res["pseudo_se"]
                and len(logs) == self.size["audit"]
                and all(len(env.EpisodeLog.from_line(l).choices) == self.size["sim_T"]
                        for l in logs))

    def _check_sweep(self, text: str) -> bool:
        _, rows = experiments.read_csv(self.workdir / "sweep.csv")
        return [(float(r["v"]), float(r["vbar"])) for r in rows] == self.ref["sweep"]

    def _check_figure(self, text: str) -> bool:
        _, rows = experiments.read_csv(self.workdir / "figure.csv")
        return (len(rows) == self.ref["figure_rows"]
                and sum(int(r["is_max_c"]) for r in rows) == 1
                and sum(int(r["is_max_c_bar"]) for r in rows) == 1)

    def _check_verify(self, text: str) -> bool:
        return text.splitlines()[-1] == "0 failures"

    def probes(self, tr) -> None:
        for _ in range(3):
            with tr.span("cli.startup"):
                code, text, _ = run_child(["-c", "import symbandit.cli"], self.workdir)
            if code != 0:
                raise RuntimeError(f"importing symbandit.cli failed:\n{text}")
        T, eps = self.size["sim_T"], self.gamma / math.sqrt(self.size["sim_T"])
        player = strategy.MyopicStrategy()
        with tr.span("env.play_episode", episodes=self.size["audit"]):
            for i in range(self.size["audit"]):  # the audit episodes `simulate` plays
                env.play_episode(T, eps, player, np.random.SeedSequence(self.seed, spawn_key=(9999, i)))
        with tr.span("strategy.brute_force_minimax"):
            for args in self.BRUTE_FORCE:
                strategy.brute_force_minimax(*args)

    def layer_metrics(self, passes: list, probe) -> dict:
        m = {"cli.startup_s": (statistics.median(
            duration(s) for s in probe.find("cli.startup")), "s")}
        for name in self.commands:
            m[f"cli.{name}.s"] = (median_total(passes, f"cli.{name}"), "s")
        m["env.play_episode.s"] = (probe.total("env.play_episode"), "s")
        m["strategy.brute_force_minimax.s"] = (probe.total("strategy.brute_force_minimax"), "s")
        return m

    def peak_rss_mb(self) -> float:
        return max(self.child_peaks)


WORKLOADS = {w.name: w for w in (ExactLadder, ClosedFormGrid, MCEpisodes, CliSession)}


def untraced_pass(w) -> tuple[float, dict]:
    """Wall seconds and outputs of one pass with tracing off."""
    t0 = time.perf_counter()
    out = w.run(NullTracer())
    return time.perf_counter() - t0, out

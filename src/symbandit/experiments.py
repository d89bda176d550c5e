"""Monte Carlo estimation, sweep kinds, figure data.

`KINDS` holds each kind of the `sweep` command, `SweepSpec` its config.

Reproducibility rule used everywhere: every generator is seeded here, by
``numpy.random.SeedSequence(seed, spawn_key=(purpose, ...))``, the key
headed by one of the purposes below, so no two purposes share a stream.
`mc_estimate` gives `simulate`'s chunk i (SIMULATE, i) and chunk i of
sweep cell c (SWEEP, c, i), `audit_logs` audit episode i (AUDIT, i).
Results are assembled in fixed chunk order, so output is bit-identical
for any worker count.

numpy, `dp`, `env` and `strategy` are imported by the functions that run
them, and the process pool only when more than one worker has chunks to
share, so `SweepSpec`, `figure_data` and the CSV I/O (the `figure`
command) start without numpy, and a serial run without `multiprocessing`.
An exact-only convergence sweep, and an error-scaling sweep, whose
prediction `pde.origin_error` takes from `math` alone, load no numpy.
The records are named tuples and `SPEC_KEYS` parses a config, so no
command loads `dataclasses`.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable

from . import __version__, pde
from .core import check_game, check_gap, content_lines

CONVERGENCE_COLUMNS = [
    "T", "eps", "gamma", "branch", "v", "vbar", "u", "ubar",
    "u_minus_v", "ubar_minus_vbar", "v_norm", "vbar_norm", "u_norm", "ubar_norm",
]
MC_COLUMNS = ["mc_regret_mean", "mc_regret_se", "mc_pseudo_mean", "mc_pseudo_se"]
FIGURE_COLUMNS = ["gamma", "c", "c_bar", "is_max_c", "is_max_c_bar"]
ERROR_SCALING_COLUMNS = ["T", "eps", "branch", "v", "u", "u_minus_v", "predicted"]

# the head of each purpose's spawn keys
SIMULATE = 0
SWEEP = 1
AUDIT = 9999


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

MCResult = namedtuple("MCResult", "regret_mean regret_se pseudo_mean pseudo_se episodes")


def _mc_chunk(args) -> tuple[float, float, float, float]:
    import numpy as np

    from .env import simulate_batch

    strategy, T, eps, n, safe_arm, seed, spawn_key = args
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=spawn_key))
    mu, s2 = simulate_batch(T, eps, strategy, n, rng, safe_arm=safe_arm)
    pseudo = 2.0 * eps * s2
    del s2
    sums = []
    for x in (mu, pseudo):  # each squared in place once summed
        sums.append(float(x.sum()))
        x *= x
        sums.append(float(x.sum()))
    return tuple(sums)


# episodes per Monte Carlo chunk; chunk i draws from its own stream
CHUNK_SIZE = 1 << 16


def mc_estimate(
    strategy,
    T: int,
    eps: float,
    episodes: int,
    seed: int,
    workers: int = 1,
    safe_arm: int = 1,
    stream: tuple[int, ...] = (SIMULATE,),
) -> MCResult:
    """Unbiased sample means of the final payoff and of 2*eps*s2, with
    their standard errors over the episodes.

    Chunk i of CHUNK_SIZE episodes draws from spawn key (*stream, i), so
    the result is deterministic in (seed, episodes, stream) no matter how
    many workers run the chunks; no more workers start than there are
    chunks. A standard error needs two episodes, so fewer are refused.
    """
    if episodes < 2:
        raise ValueError(f"episodes must be >= 2 for a standard error, got {episodes}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    check_gap(eps)
    n_chunks = (episodes + CHUNK_SIZE - 1) // CHUNK_SIZE
    jobs = [(strategy, T, eps, min(CHUNK_SIZE, episodes - i * CHUNK_SIZE), safe_arm, seed,
             (*stream, i)) for i in range(n_chunks)]
    if workers > 1 and n_chunks > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, n_chunks)) as pool:
            parts = list(pool.map(_mc_chunk, jobs))
    else:
        parts = [_mc_chunk(j) for j in jobs]

    n = episodes
    s_mu, s_mu2, s_ps, s_ps2 = map(sum, zip(*parts))
    mean_mu, mean_ps = s_mu / n, s_ps / n

    def se(total_sq, mean):
        var = max(0.0, (total_sq - n * mean * mean) / (n - 1))
        return math.sqrt(var / n)

    return MCResult(regret_mean=mean_mu, regret_se=se(s_mu2, mean_mu),
                    pseudo_mean=mean_ps, pseudo_se=se(s_ps2, mean_ps), episodes=n)


def audit_logs(strategy, T: int, eps: float, episodes: int, seed: int, safe_arm: int):
    """The EpisodeLogs of `simulate --audit`: episode i < episodes from stream (AUDIT, i)."""
    import numpy as np

    from .env import play_episodes

    seeds = (np.random.SeedSequence(seed, spawn_key=(AUDIT, i)) for i in range(episodes))
    return play_episodes(T, eps, strategy, seeds, safe_arm=safe_arm)


# ---------------------------------------------------------------------------
# Sweep specification
# ---------------------------------------------------------------------------

def _list_of(item):  # comma-separated items, blank ones skipped
    return lambda text: [item(x) for x in text.split(",") if x.strip()]


# Each key of a sweep config, in the field order of `SweepSpec`, and the
# parser of its value; the first two keys are required.
SPEC_KEYS = {"regime": str, "T_list": _list_of(int), "gamma": float, "power": float,
             "eps_list": _list_of(float), "branch": str, "seed": int, "episodes": int}


class SweepSpec(namedtuple("SweepSpec", SPEC_KEYS, defaults=(None, None, None, "C1", None, 0))):
    """One sweep: horizons plus exactly one gap rule.

    * ``gamma``    -- eps = gamma / sqrt(T)   (medium regime)
    * ``power``    -- eps = T ** -power       (small / large regimes)
    * ``eps_list`` -- explicit grid, requires a single T (branch errors)

    The fields are the keys of `SPEC_KEYS`, of a config file (`from_file`)
    and of the canonical config string of its output (`meta`). ``seed`` is
    set exactly when ``episodes > 0``, to 0 if not given.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "SweepSpec":
        self = super().__new__(cls, *args, **kwargs)
        if self.regime not in ("small", "medium", "large"):
            raise ValueError(f"regime must be small/medium/large, got {self.regime!r}")
        pde.check_branch(self.branch)
        if not self.T_list or any(a >= b for a, b in zip(self.T_list, self.T_list[1:])):
            raise ValueError(f"T_list must be nonempty and strictly ascending, got {self.T_list}")
        rules = sum(x is not None for x in (self.gamma, self.power, self.eps_list))
        if rules != 1:
            raise ValueError("exactly one of gamma, power, eps_list must be set")
        if self.eps_list is not None and len(self.T_list) != 1:
            raise ValueError("an eps_list sweep requires a single horizon in T_list")
        if self.eps_list == []:
            raise ValueError("eps_list must be nonempty")
        if self.episodes < 0:
            raise ValueError(f"episodes must be >= 0, got {self.episodes}")
        if self.episodes == 1:
            raise ValueError("episodes must be 0 (no Monte Carlo) or >= 2 for a standard "
                             "error, got 1")
        if self.episodes and self.seed is None:
            self = self._replace(seed=0)
        if self.seed is not None and not self.episodes:
            raise ValueError("seed is read only by a Monte Carlo sweep; set episodes > 0")
        if (self.seed or 0) < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for T in self.T_list:  # the horizon first: cells() divides by T or raises it
            try:
                check_game(T, 0.0)
            except ValueError as exc:
                raise ValueError(f"T_list {exc}") from None
        for eps in self.eps_list or ():
            try:
                check_gap(eps)
            except ValueError as exc:
                raise ValueError(f"eps_list {exc}") from None
        for T, eps in self.cells():
            check_gap(eps)  # the rule must keep every cell feasible
        return self

    def cells(self) -> list[tuple[int, float]]:
        if self.gamma is not None:
            return [(T, self.gamma / math.sqrt(T)) for T in self.T_list]
        if self.power is not None:
            return [(T, T ** -self.power) for T in self.T_list]
        return [(self.T_list[0], e) for e in self.eps_list]

    @classmethod
    def from_file(cls, path, kind: str) -> "SweepSpec":
        """`key = value` lines (`core.content_lines`) -> SweepSpec of a `kind` sweep.

        Each key is one of `SPEC_KEYS` the kind reads, its value read by the
        key's parser. Every refusal names the file, and the line of the key
        at fault when it is one key's.
        """
        keys = [k for k in SPEC_KEYS if k not in KINDS[kind][1]]
        kwargs, places = {}, {}
        for place, body, line in content_lines(path):
            if "=" not in body:
                raise ValueError(f"{place}: expected 'key = value', got {line!r}")
            k, v = (part.strip() for part in body.split("=", 1))
            if k not in keys:
                raise ValueError(f"{place}: unknown key {k!r} for sweep kind {kind!r}; "
                                 f"known keys: {', '.join(keys)}")
            if k in kwargs:
                raise ValueError(f"{place}: key {k!r} is set twice")
            try:
                kwargs[k], places[k] = SPEC_KEYS[k](v), place
            except ValueError as exc:
                raise ValueError(f"{place}: bad value for {k!r}: {exc}") from None
        missing = set(SPEC_KEYS) - set(cls._field_defaults) - set(kwargs)
        if missing:
            raise ValueError(f"{path}: sweep config is missing keys: {sorted(missing)}")
        try:
            return cls(**kwargs)
        except ValueError as exc:  # a refusal of one key's value begins with the key
            raise ValueError(f"{places.get(str(exc).partition(' ')[0], path)}: {exc}") from None

    def meta(self, kind: str) -> dict:
        """Output metadata of a sweep of this kind: each set field the kind
        reads, lists comma-joined, in a config string that runs it again as
        a config file; so `seed` only when it draws Monte Carlo."""
        return run_meta(f"sweep:{kind}", {k: ",".join(map(repr, v)) if isinstance(v, list) else v
                                          for k, v in self._asdict().items()
                                          if v is not None and k not in KINDS[kind][1]})


# ---------------------------------------------------------------------------
# Convergence sweep (exact DP vs closed form)
# ---------------------------------------------------------------------------

def convergence_sweep(spec: SweepSpec) -> list[dict]:
    """Rows of exact values v, vbar and closed forms u, ubar per cell.

    With spec.episodes > 0, appends Monte Carlo columns: one estimate per
    cell over that many episodes of the myopic player, cell c drawing
    from the streams (SWEEP, c, i).
    """
    from . import dp

    rows = []
    for idx, (T, eps) in enumerate(spec.cells()):
        sqT = math.sqrt(T)
        v, vbar = dp.values(T, eps)
        if eps > 0.0:
            cf = pde.ClosedForm.make(spec.branch, eps)
            u = pde.u_total(0.0, 0.0, 0.0, -float(T), cf)
            ubar = pde.bar_u_total(0.0, 0.0, -float(T), cf)
        else:
            # zero gap: the source vanishes and the smooth part is the
            # whole solution; pseudoregret is identically zero
            cf = pde.ClosedForm(eps=0.0, b=0.0)
            u = pde.u_h(0.0, 0.0, 0.0, -float(T), cf)
            ubar = 0.0
        row = {
            "T": T,
            "eps": eps,
            "gamma": eps * sqT,
            "branch": spec.branch,
            "v": v,
            "vbar": vbar,
            "u": u,
            "ubar": ubar,
            "u_minus_v": u - v,
            "ubar_minus_vbar": ubar - vbar,
            "v_norm": v / sqT,
            "vbar_norm": vbar / sqT,
            "u_norm": u / sqT,
            "ubar_norm": ubar / sqT,
        }
        if spec.episodes > 0:
            from .strategy import MyopicStrategy

            res = mc_estimate(MyopicStrategy(), T, eps, spec.episodes, seed=spec.seed,
                              stream=(SWEEP, idx))
            row.update(mc_regret_mean=res.regret_mean, mc_regret_se=res.regret_se,
                       mc_pseudo_mean=res.pseudo_mean, mc_pseudo_se=res.pseudo_se)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Error scaling (u - v against its closed law)
# ---------------------------------------------------------------------------

def error_scaling(spec: SweepSpec) -> list[dict]:
    """The convergence sweep's rows, each with `predicted`, the law of
    u - v at its cell (`pde.origin_error`). Refuses episodes > 0."""
    if spec.episodes:
        raise ValueError(f"error-scaling runs no Monte Carlo; episodes must be 0, "
                         f"got {spec.episodes}")
    rows = convergence_sweep(spec)
    for row in rows:
        row["predicted"] = pde.origin_error(row["T"], row["eps"], spec.branch)
    return rows


def _convergence(spec: SweepSpec):
    mc = MC_COLUMNS if spec.episodes > 0 else []
    return CONVERGENCE_COLUMNS + mc, convergence_sweep(spec)


def _error_scaling(spec: SweepSpec):
    return ERROR_SCALING_COLUMNS, error_scaling(spec)


# Each sweep kind: what it runs, spec -> (columns, rows), and the config
# keys it does not read.
KINDS = {
    "convergence": (_convergence, ()),
    "error-scaling": (_error_scaling, ("seed", "episodes")),
}


# ---------------------------------------------------------------------------
# Figure data
# ---------------------------------------------------------------------------

def figure_data(gamma_grid) -> list[dict]:
    """Rows (gamma, c, cbar), one `pde.prefactor_pair` call each, with the
    row nearest each maximizer of `pde.PREFACTORS` flagged."""
    rows = []
    for g in map(float, gamma_grid):
        if not 0.0 < g <= 5.0:
            raise ValueError(f"gamma grid must lie in (0, 5], got {g}")
        c, c_bar = pde.prefactor_pair(g)
        rows.append({"gamma": g, "c": c, "c_bar": c_bar, "is_max_c": 0, "is_max_c_bar": 0})
    if not rows:
        raise ValueError("gamma grid is empty")
    for which in pde.PREFACTORS:
        gstar, _ = pde.maximize_prefactor(which)
        min(rows, key=lambda row: abs(row["gamma"] - gstar))[f"is_max_{which}"] = 1
    return rows


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def run_meta(command: str, params: dict) -> dict:
    """Output metadata of a run: the canonical config string, the command
    then `key=value` in sorted key order, and the seed if it has one."""
    canon = " ".join(f"{k}={params[k]}" for k in sorted(params))
    meta = {"config": f"{command} {canon}".strip()}
    if "seed" in params:
        meta["seed"] = str(params["seed"])
    return meta


def write_csv(path, columns: list[str], rows: Iterable[dict], meta: dict) -> None:
    """Versioned CSV: '# key=value' comment lines, then header, then rows.

    No timestamps, so identical configs reproduce identical bytes. Each
    cell is `str(row[col])`, a float's shortest round-tripping repr; a
    row without one of the columns raises KeyError. Rows are written as
    they come, so a generator of rows is never held whole.
    """
    with open(path, "w") as fh:
        fh.write(f"# symbandit_version={__version__}\n")
        for key in sorted(meta):
            fh.write(f"# {key}={meta[key]}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join([str(row[col]) for col in columns]) + "\n")


def read_csv(path) -> tuple[dict, list[dict]]:
    """Inverse of write_csv: (meta, rows with string values)."""
    meta: dict[str, str] = {}
    rows: list[dict] = []
    header: list[str] | None = None
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    k, v = body.split("=", 1)
                    meta[k] = v
                continue
            if header is None:
                header = line.split(",")
                continue
            rows.append(dict(zip(header, line.split(","))))
    return meta, rows

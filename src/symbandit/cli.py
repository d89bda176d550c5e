"""Command-line entry point.

Subcommands: dp, pde, prefactor, simulate, sweep, figure, verify.
Usage errors exit 2 (argparse); numeric precondition violations and
files that cannot be read or written exit 1 with the cause named. The
CSVs and `simulate --json` embed the artifact version, the configuration
the run read and the seed when it drew one, so re-running the printed
config reproduces them byte-for-byte; an audit line of `simulate
--audit` holds the master seed, safe arm, eps, choices, rewards, final
regret and s2 of an episode.

Each subcommand prints what a public entry point of the library returns,
without recomputing it: `dp` the values of `dp.values` and its trace the
rows of `dp.trace_rows`, `pde` the closed forms of `pde`, and `verify`
its checks on `dp.values`, `dp.trace_rows` and `dp.bayes_pseudoregret`,
never the arrays below them. `sweep` writes what its kind's entry of
`experiments.KINDS` returns for the `experiments.SweepSpec` of its
config. `simulate --json` writes the fields of `experiments.MCResult` by
name and `--audit` the logs of `experiments.audit_logs`.

Only the standard library, `core` and `pde` load with this module, which
imports no numpy itself; each handler imports the layers (`dp`,
`strategy`), `experiments` and `json` it runs, so `pde`, `prefactor` and
`figure` start without numpy or `json`. `dp` loads numpy only for
`--trace`, so `dp` and an exact-only `sweep` start without numpy too.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import pde
from .core import check_game, check_gap


def _fmt(x: float, round3: bool) -> str:
    return f"{x:.3f}" if round3 else f"{x:.12g}"


def _resolve_eps(args, T: int) -> float:
    given = (args.eps is not None) + (args.gamma is not None)
    if given != 1:
        raise ValueError("exactly one of --eps or --gamma must be provided")
    check_game(T, 0.0)  # the horizon first: --gamma divides by sqrt(T)
    eps = args.eps if args.eps is not None else args.gamma / math.sqrt(T)
    return check_gap(eps)


def _cmd_dp(args) -> int:
    from . import dp

    T = args.T
    eps = _resolve_eps(args, T)
    v, vbar = dp.values(T, eps)
    print(f"v = {_fmt(v, args.round3)}")
    print(f"vbar = {_fmt(vbar, args.round3)}")
    if args.trace:
        from . import experiments

        meta = experiments.run_meta("dp", {"T": T, "eps": repr(eps)})
        rows = ({"t": t, "v": a, "vbar": b} for t, a, b in dp.trace_rows(T, eps))
        experiments.write_csv(args.trace, ["t", "v", "vbar"], rows, meta)
        print(f"trace written to {args.trace}")
    return 0


def _cmd_pde(args) -> int:
    T = args.T
    eps = _resolve_eps(args, T)
    for flag, x in (("--eta", args.eta), ("--xi-h", args.xi_h), ("--xi-r", args.xi_r),
                    ("--s2", args.s2)):
        if not math.isfinite(x):
            raise ValueError(f"{flag} must be finite, got {x}")
    cf = pde.ClosedForm.make(args.branch, eps)
    t = -float(T)
    print(f"u = {_fmt(pde.u_total(args.eta, args.xi_h, args.xi_r, t, cf), args.round3)}")
    print(f"u_h = {_fmt(pde.u_h(args.eta, args.xi_h, args.xi_r, t, cf), args.round3)}")
    print(f"phi = {_fmt(pde.phi_fn(args.xi_r, cf), args.round3)}")
    print(f"phi_hat = {_fmt(pde.phi_hat(args.xi_r, t, cf), args.round3)}")
    print(f"u_n = {_fmt(pde.u_n(args.xi_r, t, cf), args.round3)}")
    ubar = pde.bar_u_total(args.xi_r, args.s2, t, cf)
    print(f"ubar = {_fmt(ubar, args.round3)}")
    print(f"bar_phi = {_fmt(pde.bar_phi(args.xi_r, cf), args.round3)}")
    print(f"bar_phi_hat = {_fmt(pde.bar_phi_hat(args.xi_r, t, cf), args.round3)}")
    return 0


def _cmd_prefactor(args) -> int:
    if args.gamma is not None:
        f, _ = pde.PREFACTORS[args.which]
        print(f"{args.which}({_fmt(args.gamma, args.round3)}) = {_fmt(f(args.gamma), args.round3)}")
        return 0
    gstar, val = pde.maximize_prefactor(args.which)
    print(f"gamma_star = {_fmt(gstar, args.round3)}")
    print(f"{args.which}(gamma_star) = {_fmt(val, args.round3)}")
    return 0


def _make_strategy(name: str):
    from .strategy import MyopicStrategy, TabularStrategy, UniformStrategy

    if name == "myopic":
        return MyopicStrategy()
    if name == "uniform":
        return UniformStrategy()
    if name.startswith("table:"):
        return TabularStrategy.from_file(name[len("table:"):])
    raise ValueError(f"unknown strategy {name!r}; use myopic, uniform or table:PATH")


def _cmd_simulate(args) -> int:
    import json

    from . import experiments

    T = args.T
    eps = _resolve_eps(args, T)
    if args.audit_episodes < 1:
        raise ValueError(f"--audit-episodes must be >= 1, got {args.audit_episodes}")
    strategy = _make_strategy(args.strategy)
    res = experiments.mc_estimate(
        strategy, T, eps, args.episodes, seed=args.seed,
        workers=args.workers, safe_arm=args.safe_arm,
    )
    if args.json:
        payload = {
            "version": experiments.ARTIFACT_VERSION,
            "config": experiments.run_meta("simulate", {
                "T": T, "eps": repr(eps), "episodes": args.episodes,
                "seed": args.seed, "strategy": args.strategy,
                "safe_arm": args.safe_arm,
            })["config"],
            "seed": args.seed,
            **vars(res),
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"regret_mean = {_fmt(res.regret_mean, args.round3)} "
              f"(se {_fmt(res.regret_se, args.round3)})")
        print(f"pseudo_mean = {_fmt(res.pseudo_mean, args.round3)} "
              f"(se {_fmt(res.pseudo_se, args.round3)})")
    if args.audit:
        with open(args.audit, "w") as fh:
            for log in experiments.audit_logs(strategy, T, eps, args.audit_episodes,
                                              args.seed, args.safe_arm):
                fh.write(log.to_line() + "\n")
        print(f"audit log written to {args.audit}")
    return 0


def _cmd_sweep(args) -> int:
    from . import experiments

    spec = experiments.SweepSpec.from_file(args.config, args.kind)
    run, _ = experiments.KINDS[args.kind]
    try:
        columns, rows, header, summary = run(spec)
    except ValueError as exc:  # a kind's own refusals of the config name its file too
        raise ValueError(f"{args.config}: {exc}") from None
    experiments.write_csv(args.out, columns, rows, spec.meta(args.kind) | header)
    print(*summary, f"{len(rows)} rows written to {args.out}", sep="\n")
    return 0


# `figure` holds a row of five numbers per point in memory, about 250 bytes;
# 1e5 points, a step of 5e-5 across the whole gamma domain (0, 5], take
# about 25 MB and 0.3 s. Finer grids are refused before the list is built.
_MAX_GRID_POINTS = 100_000
_GRID_DIGITS = 100  # significant digits of a grid point, exact up to this many


def _parse_grid(text: str) -> list[float]:
    from decimal import Context, Decimal, Inexact, localcontext

    try:
        a, b, s = map(Decimal, text.split(":"))
    except (ValueError, ArithmeticError):  # Decimal refuses a non-number by InvalidOperation
        raise ValueError(f"grid must be start:stop:step, got {text!r}") from None
    if not all(x.is_finite() and math.isfinite(float(x)) for x in (a, b, s)):
        raise ValueError(f"grid bounds and step must be finite, got {text!r}")
    if s <= 0 or b < a:
        raise ValueError(f"grid must satisfy start <= stop, step > 0, got {text!r}")
    # the points start + i*step <= stop in exact decimals, each rounded once
    with localcontext(Context(prec=_GRID_DIGITS, traps=[Inexact])):
        try:
            if b - a >= _MAX_GRID_POINTS * s:  # a product, which no tiny step can overflow
                raise ValueError(f"grid {text!r} has more than {_MAX_GRID_POINTS} points")
            grid = [float(a + i * s) for i in range(int((b - a) // s) + 1)]
        except Inexact:
            raise ValueError(f"grid {text!r} needs more than {_GRID_DIGITS} digits") from None
    if len(set(grid)) < len(grid):
        raise ValueError(f"grid {text!r} has points closer than a float can tell apart")
    return grid


def _cmd_figure(args) -> int:
    from . import experiments

    grid = _parse_grid(args.grid)
    rows = experiments.figure_data(grid)
    experiments.write_csv(args.out, experiments.FIGURE_COLUMNS, rows,
                          experiments.run_meta("figure", {"grid": args.grid}))
    print(f"{len(rows)} rows written to {args.out}")
    return 0


def _verify_checks():
    """(name, ok, detail) triples for the invariant suite."""
    from . import dp

    checks = []

    def add(name, ok, detail=""):
        checks.append((name, bool(ok), detail))

    for eps in (0.0, 0.3, 0.7):
        v1 = dp.values(1, eps)[0]
        add(f"one-round regret eps={eps}", abs(v1 - (1 + eps * eps) / 2) < 1e-14,
            f"v={v1!r}")
    vb = dp.values(1, 0.4)[1]
    add("one-round pseudoregret eps=0.4", abs(vb - 0.4) < 1e-14, f"vbar={vb!r}")

    # at eps = 0 the regret is the mean absolute deviation of Bin(2T, 1/2)
    T = 1000
    exact = T * math.comb(2 * T, T) / 4**T
    rel = abs(dp.values(T, 0.0)[0] - exact) / exact
    add(f"zero-gap regret equals T C(2T,T)/4^T T={T}", rel <= 1e-15, f"rel diff={rel:.2e}")

    # a walk with drift eps expects q/eps^2 steps below 0: both values rise
    # to 1/eps, within an ulp once T*eps^2 reaches 80
    T, eps = 2000, 0.2
    rows = dp.trace_rows(T, eps)
    _, v_T, vbar_T = next(rows)  # row 0 is horizon T
    top = max(v_T, vbar_T, max(max(v, vbar) for _, v, vbar in rows)) * eps - 1.0
    low = 1.0 - vbar_T * eps
    add(f"regret rises to 1/eps T={T} eps={eps}", top <= 2.0**-52 and low <= 2.0**-52,
        f"max eps*v - 1={top:.2e}, 1 - eps*vbar_T={low:.2e}")
    def route_gap(T, eps):  # the first row of the O(T) pass is horizon T
        _, *exact = next(dp.trace_rows(T, eps))
        return max(abs(x - y) / y for x, y in zip(dp.values(T, eps), exact))

    for T, gamma, route in ((100_000, 0.707, "eps^2 series"), (10_000, 3, "incomplete-beta tails")):
        rel = route_gap(T, gamma / math.sqrt(T))
        add(f"{route} equal O(T) route T={T} gamma={gamma}", rel <= 1e-14, f"rel diff={rel:.2e}")

    # no player's worse label beats the Bayes bound, and the myopic player meets it
    cells = [(1000, g / math.sqrt(1000), f"gamma={g}") for g in (0.1, 0.707, 3)]
    cells += [(8, 0.7, "eps=0.7"), (1, 0.3, "eps=0.3"), (2, 0.3, "eps=0.3")]
    for T, eps, gap in cells:
        bound, vbar = dp.bayes_pseudoregret(T, eps), dp.values(T, eps)[1]
        rel = abs(vbar - bound) / bound
        add(f"myopic pseudoregret equals the Bayes lower bound T={T} {gap}",
            rel <= 1e-13, f"bound {bound!r}, myopic {vbar!r}, rel gap={rel:.2e}")

    for eps in (0.1, 0.3):
        cf1 = pde.ClosedForm.c1(eps)
        jump1 = pde.phi_deriv(0.0, cf1, 1, +1) - pde.phi_deriv(0.0, cf1, 1, -1)
        add(f"C1 slope jump vanishes eps={eps}", abs(jump1) <= 1e-12, f"jump={jump1:.2e}")
        cf0 = pde.ClosedForm.c0(eps)
        combo = (0.5 * (pde.phi_deriv(0.0, cf0, 1, +1) - pde.phi_deriv(0.0, cf0, 1, -1))
                 + 0.25 * eps * (pde.phi_deriv(0.0, cf0, 2, +1)
                                 - pde.phi_deriv(0.0, cf0, 2, -1)))
        add(f"C0 jump combination vanishes eps={eps}", abs(combo) <= 1e-13,
            f"combo={combo:.2e}")

    cf = pde.ClosedForm.c1(0.2)
    ok = True
    for x in (-3.0, -0.5, 0.7, 4.0):
        lhs = cf.eps * pde.phi_deriv(x, cf, 1) + 0.5 * pde.phi_deriv(x, cf, 2)
        ok = ok and abs(lhs - pde.regret_source(x, cf)) <= 1e-13
    add("steady layer solves its ODE on both sides", ok)

    r = abs(pde.pde_residual(0.0, 0.5, 2.0, -3.0, pde.ClosedForm.c1(0.1), h=1e-3))
    add("regret equation residual at smooth point", r <= 1e-5, f"|res|={r:.2e}")
    rb = abs(pde.bar_pde_residual(-2.0, 3.0, -5.0, pde.ClosedForm.c1(0.2), h=1e-3))
    add("pseudoregret equation residual at smooth point", rb <= 1e-5, f"|res|={rb:.2e}")

    c_small = pde.prefactor_c(1e-6)
    add("small-gap limit of c", abs(c_small - pde.SMALL_GAP_LIMIT_C) <= 1e-5,
        f"c(1e-6)={c_small!r}")
    add("large-gap limit of gamma*c", abs(50 * pde.prefactor_c(50.0) - 1) <= 1e-6)
    add("large-gap limit of gamma*cbar", abs(50 * pde.prefactor_c_bar(50.0) - 1) <= 1e-6)
    return checks


def _cmd_verify(args) -> int:
    failures = 0
    for name, ok, detail in _verify_checks():
        tag = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"{tag} {name}{suffix}")
        if not ok:
            failures += 1
    print(f"{failures} failures")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="symbandit",
                                description="Symmetric two-armed Bernoulli bandit: "
                                            "exact values, closed forms, experiments")
    sub = p.add_subparsers(dest="cmd", required=True)

    def add_common(sp):
        sp.add_argument("--T", type=int, required=True, help="horizon (rounds)")
        sp.add_argument("--gamma", type=float, default=None,
                        help="gap scale; eps = gamma / sqrt(T)")
        sp.add_argument("--eps", type=float, default=None, help="gap parameter in [0, 1)")
        sp.add_argument("--round3", action="store_true", help="print values rounded to 3 decimals")

    sp = sub.add_parser("dp", help="exact values v, vbar at the origin")
    add_common(sp)
    sp.add_argument("--trace", default=None, help="write (t, v, vbar) CSV here")
    sp.set_defaults(func=_cmd_dp)

    sp = sub.add_parser("pde", help="closed forms u, ubar and components")
    add_common(sp)
    sp.add_argument("--branch", default="C1", choices=("C1", "C0"))
    sp.add_argument("--eta", type=float, default=0.0)
    sp.add_argument("--xi-h", dest="xi_h", type=float, default=0.0)
    sp.add_argument("--xi-r", dest="xi_r", type=float, default=0.0)
    sp.add_argument("--s2", type=float, default=0.0)
    sp.set_defaults(func=_cmd_pde)

    sp = sub.add_parser("prefactor", help="prefactors c, cbar and their maximizers")
    sp.add_argument("--which", required=True, choices=tuple(pde.PREFACTORS))
    sp.add_argument("--gamma", type=float, default=None,
                    help="evaluate at gamma instead of maximizing")
    sp.add_argument("--round3", action="store_true")
    sp.set_defaults(func=_cmd_prefactor)

    sp = sub.add_parser("simulate", help="Monte Carlo estimate of regret/pseudoregret")
    add_common(sp)
    sp.add_argument("--episodes", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--strategy", default="myopic",
                    help="myopic | uniform | table:PATH")
    sp.add_argument("--safe-arm", type=int, default=1, choices=(1, 2))
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--audit", default=None, help="write per-episode logs here")
    sp.add_argument("--audit-episodes", type=int, default=10)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("sweep", help="run a sweep from a key=value config file")
    sp.add_argument("--config", required=True)
    sp.add_argument("--kind", default="convergence",
                    choices=("convergence", "error-scaling"))
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("figure", help="prefactor curves over a gamma grid")
    sp.add_argument("--grid", required=True, help="start:stop:step")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_figure)

    sp = sub.add_parser("verify", help="invariant suite incl. the Bayes certificate of "
                                       "minimax at T = 1, 2, 8, 1000")
    sp.set_defaults(func=_cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse signals usage errors with code 2
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

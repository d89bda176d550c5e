"""README's "Numerical findings", recomputed at the digits README prints.

Each test parses one bullet's numbers from README and recomputes them,
so an edit to either the bullet or the program's numbers fails.
"""

import math
import re
import statistics
from fractions import Fraction
from pathlib import Path

import pytest

from symbandit import dp, pde
from symbandit.experiments import SweepSpec, error_scaling

README = Path(__file__).resolve().parent.parent / "README.md"
NUMBER = r"([0-9.]+(?:e[+-]?[0-9]+)?)"


def finding(start):
    """The bullet of "Numerical findings" that begins with `start`, on one line."""
    section = README.read_text().split("\n## Numerical findings\n", 1)[1].split("\n## ", 1)[0]
    (bullet,) = [b for b in section.split("\n* ") if b.startswith(start)]
    return " ".join(bullet.split())


def agrees(x, printed):
    """`x` rounded to as many significant digits as `printed` has reads `printed`."""
    digits = len(printed.split("e")[0].replace(".", "").lstrip("0"))
    return float(f"{x:.{digits}g}") == float(printed)


def test_myopic_pseudoregret_meets_the_bayes_bound():
    # the relative gaps of `symbandit verify`'s Bayes lines, printed as it
    # prints them (three significant digits)
    text = finding("The myopic pseudoregret meets Le Cam's lower bound")
    pattern = (rf"at `T = (\d+)` with relative gaps {NUMBER}, {NUMBER} and {NUMBER} at "
               rf"gamma {NUMBER}, {NUMBER} and {NUMBER}, and {NUMBER} at "
               rf"`\(T, eps\) = \((\d+), {NUMBER}\)`")
    T, *gaps_and_gammas, last_gap, last_T, last_eps = re.search(pattern, text).groups()
    gaps, gammas = gaps_and_gammas[:3], gaps_and_gammas[3:]
    cells = [(int(T), float(g) / math.sqrt(int(T))) for g in gammas]
    cells.append((int(last_T), float(last_eps)))
    for (T, eps), printed in zip(cells, [*gaps, last_gap]):
        bound, vbar = dp.bayes_pseudoregret(T, eps), dp.values(T, eps)[1]
        assert f"{abs(vbar - bound) / bound:.2e}" == printed, (T, eps)


def test_regret_saturates_at_one_over_eps():
    text = finding("Both values rise to exactly `1/eps`")
    scales = re.search(r"at `T eps\^2` = ([0-9, ]+):", text).group(1).split(",")
    rows = re.findall(rf"{NUMBER}, {NUMBER}, {NUMBER}, {NUMBER} and {NUMBER} "
                      rf"at `eps = {NUMBER}`", text)
    assert len(scales) == 5 and len(rows) == 2
    for *printed, eps in rows:
        eps = float(eps)
        for scale, p in zip(scales, printed):
            T = round(int(scale) / eps**2)
            assert agrees((1 / eps - dp.values(T, eps)[0]) * eps, p), (T, eps)


def test_second_order_term_of_the_regret():
    text = finding("The second-order term of the regret")
    pattern = rf"at `gamma = {NUMBER}` reads {NUMBER} at `T` = {NUMBER}, {NUMBER} and {NUMBER}"
    gamma, printed, *horizons = re.search(pattern, text).groups()
    gamma = float(gamma)
    for T in (int(float(h)) for h in horizons):
        v = dp.values(T, gamma / math.sqrt(T))[0]
        assert agrees(math.sqrt(T) * (v - pde.prefactor_c(gamma) * math.sqrt(T)), printed), T


def test_regret_prefactor_maximizer():
    text = finding("The regret prefactor `c(gamma)` peaks")
    pattern = (rf"at `gamma\* = {NUMBER}` with value `{NUMBER}` \(3 decimals: {NUMBER}, "
               rf"{NUMBER}\).* within {NUMBER} of 40-digit values \({NUMBER}, {NUMBER}\)")
    gstar, value, g3, c3, tol, *roots = re.search(pattern, text).groups()
    g, c = pde.maximize_prefactor("c")
    assert agrees(g, gstar) and agrees(c, value)
    assert f"{g:.3f}" == g3 and f"{c:.3f}" == c3
    for which, printed in zip(("c", "c_bar"), roots):
        # the printed digits are the 40-digit root rounded, within half their last place
        half_place = 0.5 * 10.0 ** -len(printed.split(".")[1])
        assert abs(pde.maximize_prefactor(which)[0] - float(printed)) <= float(tol) - half_place


def _c_bar_slope(g):
    """README's derivative of cbar, written out as README prints it."""
    return (1 - (1 + 1 / g**2) * math.erf(g / math.sqrt(2))
            + math.sqrt(2 / math.pi) * math.exp(-g**2 / 2) / g)


def test_pseudoregret_prefactor_maximizer():
    text = finding("The pseudoregret prefactor `cbar(gamma)")
    pattern = (rf"peaks at \*\*`gamma\* = {NUMBER}`\*\* \(value `{NUMBER}`, i.e. {NUMBER} to "
               rf"3 decimals\)\. The often-quoted maximizer {NUMBER} .* clearly negative "
               rf"\(-{NUMBER}\) at {NUMBER}\. .* at `T = (\d+)` confirms the discrete maximum "
               rf"sits near {NUMBER}, not {NUMBER}\.")
    gstar, value, c3, quoted, slope, at, T, near, not_at = re.search(pattern, text).groups()
    g, c = pde.maximize_prefactor("c_bar")
    assert agrees(g, gstar) and agrees(c, value) and f"{c:.3f}" == c3
    assert quoted == at == not_at and agrees(-_c_bar_slope(float(at)), slope)
    assert _c_bar_slope(float(gstar)) < 1e-6 and f"{g:.3f}" == near
    T = int(T)
    vbar_near, vbar_quoted = (dp.values(T, float(x) / math.sqrt(T))[1] for x in (near, at))
    assert vbar_near > vbar_quoted


def test_convergence_slopes_at_fixed_gamma():
    text = finding("At fixed `gamma`, the normalized deviation")
    pattern = (rf"at `gamma = {NUMBER}` on criterion 3's horizons `T` = ([0-9, ]+) and (\d+), "
               rf"their least-squares log-log slopes are -{NUMBER} and -{NUMBER}\.")
    gamma, horizons, last, dev_slope, gap_slope = re.search(pattern, text).groups()
    gamma, Ts = float(gamma), [int(T) for T in [*horizons.split(","), last]]
    devs, gaps = [], []
    for T in Ts:
        eps = gamma / math.sqrt(T)
        v = dp.values(T, eps)[0]
        devs.append(abs(v / math.sqrt(T) - pde.prefactor_c(gamma)))
        gaps.append(abs(pde.u_total(0.0, 0.0, 0.0, -float(T), pde.ClosedForm.c1(eps)) - v))
    logs = [math.log(T) for T in Ts]
    for ys, printed in ((devs, dev_slope), (gaps, gap_slope)):
        slope = statistics.linear_regression(logs, [math.log(y) for y in ys]).slope
        assert agrees(-slope, printed), printed


def test_unit_envelope_is_far_from_tight_at_fixed_gamma():
    text = finding("At fixed `gamma`, the normalized deviation")
    gamma = float(re.search(rf"at `gamma = {NUMBER}`", text).group(1))
    pattern = (rf"`\|u - v\|` is {NUMBER} of `eps\^2 T \+ eps ln T \+ 1` at `T = (\d+)` "
               rf"and {NUMBER} at `T = (\d+)`")
    first, T_first, last, T_last = re.search(pattern, text).groups()
    for printed, T in ((first, int(T_first)), (last, int(T_last))):
        eps = gamma / math.sqrt(T)
        v = dp.values(T, eps)[0]
        u = pde.u_total(0.0, 0.0, 0.0, -float(T), pde.ClosedForm.c1(eps))
        assert agrees(abs(u - v) / (eps**2 * T + eps * math.log(T) + 1.0), printed), T


def test_c0_against_c1_at_the_largest_horizon():
    text = finding("Deep in the large-gap regime")
    pattern = (rf"\(at `T = (\d+)`: {NUMBER} vs {NUMBER} at `eps = {NUMBER}`, "
               rf"{NUMBER} vs {NUMBER} at `eps = {NUMBER}`,")
    T, *cells = re.search(pattern, text).groups()
    T = int(T)
    for c0, c1, eps in (cells[:3], cells[3:]):
        eps = float(eps)
        v = dp.values(T, eps)[0]
        for branch, printed in (("C0", c0), ("C1", c1)):
            u = pde.u_total(0.0, 0.0, 0.0, -float(T), pde.ClosedForm.make(branch, eps))
            assert agrees(abs(u - v), printed), (branch, eps)


def test_c0_differs_more_than_c1_on_every_cell_measured():
    text = finding("Deep in the large-gap regime")
    pattern = r"on every cell measured: `T` ∈ \{([0-9, ]+)\} × `eps` ∈ \{([0-9., ]+)\}"
    horizons, gaps = re.search(pattern, text).groups()
    cells = [(int(T), float(eps)) for T in horizons.split(",") for eps in gaps.split(",")]
    assert len(cells) == 27
    for T, eps in cells:
        v = dp.values(T, eps)[0]
        c0, c1 = (abs(pde.u_total(0.0, 0.0, 0.0, -float(T), pde.ClosedForm.make(branch, eps)) - v)
                  for branch in ("C0", "C1"))
        assert c0 > c1, (T, eps)


def test_c0_origin_error_is_the_larger_to_leading_order():
    # F13: where e~ < d, 2(d - e~) stays below README's fraction of
    # gamma erf(gamma/sqrt2), which C0's shift times sqrt(T) exceeds
    text = finding("Deep in the large-gap regime")
    pattern = (rf"Where `ẽ < d` \(from `gamma = {NUMBER}` on\), "
               rf"`2\(d - ẽ\) <= {NUMBER} gamma erf\(gamma/sqrt2\)`, with the maximum at "
               rf"`gamma = {NUMBER}` on a grid of 2·10\^(\d+) points of `gamma` in \(0, (\d+)\]")
    start, fraction, at, power, top = re.search(pattern, text).groups()
    n, top = 2 * 10 ** int(power), int(top)
    ratios = []
    for i in range(1, n + 1):
        gamma = i * top / n
        d, e_tilde = pde._second_order(gamma)
        if e_tilde < d:
            ratios.append((2 * (d - e_tilde) / (gamma * math.erf(gamma / math.sqrt(2))), gamma))
    worst, argmax = max(ratios)
    assert agrees(worst, fraction) and agrees(argmax, at)
    assert agrees(min(g for _, g in ratios), start)


def _relative_misses(T, gaps, branch):
    """(eps, u - v, |predicted - (u - v)| / |u - v|) of an error-scaling sweep's rows;
    inf where u - v is 0."""
    rows = error_scaling(SweepSpec(regime="large", T_list=[T], eps_list=gaps, branch=branch))
    return [(r["eps"], err, abs(r["predicted"] - err) / abs(err) if err else math.inf)
            for r in rows for err in [r["u_minus_v"]]]


def test_closed_law_of_the_origin_error():
    text = finding("The error of the closed forms at the origin has a closed law")
    horizons, gaps = re.search(r"on `T` ∈ \{([0-9, ]+)\} × `eps` ∈ \{([0-9., ]+)\}",
                               text).groups()
    horizons, gaps = [int(T) for T in horizons.split(",")], [float(e) for e in gaps.split(",")]
    pattern = (rf"within {NUMBER} on every C0 cell, and within {NUMBER} on every C1 cell "
               rf"with `T >= (\d+)` and `\|u - v\| > {NUMBER}`\. At `T = (\d+)` it misses "
               rf"the C1 cells with `\|u - v\| > {NUMBER}` by up to (\d+) %, at "
               rf"`eps = {NUMBER}` \(`gamma = {NUMBER}`\)")
    c0, c1, T_min, floor, T_low, floor_low, percent, worst_eps, worst_gamma = re.search(
        pattern, text).groups()
    misses = {(T, branch): _relative_misses(T, gaps, branch)
              for T in horizons for branch in ("C0", "C1")}
    assert agrees(max(m for T in horizons for _, _, m in misses[T, "C0"]), c0)
    assert agrees(max(m for T in horizons if T >= int(T_min)
                      for _, err, m in misses[T, "C1"] if abs(err) > float(floor)), c1)
    low = [(m, eps) for eps, err, m in misses[int(T_low), "C1"] if abs(err) > float(floor_low)]
    m, eps = max(low)
    assert agrees(100.0 * m, percent) and eps == float(worst_eps)
    assert agrees(eps * math.sqrt(int(T_low)), worst_gamma)
    printed, T = re.search(rf"At `eps = 0` the law is .* within {NUMBER} of `u - v` at "
                           rf"`T = (\d+)`", text).groups()
    ((_, err, m),) = _relative_misses(int(T), [0.0], "C1")
    assert agrees(m, printed)
    assert pde.origin_error(int(T), 0.0, "C1") == pytest.approx(
        1.0 / (8.0 * math.sqrt(math.pi * int(T))), rel=1e-15)


def test_small_and_large_gap_limits_at_one_horizon():
    text = finding("Small-gap pseudoregret")
    pattern = (rf"`vbar/\(eps T\) = {NUMBER}` at `T = {NUMBER}`, `eps = T\^\(-([0-9./]+)\)`; "
               rf"large-gap regret: `eps \* v = {NUMBER}` at `T = {NUMBER}`, "
               rf"`eps = T\^\(-([0-9./]+)\)`")
    small, T_small, p_small, large, T_large, p_large = re.search(pattern, text).groups()
    T = int(float(T_small))
    eps = T ** -float(Fraction(p_small))
    assert agrees(dp.values(T, eps)[1] / (eps * T), small)
    T = int(float(T_large))
    eps = T ** -float(Fraction(p_large))
    assert agrees(eps * dp.values(T, eps)[0], large)

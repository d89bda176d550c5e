"""Error budgets of the exact routes, against exact arithmetic where it
reaches and against exact identities beyond.

* The production routes in `symbandit.dp`: within 1e-13 relative of the
  rational oracle in tests/_exact.py on a (T, eps) grid with T up to 400
  and eps from 0 to 0.9, with v >= vbar holding exactly (measured worst:
  3.5e-16). The grid reaches every route of `values`: the eps^2 series at
  gamma <= 1, the tails beyond from T = 12 on, the a_i below, and
  saturation. On the cells with T*eps^2 >= 30 the O(T) arrays, which sum
  their tails from the far end there, are held to 2 ulps as well
  (measured 2.2e-16; 4.9e-15 without that path). Either side of T = 12,
  where gamma > 1 moves from the sums of the a_i to the tails, both are
  held to 5e-15 (measured 1.2e-15 and 5.6e-16).
* Every row of the O(T) arrays either side of their far-end switch, on
  two (T, eps) pairs, within 5e-15 of the oracle's row of that horizon
  (2 ulps on the far-end side, measured 1.1 ulp), and v - vbar within
  5e-15 of v of twice the exact shortfall (measured 1.4e-15 and
  1.5e-15): the one check of F2 on the arrays that does not restate the
  route.
* The Bayes lower bound of `dp.bayes_pseudoregret`: its posterior-form
  oracle in tests/_exact.py, a rational backward recursion over (t, xi_r),
  equals the exact vbar with no error at T <= 30, and the F8 sum over the
  rows of `dp.walk_law` is within 1e-13 relative of it (measured 3.9e-16).
* The rows of `dp.walk_law` up to k = 59: row k within k ulps of the exact
  binomial law (measured 0.3 k), and the label swap mirrors each row.
* The central ratio C(2k, k)/4^k of the one-horizon routes, from Loader's
  Stirling error, within 2 ulps of exact integer arithmetic.
* The O(T) arrays at every horizon up to T = 1e6 + 1, on gamma 0.01 to 10,
  by identities that follow from the walk: vbar from S0(M) and a_M alone
  (F4) within 1e-14 relative where eps*sqrt(k) >= 0.1 and 1e-15/(eps*sqrt(k))
  below (measured worst 0.80 of that budget), v - vbar = k (a_k - eps^2 R(k))
  within 1e-14 of v (measured 5.9e-16), and v <= 1/eps with saturation
  from k*eps^2 = 80 (F3). They share a_m with the route, so the
  per-element test of a_m against math.comb anchors them.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from symbandit import dp

from _exact import bayes_value, exact_values, exact_values_upto, relative_error, shortfall
from _lattice import pseudoregret_value_full, regret_value_full

ROUTE_BUDGET = 1e-13
FAR_END_BUDGET = 2 * 2.0**-52

GRID_T = (1, 2, 3, 4, 7, 16, 33, 64, 101, 256, 400)
GRID_EPS = (Fraction(0), Fraction(1, 20), Fraction(1, 10), Fraction(3, 10),
            Fraction(1, 2), Fraction(9, 10))


def test_oracle_equals_full_lattice():
    for T in range(1, 9):
        for eps in (Fraction(0), Fraction(1, 10), Fraction(3, 10), Fraction(7, 10)):
            v, vbar = exact_values(T, eps)
            assert relative_error(regret_value_full(T, float(eps)), v) <= 1e-14
            assert relative_error(pseudoregret_value_full(T, float(eps)), vbar) <= 1e-14


@pytest.mark.parametrize("T", [1, 2, 17, 144, 400])
def test_one_horizon_is_the_last_row_of_every_horizon(T):
    # the same sums over the rows of W below T, and two independent E|X - T|
    # sums: over row 2T of W here, from math.comb in `exact_values`
    for eps in GRID_EPS:
        v, vbar = exact_values_upto(T, eps)
        assert len(v) == len(vbar) == T + 1
        assert exact_values(T, eps) == (v[T], vbar[T])


@pytest.mark.parametrize("T", [1, 2, 3, 4, 5, 7, 12, 16, 30])
def test_bayes_bound_equals_the_myopic_pseudoregret_exactly(T):
    # the myopic player is Bayes-optimal: the rational recursion over
    # (t, xi_r) meets the rational walk sum with no error at all, and the
    # certificate's F8 sum over the walk law stays within the route budget
    for eps in GRID_EPS:
        bound = bayes_value(T, eps)
        assert bound == exact_values(T, eps)[1]
        assert relative_error(dp.bayes_pseudoregret(T, float(eps)), bound) <= ROUTE_BUDGET


@pytest.mark.parametrize("eps", GRID_EPS)
def test_walk_law_rows_within_k_ulps_of_the_binomial_law(eps):
    # each Pascal step rounds a product and a sum of two positive terms,
    # so row k is within k ulps (measured 0.3 k). The rows are kept, so a
    # row overwritten in place would fail. Under the label swap up -> 1 - up
    # (exact for up >= 1/2) each row is the mirror image (measured
    # bit-identical).
    T, up = 60, (1 + float(eps)) / 2
    rows, mirrors = list(dp.walk_law(T, up)), list(dp.walk_law(T, 1 - up))
    assert len(rows) == len(mirrors) == T
    p = Fraction(up)
    for k, (row, mirror) in enumerate(zip(rows, mirrors)):
        assert len(row) == len(mirror) == k + 1
        budget = k * 2.0**-52
        for i in range(k + 1):
            exact = math.comb(k, i) * p**i * (1 - p) ** (k - i)
            assert relative_error(float(row[i]), exact) <= budget, (k, i)
            assert abs(mirror[k - i] - row[i]) <= budget * row[i], (k, i)


def test_central_binomial_to_a_few_ulps():
    # the product's first 80 terms and two far along it; the rounding of
    # the exponent m*log1p(-eps^2) adds its size in ulps
    cases = [(eps, range(80)) for eps in (Fraction(0), Fraction(1, 8), Fraction(3, 5))]
    cases += [(eps, (10**3, 10**4)) for eps in (Fraction(0), Fraction(1, 8))]
    for eps, ms in cases:
        a = dp._central_binomial(max(ms) + 1, float(eps))
        pq = (1 - eps * eps) / 4
        for m in ms:
            ulps = 4.0 + abs(m * math.log1p(-float(eps * eps)))
            assert relative_error(float(a[m]), math.comb(2 * m, m) * pq**m) <= ulps * 2.0**-52


def test_stirling_ratio_gives_the_central_ratio_to_two_ulps():
    # c_k = C(2k, k)/4^k = exp(delta(2k) - 2 delta(k))/sqrt(pi k) for every k
    # that reads Loader's ratio (k >= 16);
    # the budget holds the rounding of the sqrt and division too
    # (measured worst 1.12 ulps)
    def ulps(k, exact):
        num, den = dp._central_ratio(k)[0].as_integer_ratio()
        return abs((num << 2 * k) - exact * den) / (exact * den) * 2.0**52

    exact = math.comb(32, 16)
    for k in range(16, 2001):
        assert ulps(k, exact) <= 2.0, k
        exact = exact * 2 * (2 * k + 1) // (k + 1)  # C(2k + 2, k + 1)
    for k in (10**4, 10**5):
        assert ulps(k, math.comb(2 * k, k)) <= 2.0, k


@pytest.mark.parametrize("T", [1, 2, 7, 16, 17, 255, 256, 1000, 10**4, 10**5])
def test_zero_gap_regret_is_the_binomial_mean_absolute_deviation(T):
    # at eps = 0, v = E|X - T| for X ~ Bin(2T, 1/2), which is T C(2T, T)/4^T,
    # the series' first term; the int/int division rounds once. The
    # pseudoregret's first term is A_0 - B_0 = 0, and no later term survives
    exact = T * math.comb(2 * T, T) / 4**T
    assert abs(dp.regret_value(T, 0.0) - exact) <= 1e-15 * exact
    assert dp.pseudoregret_value(T, 0.0) == 0.0


@pytest.mark.parametrize("T", GRID_T)
def test_route_within_budget_of_rational_oracle(T):
    for eps in GRID_EPS:
        v_exact, vbar_exact = exact_values(T, eps)
        v, vbar = dp.values(T, float(eps))
        assert relative_error(v, v_exact) <= ROUTE_BUDGET, (T, eps)
        assert relative_error(vbar, vbar_exact) <= ROUTE_BUDGET, (T, eps)
        assert v >= vbar >= 0.0
        if T * eps * eps >= 30:
            # the O(T) route's far-end tail path, which `values` does not
            # take on these cells: without it vbar is off by 1e-15
            v, vbar = dp._origin_values(T, float(eps))
            assert relative_error(float(v[-1]), v_exact) <= FAR_END_BUDGET, (T, eps)
            assert relative_error(float(vbar[-1]), vbar_exact) <= FAR_END_BUDGET, (T, eps)


@pytest.mark.parametrize("T, eps", [(119, Fraction(1, 2)), (120, Fraction(1, 2)),
                                    (332, Fraction(3, 10)), (334, Fraction(3, 10))])
def test_every_row_of_the_arrays_either_side_of_the_far_end_switch(T, eps):
    # T*eps^2 = 29.75 and 29.88 sum rho forward, 30 and 30.06 from the far
    # end; row k of the arrays is the k-round game, so each row is held to
    # the oracle's row k, and v - vbar to twice the exact shortfall
    # (measured worst 1.4e-15 on the values, 1.5e-15 of v on the gap).
    # Every row of the far-end path holds 2 ulps (measured 1.1 ulp; 6.2
    # with the forward sum)
    budget = FAR_END_BUDGET if T * eps * eps >= 30 else 5e-15
    v, vbar = dp._origin_values(T, float(eps))
    v_exact, vbar_exact = exact_values_upto(T, eps)
    for k in range(1, T + 1):
        assert relative_error(float(v[k]), v_exact[k]) <= budget, k
        assert relative_error(float(vbar[k]), vbar_exact[k]) <= budget, k
        gap = Fraction(float(v[k])) - Fraction(float(vbar[k]))
        assert abs(gap - 2 * shortfall(k, eps)) <= 5e-15 * v_exact[k], k


@pytest.mark.parametrize("T", [10, 11, 12, 13])
def test_routes_either_side_of_t_12(T):
    # gamma > 1 on every cell: the a_i below T = 12, the tails from 12 on,
    # where the tails with an exact c_k hold 6e-16 (1.5e-13 at T = 11)
    for eps in (Fraction(1, 2), Fraction(3, 4), Fraction(9, 10), Fraction(99, 100)):
        v_exact, vbar_exact = exact_values(T, eps)
        v, vbar = dp.values(T, float(eps))
        assert relative_error(v, v_exact) <= 5e-15, eps
        assert relative_error(vbar, vbar_exact) <= 5e-15, eps


def _check_gamma_cell(T):
    # the float eps = 0.707/sqrt(T) is a dyadic rational; the oracle takes it
    # exactly
    eps = 0.707 / math.sqrt(T)
    v_exact, vbar_exact = exact_values(T, Fraction(eps))
    v, vbar = dp.values(T, eps)
    assert relative_error(v, v_exact) <= ROUTE_BUDGET
    assert relative_error(vbar, vbar_exact) <= ROUTE_BUDGET


def test_route_within_budget_on_a_gamma_cell():
    _check_gamma_cell(144)


@pytest.mark.parametrize("T", [16, 64])
def test_route_within_budget_on_the_sweep_cells(T):
    # the two cells of tests/golden/sweep_mc.csv
    _check_gamma_cell(T)


@pytest.mark.parametrize("gamma", [0.01, 0.1, 0.2, 1.0, 10.0])
def test_identities_hold_on_the_arrays_at_a_million(gamma):
    # one O(T) pass gives every horizon k <= T, both parities; gamma is at T = 1e6
    T = 10**6 + 1
    eps = gamma / 1000
    e2 = eps * eps
    v, vbar = dp._origin_values(T, eps)
    # a_i and S0(k) = sum_{i<k} a_i; R(k) = 1/eps - S0(k) cancels once S0
    # nears 1/eps, so past T eps^2 = _DEEP_TAIL R is summed from the far end
    # of _TAIL_PAD/eps^2 extra terms, where a_i has fallen below exp(-_TAIL_PAD)
    deep = T * e2 >= dp._DEEP_TAIL
    a = dp._central_binomial(T + 1 + (math.ceil(dp._TAIL_PAD / e2) if deep else 0), eps)
    S0 = dp._prefix_sums(a)
    R = dp._prefix_sums(a[::-1])[::-1] if deep else 1.0 / eps - S0
    k = np.arange(T + 1)
    M, odd = k // 2, k % 2

    # F4: vbar_k from S0(M) and a_M alone. The S0 form cancels like
    # 2 eps^2 M once that is large, the R form like 1/(eps vbar) while it
    # is small; each k takes the form that does not cancel there
    near = S0[M] * (1 - 2 * e2 * M) + 2 * eps * M - 2 * M * a[M] + odd * (eps - e2 * S0[M])
    far = 1 / eps - (1 - 2 * e2 * M) * R[M] - 2 * M * a[M] + odd * e2 * R[M]
    f4 = np.where(M * e2 >= 1, far, near)[1:]
    # 1e-14 where gamma_k = eps sqrt(k) >= 0.1; below, the eps^2 division
    # loses about 1/gamma_k (at k = T: measured 4.8e-14 at gamma 0.01, 3.6e-15
    # at 0.1; worst over k 0.80 of the budget)
    budget = 1e-14 * np.maximum(1.0, 0.1 / (eps * np.sqrt(k[1:])))
    assert np.all(np.abs(f4 - vbar[1:]) <= budget * vbar[1:])

    # F2 with F4: v_k - vbar_k = 2 E[(k - X)^+] = k (a_k - eps^2 R(k))
    # (measured worst 5.9e-16 of v). The route computes v_k by this very
    # formula, so on the far-end cells (gamma 10) it restates the route
    # with R summed the same way; the rows held to the exact shortfall
    # by test_every_row_of_the_arrays_... are the independent check of F2
    gap = k * (a[: T + 1] - e2 * R[: T + 1])
    assert np.all(np.abs(gap - (v - vbar)) <= 1e-14 * v)

    # F3: v_k <= 1/eps at every k, and both values equal 1/eps within an
    # ulp from k eps^2 = 80 on (reached on the gamma 10 cell)
    assert v.max() * eps <= 1.0 + 2.0**-52
    saturated = k * e2 >= 80
    assert np.all(np.abs(v[saturated] * eps - 1.0) <= 2.0**-52)
    assert np.all(np.abs(vbar[saturated] * eps - 1.0) <= 2.0**-52)

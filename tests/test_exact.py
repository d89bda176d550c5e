"""Error budgets of the exact routes, measured against exact arithmetic.

* The production routes in `symbandit.dp`: within 1e-13 relative of the
  rational oracle in tests/_exact.py on a (T, eps) grid with T up to 400
  and eps from 0 to 0.9, with v >= vbar holding exactly (measured worst:
  7.4e-16). The grid's T = 256 and T = 400 cells with eps >= 1/20 take
  the one-horizon route, the others the O(T) route.
* The central ratio C(2k, k)/4^k of the one-horizon route, from Loader's
  Stirling error, within 2 ulps of exact integer arithmetic.
* The retired O(T^2) walks in tests/_walk_oracle.py, against the
  production route up to T = 16000, gamma = eps*sqrt(T) <= 12: the
  pseudoregret walk within 2e-14 relative; the regret walk within 2e-11,
  because it adds two sums of size eps*T that cancel to about 1/eps when
  gamma is large (measured 1.6e-11 at T = 1600, eps = 0.3 and 9.2e-12 at
  T = 16000, gamma = 5).
"""

import math
from fractions import Fraction

import pytest

from symbandit import dp

from _exact import exact_values, relative_error
from _walk_oracle import walk_pseudoregret_value, walk_regret_value

ROUTE_BUDGET = 1e-13
WALK_REGRET_BUDGET = 2e-11
WALK_PSEUDO_BUDGET = 2e-14

GRID_T = (1, 2, 3, 4, 7, 16, 33, 64, 101, 256, 400)
GRID_EPS = (Fraction(0), Fraction(1, 20), Fraction(1, 10), Fraction(3, 10),
            Fraction(1, 2), Fraction(9, 10))


def test_oracle_equals_full_lattice():
    for T in range(1, 9):
        for eps in (Fraction(0), Fraction(1, 10), Fraction(3, 10), Fraction(7, 10)):
            v, vbar = exact_values(T, eps)
            assert relative_error(dp.regret_value_full(T, float(eps)), v) <= 1e-14
            assert relative_error(dp.pseudoregret_value_full(T, float(eps)), vbar) <= 1e-14


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
    # the one-horizon route reads (k >= 128) and down to the series' k = 16;
    # the budget holds the rounding of the test's sqrt and division too
    # (measured worst 1.12 ulps)
    def ulps(k, exact):
        num, den = (dp._stirling_ratio(k) / math.sqrt(math.pi * k)).as_integer_ratio()
        return abs((num << 2 * k) - exact * den) / (exact * den) * 2.0**52

    exact = math.comb(32, 16)
    for k in range(16, 2001):
        assert ulps(k, exact) <= 2.0, k
        exact = exact * 2 * (2 * k + 1) // (k + 1)  # C(2k + 2, k + 1)
    for k in (10**4, 10**5):
        assert ulps(k, math.comb(2 * k, k)) <= 2.0, k


@pytest.mark.parametrize("T", [1, 2, 7, 1000, 10**4])
def test_zero_gap_regret_is_the_binomial_mean_absolute_deviation(T):
    # at eps = 0, v = E|X - T| for X ~ Bin(2T, 1/2), which is T C(2T, T)/4^T;
    # the value sums every a_m up to T, and the int/int division rounds once
    exact = T * math.comb(2 * T, T) / 4**T
    assert abs(dp.regret_value(T, 0.0) - exact) <= 1e-15 * exact


@pytest.mark.parametrize("T", GRID_T)
def test_route_within_budget_of_rational_oracle(T):
    for eps in GRID_EPS:
        v_exact, vbar_exact = exact_values(T, eps)
        v, vbar = dp.values(T, float(eps))
        assert relative_error(v, v_exact) <= ROUTE_BUDGET, (T, eps)
        assert relative_error(vbar, vbar_exact) <= ROUTE_BUDGET, (T, eps)
        assert v >= vbar >= 0.0


def test_route_within_budget_on_a_gamma_cell():
    # the float eps = 0.707/12 is a dyadic rational; the oracle takes it exactly
    eps = 0.707 / math.sqrt(144)
    v_exact, vbar_exact = exact_values(144, Fraction(eps))
    v, vbar = dp.values(144, eps)
    assert relative_error(v, v_exact) <= ROUTE_BUDGET
    assert relative_error(vbar, vbar_exact) <= ROUTE_BUDGET


@pytest.mark.parametrize("T,gamma", [(1000, 0.707), (1600, 12.0), (4000, 5.0), (16000, 5.0)])
def test_walks_within_their_budgets(T, gamma):
    eps = gamma / math.sqrt(T)
    v, vbar = dp.values(T, eps)
    assert abs(walk_regret_value(T, eps) - v) <= WALK_REGRET_BUDGET * v
    assert abs(walk_pseudoregret_value(T, eps) - vbar) <= WALK_PSEUDO_BUDGET * vbar


import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symbandit.core import check_game, erf, erfc, terminal_payoff

from _erf_oracle import erf_oracle_float
from _quadrature import heat_kernel, heat_kernel_mass


class TestErf:
    def test_zero(self):
        assert erf(0.0) == 0.0

    def test_odd_symmetry(self):
        assert erf(0.37) == -erf(-0.37)

    def test_reference_point(self):
        # frozen from the Decimal series oracle
        assert abs(erf(1.0) - 0.8427007929497149) < 1e-14

    def test_against_oracle_on_grid(self):
        # 1e4 points over [-6, 6]; the oracle is the slow Decimal series
        worst = 0.0
        n = 10_000
        for i in range(n + 1):
            x = -6.0 + 12.0 * i / n
            worst = max(worst, abs(erf(x) - erf_oracle_float(x)))
        assert worst <= 1e-14, f"max |erf - oracle| = {worst:.3e}"

    def test_saturation_exact(self):
        assert erf(6.0000001) == 1.0
        assert erf(-7.5) == -1.0
        assert erf(math.inf) == 1.0
        assert abs(1.0 - erf(6.0)) < 1e-15

    def test_monotone_and_bounded(self):
        xs = [-6 + 12 * i / 2000 for i in range(2001)]
        vals = [erf(x) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(-1.0 <= v <= 1.0 for v in vals)

    @given(st.floats(min_value=-5.9, max_value=5.9, allow_nan=False))
    def test_odd_property(self, x):
        assert erf(-x) == -erf(x)

    def test_erfc_complement(self):
        for x in (-3.0, -0.5, 0.0, 0.7, 1.9, 2.5, 4.0):
            assert abs(erfc(x) - (1.0 - erf(x))) < 1e-14

    def test_erfc_tail_relative_accuracy(self):
        # classic tail value, correct to ~1e-15 relative
        assert abs(erfc(5.0) / 1.5374597944280351e-12 - 1.0) < 1e-13


class TestHeatKernel:
    """The heat kernel that the quadrature oracle integrates."""

    def test_gaussian_peak(self):
        assert abs(heat_kernel(0.0, -1.0) - 1.0 / math.sqrt(2 * math.pi)) < 1e-15

    def test_point_value(self):
        # direct formula, cross-checked by the normalization below
        assert abs(heat_kernel(2.0, -4.0) - math.exp(-0.5) / math.sqrt(8 * math.pi)) < 1e-15

    def test_symmetric_positive(self):
        assert heat_kernel(1.3, -2.0) == heat_kernel(-1.3, -2.0)
        assert heat_kernel(5.0, -0.25) > 0.0

    @pytest.mark.parametrize("t", [-0.25, -1.0, -16.0])
    def test_unit_mass(self, t):
        assert abs(heat_kernel_mass(t) - 1.0) <= 1e-10

    def test_rejects_nonnegative_time(self):
        with pytest.raises(ValueError):
            heat_kernel(0.0, 0.0)
        with pytest.raises(ValueError):
            heat_kernel(1.0, 2.0)


class TestTerminalPayoff:
    def test_zero_state(self):
        assert terminal_payoff(0, 0, 0) == 0.0

    def test_examples(self):
        assert terminal_payoff(2, 1, 1) == 2.0
        assert terminal_payoff(-2, 3, -1) == 0.0

    @given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50),
           st.integers(-20, 20))
    def test_linear_in_eta(self, eta, xi_h, xi_r, c):
        lhs = terminal_payoff(eta + c, xi_h, xi_r)
        rhs = terminal_payoff(eta, xi_h, xi_r) + c / 2
        assert lhs == rhs

    @given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
    def test_sign_flip_invariance(self, eta, xi_h, xi_r):
        assert terminal_payoff(eta, xi_h, xi_r) == terminal_payoff(eta, -xi_h, -xi_r)


class TestDomainTypes:
    def test_game_params_validation(self):
        check_game(10, 0.1, safe_arm=2)
        for T, eps, safe_arm in [(0, 0.1, 1), (10, 1.0, 1), (10, -0.2, 1), (10, math.nan, 1),
                                 (True, 0.3, 1), (2.0, 0.3, 1), (10, 0.1, 3)]:
            with pytest.raises(ValueError):
                check_game(T, eps, safe_arm)

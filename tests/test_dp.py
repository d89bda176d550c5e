import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symbandit import dp, pde
from symbandit.core import terminal_payoff

from _exact import shortfall
from _lattice import (
    pseudoregret_tables_full,
    pseudoregret_value_full,
    regret_tables_full,
    regret_value_full,
)


class TestTerminalSlice:
    def test_full_table_terminal_is_payoff(self):
        tables = regret_tables_full(4, 0.3)
        assert len(tables) == 5 and list(tables[-1]) == [(0, 0, 0)]
        for (eta, xi_h, xi_r), v in tables[0].items():
            assert v == terminal_payoff(eta, xi_h, xi_r)

    def test_pseudo_terminal_is_weighted_pulls(self):
        tables = pseudoregret_tables_full(4, 0.25)
        for (xi_r, s2), v in tables[0].items():
            assert v == 2 * 0.25 * s2


class TestOneRound:
    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.3, 0.7])
    def test_regret_closed_form(self, eps):
        # 8-outcome enumeration gives (1 + eps^2)/2
        assert dp.regret_value(1, eps) == pytest.approx((1 + eps * eps) / 2, abs=1e-15)
        assert regret_value_full(1, eps) == pytest.approx((1 + eps * eps) / 2, abs=1e-15)

    def test_pseudoregret_is_eps(self):
        for eps in (0.0, 0.2, 0.4):
            assert dp.pseudoregret_value(1, eps) == pytest.approx(eps, abs=1e-15)
            assert pseudoregret_value_full(1, eps) == pytest.approx(eps, abs=1e-15)


class TestRouteAgreement:
    @pytest.mark.parametrize(
        "T,eps",
        [(T, e) for T in (2, 5, 8, 12) for e in (0.0, 0.1, 0.3, 0.7)],
    )
    def test_decomposed_equals_full(self, T, eps):
        a = dp.regret_value(T, eps)
        b = regret_value_full(T, eps)
        assert abs(a - b) <= 1e-12

    @pytest.mark.parametrize("T,eps", [(6, 0.2), (10, 0.45), (12, 0.0)])
    def test_pseudo_reduced_equals_full(self, T, eps):
        a = dp.pseudoregret_value(T, eps)
        b = pseudoregret_value_full(T, eps)
        assert abs(a - b) <= 1e-12


class TestStructuralInvariants:
    def test_eta_linearity_in_full_table(self):
        # choice 1 moves (eta, zeta) by (-d, d), choice 2 by (d, d), so
        # eta + zeta = 0 mod 4 on the reachable set and the smallest
        # coexisting eta offset at fixed xi is 4; slope 1/2 gives diff 2
        tables = regret_tables_full(6, 0.3)
        checked = 0
        for table in tables:
            for (eta, xi_h, xi_r), v in table.items():
                assert (eta + xi_h + xi_r) % 4 == 0
                other = table.get((eta + 4, xi_h, xi_r))
                if other is not None:
                    assert other - v == pytest.approx(2.0, abs=1e-12)
                    checked += 1
        assert checked > 50

    def test_s2_linearity_in_pseudo_table(self):
        eps = 0.3
        tables = pseudoregret_tables_full(6, eps)
        checked = 0
        for table in tables:
            for (xi_r, s2), v in table.items():
                other = table.get((xi_r, s2 + 1))
                if other is not None:
                    assert other - v == pytest.approx(2 * eps, abs=1e-12)
                    checked += 1
        assert checked > 20

    def test_monotone_in_horizon_at_zero_gap(self):
        vals = [dp.regret_value(T, 0.0) for T in range(1, 40)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_indifference(self):
        for T, eps in itertools.product((3, 8, 12), (0.1, 0.5)):
            assert abs(regret_value_full(T, eps, safe_arm=1)
                       - regret_value_full(T, eps, safe_arm=2)) <= 1e-12

    def test_bayesian_check_equals_minimax(self):
        # a uniform prior on the label, both labels played on the lattice,
        # so T <= FULL_TABLE_MAX_T
        for T, eps in [(1, 0.4), (12, 0.1), (10, 0.0)]:
            bayes = 0.5 * (pseudoregret_value_full(T, eps, safe_arm=1)
                           + pseudoregret_value_full(T, eps, safe_arm=2))
            assert abs(bayes - dp.pseudoregret_value(T, eps)) <= 1e-12

    def test_zero_gap_pseudoregret_vanishes(self):
        assert dp.pseudoregret_value(200, 0.0) == 0.0


class TestAsymptotics:
    def test_random_walk_limit(self):
        # eps = 0: value/sqrt(T) approaches 1/sqrt(pi) from above like 1/T
        T = 1600
        ratio = dp.regret_value(T, 0.0) / math.sqrt(T)
        assert abs(ratio - 1.0 / math.sqrt(math.pi)) < 2e-4

    def test_medium_gap_anchor(self):
        # gamma = 0.707 at T = 400 sits within a 1e-3 window of the
        # limiting prefactor (measured 1.74e-4, frozen with margin)
        T = 400
        v = dp.regret_value(T, 0.707 / math.sqrt(T))
        assert abs(v / math.sqrt(T) - 0.5715885259171068) < 1e-3

    def test_small_gap_pseudoregret_scale(self):
        T = 10_000
        eps = T ** -0.75
        ratio = dp.pseudoregret_value(T, eps) / (eps * T)
        assert 0.9 < ratio < 1.0


class TestTraces:
    def test_trace_matches_values(self):
        T, eps = 30, 0.2
        rows = dp.value_trace(T, eps)
        assert rows[0][0] == -T and rows[-1][0] == 0
        assert rows[-1][1] == 0.0 and rows[-1][2] == 0.0
        by_t = {t: (v, vb) for t, v, vb in rows}
        for k in (1, 7, 18, 30):
            v, vb = by_t[-k]
            assert v == pytest.approx(dp.regret_value(k, eps), abs=1e-12)
            assert vb == pytest.approx(dp.pseudoregret_value(k, eps), abs=1e-12)

    def test_trace_rows_across_chunks(self, monkeypatch):
        # row t is row -t of the arrays, as Python numbers, wherever the
        # chunks of T + 1 = 11 rows end
        T, eps = 10, 0.3
        v, vbar = dp._origin_values(T, eps)
        want = [(t, float(v[-t]), float(vbar[-t])) for t in range(-T, 1)]
        for chunk in (1, 3, 10, 11, 12):
            monkeypatch.setattr(dp, "_TRACE_CHUNK", chunk)
            rows = list(dp.trace_rows(T, eps))
            assert rows == want, chunk
            assert {tuple(map(type, row)) for row in rows} == {(int, float, float)}

    def test_trace_rows_refuses_at_the_call(self):
        # before any row is asked for, so `dp --trace` refuses before it opens its file
        with pytest.raises(ValueError, match="above its limit of 20000000 terms"):
            dp.trace_rows(10**9, 0.1 / math.sqrt(1e9))


gaps = st.floats(min_value=0.0, max_value=0.999)


class TestProperties:
    # T = 399, eps = 0.3 had v < vbar by 2.4e-12, and eps = 0.9 had
    # v(391) < v(390) by 3.6e-13 relative, when v came from the O(T^2) walks;
    # T = 102, eps = 0.53125 had v < vbar by one ulp when v came from the
    # O(T) arrays: just short of their far-end path, v - vbar rounds below 0
    # on seven rows unless the pass clamps it

    @settings(max_examples=60, deadline=None)
    @given(T=st.integers(1, 5000), eps=gaps)
    @example(T=399, eps=0.3)
    @example(T=102, eps=0.53125)
    def test_regret_dominates_pseudoregret(self, T, eps):
        assert dp.regret_value(T, eps) >= dp.pseudoregret_value(T, eps) >= 0.0
        v, vbar = dp._origin_values(T, eps)
        assert (v >= vbar).all() and vbar.min() >= 0.0

    @settings(max_examples=60, deadline=None)
    @given(T=st.integers(1, 5000), eps=gaps)
    @example(T=390, eps=0.9)
    def test_nondecreasing_in_horizon(self, T, eps):
        # up to the round-off of the last two bits of either value
        for value in (dp.regret_value, dp.pseudoregret_value):
            assert value(T + 1, eps) >= value(T, eps) * (1.0 - 2.0**-51)

    @settings(max_examples=30, deadline=None)
    @given(T=st.integers(1, 3000), eps=gaps, data=st.data())
    def test_trace_rows_are_the_values(self, T, eps, data):
        rows = dp.value_trace(T, eps)
        assert [t for t, _, _ in rows] == list(range(-T, 1))
        assert rows[-1] == (0, 0.0, 0.0)
        for k in {T, data.draw(st.integers(1, T))}:
            _, v, vbar = rows[T - k]
            assert v == pytest.approx(dp.regret_value(k, eps), rel=1e-13, abs=0.0)
            assert vbar == pytest.approx(dp.pseudoregret_value(k, eps), rel=1e-13, abs=0.0)

    @settings(max_examples=30, deadline=None)
    @given(T=st.integers(1, 300), milli_eps=st.integers(0, 999))
    def test_regret_minus_pseudoregret_is_twice_the_shortfall(self, T, milli_eps):
        # v - vbar = 2 E[(T - X)^+], X ~ Bin(2T, (1 + eps)/2), against the
        # exact shortfall; the rational oracle of tests/_exact.py, which
        # never uses this identity, holds v itself (tests/test_exact.py)
        eps = milli_eps / 1000
        gap = float(2 * shortfall(T, Fraction(milli_eps, 1000)))
        v = dp.regret_value(T, eps)
        assert abs(v - dp.pseudoregret_value(T, eps) - gap) <= 1e-13 * v


def relative(a, b):
    return abs(a - b) / b


# the eps^2 series up to gamma 1, the tails beyond, saturated from gamma^2 = 80 on
route_gammas = st.floats(min_value=0.001, max_value=9.0)


def route_budget(T, eps):
    # the series within 2e-15 relative of the arrays, the tails within 1e-14
    return 2e-15 if T * eps * eps <= 1.0 else 1e-14


class TestOneHorizon:
    def test_window_cells_skip_the_arrays(self, monkeypatch):
        class ArrayRoute(Exception):
            pass

        def refused(T, eps):
            raise ArrayRoute

        monkeypatch.setattr(dp, "_origin_values", refused)
        # every route: the series (gamma <= 1), the tails (T >= 12), the
        # a_i (T < 12) and saturation (T = 400 at eps 0.9); at T = 1e8 and
        # gamma = 0.3, T*eps^2 rounds below 0.09
        cells = [(256, 0.05), (257, 0.3 / 16), (400, 0.9), (10**12, 1e-6), (255, 0.5),
                 (1000, 0.29 / math.sqrt(1000)), (10**8, 0.3 / 10**4), (100, 0.2), (8, 0.7)]
        for T, eps in cells:
            v, vbar = dp.values(T, eps)
            assert 1.0 / eps >= v >= vbar > 0.0
        v, vbar = dp.values(10**4, 0.0)
        assert v > vbar == 0.0

    @pytest.mark.parametrize("T", [256, 1000, 10**4, 10**5, 10**6])
    def test_equals_the_arrays_on_a_ladder(self, T):
        # both parities from one array; gamma 9 is past the saturation cut
        for gamma in (0.001, 0.01, 0.1, 0.3, 0.5, 0.707, 1.0, 1.5, 3.0, 5.0, 8.0, 9.0):
            eps = gamma / math.sqrt(T)
            v, vbar = dp._origin_values(T + 1, eps)
            for k in (T, T + 1):
                got_v, got_vbar = dp.values(k, eps)
                assert relative(got_v, v[k]) <= route_budget(k, eps), (k, gamma)
                assert relative(got_vbar, vbar[k]) <= route_budget(k, eps), (k, gamma)
                assert 1.0 / eps >= got_v >= got_vbar >= 0.0

    @settings(max_examples=25, deadline=None)
    @given(T=st.integers(256, 10**6), gamma=route_gammas)
    @example(T=10**6, gamma=0.3)
    @example(T=10**6, gamma=0.001)
    def test_equals_the_arrays_at_random_cells(self, T, gamma):
        eps = gamma / math.sqrt(T)
        v, vbar = dp._origin_values(T + 1, eps)
        for k in (T, T + 1):
            got_v, got_vbar = dp.values(k, eps)
            assert relative(got_v, v[k]) <= route_budget(k, eps)
            assert relative(got_vbar, vbar[k]) <= route_budget(k, eps)

    @pytest.mark.parametrize("T", [256, 257, 10**4, 10**6 + 1, 10**8, 10**12 + 1])
    def test_series_equals_the_tails_where_both_serve(self, T):
        # 0.3 <= gamma <= 1: the tails cancel like 1/gamma, the series not at all
        for gamma in (0.3, 0.5, 0.707, 0.9, 1.0):
            eps = gamma / math.sqrt(T)
            series, tails = dp._series_values(T, eps), dp._tail_values(T, eps)
            assert relative(series[0], tails[0]) <= 5e-15, gamma
            assert relative(series[1], tails[1]) <= 5e-15, gamma

    @pytest.mark.parametrize("eps", [0.02, 0.1, 0.3, 0.5])
    def test_order_holds_across_the_saturation_cut(self, eps):
        cut = math.ceil(dp._SATURATED_TE2 / eps**2)
        rows = [dp.values(T, eps) for T in range(max(256, cut - 200), cut + 50)]
        assert rows[-1] == (1.0 / eps, 1.0 / eps)
        for (v, vbar), (v_next, vbar_next) in zip(rows, rows[1:]):
            assert 1.0 / eps >= v >= vbar >= 0.0
            assert v_next >= v and vbar_next >= vbar

    def test_second_order_term_where_no_array_reaches(self):
        # sqrt(T) (v - c(gamma) sqrt(T)) tends to d(gamma), 0.06976 at
        # gamma = 0.707; T = 1e8 and 1e9 hold it within 1e-4 of T = 1e6
        c = pde.prefactor_c(0.707)

        def second_order(T):
            v, _ = dp.values(T, 0.707 / math.sqrt(T))
            return math.sqrt(T) * (v - c * math.sqrt(T))

        d = second_order(10**6)
        assert abs(d - 0.06976) <= 1e-5
        for T in (10**8, 10**9):
            assert abs(second_order(T) - d) <= 1e-4


class TestGuards:
    def test_full_table_horizon_guard(self):
        with pytest.raises(ValueError):
            regret_value_full(13, 0.1)

    def test_o_t_route_size_guard(self):
        # the arrays of T = 1e9 would take about 50 GB: refused before
        # allocation, while `values` sums its series or tails there. The
        # refusal names the terms: T below T*eps^2 = 30, and from 30 on
        # 40/eps^2 more, summed from the far end
        T = 10**9
        for gamma2, pad in ((0.01, 0), (29.5, 0), (30.5, 40)):
            eps = math.sqrt(gamma2 / T)
            n = T + math.ceil(pad / (eps * eps))
            message = f"{n} terms at T={T}, eps={eps!r}, above its limit of 20000000 terms"
            for route in (dp._origin_values, dp.value_trace):
                with pytest.raises(ValueError, match=re.escape(message)):
                    route(T, eps)
            assert dp.values(T, eps)[1] > 0.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            dp.regret_value(0, 0.1)
        with pytest.raises(ValueError):
            dp.regret_value(10, 1.0)
        # bool is an int subclass, but True is not a horizon
        with pytest.raises(ValueError):
            dp.regret_value(True, 0.3)
        with pytest.raises(ValueError):
            dp.pseudoregret_value(True, 0.3)

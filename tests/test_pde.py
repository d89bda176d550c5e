import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symbandit import pde
from symbandit.core import terminal_payoff
from symbandit.pde import (
    ClosedForm,
    SMALL_GAP_LIMIT_C,
    bar_pde_residual,
    bar_phi,
    bar_phi_hat,
    bar_u_total,
    folded_normal_mean,
    maximize_prefactor,
    pde_residual,
    phi_deriv,
    phi_fn,
    phi_hat,
    prefactor_c,
    prefactor_c_bar,
    prefactor_pair,
    u_h,
    u_n,
    u_total,
)

from _erf_oracle import PI, erf_oracle
from _quadrature import gaussian_weighted_integral


def bar_phi_deriv(xi_r, cf, order=1, side=0):
    """One-sided derivatives of bar_phi, written out from its two pieces."""
    if xi_r < 0.0 or (xi_r == 0.0 and side == -1):
        return -2.0 if order == 1 else 0.0
    return cf.b * (-2.0 * cf.eps) ** order * math.exp(-2.0 * cf.eps * xi_r)


def c_bar_oracle(gamma):
    """cbar(gamma) in 60-digit Decimal arithmetic."""
    g = Decimal(gamma)
    two = Decimal(2)
    return ((1 / g - g) * erf_oracle(g / two.sqrt())
            - (two / PI).sqrt() * (-g * g / two).exp() + g)


def c_oracle(gamma):
    """c(gamma) in 60-digit Decimal arithmetic, from its direct form."""
    g = Decimal(gamma)
    two = Decimal(2)
    return ((-g * g).exp() / PI.sqrt() + g * erf_oracle(g)
            + (1 / g - g) * erf_oracle(g / two.sqrt())
            - (two / PI).sqrt() * (-g * g / two).exp())


def tilt_oracle(c, w):
    """exp(c) NormalCDF(w) for w <= -20 in 60-digit Decimal arithmetic: the
    asymptotic series NormalCDF(w) = pdf(w)/|w| sum_k (-1)^k (2k - 1)!!/w^(2k),
    summed while its terms fall, so to about exp(-w^2/2) relative."""
    c, w = Decimal(c), Decimal(w)
    term = total = Decimal(1)
    k = 1
    while (nxt := -term * (2 * k - 1) / (w * w)).copy_abs() < term.copy_abs():
        term, k = nxt, k + 1
        total += term
    return (c - w * w / 2).exp() / ((2 * PI).sqrt() * -w) * total


def regret_layer(s, cf):
    """phi written out from its two pieces, sharing no code with pde."""
    if s <= 0.0:
        return -s
    return s + cf.b * math.exp(-2.0 * cf.eps * s) - cf.b


def quad_phi_hat(xi_r, t, cf, bar=False):
    """Defining integral of the drifted smoothing, by adaptive quadrature."""
    layer = bar_phi if bar else regret_layer
    sigma = math.sqrt(-t)
    mean = xi_r - cf.eps * t

    def integrand(s):
        z = xi_r - s - cf.eps * t
        return (math.exp(z * z / (2.0 * t)) / math.sqrt(-2.0 * math.pi * t)
                * layer(s, cf))

    return gaussian_weighted_integral(integrand, mean, sigma, tol=1e-13)


def quad_u_h(eta, xi_h, xi_r, t, cf):
    """Heat-kernel convolution of the terminal payoff in the reduced
    coordinate z = (xi_r + xi_h - 2 eps t)/sqrt(kappa)."""
    k = cf.kappa
    z = (xi_r + xi_h - 2.0 * cf.eps * t) / math.sqrt(k)
    sigma = math.sqrt(-t)

    def integrand(s):
        w = z - s
        return (math.exp(w * w / (2.0 * t)) / math.sqrt(-2.0 * math.pi * t)
                * 0.5 * (eta + math.sqrt(k) * abs(s)))

    return gaussian_weighted_integral(integrand, z, sigma, tol=1e-13)


class TestClosedFormType:
    def test_kappa(self):
        assert ClosedForm.c1(0.3).kappa == 2 * (1 + 0.09)

    def test_c0_constant(self):
        eps = 0.2
        cf = ClosedForm.c0(eps)
        assert cf.b == pytest.approx(1 / (eps - eps**3), rel=1e-15)

    def test_requires_valid_gap(self):
        with pytest.raises(ValueError):
            ClosedForm(eps=1.2, b=1.0)
        with pytest.raises(ValueError):
            ClosedForm.c1(0.0)
        with pytest.raises(ValueError, match="C0 branch needs eps > 0, got 0.0"):
            ClosedForm.c0(0.0)
        with pytest.raises(ValueError, match="branch must be 'C1' or 'C0', got 'C2'"):
            ClosedForm.make("C2", 0.1)


class TestSmoothPart:
    def test_zero_gap_origin(self):
        cf = ClosedForm(eps=0.0, b=0.0)
        val = u_h(0.0, 0.0, 0.0, -1.0, cf)
        assert val == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-14)

    @pytest.mark.parametrize(
        "eta,xi_h,xi_r,t,eps",
        [
            (0.0, 0.0, 0.0, -4.0, 0.1),
            (2.0, -1.0, 3.0, -2.5, 0.3),
            (-4.0, 0.7, -1.2, -9.0, 0.05),
        ],
    )
    def test_matches_convolution_oracle(self, eta, xi_h, xi_r, t, eps):
        cf = ClosedForm.c1(eps)
        a = u_h(eta, xi_h, xi_r, t, cf)
        b = quad_u_h(eta, xi_h, xi_r, t, cf)
        assert abs(a - b) <= 1e-9

    def test_terminal_limit(self):
        cf = ClosedForm.c1(0.2)
        target = terminal_payoff(2.0, 1.0, 2.0)
        deltas = [abs(u_h(2.0, 1.0, 2.0, -d, cf) - target) for d in (1e-2, 1e-4, 1e-6)]
        assert deltas[0] > deltas[1] > deltas[2]
        assert deltas[2] < 1e-5

    def test_rejects_nonnegative_time(self):
        with pytest.raises(ValueError):
            u_h(0.0, 0.0, 0.0, 0.0, ClosedForm.c1(0.1))

    def test_folded_mean_even(self):
        assert folded_normal_mean(1.3) == pytest.approx(folded_normal_mean(-1.3), abs=1e-15)


class TestSteadyLayer:
    def test_pinned_at_zero(self):
        assert phi_fn(0.0, ClosedForm.c1(0.4)) == 0.0
        assert bar_phi(0.0, ClosedForm.c1(0.4)) == 0.0

    def test_left_branch(self):
        assert phi_fn(-3.0, ClosedForm.c1(0.2)) == 3.0
        assert bar_phi(-3.0, ClosedForm.c1(0.2)) == 6.0

    def test_c1_slope_jump_vanishes(self):
        cf = ClosedForm.c1(0.25)
        jump = phi_deriv(0.0, cf, 1, +1) - phi_deriv(0.0, cf, 1, -1)
        assert abs(jump) <= 1e-14

    @given(st.floats(min_value=0.01, max_value=0.9),
           st.floats(min_value=0.1, max_value=30.0))
    def test_jump_identities_any_branch_constant(self, eps, b):
        cf = ClosedForm(eps=eps, b=b)
        j1 = phi_deriv(0.0, cf, 1, +1) - phi_deriv(0.0, cf, 1, -1)
        j2 = phi_deriv(0.0, cf, 2, +1) - phi_deriv(0.0, cf, 2, -1)
        assert j1 == pytest.approx(2 - 2 * eps * b, rel=1e-12, abs=1e-12)
        assert j2 == pytest.approx(4 * eps * eps * b, rel=1e-12, abs=1e-12)
        # pseudoregret layer has the same jumps
        bj1 = bar_phi_deriv(0.0, cf, 1, +1) - bar_phi_deriv(0.0, cf, 1, -1)
        bj2 = bar_phi_deriv(0.0, cf, 2, +1) - bar_phi_deriv(0.0, cf, 2, -1)
        assert bj1 == pytest.approx(j1, rel=1e-12, abs=1e-12)
        assert bj2 == pytest.approx(j2, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("eps", [0.05, 0.2, 0.5])
    def test_c0_combination_cancels(self, eps):
        # the C0 constant kills (1/2) jump(phi') + (eps/4) jump(phi'')
        cf = ClosedForm.c0(eps)
        combo = (0.5 * (phi_deriv(0.0, cf, 1, +1) - phi_deriv(0.0, cf, 1, -1))
                 + 0.25 * eps * (phi_deriv(0.0, cf, 2, +1) - phi_deriv(0.0, cf, 2, -1)))
        assert abs(combo) <= 1e-14

    def test_side_required_at_kink(self):
        with pytest.raises(ValueError):
            phi_deriv(0.0, ClosedForm.c1(0.1), 1)
        with pytest.raises(ValueError, match="source is discontinuous at xi_r = 0"):
            pde.pseudoregret_source(0.0, ClosedForm.c1(0.1))
        with pytest.raises(ValueError, match="order must be >= 1, got 0"):
            phi_deriv(1.0, ClosedForm.c1(0.1), order=0)

    @pytest.mark.parametrize("x", [-4.0, -0.3, 0.5, 2.0, 7.0])
    @pytest.mark.parametrize("branch", ["C1", "C0"])
    def test_ode_both_sides(self, x, branch):
        cf = ClosedForm.make(branch, 0.2)
        lhs = cf.eps * phi_deriv(x, cf, 1) + 0.5 * phi_deriv(x, cf, 2)
        assert lhs == pytest.approx(pde.regret_source(x, cf), abs=1e-13)
        bar_lhs = cf.eps * bar_phi_deriv(x, cf, 1) + 0.5 * bar_phi_deriv(x, cf, 2)
        assert bar_lhs == pytest.approx(pde.pseudoregret_source(x, cf), abs=1e-13)


class TestSmoothing:
    def test_display_value_at_origin(self):
        # phi_hat(0, -T) for b = 1/eps reduces to
        # sqrt(2T/pi) e^{-eps^2 T/2} - (1/eps - eps T) erf(eps sqrt(T/2))
        for T, eps in [(9.0, 0.2), (25.0, 0.1)]:
            cf = ClosedForm.c1(eps)
            direct = (math.sqrt(2 * T / math.pi) * math.exp(-eps * eps * T / 2)
                      - (1 / eps - eps * T) * math.erf(eps * math.sqrt(T / 2)))
            assert phi_hat(0.0, -T, cf) == pytest.approx(direct, abs=1e-12)

    def test_matches_quadrature_at_random_points(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            xi_r = float(rng.uniform(-6, 6))
            t = float(-rng.uniform(0.2, 25.0))
            eps = float(rng.uniform(0.02, 0.6))
            cf = ClosedForm.c1(eps) if rng.random() < 0.5 else ClosedForm.c0(eps)
            assert abs(phi_hat(xi_r, t, cf) - quad_phi_hat(xi_r, t, cf)) <= 1e-9
            assert abs(bar_phi_hat(xi_r, t, cf) - quad_phi_hat(xi_r, t, cf, bar=True)) <= 1e-9

    def test_specific_sample_against_quadrature(self):
        cf = ClosedForm.c1(0.1)
        assert abs(phi_hat(1.7, -4.0, cf) - quad_phi_hat(1.7, -4.0, cf)) <= 1e-10

    def test_terminal_limit_recovers_layer(self):
        cf = ClosedForm.c1(0.3)
        for x in (-2.0, 1.5):
            assert abs(u_n(x, -1e-8, cf)) < 1e-3
            gap = [abs(phi_hat(x, -d, cf) - phi_fn(x, cf)) for d in (1e-2, 1e-4)]
            assert gap[1] < gap[0]

    def test_far_left_tail_is_stable(self):
        # exp(-2 eps xi_r) alone overflows here; the tilt term must not NaN.
        # Deep on the left, phi_hat(x, t) = E[-S] = -x + eps*t exactly up to
        # an exponentially small right-branch correction.
        cf = ClosedForm.c1(0.4)
        val = phi_hat(-5000.0, -4.0, cf)
        assert math.isfinite(val)
        assert val == pytest.approx(phi_fn(-5000.0, cf) + cf.eps * -4.0, rel=1e-12)

    def test_tilt_term_against_a_decimal_oracle(self):
        # exp(w^2/2) NormalCDF(w) is about 1/(sqrt(2 pi) |w|) here; the cdf
        # falls from 2.8e-89 at w = -20 to 5.7e-300 at -37, below which the
        # Mills-ratio expansion serves (measured worst 2.2e-13, at w = -37.2)
        for w in np.linspace(-45.0, -20.0, 251):
            w = float(w)
            exact = tilt_oracle(w * w / 2, w)
            rel = abs(Decimal(pde._exp_times_normal_cdf(w * w / 2, w)) - exact) / exact
            assert rel <= Decimal("1e-12"), (w, float(rel))


class TestAssembledSolutions:
    @pytest.mark.parametrize("T,eps", [(100.0, 0.0707), (400.0, 0.03535), (50.0, 0.15)])
    def test_origin_identity(self, T, eps):
        # u(0,0,0,-T)/sqrt(T) in one closed expression
        cf = ClosedForm.c1(eps)
        val = u_total(0.0, 0.0, 0.0, -T, cf) / math.sqrt(T)
        k = 1 + eps * eps
        direct = (math.sqrt(k / math.pi) * math.exp(-eps * eps * T / k)
                  + eps * math.sqrt(T) * math.erf(eps * math.sqrt(T / k))
                  + (1 / (eps * math.sqrt(T)) - eps * math.sqrt(T))
                  * math.erf(eps * math.sqrt(T / 2))
                  - math.sqrt(2 / math.pi) * math.exp(-eps * eps * T / 2))
        assert val == pytest.approx(direct, abs=1e-12)

    def test_vanishing_gap_limit(self):
        T = 9.0
        vals = [u_total(0.0, 0.0, 0.0, -T, ClosedForm.c1(e)) for e in (1e-4, 1e-6)]
        for v in vals:
            assert v == pytest.approx(math.sqrt(T / math.pi), rel=1e-6)

    def test_off_origin_assembly(self):
        cf = ClosedForm.c0(0.2)
        eta, xi_h, xi_r, t = 2.0, -0.5, 1.3, -6.0
        total = u_total(eta, xi_h, xi_r, t, cf)
        parts = quad_u_h(eta, xi_h, xi_r, t, cf) + phi_fn(xi_r, cf) - quad_phi_hat(xi_r, t, cf)
        assert abs(total - parts) <= 2e-9

    def test_bar_origin_identity(self):
        # ubar(0,0,-T)/sqrt(T) = (1/(e rT) - e rT) erf(e sqrt(T/2))
        #                        - sqrt(2/pi) e^{-e^2 T/2} + e rT
        for T, eps in [(9.0, 0.2), (6400.0, 1.274 / 80.0)]:
            cf = ClosedForm.c1(eps)
            val = bar_u_total(0.0, 0.0, -T, cf) / math.sqrt(T)
            rT = math.sqrt(T)
            direct = ((1 / (eps * rT) - eps * rT) * math.erf(eps * math.sqrt(T / 2))
                      - math.sqrt(2 / math.pi) * math.exp(-eps * eps * T / 2)
                      + eps * rT)
            assert val == pytest.approx(direct, abs=1e-12)

    def test_bar_vanishing_gap_origin(self):
        # on the C1 family the origin value is sqrt(T)*cbar(gamma) ~ eps*T;
        # eps much below 1e-6 makes b = 1/eps large enough that the closed
        # form cancels past float precision, so probe the limit from 1e-6
        eps, T = 1e-6, 25.0
        val = bar_u_total(0.0, 0.0, -T, ClosedForm.c1(eps))
        assert val == pytest.approx(eps * T, rel=1e-4)

    def test_bar_s2_slope(self):
        cf = ClosedForm.c1(0.2)
        lo = bar_u_total(-2.0, 3.0, -5.0, cf)
        hi = bar_u_total(-2.0, 4.0, -5.0, cf)
        assert hi - lo == pytest.approx(2 * 0.2, abs=1e-14)

    def test_bar_against_quadrature(self):
        cf = ClosedForm.c1(0.2)
        xi_r, s2, t = -2.0, 3.0, -5.0
        direct = bar_u_total(xi_r, s2, t, cf)
        oracle = 2 * 0.2 * s2 + bar_phi(xi_r, cf) - quad_phi_hat(xi_r, t, cf, bar=True)
        assert abs(direct - oracle) <= 1e-10


class TestResiduals:
    def test_regret_residual_smooth_point(self):
        cf = ClosedForm.c1(0.1)
        res = pde_residual(0.0, 0.5, 2.0, -3.0, cf, h=1e-3)
        assert abs(res) <= 1e-5

    def test_second_order_decay(self):
        # point chosen where truncation dominates the roundoff floor
        cf = ClosedForm.c1(0.3)
        r1 = abs(pde_residual(0.0, 0.3, 0.8, -1.0, cf, h=2e-3))
        r2 = abs(pde_residual(0.0, 0.3, 0.8, -1.0, cf, h=1e-3))
        assert r2 <= r1 / 2.5  # O(h^2): expect ~4x, allow slack

    def test_source_sign(self):
        cf = ClosedForm.c1(0.3)
        assert pde.regret_source(1.0, cf) == 0.3
        assert pde.regret_source(-1.0, cf) == -0.3
        assert pde.pseudoregret_source(1.0, cf) == 0.0
        assert pde.pseudoregret_source(-1.0, cf) == -0.6

    def test_zero_gap_pure_heat(self):
        cf = ClosedForm(eps=0.0, b=0.0)
        res = pde_residual(0.0, 0.3, 1.5, -2.0, cf, h=1e-3)
        assert abs(res) <= 1e-6

    def test_random_smooth_points_both_equations(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            xi_r = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 4.0))
            t = float(-rng.uniform(1.0, 10.0))
            eps = float(rng.uniform(0.05, 0.4))
            branch = ClosedForm.c1(eps) if rng.random() < 0.5 else ClosedForm.c0(eps)
            assert abs(pde_residual(0.0, float(rng.normal()), xi_r, t, branch)) <= 1e-5
            assert abs(bar_pde_residual(xi_r, float(rng.uniform(0, 5)), t, branch)) <= 1e-5

    def test_rejects_kink_neighborhood(self):
        cf = ClosedForm.c1(0.1)
        with pytest.raises(ValueError):
            pde_residual(0.0, 0.0, 1e-3, -2.0, cf, h=1e-3)
        with pytest.raises(ValueError):
            bar_pde_residual(0.0015, 0.0, -2.0, cf, h=1e-3)
        for h, message in ((0.0, "step must be positive"), (-1e-3, "step must be positive"),
                           (0.6, "stencil would cross t = 0")):
            with pytest.raises(ValueError, match=message):
                pde_residual(0.0, 0.0, 2.0, -1.0, cf, h=h)


class TestPrefactors:
    def test_small_gap_limit_c(self):
        assert abs(prefactor_c(1e-6) - SMALL_GAP_LIMIT_C) <= 1e-5

    def test_small_gap_limit_c_bar(self):
        assert abs(prefactor_c_bar(1e-6) / 1e-6 - 1.0) <= 1e-5

    def test_large_gap_limits(self):
        assert abs(50.0 * prefactor_c(50.0) - 1.0) <= 1e-6
        assert abs(50.0 * prefactor_c_bar(50.0) - 1.0) <= 1e-6

    def test_pair_is_c_bar_plus_the_closed_form_terms(self):
        # bit for bit, c = cbar + e^{-g^2}/sqrt(pi) - g erfc(g) summed left to right
        for g in np.logspace(-8.0, 1.5, 97):
            g = float(g)
            cbar = prefactor_c_bar(g)
            c = cbar + math.exp(-g * g) / math.sqrt(math.pi) - g * math.erfc(g)
            assert prefactor_pair(g) == (c, cbar) and prefactor_c(g) == c

    @pytest.mark.parametrize("f,oracle", [(prefactor_c_bar, c_bar_oracle),
                                          (prefactor_c, c_oracle)],
                             ids=["c_bar", "c"])
    def test_c_bar_against_decimal_oracle(self, f, oracle):
        # below gamma ~ 0.01 the direct form of cbar cancels its ~0.8-sized
        # terms down to ~gamma and lost up to 1.7e-8 relative at
        # gamma = 1e-8; c adds about 1/sqrt(pi) to cbar there
        for g in np.logspace(-8.0, math.log10(8.0), 81):
            exact = oracle(float(g))
            rel = abs(Decimal(f(float(g))) - exact) / exact
            assert rel <= Decimal("5e-14"), (float(g), float(rel))

    def test_erfc_form_continuous_at_switch(self):
        # the direct and complement-based evaluations agree near gamma = 8
        for g in (7.999999, 8.000001):
            direct = (math.exp(-g * g) / math.sqrt(math.pi) + g * math.erf(g)
                      + (1 / g - g) * math.erf(g / math.sqrt(2))
                      - math.sqrt(2 / math.pi) * math.exp(-g * g / 2))
            assert prefactor_c(g) == pytest.approx(direct, rel=1e-10)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            prefactor_c(0.0)
        with pytest.raises(ValueError):
            prefactor_c_bar(-1.0)
        for f in (prefactor_c, prefactor_c_bar):
            with pytest.raises(ValueError):
                f(math.nan)

    @pytest.mark.parametrize("f", [prefactor_c, prefactor_c_bar])
    def test_rejects_infinite(self, f):
        # the erf forms give inf - inf = nan there
        with pytest.raises(ValueError, match="gamma must be positive"):
            f(math.inf)

    def test_maximizer_c(self):
        gstar, val = maximize_prefactor("c")
        assert round(gstar, 3) == 0.707
        assert round(val, 3) == 0.572

    def test_maximizer_rejects_an_unknown_prefactor(self):
        with pytest.raises(ValueError, match="which must be 'c' or 'c_bar', got 'x'"):
            maximize_prefactor("x")

    def test_maximizer_c_bar_value(self):
        gstar, val = maximize_prefactor("c_bar")
        assert round(val, 3) == 0.530
        # measured argmax of the formula; its 3-decimal rounding is 1.247
        assert gstar == pytest.approx(1.2468587, abs=1e-5)

    def test_unimodal_coarse_scan(self):
        xs = np.linspace(1e-3, 10.0, 1000)
        for f in (prefactor_c, prefactor_c_bar):
            vals = [f(float(x)) for x in xs]
            interior_maxima = sum(
                1 for i in range(1, len(xs) - 1)
                if vals[i] > vals[i - 1] and vals[i] > vals[i + 1]
            )
            assert interior_maxima == 1

    # roots of c'(g) = erf(g) - (1 + 1/g^2) erf(g/sqrt2) + sqrt(2/pi) e^(-g^2/2)/g
    # and cbar'(g) = c'(g) + erfc(g), by mpmath 1.3 at mp.dps = 40:
    # mp.findroot(derivative, 0.7) and mp.findroot(derivative, 1.25)
    ROOTS = {"c": 0.7068298607046078688417560323508897423436,
             "c_bar": 1.246858674624610653077331835519289316594}

    @pytest.mark.parametrize("which", sorted(ROOTS))
    def test_maximizer_is_the_root_of_the_derivative(self, which):
        gstar, _ = maximize_prefactor(which)
        assert abs(gstar - self.ROOTS[which]) <= 1e-13

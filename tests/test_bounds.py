"""Coefficient bounds, K/U/Y series, the eps-scan upper bound, diagnostics."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

from entire_growth.bounds import (
    GrowthFunction,
    coeff_upper_bound,
    coeff_upper_bound_many,
    exp_of_exp,
    gamma_condition,
    k_sum,
    max_function_upper_bound,
    power_log,
    power_of_exp,
    quadratic_decay,
    r_sum,
    stirling_decay,
    tauberian_report,
    u_sum,
)
from entire_growth.entire import (
    exp_coefficients,
    gamma_order_coefficients,
    log_max_function,
    polynomial_coefficients,
)
from entire_growth.errors import (
    InputError,
    NoFiniteBoundError,
    PolynomialInputError,
    WindowSaturationWarning,
)


class TestCoeffUpperBound:
    def test_exp_closed_form(self):
        # Lambda(v) = e^v has Lambda*(n) = n ln n - n
        Lam = power_of_exp()
        for n in (1, 5, 50, 500):
            assert coeff_upper_bound(Lam, n) == pytest.approx(
                -(n * math.log(n) - n), rel=1e-10)

    def test_dominates_exp_coefficients(self):
        ns = np.arange(1, 1001, dtype=float)
        bounds = coeff_upper_bound_many(power_of_exp(), ns)
        assert np.all(-gammaln(ns + 1.0) <= bounds + 1e-12)

    def test_quadratic_growth_closed_form(self):
        # Lambda(v) = v^2 over all v: Lambda*(n) = n^2/4
        Lam = power_log(C=1.0, m=2.0)
        for n in (2.0, 10.0, 100.0):
            assert coeff_upper_bound(Lam, int(n)) == pytest.approx(
                -n * n / 4.0, rel=1e-9)

    def test_saturation_warns(self):
        # Lambda(v) = v^2: the argmax n/2 = 1000 lies past the window cap
        with pytest.warns(WindowSaturationWarning):
            coeff_upper_bound(power_log(C=1.0, m=2.0), 2000)

    def test_zero_index_does_not_warn(self):
        # sup_v -e^v = 0 is not attained; the bound 0 is exact, not loose
        with warnings.catch_warnings():
            warnings.simplefilter("error", WindowSaturationWarning)
            assert coeff_upper_bound(power_of_exp(), 0) == pytest.approx(0.0, abs=1e-300)
            coeff_upper_bound_many(power_of_exp(C=1.0, rho=2.0), np.arange(0.0, 50.0))

    def test_negative_n_rejected(self):
        with pytest.raises(InputError):
            coeff_upper_bound(power_of_exp(), -1)


class TestAuxiliarySeries:
    def test_k_sum_geometric(self):
        # decay(n) = n gives the geometric series 1/(1 - e^-eps)
        lin = lambda n: np.asarray(n, float)
        for eps in (0.1, 0.3, 0.5, 0.9):
            assert k_sum(lin, eps) == pytest.approx(1.0 / (1.0 - math.exp(-eps)),
                                                    rel=1e-12)

    def test_k_sum_quadratic_oracle(self):
        # sum e^(-n^2/2), direct 64-term reference
        ns = np.arange(64, dtype=float)
        ref = float(np.sum(np.exp(-0.5 * ns ** 2)))
        assert k_sum(lambda n: np.asarray(n, float) ** 2, 0.5) == pytest.approx(
            ref, rel=1e-12)

    def test_k_sum_divergent(self):
        zero = lambda n: np.zeros_like(np.asarray(n, float))
        log_decay = lambda n: np.log1p(np.asarray(n, float))
        assert k_sum(zero, 0.5) == math.inf
        assert u_sum(zero, 0.5) == math.inf
        assert u_sum(log_decay, 0.5) == math.inf

    def test_u_sum_linear_matches_k(self):
        # linear decay: U-terms e^((1-eps)n - n) = e^(-eps n), same series
        lin = lambda n: np.asarray(n, float)
        for eps in (0.2, 0.5):
            assert u_sum(lin, eps) == pytest.approx(k_sum(lin, eps), rel=1e-12)

    def test_u_sum_quadratic_oracle(self):
        ns = np.arange(64, dtype=float)
        ref = float(np.sum(np.exp((0.5 * ns) ** 2 - ns ** 2)))
        assert u_sum(lambda n: np.asarray(n, float) ** 2, 0.5) == pytest.approx(
            ref, rel=1e-12)

    def test_eps_range_enforced(self):
        lin = lambda n: np.asarray(n, float)
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(InputError):
                k_sum(lin, bad)
            with pytest.raises(InputError):
                u_sum(lin, bad)

    def test_r_sum_direct_oracle(self):
        Q = quadratic_decay(0.5)
        ns = np.arange(200, dtype=float)
        for v in (0.0, 1.0, 3.0):
            ref = math.log(float(np.sum(np.exp(ns * v - 0.5 * ns ** 2))))
            assert r_sum(Q, v) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("v", [9.5, 10.0])
    def test_r_sum_increasing_past_ten_thousand_terms(self, v):
        # Stirling-decay terms n v - (n ln n - n) grow up to n = e^v > 10^4;
        # the series still converges and must not be called divergent
        ns = np.arange(1, 10 ** 5 + 1, dtype=float)
        ref = float(logsumexp(np.concatenate([[0.0], ns * v - (ns * np.log(ns) - ns)])))
        assert r_sum(stirling_decay(), v) == pytest.approx(ref, rel=1e-12)


class TestMaxFunctionUpperBound:
    def test_sandwich_exp_family(self):
        Q = stirling_decay()
        f = exp_coefficients()
        for v in (0.0, 0.5, 1.0, 2.0, 3.0):
            ln_m = log_max_function(f, math.exp(v))
            ln_r = r_sum(Q, v)
            bound, rep = max_function_upper_bound(Q, v, coeffs=f)
            assert ln_m <= ln_r + 1e-12
            assert ln_r <= bound + 1e-12
            assert 0.0 < rep.eps_star < 1.0

    def test_sandwich_quadratic_decay(self):
        Q = quadratic_decay(0.5)
        for v in (0.0, 1.0, 2.0):
            ln_r = r_sum(Q, v)
            bound, _ = max_function_upper_bound(Q, v)
            assert ln_r <= bound + 1e-12

    def test_report_consistent(self):
        Q = stirling_decay()
        bound, rep = max_function_upper_bound(Q, 1.0)
        assert rep.bound == bound
        assert rep.eps_grid.size == rep.Y_vals.size
        np.testing.assert_array_equal(rep.Y_vals,
                                      np.minimum(rep.K_vals, rep.U_vals))
        assert rep.c_eff == pytest.approx(1.0 / (1.0 - rep.eps_star))

    def test_grid_resolution_refines(self):
        Q = stirling_decay()
        coarse, _ = max_function_upper_bound(Q, 2.0, eps_points=19)
        fine, _ = max_function_upper_bound(Q, 2.0, eps_points=199)
        assert fine <= coarse + 1e-12

    def test_qstar_saturation_flag(self):
        # v = 7: the argmax e^(v/(1-eps*)) of Q* lies inside the index window
        bound, rep = max_function_upper_bound(stirling_decay(), 7.0)
        assert not rep.qstar_saturated
        assert bound >= r_sum(stirling_decay(), 7.0)
        # v = 14: e^14 > 10^6 = MAX_TERMS, past the cap of an index domain
        _, rep = max_function_upper_bound(stirling_decay(), 14.0, eps_points=9)
        assert rep.qstar_saturated
        _, rep = max_function_upper_bound(stirling_decay(), 2.0)
        assert not rep.qstar_saturated

    @pytest.mark.parametrize("family, v", [("stirling", 7.0), ("stirling", 9.0),
                                           ("order2", 3.25), ("order2", 3.5),
                                           ("order2", 4.0)])
    def test_sandwich_argmax_past_log_cap(self, family, v):
        # Q*(v/(1-eps)) has its argmax n* > 700: the window of an index
        # domain reaches MAX_TERMS, so the bound stays above ln R_Q
        if family == "stirling":
            Q, f = stirling_decay(), exp_coefficients()
        else:
            Q = GrowthFunction("order2_decay", domain_min=0.0,
                               fn=lambda n: gammaln(np.asarray(n, float) / 2.0 + 1.0))
            f = gamma_order_coefficients(2.0)
        ln_m = log_max_function(f, math.exp(v))
        ln_r = r_sum(Q, v)
        bound, rep = max_function_upper_bound(Q, v)
        assert ln_m <= ln_r + 1e-12 * (1.0 + abs(ln_r))
        assert ln_r <= bound
        assert not rep.qstar_saturated

    @pytest.mark.parametrize("Q, v, golden", [
        (stirling_decay(), 2.0, 10.37967265198181),
        (GrowthFunction("exp_decay", lambda n: gammaln(np.maximum(n, 0.0) + 1.0),
                        domain_min=0.0), 2.5, 13.444256222356106),
    ])
    def test_refinement_not_above_golden_search(self, Q, v, golden):
        # golden: the bound a 24-step golden-section refinement of the same
        # bracket gives; the zoom must not exceed it by more than 1e-12, nor
        # the minimum over the eps grid at all
        bound, rep = max_function_upper_bound(Q, v)
        assert bound <= golden + 1e-12
        qstar, _ = Q.conjugate_at(v / (1.0 - rep.eps_grid))
        assert bound <= np.min(np.log(rep.Y_vals) + qstar)
        assert rep.S0 == min(k_sum(lambda n: Q.fn(n) + rep.normalization_shift, rep.eps_star),
                             u_sum(lambda n: Q.fn(n) + rep.normalization_shift, rep.eps_star))

    def test_hypothesis_violation_rejected(self):
        # coefficients decaying slower than exp(-Q) must be refused
        Q = quadratic_decay(1.0)
        with pytest.raises(InputError):
            max_function_upper_bound(Q, 1.0, coeffs=exp_coefficients())

    def test_no_finite_bound(self):
        # logarithmic decay: both K and U diverge at every eps
        Q = GrowthFunction("log_decay",
                           lambda n: np.log1p(np.asarray(n, float)),
                           domain_min=0.0)
        with pytest.raises(NoFiniteBoundError):
            max_function_upper_bound(Q, 0.5, eps_points=19)


class TestGammaCondition:
    @pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("eps0", [0.1, 0.5])
    def test_power_homogeneity_exact(self, m, eps0):
        rep = gamma_condition(power_log(C=1.0, m=m), eps0,
                              np.linspace(1.0, 40.0, 157))
        assert rep.gamma_estimate == pytest.approx((1.0 - eps0) ** (-m), rel=1e-12)
        assert rep.holds

    def test_exponential_fails(self):
        rep = gamma_condition(power_of_exp(), 0.5, np.linspace(1.0, 20.0, 96))
        assert not rep.holds

    def test_double_exponential_fails(self):
        rep = gamma_condition(exp_of_exp(), 0.5, np.linspace(1.0, 5.0, 64))
        assert not rep.holds


class TestTauberianReport:
    def test_exp_family_ratios(self):
        rep = tauberian_report(exp_coefficients(), power_of_exp(),
                               r_grid=np.exp([1.0, 2.0, 3.0, 4.0]),
                               n_grid=np.arange(10, 501, 10))
        np.testing.assert_allclose(rep.lhs_ratios, 1.0, rtol=1e-12)
        assert 0.95 <= rep.rhs_ratios[-1] <= 1.05
        assert rep.terminal_gap < 0.1

    def test_order_two_family(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WindowSaturationWarning)
            rep = tauberian_report(gamma_order_coefficients(2.0),
                                   power_of_exp(C=1.0, rho=2.0),
                                   r_grid=np.exp([1.0, 2.0, 3.0]),
                                   n_grid=np.arange(10, 301, 10))
        # small radii carry the additive lower-order terms; the tail settles
        assert abs(rep.lhs_ratios[-1] - 1.0) < 0.05
        assert abs(rep.rhs_ratios[-1] - 1.0) < 0.05

    def test_polynomial_refused(self):
        with pytest.raises(PolynomialInputError):
            tauberian_report(polynomial_coefficients([1.0, 1.0]), power_of_exp(),
                             r_grid=[2.0], n_grid=[1])

"""Regularly varying scales and the three worked growth/decay checks."""

import math

import numpy as np
import pytest

from entire_growth.bounds import (
    coeff_upper_bound,
    coeff_upper_bound_many,
    power_log,
    power_of_exp,
)
from entire_growth.errors import InputError
from entire_growth.legendre import conjugate_of_callable
from entire_growth.scales import (
    RegVarScale,
    conjugate_asymptotic,
    conjugate_numeric,
    conjugate_ratio,
    example_31_check,
    example_33_check,
    phi_scale,
    psi_scale,
    refined_decay_profile,
)


class TestRegVarScale:
    def test_pure_power_values(self):
        s = RegVarScale(m=2.0, C1=3.0)
        assert s(2.0) == pytest.approx(12.0)
        assert s.m_conj == 2.0
        assert s.domain_min == 1.0

    def test_log_factor_values(self):
        s = psi_scale(m=3.0, q=2.0, C1=0.5)
        lam = 10.0
        assert s(lam) == pytest.approx(0.5 * 1000.0 * math.log(10.0) ** 2)
        assert s.domain_min == math.e

    def test_parameter_validation(self):
        with pytest.raises(InputError):
            RegVarScale(m=1.0)
        with pytest.raises(InputError):
            RegVarScale(m=2.0, q=-1.0)
        with pytest.raises(InputError):
            RegVarScale(m=2.0, C1=0.0)

    def test_conjugate_exponent(self):
        assert RegVarScale(m=1.5).m_conj == pytest.approx(3.0)
        assert RegVarScale(m=3.0).m_conj == pytest.approx(1.5)


class TestConjugateAsymptotic:
    def test_pure_power_exact(self):
        # q = 0: the asymptotic constant is exact at every x
        s = phi_scale(m=2.0, L_const=2.0)  # s(lam) = lam^2
        for x in (3.0, 10.0, 50.0):
            assert conjugate_asymptotic(s, x) == pytest.approx(x * x / 4.0, rel=1e-12)
            assert conjugate_numeric(s, x) == pytest.approx(x * x / 4.0, rel=1e-8)

    def test_ratio_tends_to_one_with_log_factor(self):
        # leading term only: the gap closes at a 1/ln(x) rate
        s = psi_scale(m=2.0, q=1.0)
        ratios = [conjugate_ratio(s, x) for x in (1e2, 1e4, 1e6, 1e8)]
        assert all(0.0 < r < 1.0 for r in ratios)
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_domain_guard(self):
        with pytest.raises(InputError):
            conjugate_asymptotic(psi_scale(2.0, 1.0), 1.0)


class TestExample31:
    def test_parabola_closed_form(self):
        n = np.arange(1, 1001, dtype=float)
        np.testing.assert_allclose(power_log(1.0, 2.0).conj(n), n * n / 4.0, rtol=1e-14)

    def test_numeric_matches_closed_form(self):
        n = np.arange(2, 201, dtype=float)
        rep = example_31_check(2.0, 1.0, n)
        numeric = conjugate_of_callable(power_log(1.0, 2.0).fn, n).gstars
        np.testing.assert_allclose(rep.lam_star, numeric, rtol=1e-9)

    def test_exponent_fit_is_conjugate_exponent(self):
        for m, n_hi in ((1.5, 38), (2.0, 400), (3.0, 400)):
            rep = example_31_check(m, 1.0, np.arange(2, n_hi, 2, dtype=float))
            assert rep.exponent_fit == pytest.approx(m / (m - 1.0), abs=1e-3)

    def test_constant_estimate(self):
        rep = example_31_check(2.0, 1.0, np.arange(2, 201, dtype=float))
        assert rep.constant_estimate == pytest.approx(0.25, rel=1e-6)

    def test_too_few_points(self):
        with pytest.raises(InputError):
            example_31_check(2.0, 1.0, [1.0])


class TestExample32:
    # the order-rho bound [n/(C rho)]^(-n/rho) e^(n/rho) is -Lambda*(n) of
    # Lambda(v) = C e^(rho v), taken from the profile's closed form

    def test_matches_conjugate_of_exponential_growth(self):
        Lam = power_of_exp(C=1.0, rho=2.0)
        for n in (2, 10, 100):
            numeric = conjugate_of_callable(Lam.fn, [float(n)]).gstars[0]
            assert coeff_upper_bound(Lam, n) == pytest.approx(-numeric, rel=1e-9)

    def test_zero_index(self):
        assert coeff_upper_bound(power_of_exp(C=1.0, rho=2.0), 0) == 0.0

    def test_bounds_gamma_coefficients(self):
        from scipy.special import gammaln
        n = np.arange(1, 1001, dtype=float)
        bound = coeff_upper_bound_many(power_of_exp(C=1.0, rho=2.0), n)
        assert np.all(-gammaln(n / 2.0 + 1.0) <= bound + 1e-9)

    def test_parameter_validation(self):
        with pytest.raises(InputError):
            power_of_exp(C=1.0, rho=-1.0)
        with pytest.raises(InputError):
            coeff_upper_bound(power_of_exp(C=1.0, rho=2.0), -5)


class TestRefinedDecay:
    def test_formula_spot_check(self):
        n = np.array([100.0])
        got = refined_decay_profile(2.0, 1.5, n)[0]
        expect = (100 * math.log(100.0)
                  + 1.5 * 100 * math.log(math.log(100.0)) - 100) / 2.0
        assert got == pytest.approx(expect, rel=1e-14)

    def test_domain_guard(self):
        with pytest.raises(InputError):
            refined_decay_profile(2.0, 1.0, [2.0])


class TestExample33:
    def test_leading_term_ratio_tightens(self):
        rep = example_33_check(1.0, 1.0, np.array([1e3, 1e4]))
        assert 0.6 <= rep.ratios[0] <= 1.4
        assert abs(rep.ratios[1] - 1.0) < abs(rep.ratios[0] - 1.0)

    def test_small_indices_rejected(self):
        with pytest.raises(InputError):
            example_33_check(1.0, 1.0, np.array([1.0, 2.0]))

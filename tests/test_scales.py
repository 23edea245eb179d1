"""The three worked growth/decay checks."""

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
from entire_growth.scales import example_31_check, example_33_check


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

    def test_near_one_fits_the_finite_indices(self):
        # m = 1.002: Lambda*(n) ~ n^501 overflows past n = 4, so the fit takes
        # n = 2, 3, 4, and the constant is NaN where Lambda* is +inf (with no
        # RuntimeWarning, which the suite turns into an error)
        rep = example_31_check(1.002, 1.0, np.arange(2, 201, dtype=float))
        assert rep.exponent_fit == pytest.approx(501.0, rel=1e-9)
        over = np.isinf(rep.lam_star)
        assert np.count_nonzero(~over) == 3
        assert np.all(np.isnan(rep.constant_estimates[over]))
        assert np.isfinite(rep.constant_estimate)

    def test_near_one_without_two_finite_indices_refused(self):
        # m = 1.0000001: Lambda*(n) overflows at every n >= 2
        with pytest.raises(InputError, match="overflow"):
            example_31_check(1.0000001, 1.0, np.arange(2, 201, dtype=float))


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


class TestExample33:
    def test_leading_term_ratio_tightens(self):
        rep = example_33_check(1.0, 1.0, np.array([1e3, 1e4]))
        assert 0.6 <= rep.ratios[0] <= 1.4
        assert abs(rep.ratios[1] - 1.0) < abs(rep.ratios[0] - 1.0)

    def test_small_indices_rejected(self):
        with pytest.raises(InputError):
            example_33_check(1.0, 1.0, np.array([1.0, 2.0]))

"""Probability generating functions and the probabilistic Tauberian checks."""

import math

import numpy as np
import pytest
from scipy.special import gammaln

from entire_growth.bounds import index_decay
from entire_growth.entire import CoefficientSequence
from entire_growth.errors import (
    DivergenceError,
    InputError,
    NotEntireError,
    TruncationError,
)
from entire_growth.probgen import (
    DiscreteDistribution,
    generating_function_log,
    poisson,
    poisson_growth,
    prob_tauberian_report,
)


def geometric(p):
    """Geometric(p) on {0, 1, ...}: masses (1-p) p^k, radius 1/p."""
    return DiscreteDistribution(f"geometric(p={p:g})",
                                lambda k: math.log1p(-p) + np.asarray(k, float) * math.log(p),
                                radius=1.0 / p)


class TestPoisson:
    @pytest.mark.parametrize("lam", [1.0, 2.0, 5.0])
    def test_normalized(self, lam):
        assert generating_function_log(poisson(lam), 1.0) == pytest.approx(
            0.0, abs=1e-12)

    @pytest.mark.parametrize("lam", [1.0, 2.0, 5.0])
    def test_generating_function_closed_form(self, lam):
        # E r^X = exp(lam (r - 1))
        for r in (0.5, 2.0, 10.0):
            assert generating_function_log(poisson(lam), r) == pytest.approx(
                lam * (r - 1.0), rel=1e-12, abs=1e-12)

    def test_growth_profile(self):
        g = poisson_growth(2.0)
        assert g(1.0) == pytest.approx(2.0 * (math.e - 1.0))

    def test_coefficient_bound_lambda_one(self):
        # Lambda_P*(k) = k ln k - k + 1 for lam = 1
        d = poisson(1.0)
        ks = np.arange(1, 1001, dtype=float)
        la = d.log_abs_array(ks)
        conj = ks * np.log(ks) - ks + 1.0
        assert np.all(la <= -conj + 1e-9)

    def test_unconverged_series_raises(self):
        # the mass peaks near k = r = 2e6, past the series cap of 10^6 terms;
        # the exact value lam (r - 1) = 1999999 is out of reach
        with pytest.raises(TruncationError):
            generating_function_log(poisson(1.0), 2e6)

    def test_bad_lambda(self):
        with pytest.raises(InputError):
            poisson(0.0)


class TestGeometric:
    def test_gf_inside_radius(self):
        p = 0.5
        d = geometric(p)
        for r in (0.5, 1.0, 1.5):
            expect = math.log((1.0 - p) / (1.0 - p * r))
            assert generating_function_log(d, r) == pytest.approx(expect, rel=1e-9)

    def test_divergence_at_radius(self):
        d = geometric(0.5)
        with pytest.raises(DivergenceError):
            generating_function_log(d, 2.0)
        with pytest.raises(DivergenceError):
            generating_function_log(d, 5.0)

    def test_tauberian_refused(self):
        with pytest.raises(NotEntireError):
            prob_tauberian_report(geometric(0.3), poisson_growth(1.0),
                                  [2.0], [10])


class TestLawIsCoefficientSequence:
    def test_every_law_is_a_coefficient_sequence(self):
        for d in (poisson(2.0), geometric(0.5)):
            assert isinstance(d, CoefficientSequence), d.name
        assert geometric(0.5).radius == 2.0 and poisson(2.0).radius == math.inf

    @pytest.mark.parametrize("lam", [0.1, 1.0, 50.0])
    def test_index_decay_of_the_law_itself(self, lam):
        # the law's decay is bit for bit that of the same rule and gamma_form
        # on a plain CoefficientSequence
        d = poisson(lam)
        plain = CoefficientSequence(d.name, d.log_abs_fn, gamma_form=(1.0, math.log(lam)))
        q, ref = index_decay(d), index_decay(plain)
        xs = np.concatenate([np.arange(3001.0), np.linspace(0.0, 3000.0, 7919), [-1.0]])
        ys = np.linspace(-10.0, 20.0, 3001)
        assert np.array_equal(q.fn(xs), ref.fn(xs))
        assert np.array_equal(q.conj(ys), ref.conj(ys))


class TestProbTauberian:
    def test_poisson_ratios(self):
        rep = prob_tauberian_report(poisson(1.0), poisson_growth(1.0),
                                    r_grid=np.exp([1.0, 2.0, 3.0]),
                                    n_grid=np.arange(10, 301, 10))
        np.testing.assert_allclose(rep.lhs_ratios, 1.0, rtol=1e-12)
        assert abs(rep.rhs_ratios[-1] - 1.0) < 0.05

    def test_poisson_large_lambda_is_entire(self):
        # (1/k) ln P(k) rises for k < 1000 under lambda = 1000; the law is
        # entire by its gamma_form and ln E r^xi = 1000 (r - 1) exactly
        rep = prob_tauberian_report(poisson(1000.0), poisson_growth(1000.0),
                                    r_grid=np.exp([1.0, 2.0, 3.0, 4.0]),
                                    n_grid=np.arange(10, 301, 10))
        np.testing.assert_allclose(rep.lhs_ratios, 1.0, rtol=1e-12)

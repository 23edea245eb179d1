"""Several-variables extension: separable bounds and product functions."""

import math

import numpy as np
import pytest

from entire_growth.bounds import power_of_exp
from entire_growth.entire import (
    exp_coefficients,
    gamma_order_coefficients,
    log_max_function,
)
from entire_growth.errors import UnsupportedDimensionError
from entire_growth.multivar import (
    MultiCoefficientSequence,
    MultiGrowthFunction,
    factorizable_demo,
    growth_of,
    multi_coeff_bound,
    multi_max_bound,
)


def exp_pair():
    return MultiGrowthFunction.from_separable([power_of_exp(), power_of_exp()])


class TestMultiCoeffBound:
    def test_separable_equals_sum(self):
        from entire_growth.bounds import coeff_upper_bound
        Lam = exp_pair()
        for k in ((1, 1), (3, 4), (10, 2)):
            expect = (coeff_upper_bound(power_of_exp(), k[0])
                      + coeff_upper_bound(power_of_exp(), k[1]))
            assert multi_coeff_bound(Lam, k) == pytest.approx(expect, abs=1e-12)

    def test_nonseparable_brute_force(self):
        # Lambda(v1, v2) = e^(v1) + e^(v2) + v1 v2 coupling, small window
        def fn(v):
            v = np.asarray(v, dtype=float)
            return np.exp(v[..., 0]) + np.exp(v[..., 1]) + 0.1 * v[..., 0] * v[..., 1]

        Lam = MultiGrowthFunction(2, fn)
        got = multi_coeff_bound(Lam, (2, 3))
        # direct grid maximum of k.v - Lambda(v)
        g = np.linspace(-12.0, 12.0, 241)
        v1, v2 = np.meshgrid(g, g, indexing="ij")
        vals = 2.0 * v1 + 3.0 * v2 - (np.exp(v1) + np.exp(v2) + 0.1 * v1 * v2)
        assert got == pytest.approx(-np.max(vals), abs=1e-6)

    def test_dimension_guard(self):
        with pytest.raises(UnsupportedDimensionError):
            MultiGrowthFunction(4, lambda v: np.sum(np.asarray(v), axis=-1))


class TestMultiMaxBound:
    def test_bounds_product_max_function(self):
        Q = _decay_pair()
        for v in ((0.5, 0.5), (1.0, 2.0)):
            # ln M of exp(z1)exp(z2) at e^v is e^(v1) + e^(v2)
            ln_m = math.exp(v[0]) + math.exp(v[1])
            bound, rep = multi_max_bound(Q, v)
            assert ln_m <= bound + 1e-9
            assert 0.0 < rep.eps_star < 1.0

    def test_truncated_tail_negligible(self, monkeypatch):
        # non-separable Q: doubling every per-axis cap of the K and U boxes
        # must not move K, U or the bound
        from entire_growth import multivar
        from entire_growth.bounds import stirling_decay
        s = stirling_decay().fn
        Q = MultiGrowthFunction(
            2, lambda k: s(k[..., 0]) + s(k[..., 1]) + 0.1 * k[..., 0] * k[..., 1])
        bound, rep = multi_max_bound(Q, (1.0, 2.0), eps_points=9)
        cap = multivar._axis_truncation
        monkeypatch.setattr(multivar, "_axis_truncation", lambda *a: 2 * cap(*a))
        big, big_rep = multi_max_bound(Q, (1.0, 2.0), eps_points=9)
        assert big == pytest.approx(bound, rel=1e-12)
        np.testing.assert_allclose(big_rep.K_vals, rep.K_vals, rtol=1e-12)
        np.testing.assert_allclose(big_rep.U_vals, rep.U_vals, rtol=1e-12)

    def test_batched_qstar_matches_scalar_reference(self):
        # one batched conjugate per axis over every eps row equals, bit for
        # bit, the per-eps, per-axis scalar conjugates it replaced
        from entire_growth import multivar
        from entire_growth.bounds import quadratic_decay, stirling_decay
        from entire_growth.entire import MAX_TERMS
        from entire_growth.legendre import conjugate_point
        Q = MultiGrowthFunction.from_separable([stirling_decay(), quadratic_decay(0.5)])
        v = np.array([2.0, 4.0])
        eps_grid = np.arange(1, 40) / 40.0
        ref = np.array([sum(conjugate_point(p.fn, float(yj), x_min=p.domain_min,
                                            hard_cap=MAX_TERMS).value
                            for p, yj in zip(Q.separable_parts, v / (1.0 - e)))
                        for e in eps_grid])
        got = multivar._multi_conjugate(Q, v[None, :] / (1.0 - eps_grid[:, None]))
        np.testing.assert_array_equal(got, ref)


def _decay_pair():
    """Separable decay Q(k1, k2) = sum of n ln n - n per axis."""
    from entire_growth.bounds import stirling_decay
    return MultiGrowthFunction.from_separable([stirling_decay(), stirling_decay()])


class TestFactorizable:
    def test_exp_times_exp(self):
        rep = factorizable_demo(exp_coefficients(), exp_coefficients(),
                                2.0, 3.0, power_of_exp(), power_of_exp(),
                                k_grid=range(50), l_grid=range(50))
        assert rep.log_max_product == pytest.approx(5.0, abs=1e-9)
        assert rep.residual < 1e-9
        assert rep.bound_holds

    def test_mixed_orders(self):
        rep = factorizable_demo(exp_coefficients(), gamma_order_coefficients(2.0),
                                1.5, 1.2, power_of_exp(),
                                power_of_exp(C=1.0, rho=2.0),
                                k_grid=range(30), l_grid=range(30))
        expect = (log_max_function(exp_coefficients(), 1.5)
                  + log_max_function(gamma_order_coefficients(2.0), 1.2))
        assert rep.log_max_product == pytest.approx(expect, rel=1e-10)
        assert rep.bound_holds


class TestGrowthOf:
    def test_matches_direct_summation(self):
        g = growth_of(exp_coefficients())
        for v in (0.0, 1.0, 2.0):
            assert g(v) == pytest.approx(math.exp(v), rel=1e-10)

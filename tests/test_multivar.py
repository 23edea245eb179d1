"""Several-variables extension: separable bounds and product functions."""

import dataclasses
import math

import numpy as np
import pytest

from entire_growth.bounds import max_function_upper_bound, power_of_exp, stirling_decay
from entire_growth.entire import (
    ZERO,
    exp_coefficients,
    gamma_order_coefficients,
    log_max_function,
    table_coefficients,
)
from entire_growth.errors import InputError, UnsupportedDimensionError
from entire_growth.multivar import (
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

    def test_batch_equals_loop(self):
        # one call over a stack of K multi-indices gives each one's bits
        Lam = exp_pair()
        ks = np.array([(i, j) for i in range(0, 40, 5) for j in range(0, 40, 5)], dtype=float)
        got = multi_coeff_bound(Lam, ks)
        assert got.shape == (ks.shape[0],)
        np.testing.assert_array_equal(got, [multi_coeff_bound(Lam, k) for k in ks])
        assert isinstance(multi_coeff_bound(Lam, ks[3]), float)

    def test_dimension_guard(self):
        with pytest.raises(UnsupportedDimensionError):
            MultiGrowthFunction.from_separable([power_of_exp()] * 4)

    def test_dimension_is_the_part_count(self):
        for d in (1, 2, 3):
            assert MultiGrowthFunction.from_separable([power_of_exp()] * d).dimension == d


class TestMultiMaxBound:
    def test_bounds_product_max_function(self):
        Q = _decay_pair()
        for v in ((0.5, 0.5), (1.0, 2.0)):
            # ln M of exp(z1)exp(z2) at e^v is e^(v1) + e^(v2)
            ln_m = math.exp(v[0]) + math.exp(v[1])
            bound, reps = multi_max_bound(Q, v)
            assert ln_m <= bound + 1e-9
            assert len(reps) == 2  # one eps* per axis
            assert all(0.0 < rep.eps_star < 1.0 for rep in reps)

    def test_batched_qstar_matches_scalar_reference(self):
        # the separable conjugate of multi_coeff_bound, one batched call per
        # axis over every eps row, equals, bit for bit, the per-eps,
        # per-axis scalar conjugates
        from entire_growth.bounds import quadratic_decay, stirling_decay
        from entire_growth.entire import MAX_TERMS
        from entire_growth.legendre import conjugate_point
        # user-built parts without their closed conjugates: the adaptive path
        Q = MultiGrowthFunction.from_separable(
            [dataclasses.replace(p, conj=None)
             for p in (stirling_decay(), quadratic_decay(0.5))])
        v = np.array([2.0, 4.0])
        eps_grid = np.arange(1, 40) / 40.0
        ref = np.array([sum(conjugate_point(p.fn, float(yj), x_min=p.domain_min,
                                            hard_cap=MAX_TERMS).value
                            for p, yj in zip(Q.separable_parts, v / (1.0 - e)))
                        for e in eps_grid])
        got = -multi_coeff_bound(Q, v[None, :] / (1.0 - eps_grid[:, None]))
        np.testing.assert_array_equal(got, ref)

    def test_all_infinite_decay_refused(self):
        # Q = +inf everywhere: Q* = -inf and ln Y = +inf, whose sum is NaN;
        # the scan refuses the input instead of adding them (and its rows'
        # last slope, +inf - +inf, warns of nothing)
        from entire_growth.bounds import GrowthFunction
        Q = GrowthFunction("inf", lambda n: np.full(np.shape(n), np.inf), domain_min=0.0)
        with pytest.raises(InputError, match="Q\\* = -inf"):
            max_function_upper_bound(Q, 1.0)

    def test_capped_qstar_counts_as_infinite(self):
        from entire_growth.bounds import quadratic_decay, stirling_decay
        # a user-built Stirling decay is read at its rows n <= MAX_TERMS =
        # 10^6 < e^14, whose last slope every y = 14/(1-eps) passes, so its
        # axis bound, and the sum, are +inf; the closed form has no last row
        user = dataclasses.replace(stirling_decay(), conj=None)
        Q = MultiGrowthFunction.from_separable([user, quadratic_decay(0.5)])
        bound, (rep1, rep2) = multi_max_bound(Q, (14.0, 1.0), eps_points=9)
        assert bound == rep1.bound == math.inf
        assert math.isnan(rep1.eps_star) and math.isnan(rep1.S0)
        assert math.isfinite(rep2.bound) and 0.0 < rep2.eps_star < 1.0
        Q = MultiGrowthFunction.from_separable([stirling_decay(), quadratic_decay(0.5)])
        bound, (rep1, rep2) = multi_max_bound(Q, (14.0, 1.0), eps_points=9)
        assert math.exp(14.0) <= rep1.bound < math.inf  # ln M_exp(e^14) = e^14
        assert bound == rep1.bound + rep2.bound


def _joint_scan(Q, v, eps_points):
    """The common-eps reference over a separable Q: one eps for every axis,
    the minimum over the eps grid of sum_j (ln Y_j(eps) + Q_j*(v_j/(1-eps)))."""
    from entire_growth.bounds import k_sum, u_sum
    eps = np.arange(1, eps_points + 1) / (eps_points + 1)
    total = 0.0
    for p, vj in zip(Q.separable_parts, v):
        qstar, saturated = p.conjugate_at(vj / (1.0 - eps))
        assert not saturated
        ln_k = np.where(np.isfinite(qstar), k_sum(p.fn, eps) - eps * qstar, np.inf)
        total = total + np.minimum(ln_k, u_sum(p.fn, eps)) + qstar
    return float(np.min(total))


@pytest.fixture(scope="module")
def index_pair():
    """index_decay of exp and of order 2: the parts of a product section."""
    from entire_growth.bounds import index_decay
    return MultiGrowthFunction.from_separable(
        [index_decay(exp_coefficients()), index_decay(gamma_order_coefficients(2.0))])


class TestSeparableBound:
    @pytest.mark.parametrize("pair", ["stirling2", "stirling_quadratic", "index"])
    def test_sum_of_axis_bounds(self, pair, index_pair):
        # bit for bit the sum of the 1-D bounds, above ln R_Q = sum_j ln R_Qj
        # and never above the common-eps scan (a sum of minima is at most
        # the minimum of the sums)
        from entire_growth.bounds import (max_function_upper_bound, quadratic_decay,
                                          r_sum, stirling_decay)
        Q = {"stirling2": lambda: _decay_pair(),
             "stirling_quadratic": lambda: MultiGrowthFunction.from_separable(
                 [stirling_decay(), quadratic_decay(0.5)]),
             "index": lambda: index_pair}[pair]()
        axis = np.linspace(-1.0, 6.0, 5)
        for v in np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2):
            bound, reps = multi_max_bound(Q, v, eps_points=49)
            axes = [max_function_upper_bound(p, vj, eps_points=49)
                    for p, vj in zip(Q.separable_parts, v)]
            assert bound == axes[0][0] + axes[1][0]
            assert [r.eps_star for r in reps] == [r.eps_star for _, r in axes]
            assert bound >= sum(r_sum(p, vj) for p, vj in zip(Q.separable_parts, v))
            joint = _joint_scan(Q, v, 49)
            assert bound <= joint + 1e-12 * abs(joint), (v, bound, joint)

    def test_per_axis_eps_probe(self, index_pair):
        # the product section's parts at (r1, r2) = (2, 3) and (e^2, 20): the
        # per-axis eps* gains over the best common eps of the grid
        for v, per_axis, common in (((math.log(2.0), math.log(3.0)), 13.073, 13.616),
                                    ((2.0, math.log(20.0)), 419.40, 420.45)):
            bound, _ = multi_max_bound(index_pair, v)
            assert bound == pytest.approx(per_axis, abs=5e-3)
            assert _joint_scan(index_pair, v, 199) == pytest.approx(common, abs=5e-3)


@pytest.mark.parametrize("call", [
    lambda: max_function_upper_bound(stirling_decay(), math.nan),
    lambda: max_function_upper_bound(stirling_decay(), math.inf),
    lambda: multi_coeff_bound(exp_pair(), (math.nan, 2.0)),
    lambda: multi_coeff_bound(exp_pair(), (math.inf, 2.0)),
    lambda: multi_max_bound(_decay_pair(), (math.nan, 1.0)),
    lambda: multi_max_bound(_decay_pair(), (1.0, -math.inf)),
    lambda: multi_max_bound(_decay_pair(), [[1.0], [2.0]]),
    lambda: multi_max_bound(_decay_pair(), [1.0]),
], ids=["1d-nan", "1d-inf", "coeff-nan", "coeff-inf", "multi-nan", "multi-inf",
        "multi-column", "multi-short"])
def test_non_finite_or_misshaped_input_refused(call):
    # refused before any series or conjugate runs (a RuntimeWarning here
    # is an error)
    with pytest.raises(InputError):
        call()


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
        assert rep.log_max_product == sum(rep.log_max_factors)
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


    def test_table_with_gaps_matches_direct_sum(self):
        # ZERO gaps leave non-finite terms, which the direct product sum drops
        rng = np.random.default_rng(7)
        la = -np.arange(60.0) * rng.uniform(0.5, 1.5, 60)
        la[rng.choice(60, 20, replace=False)] = ZERO
        la[0] = 0.0
        f1, f2 = table_coefficients(la), exp_coefficients()
        rep = factorizable_demo(f1, f2, 1.7, 2.3, power_of_exp(), power_of_exp(),
                                k_grid=range(5), l_grid=range(5))
        t1 = f1.log_abs_array(np.arange(60.0)) + np.arange(60.0) * math.log(1.7)
        t2 = f2.log_abs_array(np.arange(2049.0)) + np.arange(2049.0) * math.log(2.3)
        t = t1[:, None] + t2[None, :]
        t = t[np.isfinite(t)]
        m = float(np.max(t))
        assert rep.log_max_product == pytest.approx(
            m + math.log(float(np.sum(np.exp(t - m)))), rel=1e-12, abs=0)


class TestGrowthOf:
    def test_matches_direct_summation(self):
        g = growth_of(exp_coefficients())
        for v in (0.0, 1.0, 2.0):
            assert g(v) == pytest.approx(math.exp(v), rel=1e-10)

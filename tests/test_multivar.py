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

    @pytest.mark.parametrize("coupled", [True, False], ids=["coupled", "separable"])
    def test_batch_equals_loop(self, coupled):
        # one call over a stack of K multi-indices gives each one's bits
        def fn(v):
            v = np.asarray(v, dtype=float)
            return (np.exp(v[..., 0]) + np.exp(v[..., 1])
                    + 0.5 * np.exp(0.5 * (v[..., 0] + v[..., 1])))

        Lam = MultiGrowthFunction(2, fn) if coupled else exp_pair()
        ks = np.array([(i, j) for i in range(0, 40, 5) for j in range(0, 40, 5)], dtype=float)
        got = multi_coeff_bound(Lam, ks)
        assert got.shape == (ks.shape[0],)
        np.testing.assert_array_equal(got, [multi_coeff_bound(Lam, k) for k in ks])
        assert isinstance(multi_coeff_bound(Lam, ks[3]), float)

    def test_dimension_guard(self):
        with pytest.raises(UnsupportedDimensionError):
            MultiGrowthFunction(4, lambda v: np.sum(np.asarray(v), axis=-1))


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

    def test_truncated_tail_negligible(self, monkeypatch):
        # non-separable Q: doubling every per-axis cap of the K and U boxes
        # must not move K, U or the bound
        from entire_growth import multivar
        from entire_growth.bounds import stirling_decay
        s = stirling_decay().fn
        Q = MultiGrowthFunction(
            2, lambda k: s(k[..., 0]) + s(k[..., 1]) + 0.1 * k[..., 0] * k[..., 1])
        bound, (rep,) = multi_max_bound(Q, (1.0, 2.0), eps_points=9)
        cap = multivar._axis_truncation
        monkeypatch.setattr(multivar, "_axis_truncation", lambda *a: 2 * cap(*a))
        big, (big_rep,) = multi_max_bound(Q, (1.0, 2.0), eps_points=9)
        assert big == pytest.approx(bound, rel=1e-12)
        # logs to 1e-12 absolute: K and U to 1e-12 relative
        np.testing.assert_allclose(big_rep.ln_k, rep.ln_k, rtol=0, atol=1e-12)
        np.testing.assert_allclose(big_rep.ln_u, rep.ln_u, rtol=0, atol=1e-12)

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

    def test_lattice_qstar_matches_query_loop(self):
        # non-separable Q: the d-pass kernel equals a max over the sampled
        # box [0, 64]^2 taken query by query, and flags the same rays
        from entire_growth import multivar
        from entire_growth.bounds import stirling_decay
        s = stirling_decay().fn
        Q = MultiGrowthFunction(
            2, lambda k: s(k[..., 0]) + s(k[..., 1]) + 0.1 * k[..., 0] * k[..., 1])
        axis = np.linspace(0.0, 64.0, 257)
        pts = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        vals = Q.fn(pts)
        eps_grid = np.arange(1, 10) / 40.0
        flags = []
        for v in np.stack(np.meshgrid(np.arange(1, 7), np.arange(1, 7)), -1).reshape(-1, 2):
            ys = v[None, :] / (1.0 - eps_grid[:, None])
            ref, ref_sat = np.empty(len(ys)), False
            for i, y in enumerate(ys):
                obj = pts[:, 0] * y[0] + pts[:, 1] * y[1] - vals
                best = int(np.argmax(obj))
                ref[i] = obj[best]
                ref_sat = ref_sat or bool(np.any(pts[best] == 64.0))
            got, sat = multivar._multi_conjugate(Q, ys, multivar._BOX_AXIS)
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)
            assert sat is ref_sat
            flags.append(sat)
        assert any(flags) and not all(flags)


    def test_separable_sums_match_box(self):
        # K0 = prod K0_j and U = prod U_j for separable Q: the truncated
        # multi-index box sums equal the sums of the per-axis k_sum / u_sum
        from entire_growth import multivar
        from entire_growth.bounds import k_sum, quadratic_decay, stirling_decay, u_sum
        parts = (stirling_decay(), quadratic_decay(0.5))
        box = MultiGrowthFunction(2, MultiGrowthFunction.from_separable(parts).fn)
        eps_grid = np.arange(1, 10) / 10.0
        for axis_sum, box_sum in zip(
                (sum(s(p.fn, eps_grid) for p in parts) for s in (k_sum, u_sum)),
                multivar._multi_sums(box, eps_grid)):
            np.testing.assert_allclose(axis_sum, box_sum, rtol=0, atol=1e-12)

    def test_all_infinite_box(self):
        # Q = +inf on the whole box: no K or U term is finite (the U terms
        # are inf - inf), so both sums are +inf, with no RuntimeWarning
        from entire_growth import multivar
        Q = MultiGrowthFunction(1, lambda k: np.full(np.shape(k)[:-1], np.inf))
        for s in multivar._multi_sums(Q, np.array([0.25, 0.5])):
            np.testing.assert_array_equal(s, [np.inf, np.inf])

    def test_all_infinite_decay_refused(self):
        # Q = +inf everywhere: Q* = -inf and ln Y = +inf, whose sum is NaN;
        # the scan refuses the input instead of adding them
        from entire_growth.errors import InputError
        Q = MultiGrowthFunction(1, lambda k: np.full(np.shape(k)[:-1], np.inf))
        with pytest.raises(InputError):
            multi_max_bound(Q, [1.0])

    def test_qstar_saturation_flag(self):
        from entire_growth.bounds import quadratic_decay, stirling_decay
        # non-separable: the brute-force argmax near e^(v/(1-eps)) > 64
        # lies on the far face of the [0, 64]^2 box
        s = stirling_decay().fn
        Q = MultiGrowthFunction(
            2, lambda k: s(k[..., 0]) + s(k[..., 1]) + 0.1 * k[..., 0] * k[..., 1])
        _, (rep,) = multi_max_bound(Q, (5.0, 5.0), eps_points=9)
        assert rep.qstar_saturated
        # separable: a user-built Stirling decay searches an index window
        # capped at MAX_TERMS = 10^6 < e^14; the closed form has no window
        user = dataclasses.replace(stirling_decay(), conj=None)
        for part, saturated in ((user, True), (stirling_decay(), False)):
            Q = MultiGrowthFunction.from_separable([part, quadratic_decay(0.5)])
            _, (rep1, rep2) = multi_max_bound(Q, (14.0, 1.0), eps_points=9)
            assert rep1.qstar_saturated is saturated
            assert rep2.qstar_saturated is False


def _joint_scan(Q, v, eps_points):
    """The common-eps scan over a separable Q: one eps for every axis, over
    the summed per-axis K/U sums and conjugates."""
    from entire_growth.bounds import _eps_scan, k_sum, u_sum
    parts, v = Q.separable_parts, np.asarray(v, dtype=float)

    def conj(eps):
        axes = [p.conjugate_at(v[j] / (1.0 - eps)) for j, p in enumerate(parts)]
        return sum(q for q, _ in axes), any(sat for _, sat in axes)

    return _eps_scan(lambda eps: (sum(k_sum(p.fn, eps) for p in parts),
                                  sum(u_sum(p.fn, eps) for p in parts)),
                     conj, 1, eps_points, "joint")[0][0]


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
        # the product section's parts at (r1, r2) = (2, 3) and (e^2, 20)
        for v, per_axis, common in (((math.log(2.0), math.log(3.0)), 13.073, 13.817),
                                    ((2.0, math.log(20.0)), 419.40, 420.63)):
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

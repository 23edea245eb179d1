"""Coefficient sequences, maximal-function summation, order/type estimators."""

import dataclasses
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.special import gammaln

from entire_growth.entire import (
    ZERO,
    CoefficientSequence,
    coefficients_from_csv,
    derivative_coeffs,
    exp_coefficients,
    gamma_order_coefficients,
    gaussian_coefficients,
    log_max_function,
    log_series,
    order_estimate,
    polynomial_coefficients,
    power_decay_coefficients,
    table_coefficients,
    type_estimate,
)
from entire_growth.errors import (
    InputError,
    NotEntireError,
    TruncationError,
    UndefinedOrderError,
)


def test_import_leaves_scipy_special_unloaded():
    # scipy.special is imported where it is called, not by the package import
    import entire_growth
    src = os.path.dirname(os.path.dirname(os.path.abspath(entire_growth.__file__)))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import entire_growth; "
            "print('scipy.special' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


class TestGammaOrderCoefficients:
    def test_type_one_is_the_plain_rule(self):
        # c4 = 1 leaves ln|c_n| = -ln Gamma(n/rho + 1) bit for bit, -0.0 included
        ns = np.arange(0.0, 300.0)
        for rho in (0.5, 1.0, 2.0, 3.7):
            la = gamma_order_coefficients(rho).log_abs_array(ns)
            ref = -gammaln(ns / rho + 1.0)
            np.testing.assert_array_equal(la, ref)
            assert np.array_equal(np.signbit(la), np.signbit(ref))
        np.testing.assert_array_equal(exp_coefficients().log_abs_array(ns),
                                      -gammaln(ns + 1.0))

    def test_type_scales_the_coefficients(self):
        # c_n = c4^(n/rho) / Gamma(n/rho + 1)
        ns = np.arange(0.0, 50.0)
        la = gamma_order_coefficients(2.0, 0.5).log_abs_array(ns)
        np.testing.assert_allclose(la, ns / 2.0 * math.log(0.5) - gammaln(ns / 2.0 + 1.0),
                                   rtol=1e-14, atol=1e-14)

    def test_type_must_be_positive(self):
        with pytest.raises(InputError):
            gamma_order_coefficients(2.0, 0.0)


class TestLogMaxFunction:
    def test_exp_at_one(self):
        assert log_max_function(exp_coefficients(), 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_exp_at_ten(self):
        assert log_max_function(exp_coefficients(), 10.0) == pytest.approx(10.0, abs=1e-9)

    def test_polynomial_finite_sum(self):
        f = polynomial_coefficients([1.0, 1.0])
        assert log_max_function(f, 2.0) == pytest.approx(math.log(3.0), abs=1e-12)

    def test_polynomial_past_a_gap(self):
        # c_0 = c_300 = 1: the 299 zero coefficients between them must not
        # end the sum before the top term
        vals = np.full(301, ZERO)
        vals[[0, 300]] = 0.0
        f = table_coefficients(vals)
        assert log_max_function(f, 2.0) == pytest.approx(
            300 * math.log(2.0) + math.log1p(2.0 ** -300), rel=1e-14)

    def test_monotone_in_r(self):
        rng = np.random.default_rng(17)
        for f in (exp_coefficients(), gaussian_coefficients(),
                  gamma_order_coefficients(2.0)):
            rs = rng.uniform(0.1, 50.0, (100, 2))
            for r1, r2 in rs:
                lo, hi = sorted((r1, r2))
                assert log_max_function(f, lo) <= log_max_function(f, hi) + 1e-12

    def test_scaling_identity(self):
        # c_n -> c_n a^n turns M(r) into M(a r); exact in log domain
        a = 2.0
        base = exp_coefficients()
        scaled = CoefficientSequence(
            "scaled", lambda n: base.log_abs_array(n) + np.asarray(n, float) * math.log(a),
            sign_nonnegative=True)
        for r in (0.5, 1.0, 3.0):
            assert log_max_function(scaled, r) == pytest.approx(
                log_max_function(base, a * r), rel=1e-13)

    def test_rejects_nonpositive_r(self):
        with pytest.raises(InputError):
            log_max_function(exp_coefficients(), 0.0)

    def test_non_entire_rejected(self):
        # constant coefficients: radius of convergence 1, not entire
        f = CoefficientSequence("ones", lambda n: np.zeros_like(np.asarray(n, float)))
        with pytest.raises(NotEntireError):
            log_max_function(f, 2.0)

    @pytest.mark.parametrize("form", [(0.0, 0.0), (-1.0, 0.0)])
    def test_gamma_form_without_growth_still_probed(self, form):
        # only a > 0 makes -ln|c_n| superlinear; the probe still refuses
        # constant coefficients that declare a form with a <= 0
        f = CoefficientSequence("ones", lambda n: np.zeros_like(np.asarray(n, float)),
                                gamma_form=form)
        with pytest.raises(NotEntireError):
            f.assert_entire()

    def test_gamma_form_with_slow_start_entire(self):
        # (1/n) ln|c_n| of c_n = 1000^n / n! rises for n < 1000 and is still
        # positive at n = 2048, which the probe alone reads as a finite radius
        f = gamma_order_coefficients(1.0, 1000.0)
        f.assert_entire()
        r = np.exp([1.0, 2.0, 4.0])
        np.testing.assert_allclose(log_max_function(f, r), 1000.0 * r, rtol=1e-12)

    def test_gamma_form_past_last_slope_raises_before_summing(self):
        # rho = 50, c = 0.1: ln 1.5 = 0.405 lies past the last slope 0.244
        # of the rows n <= 10^6, so the terms still rise at n = 10^6; the
        # same rule without its gamma_form sums 10^6 + 1 terms to find it
        f = gamma_order_coefficients(50.0, 0.1)
        f.assert_entire()
        t0 = time.perf_counter()
        with pytest.raises(TruncationError, match="still rise"):
            log_max_function(f, np.array([1.2, 1.5]))
        assert time.perf_counter() - t0 < 0.05
        with pytest.raises(TruncationError):
            log_max_function(dataclasses.replace(f, gamma_form=None), 1.5)

    def test_radii_batch_matches_scalar_calls(self):
        # one batched series over the radii equals, bit for bit, the scalar calls
        r = np.array([0.5, 1.0, 2.718281828459045, 20.0, 150.0])
        for f in (exp_coefficients(), gamma_order_coefficients(2.0),
                  polynomial_coefficients([1.0, 0.0, 3.0, 0.5])):
            got = log_max_function(f, r)
            assert got.shape == r.shape
            np.testing.assert_array_equal(got, [log_max_function(f, ri) for ri in r])


class TestLogSeries:
    def test_batch_rows_are_independent_series(self):
        # row 0 (terms -n) stops converged after its first block and equals
        # the 1-D call bit for bit; row 1 (terms 0) never becomes negligible
        ref = log_series(lambda ns, rows: -ns, 1000)
        total, terms, converged = log_series(
            lambda ns, rows: np.stack([-ns, 0.0 * ns])[rows], 1000, shape=(2,))
        assert (total[0], terms[0], converged[0]) == ref
        assert ref[2] and ref[1] == 256
        assert not converged[1] and terms[1] == 1001
        assert total[1] == pytest.approx(math.log(1001.0), rel=1e-14)

    def test_scalar_results_for_one_series(self):
        out = log_series(lambda ns, rows: -ns, 1000)
        assert [np.ndim(x) for x in out] == [0, 0, 0]
        assert isinstance(out[0], float)

    # one series per row: stops in blocks 1, 2, 9 and 23; a +inf term in
    # block 3; NaN terms (counted as -inf) before a stop in block 1; and
    # terms 0 that never become negligible (summed to n_max)
    ROWS = [lambda ns: -ns,
            lambda ns: -0.2 * ns,
            lambda ns: -0.02 * ns,
            lambda ns: -0.007 * ns,
            lambda ns: np.where(ns == 700.0, np.inf, -1e-3 * ns),
            lambda ns: np.where(ns % 2 == 0, np.nan, -ns),
            lambda ns: 0.0 * ns]

    def batch(self, calls=None, level=None):
        def term_fn(ns, rows):
            if calls is not None:
                calls.append((int(ns[0]), rows.tolist()))
            return np.stack([self.ROWS[i](ns) for i in rows])

        return log_series(term_fn, 8000, shape=(len(self.ROWS),), level=level)

    def test_batch_equals_one_series_calls(self):
        total, terms, converged = self.batch()
        stop_blocks = []
        for i, row in enumerate(self.ROWS):
            ref = log_series(lambda ns, rows: row(ns), 8000)
            assert (total[i].tobytes(), terms[i], converged[i]) == \
                (ref[0].tobytes(), ref[1], ref[2])
            stop_blocks.append(-(-int(ref[1]) // 256))
        assert stop_blocks == [1, 2, 9, 23, 3, 1, 32]
        assert total[4] == math.inf and converged[4]
        assert not converged[6] and terms[6] == 8001
        # a 2-D batch returns arrays of its shape, with the same bits
        t2, n2, c2 = log_series(lambda ns, rows: -np.array([1.0, 0.2, 0.02, 0.007])[rows, None]
                                * ns, 8000, shape=(2, 2))
        np.testing.assert_array_equal(t2.ravel(), total[:4])
        np.testing.assert_array_equal(n2.ravel(), terms[:4])

    def test_stopped_rows_are_not_evaluated(self):
        calls = []
        _, terms, _ = self.batch(calls)
        assert calls[0] == (0, list(range(len(self.ROWS))))
        for start, rows in calls:
            # exactly the rows that have not stopped before this block
            assert rows == [i for i in range(len(self.ROWS)) if terms[i] > start]

    def running_sums(self, i):
        """Row i's running log-sum after each block up to its stop: the
        sums of one-series calls cut at the end of that block."""
        one = lambda ns, rows: self.ROWS[i](ns)
        blocks = -(-int(log_series(one, 8000)[1]) // 256)
        return [log_series(one, min(256 * k, 8001) - 1)[0] for k in range(1, blocks + 1)]

    def test_running_sums_never_decrease(self):
        for i in range(len(self.ROWS)):
            sums = self.running_sums(i)
            assert all(a <= b for a, b in zip(sums, sums[1:])), i

    def test_level_stops_a_row_after_the_block_that_reaches_it(self):
        # each block's running sum as the level: the row stops after the
        # first block whose sum reaches it, with that sum (>= the level, <=
        # the full sum), and counts the terms up to there
        for i, row in enumerate(self.ROWS):
            one = lambda ns, rows: row(ns)
            full = log_series(one, 8000)[0]
            sums = self.running_sums(i)
            for level in sums:
                k = next(j for j, s in enumerate(sums) if s >= level)
                total, terms, converged = log_series(one, 8000, level=level)
                assert total.tobytes() == sums[k].tobytes(), (i, level)
                assert terms == min(256 * (k + 1), 8001) and converged
                assert level <= total <= full

    @pytest.mark.parametrize("level", [math.nan, math.inf, [math.inf, math.nan] * 3 + [math.nan]],
                             ids=["nan", "inf", "per_row"])
    def test_nan_or_inf_level_never_stops_a_row(self, level):
        for got, want in zip(self.batch(level=level), self.batch()):
            assert got.tobytes() == want.tobytes()

    def test_levels_act_row_by_row(self):
        # each row stops at its own level, as a one-series call with that
        # level does, and is not evaluated after its stop; a level of -inf
        # stops a row after its first block
        levels = [math.nan, self.running_sums(1)[0], self.running_sums(2)[4],
                  self.running_sums(3)[10], math.inf, -math.inf, self.running_sums(6)[5]]
        calls = []
        total, terms, converged = self.batch(calls, np.array(levels))
        for i, (row, level) in enumerate(zip(self.ROWS, levels)):
            ref = log_series(lambda ns, rows: row(ns), 8000, level=level)
            assert (total[i].tobytes(), terms[i], converged[i]) == \
                (ref[0].tobytes(), ref[1], ref[2])
        assert terms.tolist() == [256, 256, 1280, 2816, 768, 256, 1536]
        for start, rows in calls:
            assert rows == [i for i in range(len(self.ROWS)) if terms[i] > start]


class TestOrderEstimate:
    def test_exp_family_running_max(self):
        # ratio n ln n / ln n! is maximal at the window start and decays to 1
        est = order_estimate(exp_coefficients(), 100, 1000)
        expect = 100 * math.log(100.0) / gammaln(101.0)
        assert est.value == pytest.approx(expect, rel=1e-12)
        assert est.values[-1] == pytest.approx(
            1000 * math.log(1000.0) / gammaln(1001.0), rel=1e-12)
        # trend: ratios decrease toward the limit 1 from above
        assert np.all(np.diff(est.values) < 0)
        assert est.values[-1] > 1.0

    def test_gaussian_small_and_decreasing(self):
        est = order_estimate(gaussian_coefficients(), 100, 1000)
        assert est.values[0] <= 0.07
        assert np.all(np.diff(est.values) < 0)

    def test_order_two_family_exact(self):
        # c_n = n^(-n/2): ratio is exactly 2 at every n
        est = order_estimate(power_decay_coefficients(0.5), 100, 1000)
        assert est.value == pytest.approx(2.0, rel=1e-12)
        np.testing.assert_allclose(est.values, 2.0, rtol=1e-12)

    def test_window_growth_monotone(self):
        f = exp_coefficients()
        a = order_estimate(f, 10, 100).value
        b = order_estimate(f, 10, 200).value
        c = order_estimate(f, 10, 400).value
        assert a <= b <= c or (a >= b >= c and a == order_estimate(f, 10, 800).value)
        # running max can only grow with the window
        assert order_estimate(f, 10, 800).value >= a - 1e-15

    def test_zero_coeffs_skipped(self):
        f = table_coefficients([0.0, ZERO, -2.0, ZERO, -8.0])
        est = order_estimate(f, 2, 4)
        assert est.ns.tolist() == [2, 4]

    def test_polynomial_undefined(self):
        with pytest.raises(UndefinedOrderError):
            order_estimate(polynomial_coefficients([1.0, 1.0]), 2, 10)


class TestTypeEstimate:
    def test_exp_family_tends_to_e(self):
        est = type_estimate(exp_coefficients(), 1.0, 100, 1000)
        assert est.values[-1] == pytest.approx(math.e, rel=0.02)

    def test_self_conjugate_family_exact(self):
        # c_n = n^-n: n * (n^-n)^(1/n) = 1 for every n
        est = type_estimate(power_decay_coefficients(1.0), 1.0, 100, 1000)
        np.testing.assert_allclose(est.values, 1.0, rtol=1e-12)

    def test_degenerate_constant(self):
        with pytest.raises(UndefinedOrderError):
            type_estimate(polynomial_coefficients([1.0]), 1.0, 1, 10)

    def test_bad_rho(self):
        with pytest.raises(InputError):
            type_estimate(exp_coefficients(), -1.0, 1, 10)


class TestDerivative:
    def test_exp_fixed_point(self):
        d = derivative_coeffs(exp_coefficients())
        ns = np.arange(0, 50)
        np.testing.assert_allclose(d.log_abs_array(ns),
                                   exp_coefficients().log_abs_array(ns),
                                   rtol=0, atol=1e-12)

    def test_polynomial_rule(self):
        d = derivative_coeffs(polynomial_coefficients([1.0, 1.0, 1.0]))
        assert d.log_abs(0) == pytest.approx(0.0)
        assert d.log_abs(1) == pytest.approx(math.log(2.0))
        assert d.log_abs(2) == ZERO

    def test_power_family_rule(self):
        # c_n = n^-n gives c_k[f'] = (k+1)^(-k)
        d = derivative_coeffs(power_decay_coefficients(1.0))
        for k in (1, 5, 20):
            assert d.log_abs(k) == pytest.approx(-k * math.log(k + 1.0), rel=1e-12)

    def test_integral_round_trip(self):
        f = exp_coefficients()
        d = derivative_coeffs(f)
        ks = np.arange(0, 1001, dtype=float)
        recovered = d.log_abs_array(ks) - np.log(ks + 1.0)
        np.testing.assert_allclose(recovered, f.log_abs_array(ks + 1.0),
                                   rtol=1e-15, atol=1e-15)


class TestCsvRoundTrip:
    def test_table_round_trip(self, tmp_path):
        p = tmp_path / "coeffs.csv"
        p.write_text("n,ln_abs_c\n0,0.0\n1,ZERO\n2,-1.5\n")
        f = coefficients_from_csv(p)
        assert f.log_abs(0) == 0.0
        assert f.log_abs(1) == ZERO
        assert f.log_abs(2) == -1.5
        assert f.max_index == 2

    def test_empty_rejected(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("n,ln_abs_c\n")
        with pytest.raises(InputError):
            coefficients_from_csv(p)

    @pytest.mark.parametrize("row", ["1,np.float64(-0.0)", "1", "x,0.0", "-1,0.0",
                                     "1,nan", "1,inf", "1.5,0.0"])
    def test_malformed_row_names_file_and_line(self, tmp_path, row):
        p = tmp_path / "coeffs.csv"
        p.write_text("n,ln_abs_c\n0,0.0\n" + row + "\n2,-1.0\n")
        with pytest.raises(InputError, match="coeffs.csv line 3"):
            coefficients_from_csv(p)

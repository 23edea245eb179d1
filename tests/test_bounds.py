"""Coefficient bounds, K/U/Y series, the eps-scan upper bound, diagnostics."""

import dataclasses
import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

from entire_growth.bounds import (
    DEFAULT_EPS_POINTS,
    GrowthFunction,
    _integer_decay,
    coeff_upper_bound,
    coeff_upper_bound_many,
    exp_of_exp,
    gamma_condition,
    index_decay,
    k_sum,
    max_function_upper_bound,
    max_function_upper_bounds,
    power_log,
    power_of_exp,
    quadratic_decay,
    r_sum,
    stirling_decay,
    tauberian_report,
    u_sum,
)
from entire_growth.entire import (
    MAX_TERMS,
    CoefficientSequence,
    exp_coefficients,
    gamma_order_coefficients,
    log_max_function,
    polynomial_coefficients,
    table_coefficients,
)
from entire_growth.errors import (
    InputError,
    NoFiniteBoundError,
    PolynomialInputError,
    WindowSaturationWarning,
)
from entire_growth.legendre import (
    WINDOW_HARD_CAP,
    _hull,
    _vertex_conjugate,
    conjugate_of_callable,
)
from entire_growth.probgen import poisson, poisson_growth


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
        # a user-built Lambda(v) = v^2, without a closed conjugate: the
        # argmax n/2 = 1000 of the adaptive search lies past the window cap
        square = GrowthFunction("square", lambda v: np.asarray(v, float) ** 2)
        with pytest.warns(WindowSaturationWarning):
            coeff_upper_bound(square, 2000)

    def test_zero_index_does_not_warn(self):
        # sup_v -e^v = 0 is not attained; the bound 0 is exact, not loose
        with warnings.catch_warnings():
            warnings.simplefilter("error", WindowSaturationWarning)
            assert coeff_upper_bound(power_of_exp(), 0) == pytest.approx(0.0, abs=1e-300)
            coeff_upper_bound_many(power_of_exp(C=1.0, rho=2.0), np.arange(0.0, 50.0))

    def test_negative_n_rejected(self):
        with pytest.raises(InputError):
            coeff_upper_bound(power_of_exp(), -1)


GROWTH = [power_of_exp(1.1, 0.9), power_log(1.5, 2.5), power_log(1.0, 2.0),
          exp_of_exp(1.2, 0.8), poisson_growth(3.0)]
DECAYS = [stirling_decay(), quadratic_decay(0.5)]


class TestClosedConjugates:
    @pytest.mark.parametrize("p", GROWTH + DECAYS, ids=lambda p: p.name)
    def test_matches_adaptive_search(self, p):
        # the oracle: the adaptive search on fn, wherever its argmax is
        # inside the window (n <= 0 included: the closed forms must not warn)
        on_r = p.domain_min is None
        ys = np.linspace(-50.0, 2000.0, 821) if on_r else np.linspace(-5.0, 12.0, 69)
        cap = WINDOW_HARD_CAP if on_r else MAX_TERMS
        oracle = conjugate_of_callable(p.fn, ys, x_min=p.domain_min, hard_cap=cap)
        inside = np.abs(oracle.argmax_xs) < cap - 1.0
        assert np.count_nonzero(inside) > 10
        closed, saturated = p.conjugate_at(ys)
        np.testing.assert_allclose(closed[inside], oracle.gstars[inside],
                                   rtol=1e-9, atol=1e-12)
        assert not saturated

    @pytest.mark.parametrize("p", [power_of_exp(1.1, 0.9), exp_of_exp(1.2, 0.8),
                                   poisson_growth(3.0)], ids=lambda p: p.name)
    def test_infinite_below_zero(self, p):
        # Lambda bounded as v -> -inf: sup_v (n v - Lambda(v)) = +inf for n < 0
        vals, _ = p.conjugate_at([-1e3, -1.0, -1e-12])
        assert np.all(vals == np.inf)
        assert np.isfinite(p.conjugate_at([0.0])[0][0])

    def test_value_at_zero_not_attained(self):
        # sup_v -Lambda(v) is Lambda's infimum: 0, -C5 and lambda
        assert power_of_exp(2.0, 3.0).conjugate_at(0.0)[0][0] == 0.0
        assert exp_of_exp(1.2, 0.8).conjugate_at(0.0)[0][0] == -1.2
        assert poisson_growth(3.0).conjugate_at(0.0)[0][0] == 3.0

    @pytest.mark.parametrize("p", GROWTH + DECAYS, ids=lambda p: p.name)
    def test_biconjugate_is_the_profile(self, p):
        # conjugate() swaps the pair: Lambda** = Lambda bit for bit on the
        # domain, +inf below domain_min
        v = np.linspace(-6.0, 6.0, 97)
        back, saturated = p.conjugate().conjugate_at(v)
        ok = v >= (p.domain_min if p.domain_min is not None else -np.inf)
        assert np.array_equal(back[ok], p(v[ok]))
        assert np.all(back[~ok] == np.inf)
        assert not saturated
        np.testing.assert_array_equal(p.conjugate().fn(v), p.conjugate_at(v)[0])

    def test_user_profile_conjugate_pair(self):
        # without conj, conjugate() searches once and carries fn back
        square = GrowthFunction("square", lambda v: np.asarray(v, float) ** 2)
        star = square.conjugate()
        n = np.array([0.0, 2.0, 10.0])
        np.testing.assert_allclose(star(n), n * n / 4.0, rtol=1e-12, atol=1e-12)
        assert np.array_equal(star.conjugate_at(n)[0], square(n))


def _rows_conjugate(la, ys):
    """max over the rows n of n y + ln|c_n|: Q* of the rows by brute force,
    and the maximizing row per y."""
    ns = np.flatnonzero(np.isfinite(la))
    vals = [ns * y + la[ns] for y in ys]
    return (np.array([np.max(t) for t in vals]),
            np.array([ns[np.argmax(t)] for t in vals]))


RULES = [exp_coefficients(), gamma_order_coefficients(2.0),
         poisson(3.0)]


class TestIndexDecay:
    def test_random_tables_match_rows(self):
        # leading ZERO rows, gaps and non-convex rows: Q* of the envelope is
        # the max over the rows, past the last row too (c_n = 0 there)
        rng = np.random.default_rng(5)
        ys = np.linspace(-5.0, 25.0, 61)
        for _ in range(20):
            size = int(rng.integers(20, 400))
            ns = np.arange(size, dtype=float)
            la = -(gammaln(ns / rng.uniform(0.5, 3.0) + 1.0)
                   + rng.normal(0.0, rng.choice([0.0, 0.5, 3.0]), size))
            la[:int(rng.integers(0, 6))] = -np.inf
            la[rng.random(size) < 0.1] = -np.inf
            Q = index_decay(table_coefficients(la))
            got, saturated = Q.conjugate_at(ys)
            np.testing.assert_allclose(got, _rows_conjugate(la, ys)[0],
                                       rtol=1e-12, atol=1e-12)
            assert not saturated
            # the envelope lies below every row: |c_n| <= exp(-Q(n))
            assert np.all(Q.fn(ns) <= -la)

    @pytest.mark.parametrize("f", RULES, ids=lambda f: f.name)
    def test_rules_match_rows_in_range(self, f):
        # every row up to MAX_TERMS; y below the last hull slope keeps the
        # argmax inside them
        la = f.log_abs_array(np.arange(MAX_TERMS + 1, dtype=float))
        ys = np.array([-2.0, 0.0, 0.5, 1.0, 3.0, 6.0])
        want, arg = _rows_conjugate(la, ys)
        assert np.all(arg < MAX_TERMS)
        got, saturated = index_decay(f).conjugate_at(ys)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        assert not saturated

    @pytest.mark.parametrize("f", RULES, ids=lambda f: f.name)
    def test_rule_infinite_past_last_slope(self, f):
        # the argmax lies past n = MAX_TERMS: Q* = +inf, a valid bound
        la = f.log_abs_array(np.array([MAX_TERMS - 1.0, MAX_TERMS]))
        last_slope = la[0] - la[1]
        vals, saturated = index_decay(f).conjugate_at(
            [last_slope - 1e-3, last_slope + 1e-3, 1e3])
        assert np.isfinite(vals[0]) and np.all(vals[1:] == np.inf)
        assert not saturated

    def test_table_exact_past_last_row(self):
        la = np.log([1.0, 0.5, 0.1, 0.02])
        vals, _ = index_decay(table_coefficients(la)).conjugate_at([50.0, 1e6])
        np.testing.assert_array_equal(vals, 3.0 * np.array([50.0, 1e6]) + la[3])

    @pytest.mark.parametrize("f", [exp_coefficients(),
                                   table_coefficients(np.log([1.0, 0.5, 0.1, 0.02]))],
                             ids=["gamma_form", "table"])
    def test_conjugate_at_infinite_y(self, f):
        # Q*(-inf) = -Q(0) at the vertex n = 0, where 0 * -inf is no NaN;
        # Q*(+inf) = +inf; the finite queries keep their bits
        Q = index_decay(f)
        ys = np.array([-np.inf, np.inf, -1e300, -1.0, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = Q.conj(ys)
        minus_q0 = -Q.fn(np.array([0.0]))[0]
        assert got[0] == minus_q0 and np.signbit(got[0]) == np.signbit(minus_q0)
        assert got[1] == np.inf
        np.testing.assert_array_equal(got[2:], Q.conj(ys[2:]))

    def test_single_nonzero_row_refused(self):
        with pytest.raises(InputError):
            index_decay(table_coefficients([-np.inf, 0.0, -np.inf]))


GAMMA_FORM_RULES = ([gamma_order_coefficients(rho, c) for rho in (0.1, 0.5, 1.0, 2.0, 10.0, 50.0)
                     for c in (0.1, 1.0, 10.0)]
                    + [poisson(lam) for lam in (0.1, 1.0, 50.0)])


def _hull_decay(f):
    """Q, Q* and the slopes of a rule from the hull of its rows n <= MAX_TERMS,
    as index_decay builds them for a rule without a gamma_form."""
    ns = np.arange(MAX_TERMS + 1, dtype=float)
    hx, hq, slopes, _ = _hull(ns, -f.log_abs_array(ns))
    assert hx.size == ns.size  # convex rows: every row is a vertex

    def fn(x):
        return np.where((x >= hx[0]) & (x <= hx[-1]), np.interp(x, hx, hq), np.inf)

    def conj(y):
        return np.where(y > slopes[-1], np.inf, _vertex_conjugate(hx, hq, slopes, y)[0])

    return fn, conj, slopes


class TestGammaFormDecay:
    """A rule with a gamma_form builds no hull, with the hull's bits."""

    @staticmethod
    def _check_against_hull(Q, f):
        fn, conj, slopes = _hull_decay(f)
        ys = np.concatenate([np.linspace(slopes[0] - 3.0, slopes[-1] + 1.0, 4001),
                             slopes[::997], slopes[:60], slopes[-2:]])
        assert np.array_equal(Q.conj(ys), conj(ys))
        xs = np.concatenate([np.arange(3001.0), np.linspace(0.0, 3000.0, 7919),
                             [MAX_TERMS, MAX_TERMS + 1.0, -1.0]])
        assert np.array_equal(Q.fn(xs), fn(xs))

    @pytest.mark.parametrize("f", GAMMA_FORM_RULES, ids=lambda f: f"{f.name}:{f.gamma_form}")
    def test_matches_hull(self, f):
        assert f.gamma_form is not None
        self._check_against_hull(index_decay(f), f)

    @pytest.mark.parametrize("form", [(3.7, -20.0), (0.0, 0.0), (1e9, -1e9)])
    def test_wrong_form_matches_hull(self, form):
        # the form only seeds the search; every value comes from the rows
        f = gamma_order_coefficients(2.0, 3.0)
        self._check_against_hull(index_decay(dataclasses.replace(f, gamma_form=form)), f)

    def test_rows_that_are_not_convex_refused(self):
        f = CoefficientSequence("wavy", lambda n: 5.0 * np.sin(n) - np.asarray(n, float) ** 2,
                                gamma_form=(1.0, 0.0))
        with pytest.raises(InputError):
            index_decay(f).fn(np.array([0.0, 10.0]))

    def test_peak_memory(self):
        # no 10^6-row arrays: the rows a bound at v = 4 needs fit in a few MB
        max_function_upper_bound(index_decay(exp_coefficients()), 1.0, eps_points=9)
        for f in (exp_coefficients(), gamma_order_coefficients(2.0),
                  poisson(1.0)):
            tracemalloc.start()
            try:
                max_function_upper_bound(index_decay(f), 4.0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2 ** 20, (f.name, peak)


def _brute_conjugate(rows, ys):
    """max over the rows n <= MAX_TERMS of n y - q(n), one y at a time."""
    ns = np.arange(rows.size, dtype=float)
    return np.array([np.max(ns * y - rows) for y in ys])


def _convex_callables(seed):
    """Seeded convex decays without conj: a lnGamma(x/rho + 1) + b x, c x^p
    (1 < p < 3) and Stirling's x ln x - x."""
    rng = np.random.default_rng(seed)
    a, rho, b = rng.uniform(0.5, 2.0), rng.uniform(0.5, 3.0), rng.uniform(-1.0, 1.0)
    c, p = rng.uniform(0.1, 2.0), rng.uniform(1.0, 3.0)
    return [GrowthFunction("gamma", lambda x: a * gammaln(np.asarray(x, float) / rho + 1.0)
                           + b * np.asarray(x, float), domain_min=0.0),
            GrowthFunction("power", lambda x: c * np.asarray(x, float) ** p, domain_min=0.0),
            dataclasses.replace(stirling_decay(), conj=None)]


class TestIntegerDecay:
    """A decay without conj, read at the integers: the interpolant of its
    rows n <= MAX_TERMS and their exact discrete conjugate."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_conjugate_is_max_over_rows(self, seed):
        rng = np.random.default_rng(seed + 100)
        for Q in _convex_callables(seed):
            rows = Q(np.arange(MAX_TERMS + 1, dtype=float))
            slopes = np.diff(rows)
            ys = np.concatenate([rng.uniform(slopes[0] - 2.0, slopes[-1], 40),
                                 rng.choice(slopes, 8), [slopes[-1] + 1e-9, slopes[-1] + 1.0]])
            got = _integer_decay(Q).conj(ys)
            past = ys > slopes[-1]
            assert np.all(got[past] == np.inf), Q.name
            assert got[~past].tobytes() == _brute_conjugate(rows, ys[~past]).tobytes(), Q.name

    def test_interpolates_the_rows(self):
        Q = _convex_callables(4)[0]
        D = _integer_decay(Q)
        ns = np.arange(3000.0)
        assert D.fn(ns).tobytes() == Q(ns).tobytes()
        xs = np.linspace(-1.0, 50.0, 501)
        np.testing.assert_array_equal(D.fn(xs), np.where(xs < 0.0, np.inf,
                                                         np.interp(xs, ns, Q(ns))))

    def test_infinite_rows_at_both_ends(self):
        # +inf below domain_min = 2.5 and past row 40 (c_n = 0 there): Q* is
        # the max over the finite rows, finite at every y
        Q = GrowthFunction("window", domain_min=2.5,
                           fn=lambda x: np.where(x <= 40.0, (x - 9.0) ** 2 + x, np.inf))
        ns = np.arange(3.0, 41.0)
        ys = np.linspace(-30.0, 200.0, 231)
        got = _integer_decay(Q).conj(ys)
        assert got.tobytes() == np.array([np.max(ns * y - Q(ns)) for y in ys]).tobytes()
        assert np.all(r_sum(Q, v) <= max_function_upper_bound(Q, v, eps_points=19)[0]
                      for v in (-1.0, 2.0, 20.0))

    def test_rows_that_are_not_convex_refused(self):
        # concave rows, and +inf rows between finite ones
        for fn in (np.log1p, lambda x: np.where((x > 5.0) & (x < 9.0), np.inf, x * x)):
            with pytest.raises(InputError, match="not convex"):
                _integer_decay(GrowthFunction("bad", fn, domain_min=0.0)).fn(np.arange(20.0))

    def test_built_rows_seed_the_search(self):
        # once its rows are built, a query reads Q at its seed, at one
        # neighbour and at its three vertices: three calls per conj call
        calls = []
        Q = _convex_callables(5)[0]
        D = _integer_decay(dataclasses.replace(
            Q, fn=lambda x: calls.append(np.size(x)) or Q.fn(x)))
        D.fn(np.arange(2000.0))
        ys = np.diff(Q(np.arange(2000.0)))[[10, 500, 1500]] + 1e-3
        calls.clear()
        D.conj(ys)
        assert len(calls) <= 3


class TestAuxiliarySeries:
    def test_k_sum_geometric(self):
        # decay(n) = n gives the geometric series 1/(1 - e^-eps); k_sum is its ln
        lin = lambda n: np.asarray(n, float)
        for eps in (0.1, 0.3, 0.5, 0.9):
            assert math.exp(k_sum(lin, eps)) == pytest.approx(
                1.0 / (1.0 - math.exp(-eps)), rel=1e-12)

    def test_k_sum_quadratic_oracle(self):
        # sum e^(-n^2/2), direct 64-term reference
        ns = np.arange(64, dtype=float)
        ref = float(np.sum(np.exp(-0.5 * ns ** 2)))
        ln_k = k_sum(lambda n: np.asarray(n, float) ** 2, 0.5)
        assert math.exp(ln_k) == pytest.approx(ref, rel=1e-12)

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
        ln_u = u_sum(lambda n: np.asarray(n, float) ** 2, 0.5)
        assert math.exp(ln_u) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("Q", [quadratic_decay(0.5), index_decay(exp_coefficients())],
                             ids=["quadratic", "index_exp"])
    def test_k_rows_match_fsum(self, Q):
        # log-concave rows: the stop rule leaves a tail below e^-30 of the
        # sum (see entire.log_series), checked against all 10^6 terms
        ns = np.arange(MAX_TERMS, dtype=float)
        q = Q.fn(ns)
        eps = np.array([0.5, 0.05, 0.005])
        for e, ln_k in zip(eps, k_sum(Q.fn, eps)):
            terms = np.exp(-e * q)
            ref = math.log(math.fsum(terms[terms > 0.0]))
            assert abs(ln_k - ref) <= math.exp(-30.0), (e, ln_k, ref)

    def test_eps_batch_matches_scalar_calls(self):
        # one batched K (U) series over an eps array equals, bit for bit, a
        # loop of one-eps calls
        eps = np.arange(1, 40) / 40.0
        for decay in (stirling_decay().fn, quadratic_decay(0.5).fn,
                      lambda n: gammaln(np.asarray(n, float) / 2.0 + 1.0)):
            for fn in (k_sum, u_sum):
                np.testing.assert_array_equal(fn(decay, eps), [fn(decay, e) for e in eps])

    def test_eps_range_enforced(self):
        lin = lambda n: np.asarray(n, float)
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(InputError):
                k_sum(lin, bad)
            with pytest.raises(InputError):
                u_sum(lin, bad)
        with pytest.raises(InputError):
            k_sum(lin, np.array([0.5, 1.0]))

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


# decays and v arrays that one scan covers, each v with its own scan's numbers
BATCHED = [
    (stirling_decay(), [-2.0, 0.0, 0.5, 2.0, 7.0]),
    (quadratic_decay(0.5), [-1.0, 0.5, 3.0]),
    # more v than one scan takes (_V_BLOCK = 64)
    (quadratic_decay(0.5), list(np.linspace(-1.0, 5.0, 70))),
    (index_decay(exp_coefficients()), [-1.0, 0.5, 2.5, 4.0]),
    # Q* = +inf at v = 15, past the rule's last slope: bound +inf, eps* NaN
    (index_decay(gamma_order_coefficients(2.0)), [-0.5, 1.0, 3.0, 15.0]),
    (index_decay(table_coefficients(-np.arange(60.0) ** 1.5)), [-2.0, 1.0, 7.0]),
    # no conj: read at the integers; at v = 7 every y = v/(1-eps) lies past
    # the last slope of the rows n <= MAX_TERMS (n* past MAX_TERMS), so +inf
    (GrowthFunction("order2", lambda n: gammaln(np.asarray(n, float) / 2.0 + 1.0),
                    domain_min=0.0), [-1.0, 1.0, 7.0]),
    # Stirling without its conj: +inf at v = 14 (e^14 > MAX_TERMS)
    (dataclasses.replace(stirling_decay(), conj=None), [-1.0, 2.0, 14.0]),
]
BATCHED_IDS = ["stirling", "quadratic", "quadratic_70v", "index_exp", "index_order2", "table",
               "callable", "stirling_window"]


def _scan_bytes(result):
    """Every number of max_function_upper_bounds' result, as bytes."""
    bounds, reps = result
    return [bounds.tobytes()] + [
        np.array([r.bound, r.eps_star, r.S0]).tobytes() + b"".join(
            getattr(r, name).tobytes() for name in ("eps_grid", "ln_k", "ln_u", "ln_y"))
        for r in reps]


def _series_terms(monkeypatch, Q, vs, keep_level):
    """Terms that the k_sum and the u_sum series of max_function_upper_bounds(Q,
    vs) sum, with their stop levels kept or ignored."""
    from entire_growth import bounds, entire
    terms, caller = {"k_sum": 0, "u_sum": 0}, []

    def series(*args, level=None, **kw):
        out = entire.log_series(*args, level=level if keep_level else None, **kw)
        terms[caller[-1]] += int(np.sum(out[1]))
        return out

    def named(fn):
        def call(*args, **kwargs):
            caller.append(fn.__name__)
            return fn(*args, **kwargs)

        return call

    with monkeypatch.context() as mp:
        mp.setattr(bounds, "log_series", series)
        for fn in (bounds.k_sum, bounds.u_sum):
            mp.setattr(bounds, fn.__name__, named(fn))
        max_function_upper_bounds(Q, vs)
    return terms


def _ignore_level(monkeypatch):
    """Sum every series of bounds in full, its stop level ignored."""
    from entire_growth import bounds, entire
    monkeypatch.setattr(bounds, "log_series",
                        lambda *args, level=None, **kw: entire.log_series(*args, **kw))


class TestZoomLevel:
    """The zoom stages' U rows stop at ln K, where min(ln K, ln U) = ln K
    whether the row stops or not, so no number changes."""

    @pytest.mark.parametrize("Q, vs", BATCHED, ids=BATCHED_IDS)
    def test_bit_for_bit_as_full_rows(self, Q, vs, monkeypatch):
        got = _scan_bytes(max_function_upper_bounds(Q, vs, eps_points=19))
        _ignore_level(monkeypatch)
        assert got == _scan_bytes(max_function_upper_bounds(Q, vs, eps_points=19))

    def test_double_exp_bit_for_bit(self, monkeypatch):
        # the double_exp decay whose U rows took 12 s over 8 v in full
        Q = exp_of_exp(1.9, 5.4).conjugate()
        got = _scan_bytes(max_function_upper_bounds(Q, [1.0, 4.0], eps_points=39))
        _ignore_level(monkeypatch)
        assert got == _scan_bytes(max_function_upper_bounds(Q, [1.0, 4.0], eps_points=39))

    def test_term_counts(self, monkeypatch):
        # index_decay(exp) on configs/all.cfg's v grid: K sums the same
        # terms, U under 0.55 of them
        Q, vs = index_decay(exp_coefficients()), np.linspace(1.0, 4.0, 7)
        full = _series_terms(monkeypatch, Q, vs, keep_level=False)
        cut = _series_terms(monkeypatch, Q, vs, keep_level=True)
        assert full == {"k_sum": 799_744, "u_sum": 720_896}
        assert cut == {"k_sum": 799_744, "u_sum": 359_168}
        assert cut["u_sum"] <= 0.55 * full["u_sum"]


def _scan_digest(Q, vs, eps_points):
    """sha-256 of every number of max_function_upper_bounds(Q, vs)."""
    return hashlib.sha256(b"".join(
        _scan_bytes(max_function_upper_bounds(Q, vs, eps_points=eps_points)))).hexdigest()


class TestScanBits:
    # _scan_digest of each case at 19 and at the default 199 eps.  The two
    # decays without conj ("callable", "stirling_window") were pinned when
    # the scan came to read them at the integers; every other case keeps
    # the bits it had when a capped Q* came to count as +inf
    CASES = dict(zip(BATCHED_IDS, BATCHED),
                 double_exp=(exp_of_exp(1.9, 5.4).conjugate(), [1.0, 4.0]),
                 log_power=(power_log(1.0, 2.0).conjugate(), [1.0, 2.0, 10.0, 50.0]))
    DIGESTS = {
        ("stirling", 19): "18b94af05aadc23b72c8e547625ab4dba9d7b36a0f4e745b0e3023267513f7c4",
        ("stirling", 199): "32c2abcf9cc9aebccadbcc99a32ab41ac3f3a4aa124396bc368ea155805961fb",
        ("quadratic", 19): "182e78d9c638c0495fd5e23ccea809ab98ecc2e87acefe815032d9878b6072f2",
        ("quadratic", 199): "a80f92d04dac4a20c11f73ff72fca325b4cec9c35f212fa40ea694d9623139ca",
        ("quadratic_70v", 19): "8c9a5bfbab3223cda433fcac31ecf5a74262cb60e36886cd21a79a3bf97575ca",
        ("quadratic_70v", 199): "994a5ed48e49cd0c5a0263ed7b5e7dcf729164d582238b90f6e7346856ba2f42",
        ("index_exp", 19): "a2d703ec5ad0f506ac28fb08ec2f70247606e425de9fe334583df8f4395cbd0e",
        ("index_exp", 199): "4091430cec3dd7bccad7cb4503564a21ae895a999fb45327c586f0debc9bedfc",
        ("index_order2", 19): "a83f49a567a2dee4d2a7b037038c74866a96964a81426e24b70aea7e169d9128",
        ("index_order2", 199): "e5768ea3da39a4875013cc005bcbd970a93f20b707c7c7d28f7f673708953635",
        ("table", 19): "f8b8b5d8db0d88e7f8e7b277b7a14d0dc042b80b0522d0a97407aed553304ed9",
        ("table", 199): "ed372d1161dc6095baabbf0f6082a17e9f0ca30b54ddef0cefb0f936a04bfca6",
        ("callable", 19): "53738759bc9825ee3834cd36ef567b9fddad586d0142f40433835a6b6be9de38",
        ("callable", 199): "d158fe04e3699c5ca8c394fd688e1324e0e169cb9c706a03c4e06fbe61116f99",
        ("stirling_window", 19): "06e17c33e5d0e17c6b7e0c0dedc48abf7378a60d5dd79a8030b071b145d5d616",
        ("stirling_window", 199): "bb4b669e85efa9729f2b9a4f90e9e8f6f2331e91010e60bf9f2552103f32d64d",
        ("double_exp", 19): "eda7dd73f0518b4baa3dc87c3d91688426c1e562bf19038685a6dd41a955cc83",
        ("double_exp", 199): "e99b3e80e0b7dd765041cc218311bb1453100265c3a1460c870a559396f5a702",
        ("log_power", 19): "4d5febdebb2a9f74b7f1cee1871e496387769d62bbd3b9bb451f43434afbf81c",
        ("log_power", 199): "71ed545993b7327403896e77927654d052df72f8138c8853ec7fd20c2dd92f0b",
    }

    @pytest.mark.parametrize("case, eps_points", list(DIGESTS),
                             ids=[f"{c}-{e}" for c, e in DIGESTS])
    def test_bits_pinned(self, case, eps_points):
        Q, vs = self.CASES[case]
        assert _scan_digest(Q, vs, eps_points) == self.DIGESTS[case, eps_points]

    def test_every_case_is_pinned(self):
        assert sorted(self.DIGESTS) == sorted(
            (c, e) for c in self.CASES for e in (19, DEFAULT_EPS_POINTS))


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
        assert rep.eps_grid.size == rep.ln_y.size
        np.testing.assert_array_equal(rep.ln_y, np.minimum(rep.ln_k, rep.ln_u))
        assert rep.c_eff == pytest.approx(1.0 / (1.0 - rep.eps_star))
        # the columns are logs: ln K = ln K0 - eps Q*(y), ln U = ln U(eps)
        e, y = rep.eps_grid[0], 1.0 / (1.0 - rep.eps_grid[0])
        assert rep.ln_k[0] == pytest.approx(k_sum(Q.fn, e) - e * math.exp(y), rel=1e-12)
        assert rep.ln_u[0] == pytest.approx(u_sum(Q.fn, e), rel=1e-12)

    def test_grid_resolution_refines(self):
        Q = stirling_decay()
        coarse, _ = max_function_upper_bound(Q, 2.0, eps_points=19)
        fine, _ = max_function_upper_bound(Q, 2.0, eps_points=199)
        assert fine <= coarse + 1e-12

    def test_capped_qstar_counts_as_infinite(self):
        # a user-built Stirling decay, without a closed conjugate, so Q* is
        # that of its rows n <= MAX_TERMS; v = 2 and 7: its argmax
        # e^(v/(1-eps*)) lies inside them
        Q = GrowthFunction("stirling", stirling_decay().fn, domain_min=0.0)
        for v in (2.0, 7.0):
            bound, rep = max_function_upper_bound(Q, v)
            assert r_sum(Q, v) <= bound < math.inf
            assert 0.0 < rep.eps_star < 1.0
        # v = 14: e^14 > 10^6 = MAX_TERMS, so y = v/(1-eps) lies past the
        # rows' last slope at every eps: ln K and the bound are +inf there
        bound, rep = max_function_upper_bound(Q, 14.0, eps_points=9)
        assert bound == rep.bound == math.inf
        assert math.isnan(rep.eps_star) and math.isnan(rep.S0)
        assert np.all(rep.ln_k == np.inf)
        np.testing.assert_array_equal(rep.ln_y, rep.ln_u)
        # the closed form Q*(y) = e^y has no window to cap: a finite bound,
        # above ln M_exp(e^14) = e^14
        bound, _ = max_function_upper_bound(stirling_decay(), 14.0, eps_points=9)
        assert math.exp(14.0) <= bound < math.inf

    def test_no_search_in_scan(self, monkeypatch):
        # a decay without conj is read at the integers: no adaptive search;
        # at v = 7 its argmax lies past MAX_TERMS at every eps, so +inf
        from entire_growth import bounds

        def no_search(*a, **k):
            raise AssertionError("conjugate_of_callable ran")

        monkeypatch.setattr(bounds, "conjugate_of_callable", no_search)
        Q = GrowthFunction("order2", lambda n: gammaln(np.asarray(n, float) / 2.0 + 1.0),
                           domain_min=0.0)
        assert r_sum(Q, 1.0) <= max_function_upper_bound(Q, 1.0)[0] < math.inf
        bound, rep = max_function_upper_bound(Q, 7.0)
        assert bound == math.inf and math.isnan(rep.eps_star)

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
        bound, _ = max_function_upper_bound(Q, v)
        assert ln_m <= ln_r + 1e-12 * (1.0 + abs(ln_r))
        assert ln_r <= bound < math.inf

    @pytest.mark.parametrize("Q, v, golden", [
        (stirling_decay(), 2.0, 10.37967265198181),
        (GrowthFunction("exp_decay", lambda n: gammaln(np.maximum(n, 0.0) + 1.0),
                        domain_min=0.0), 2.5, 13.444256222356106),
    ])
    def test_refinement_not_above_golden_search(self, Q, v, golden):
        # golden: the bound a 24-step golden-section refinement of the same
        # bracket gives; the zoom must not exceed it by more than 1e-12, nor
        # the minimum over the eps grid at all.  The decay without conj is
        # read at the integers: its rows' interpolant and discrete conjugate
        D = Q if Q.conj is not None else _integer_decay(Q)
        bound, rep = max_function_upper_bound(Q, v)
        assert bound <= golden + 1e-12
        qstar, _ = D.conjugate_at(v / (1.0 - rep.eps_grid))
        assert bound <= np.min(rep.ln_y + qstar)
        # bound = ln S0 + Q*(y*), S0 = Y(eps*) = min(K0 e^(-eps* Q*(y*)), U)
        e = rep.eps_star
        q_star = float(D.conjugate_at(v / (1.0 - e))[0][0])
        assert bound == pytest.approx(math.log(rep.S0) + q_star, rel=1e-14)
        assert math.log(rep.S0) == pytest.approx(min(k_sum(D.fn, e) - e * q_star,
                                                     u_sum(D.fn, e)), rel=1e-12)

    # the bounds of the decays without conj when the scan took their Q* from
    # the golden search over the reals.  Read at the integers, Q* is never
    # larger, but U reads the rows' interpolant, which lies above a convex Q
    # between the rows.  At order2 v = -1, where Q*(v/(1-eps)) = 0 either
    # way, that alone moves the bound up: 1.53998 -> 1.56042 (ln R = 0.4697)
    SEARCHED = {("order2", -1.0): 1.5399820318853852, ("order2", 1.0): 9.04020205622913,
                ("order2", 2.5): 152.7868514613511, ("order2", 3.5): 1130.5733899575218,
                ("order2", 4.0): 3087.5788744822994, ("stirling", 0.0): 1.8867417627424539,
                ("stirling", 2.0): 10.327167124510762, ("stirling", 7.0): 1134.3116651593334,
                ("exp_decay", 2.5): 13.415312129131364}
    ROSE = {("order2", -1.0): 1.5604241220046116}

    @pytest.mark.parametrize("case", list(SEARCHED), ids=[f"{c}-{v}" for c, v in SEARCHED])
    def test_not_above_the_search(self, case):
        name, v = case
        Q = {"order2": GrowthFunction("order2", domain_min=0.0,
                                      fn=lambda n: gammaln(np.asarray(n, float) / 2.0 + 1.0)),
             "stirling": dataclasses.replace(stirling_decay(), conj=None),
             "exp_decay": GrowthFunction("exp_decay", domain_min=0.0,
                                         fn=lambda n: gammaln(np.maximum(n, 0.0) + 1.0))}[name]
        bound, _ = max_function_upper_bound(Q, v)
        assert r_sum(Q, v) <= bound
        if case in self.ROSE:
            assert bound == self.ROSE[case]
        else:
            assert bound <= self.SEARCHED[case]

    @pytest.mark.parametrize("v", [-1.0, 0.0, 1.0])
    def test_positive_decay(self, v):
        # min Q = 4 > 0 and Q*(y) < 0 near y = 0: the K branch is
        # ln K0 + (1 - eps) Q*(y), valid for either sign of Q*
        Q = GrowthFunction("stirling+5", lambda n: stirling_decay().fn(n) + 5.0,
                           domain_min=0.0)
        bound, rep = max_function_upper_bound(Q, v, eps_points=39)
        assert r_sum(Q, v) <= bound
        # ln K is finite wherever Q* of the rows n <= MAX_TERMS is, +inf past
        # their last slope ln MAX_TERMS (at v = 1, the last two eps)
        qstar = _integer_decay(Q).conj(v / (1.0 - rep.eps_grid))
        np.testing.assert_array_equal(np.isfinite(rep.ln_k), np.isfinite(qstar))
        assert np.sum(qstar == np.inf) == (2 if v == 1.0 else 0)

    def test_conjugate_decays(self):
        # the CLI decays of log_power_growth and double_exp: conjugates of
        # the growth profiles, whose own conjugates are closed forms
        for v in (1.0, 2.0, 10.0, 50.0):
            bound, _ = max_function_upper_bound(power_log(1.0, 2.0).conjugate(), v)
            assert r_sum(quadratic_decay(0.25), v) <= bound
        Q = exp_of_exp().conjugate()
        for v in (0.5, 1.0, 2.0):
            assert r_sum(Q, v) <= max_function_upper_bound(Q, v, eps_points=39)[0]

    @pytest.mark.parametrize("Q, vs", BATCHED, ids=BATCHED_IDS)
    def test_batched_equals_loop(self, Q, vs):
        # one scan over every v gives each v the numbers of its own scan
        bounds, reps = max_function_upper_bounds(Q, vs, eps_points=19)
        assert isinstance(bounds, np.ndarray) and bounds.shape == (len(vs),)
        assert len(reps) == len(vs)
        for v, b, rep in zip(vs, bounds, reps):
            want_b, want = max_function_upper_bound(Q, v, eps_points=19)
            got = np.array([b, rep.bound, rep.eps_star, rep.S0])
            assert got.tobytes() == np.array([want_b, want.bound, want.eps_star,
                                              want.S0]).tobytes(), v
            for name in ("eps_grid", "ln_k", "ln_u", "ln_y"):
                assert getattr(rep, name).tobytes() == getattr(want, name).tobytes()
            if Q.conj is None and v == vs[-1]:
                # the Q* window caps at every eps: +inf, never too low
                assert b == math.inf and math.isnan(rep.eps_star) and math.isnan(rep.S0)
            elif b < math.inf:
                assert r_sum(Q, v) <= b

    def test_batched_no_finite_bound_at_one_v(self):
        # Q(x) = +inf on (0, 1) makes U infinite at every eps; K is finite
        # where Q*(v/(1-eps)) = 0, i.e. v/(1-eps) <= 1, so v = 2 has no
        # finite Y: the batch raises what the single call at v = 2 raises
        Q = GrowthFunction("gapped_linear", domain_min=0.0,
                           fn=lambda n: np.where((n > 0) & (n < 1), np.inf, n),
                           conj=lambda y: np.where(y > 1.0, np.inf, 0.0))
        assert math.isfinite(max_function_upper_bound(Q, 0.5, eps_points=19)[0])
        with pytest.raises(NoFiniteBoundError) as single:
            max_function_upper_bound(Q, 2.0, eps_points=19)
        with pytest.raises(NoFiniteBoundError) as batch:
            max_function_upper_bounds(Q, [0.5, -1.0, 2.0, 0.25], eps_points=19)
        assert str(batch.value) == str(single.value)

    def test_batched_input_checked(self):
        for bad in ([], [[1.0, 2.0]], [1.0, np.nan]):
            with pytest.raises(InputError):
                max_function_upper_bounds(stirling_decay(), bad)
        for bad in (0, -3):
            with pytest.raises(InputError, match="eps_points"):
                max_function_upper_bounds(stirling_decay(), [1.0], eps_points=bad)

    def test_hypothesis_violation_rejected(self):
        # coefficients decaying slower than exp(-Q) must be refused
        Q = quadratic_decay(1.0)
        with pytest.raises(InputError):
            max_function_upper_bound(Q, 1.0, coeffs=exp_coefficients())

    def test_no_finite_bound(self):
        # Q = 0: Q*(y) = +inf for y > 0, so K is +inf at every eps, and U
        # sums exp(0) forever
        Q = GrowthFunction("zero", lambda n: np.zeros(np.shape(n)), domain_min=0.0)
        with pytest.raises(NoFiniteBoundError):
            max_function_upper_bound(Q, 0.5, eps_points=19)
        # a logarithmic decay is concave, against the bound's hypothesis
        Q = GrowthFunction("log_decay",
                           lambda n: np.log1p(np.asarray(n, float)),
                           domain_min=0.0)
        with pytest.raises(InputError, match="not convex"):
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_on_both_sides_is_silent(self):
        # Lambda(v) and Lambda(2v) both overflow at v = 7, 8: inf/inf is NaN,
        # with no RuntimeWarning, and the ratio is unbounded
        rep = gamma_condition(exp_of_exp(), 0.5, np.linspace(1.0, 8.0, 8))
        assert np.all(np.isnan(rep.ratios[-2:])) and np.all(np.isinf(rep.ratios[3:6]))
        assert rep.gamma_estimate == math.inf and not rep.holds


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

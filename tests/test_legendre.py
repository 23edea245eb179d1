"""Conjugation engine tests: merge vs brute force, envelope identities."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from entire_growth import legendre
from entire_growth.bounds import power_log, stirling_decay
from entire_growth.entire import MAX_TERMS, table_coefficients
from entire_growth.errors import (
    DomainDegenerateError,
    InputError,
    UnsupportedDimensionError,
)
from entire_growth.legendre import (
    SampledFunction1D,
    SampledFunctionND,
    _golden_max,
    _lower_hull_indices,
    biconjugate_1d,
    conjugate_1d,
    conjugate_1d_bruteforce,
    conjugate_nd,
    conjugate_of_callable,
    conjugate_point,
)


def random_sampled(rng, convex=False, max_samples=512):
    n = rng.integers(3, max_samples)
    xs = np.sort(rng.uniform(-10, 10, n))
    xs = xs[np.concatenate(([True], np.diff(xs) > 1e-9))]
    if xs.size < 3:
        xs = np.linspace(-1, 1, 5)
    if convex:
        slopes = np.sort(rng.normal(0, 3, xs.size - 1))
        gs = np.concatenate(([0.0], np.cumsum(slopes * np.diff(xs))))
        gs += rng.normal(0, 2)
    else:
        gs = rng.normal(0, 5, xs.size)
    return SampledFunction1D(xs, gs)


class TestConjugate1D:
    def test_matches_bruteforce_exactly(self):
        rng = np.random.default_rng(7)
        ys = np.linspace(-20, 20, 101)
        for trial in range(60):
            g = random_sampled(rng, convex=bool(trial % 2))
            fast = conjugate_1d(g, ys)
            slow = conjugate_1d_bruteforce(g, ys)
            np.testing.assert_array_equal(fast.gstars, slow.gstars)
            np.testing.assert_array_equal(fast.argmax_xs, slow.argmax_xs)

    def test_quadratic_closed_form(self):
        # g = x^2/2 has g* = y^2/2
        xs = np.linspace(-50, 50, 20001)
        g = SampledFunction1D(xs, 0.5 * xs ** 2)
        ys = np.linspace(-5, 5, 41)
        table = conjugate_1d(g, ys)
        np.testing.assert_allclose(table.gstars, 0.5 * ys ** 2, atol=1e-4)

    def test_conjugate_always_convex(self):
        rng = np.random.default_rng(11)
        ys = np.linspace(-8, 8, 65)
        for _ in range(20):
            t = conjugate_1d(random_sampled(rng), ys)
            d2 = np.diff(np.diff(t.gstars) / np.diff(ys))
            assert np.min(d2) >= -1e-12 * max(np.max(np.abs(t.gstars)), 1.0)

    def test_order_reversal(self):
        # g <= h pointwise implies g* >= h*
        xs = np.linspace(-5, 5, 301)
        g = SampledFunction1D(xs, xs ** 2)
        h = SampledFunction1D(xs, xs ** 2 + 1.0 + np.abs(xs))
        ys = np.linspace(-3, 3, 31)
        assert np.all(conjugate_1d(g, ys).gstars >= conjugate_1d(h, ys).gstars)

    def test_shift_identity(self):
        # (g + c)* = g* - c, exactly in floating point
        rng = np.random.default_rng(3)
        g = random_sampled(rng, convex=True)
        shifted = SampledFunction1D(g.xs, g.gs + 2.0)
        ys = np.linspace(-4, 4, 17)
        a = conjugate_1d(g, ys).gstars
        b = conjugate_1d(shifted, ys).gstars
        np.testing.assert_allclose(b, a - 2.0, rtol=0, atol=1e-12)

    def test_infinite_samples_skipped(self):
        xs = np.array([-1.0, 0.0, 1.0, 2.0])
        gs = np.array([np.inf, 0.0, 1.0, np.inf])
        table = conjugate_1d(SampledFunction1D(xs, gs), [2.0])
        assert table.gstars[0] == 2.0 * 1.0 - 1.0

    def test_unsorted_and_repeated_queries(self):
        # elementwise in ys: any order, repeats allowed, same values as sorted
        rng = np.random.default_rng(23)
        ys = np.linspace(-12, 12, 97)
        shuffled = np.concatenate([rng.permutation(ys), ys[::7], ys[::-11]])
        for trial in range(20):
            g = random_sampled(rng, convex=bool(trial % 2))
            ref = conjugate_1d(g, ys)
            pos = np.searchsorted(ys, shuffled)
            got = conjugate_1d(g, shuffled)
            np.testing.assert_array_equal(got.gstars, ref.gstars[pos])
            np.testing.assert_array_equal(got.argmax_xs, ref.argmax_xs[pos])
            env = biconjugate_1d(g, g.xs)
            pos = rng.permutation(np.arange(g.xs.size).repeat(2))
            np.testing.assert_array_equal(biconjugate_1d(g, g.xs[pos]).gstars,
                                          env.gstars[pos])

    def test_near_collinear_edge_slopes(self):
        # a steep line plus a 1e-12 bend: along the hull the values x*y - g(x)
        # differ by little more than rounding, and each query sits on an edge
        # slope; a walk from vertex to vertex can stop short there
        xs = np.linspace(-10, 10, 1000)
        for offset in (0.0, 7.3):
            gs = 100.0 * xs + offset + 1e-12 * xs ** 2
            g = SampledFunction1D(xs, gs)
            hull = _lower_hull_indices(xs, gs)
            ys = np.unique(np.diff(gs[hull]) / np.diff(xs[hull]))
            fast = conjugate_1d(g, ys).gstars
            slow = conjugate_1d_bruteforce(g, ys).gstars
            assert np.all(fast <= slow)
            assert np.all(slow - fast <= 1e-13 * (1.0 + np.abs(slow)))

    def test_argmax_tie_smallest_x(self):
        # flat function: every x ties at y=0; merge must pick the smallest
        g = SampledFunction1D(np.linspace(-2, 2, 9), np.zeros(9))
        t = conjugate_1d(g, [0.0])
        assert t.argmax_xs[0] == -2.0
        s = conjugate_1d_bruteforce(g, [0.0])
        assert s.argmax_xs[0] == -2.0


def _hull_by_merge(xs, gs):
    """The monotone-chain merge, pop by pop: the reference for the hull."""
    hull = []
    for i in np.flatnonzero(np.isfinite(gs)):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if (gs[b] - gs[a]) * (xs[i] - xs[b]) > (gs[i] - gs[b]) * (xs[b] - xs[a]):
                hull.pop()
            else:
                break
        hull.append(i)
    return hull


class TestLowerHull:
    @pytest.mark.parametrize("kind", ["convex", "collinear", "nonconvex", "gapped",
                                      "spiked"])
    def test_matches_merge(self, kind):
        # the vectorized passes and the merge give the same indices
        rng = np.random.default_rng(11)
        for _ in range(25):
            g = random_sampled(rng, convex=kind != "nonconvex")
            xs, gs = g.xs, g.gs.copy()
            if kind == "collinear":
                xs = np.arange(xs.size, dtype=float)
                gs = 3.0 * xs - 1.0
            if kind == "gapped":
                gs[rng.random(gs.size) < 0.3] = np.inf
            if kind == "spiked":  # a convex run with spikes, each popped in a pass
                spikes = rng.random(gs.size) < 0.2
                gs[spikes] += rng.exponential(5.0, np.count_nonzero(spikes))
            np.testing.assert_array_equal(_lower_hull_indices(xs, gs),
                                          _hull_by_merge(xs, gs))

    def test_flat_run_then_deep_drop(self, monkeypatch):
        # each pass pops one point only, so the budget (256 visits per
        # point) runs out before the 2000 points do and the merge finishes
        from entire_growth import legendre
        merges = []
        merge = legendre._hull_by_merge
        monkeypatch.setattr(legendre, "_hull_by_merge",
                            lambda *a: merges.append(1) or merge(*a))
        xs = np.arange(2000, dtype=float)
        gs = np.zeros(2000)
        gs[-1] = -1e6
        np.testing.assert_array_equal(_lower_hull_indices(xs, gs),
                                      _hull_by_merge(xs, gs))
        assert merges

    def test_rows_match_merge_per_row(self):
        # one labelled call hulls every row as the merge does row by row:
        # convex, non-convex and gapped rows, and rows with 0 or 1 finite point
        rng = np.random.default_rng(17)
        xs, gs, rows = [], [], []
        for r in range(40):
            g = random_sampled(rng, convex=bool(r % 3 == 0), max_samples=64)
            row_gs = g.gs.copy()
            if r % 3 == 2:
                row_gs[rng.random(row_gs.size) < 0.4] = np.inf
            if r % 7 == 4:
                row_gs[:] = np.inf
            if r % 7 == 5:
                row_gs[1:] = np.inf
            xs.append(g.xs)
            gs.append(row_gs)
            rows.append(np.full(g.xs.size, r))
        expect, offset = [], 0
        for x, g in zip(xs, gs):
            expect.extend(offset + i for i in _hull_by_merge(x, g))
            offset += x.size
        xs, gs, rows = (np.concatenate(a) for a in (xs, gs, rows))
        np.testing.assert_array_equal(_lower_hull_indices(xs, gs, rows), expect)


class TestValidation:
    def test_rejects_non_monotone_grid(self):
        with pytest.raises(InputError):
            SampledFunction1D(np.array([0.0, 2.0, 1.0]), np.zeros(3))

    def test_rejects_neg_inf(self):
        with pytest.raises(InputError):
            SampledFunction1D(np.array([0.0, 1.0, 2.0]),
                              np.array([0.0, -np.inf, 1.0]))

    def test_degenerate_domain(self):
        with pytest.raises(DomainDegenerateError):
            SampledFunction1D(np.array([0.0, 1.0, 2.0]),
                              np.array([np.inf, 0.0, np.inf]))


def _biconjugate_by_double_conjugation(g, xs_out):
    """The conjugate on the hull's distinct edge slopes, then the conjugate
    of that: exact for the sampled envelope, and the reference for
    biconjugate_1d.  Returns the values and the maximizing slopes."""
    hx, hg, slopes = legendre._hull(g.xs, g.gs)
    ys = np.unique(slopes)
    gstar, _ = legendre._vertex_conjugate(hx, hg, slopes, ys)
    hy, hs, breaks = legendre._hull(ys, gstar)
    vals, k = legendre._vertex_conjugate(hy, hs, breaks, xs_out)
    return vals, hy[k]


class TestBiconjugate:
    def test_matches_double_conjugation(self):
        # the envelope read off the hull's edges: g at every hull vertex,
        # bit for bit; the double conjugation's value to a few rounding
        # errors elsewhere, also on the linear extension past both ends;
        # argmax_xs the slope of the edge spanning x, the left one at a
        # vertex, with the first and last edge outside the hull
        eps = 2.0 ** -52
        for seed in range(120):
            rng = np.random.default_rng(seed)
            g = random_sampled(rng, convex=bool(seed % 2))
            if seed % 4 == 3:  # +inf gaps, at least two finite samples left
                gs = g.gs.copy()
                gs[1:-1][rng.random(gs.size - 2) < 0.3] = np.inf
                g = SampledFunction1D(g.xs, gs)
            idx = _hull_by_merge(g.xs, g.gs)
            hx, hg = g.xs[idx], g.gs[idx]
            slopes = np.diff(hg) / np.diff(hx)
            xs = np.concatenate([g.xs, rng.uniform(g.xs[0] - 5.0, g.xs[-1] + 5.0, 200)])
            env = biconjugate_1d(g, xs)
            np.testing.assert_array_equal(biconjugate_1d(g, hx).gstars, hg)
            ref, _ = _biconjugate_by_double_conjugation(g, xs)
            tol = 4.0 * eps * (np.abs(xs) * np.max(np.abs(slopes)) + np.abs(ref) + 1.0)
            assert np.all(np.abs(env.gstars - ref) <= tol), seed
            edge = np.count_nonzero(hx[None, 1:-1] < xs[:, None], axis=1)
            np.testing.assert_array_equal(env.argmax_xs, slopes[edge])

    def test_hull_built_once(self, monkeypatch):
        # two conjugates and a biconjugate of one g share its hull; a second
        # g on the same arrays builds its own
        calls = []
        build = legendre._lower_hull_indices
        monkeypatch.setattr(legendre, "_lower_hull_indices",
                            lambda *a: calls.append(1) or build(*a))
        xs = np.linspace(-3.0, 3.0, 101)
        gs = np.abs(xs) ** 1.5
        g = SampledFunction1D(xs, gs)
        conjugate_1d(g, [0.5])
        conjugate_1d(g, [-1.0, 2.0])
        biconjugate_1d(g, xs)
        assert len(calls) == 1
        conjugate_1d(SampledFunction1D(xs, gs), [0.5])
        assert len(calls) == 2

    def test_convex_fixed_point(self):
        # Fenchel-Moreau: g** = g for convex g, here exact on hull vertices
        rng = np.random.default_rng(5)
        for _ in range(10):
            g = random_sampled(rng, convex=True, max_samples=64)
            env = biconjugate_1d(g, g.xs)
            np.testing.assert_allclose(env.gstars, g.gs, rtol=0, atol=1e-9)

    def test_envelope_below_samples(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            g = random_sampled(rng, convex=False, max_samples=64)
            env = biconjugate_1d(g, g.xs)
            finite = np.isfinite(g.gs)
            assert np.all(env.gstars[finite] <= g.gs[finite] + 1e-9)

    def test_double_well_envelope(self):
        xs = np.linspace(-2, 2, 401)
        g = SampledFunction1D(xs, (xs ** 2 - 1.0) ** 2)
        env = biconjugate_1d(g, xs)
        # envelope is 0 on [-1, 1], equals g outside
        inner = np.abs(xs) <= 1.0
        assert np.max(np.abs(env.gstars[inner])) < 1e-4
        np.testing.assert_allclose(env.gstars[~inner], g.gs[~inner], atol=1e-4)

    def test_quadratic_refinement_ratio(self):
        # discretization error of the envelope drops ~h^2 when h halves
        def err(num):
            xs = np.linspace(-3, 3, num)
            g = SampledFunction1D(xs, 0.5 * xs ** 2)
            q = np.linspace(-2.5, 2.5, 41)
            env = biconjugate_1d(g, q)
            return float(np.max(np.abs(env.gstars - 0.5 * q ** 2)))

        e1, e2 = err(101), err(201)
        assert e1 / e2 >= 3.5


class TestAdaptiveConjugate:
    def test_exp_closed_form(self):
        # (e^x)* = y ln y - y for y > 0
        ys = np.array([0.5, 1.0, 2.0, 5.0, 20.0, 100.0])
        table = conjugate_of_callable(np.exp, ys)
        expect = ys * np.log(ys) - ys
        np.testing.assert_allclose(table.gstars, expect, rtol=1e-10, atol=1e-10)
        assert not table.window_saturated

    def test_quadratic_closed_form(self):
        cp = conjugate_point(lambda x: 0.5 * np.asarray(x) ** 2, 3.0)
        assert cp.value == pytest.approx(4.5, abs=1e-10)
        assert cp.argmax == pytest.approx(3.0, abs=1e-6)

    def test_saturation_flag(self):
        # linear fn: argmax runs off to the cap for y above the slope
        cp = conjugate_point(lambda x: 2.0 * np.asarray(x, float), 3.0)
        assert cp.saturated
        # Stirling decay at y = 7: argmax e^7 > 700 lies past the cap
        stirling = lambda n: np.where(n > 0, n * np.log(np.maximum(n, 1e-300)) - n, 0.0)
        assert conjugate_point(stirling, 7.0, x_min=0.0).saturated
        # v^2 at n = 2000: argmax n/2 = 1000 lies past the cap
        assert conjugate_point(lambda v: np.asarray(v, float) ** 2, 2000.0).saturated

    def test_supremum_at_infinity_not_flagged(self):
        # sup_x -e^x = 0 is approached only as x -> -inf: nothing is lost at the cap
        cp = conjugate_point(np.exp, 0.0)
        assert not cp.saturated
        assert cp.value == pytest.approx(0.0, abs=1e-300)

    def test_x_min_pins_left_edge(self):
        # sup over x >= 0 of x*y - x^2 is 0 for y <= 0
        cp = conjugate_point(lambda x: np.asarray(x, float) ** 2, -1.0, x_min=0.0)
        assert cp.value == pytest.approx(0.0, abs=1e-12)

    def test_argmax_past_log_cap_on_index_domain(self):
        # Stirling decay at y = 7: argmax e^7 ~ 1097; the window expands to
        # the index cap and one golden search finds Q*(7) = e^7
        calls = []

        def stirling(n):
            calls.append(1)
            n = np.asarray(n, dtype=float)
            return np.where(n > 0, n * np.log(np.maximum(n, 1e-300)) - n, 0.0)

        t = conjugate_of_callable(stirling, [7.0], x_min=0.0, hard_cap=MAX_TERMS)
        assert t.gstars[0] == pytest.approx(math.exp(7.0), rel=1e-12)
        assert t.argmax_xs[0] == pytest.approx(math.exp(7.0), rel=1e-6)
        assert not t.window_saturated
        assert len(calls) <= 300

    def test_one_golden_search_per_call(self, monkeypatch):
        from entire_growth import legendre
        searches = []
        golden = legendre._golden_max
        monkeypatch.setattr(legendre, "_golden_max",
                            lambda *a: searches.append(1) or golden(*a))
        ys = np.array([0.0, 0.5, 3.0, 50.0, 600.0])
        t = conjugate_of_callable(lambda x: np.asarray(x, float) ** 2, ys)
        np.testing.assert_allclose(t.gstars, ys ** 2 / 4.0, rtol=1e-12, atol=1e-12)
        assert len(searches) == 1

    def test_unsorted_query_grid(self):
        ys = np.array([5.0, 1.0, 3.0])
        t = conjugate_of_callable(np.exp, ys)
        np.testing.assert_allclose(t.gstars, ys * np.log(ys) - ys, rtol=1e-9)


def golden_120(h, lo, hi):
    """Golden-section search that always runs its 120 steps."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    c, d = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
    hc, hd = h(c), h(d)
    for _ in range(120):
        left = hc >= hd
        hi, lo = np.where(left, d, hi), np.where(left, lo, c)
        c, d = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
        hc, hd = h(c), h(d)
    mid = 0.5 * (lo + hi)
    return mid, h(mid)


class TestGoldenMax:
    # h takes query rows on its last axis: golden_120 passes one probe,
    # shape (4,), and _golden_max a stack of probes, shape (k, 4)
    @pytest.mark.parametrize("h, lo, hi", [
        # flat top on [-1, 1]: ties keep the smaller x
        (lambda x: -np.maximum(np.abs(x) - 1.0, 0.0),
         [-5.0, -3.0, -0.5, -700.0], [5.0, 0.5, 4.0, 700.0]),
        # still rising at the cap 700 in the last two rows
        (lambda x: np.array([3.0, 10.0, 2000.0, 1e6]) * x - x * x,
         [0.0, 0.0, 0.0, 0.0], [700.0, 700.0, 700.0, 700.0])],
        ids=["flat_top", "bracket_at_cap"])
    def test_stops_at_fixed_point_with_120_step_bits(self, h, lo, hi):
        calls = []
        arg, val = _golden_max(lambda x: calls.append(1) or h(x), lo, hi)
        ref_arg, ref_val = golden_120(h, lo, hi)
        assert arg.tobytes() == ref_arg.tobytes() and val.tobytes() == ref_val.tobytes()
        # one call per step (at most 120), on both probes, and one on the
        # midpoint
        assert len(calls) <= 120 + 1
        # one row at a time gives the same bits as the batch
        for i in range(len(lo)):
            one = _golden_max(lambda x: h(np.repeat(x, 4, axis=1))[:, i:i + 1],
                              lo[i:i + 1], hi[i:i + 1])
            assert one[0].tobytes() == arg[i:i + 1].tobytes()


def _table_profile(seed=2203, size=300):
    """growth_of a seeded log-concave table of ln|c_n|, n < size: the
    profile of the CLI's custom_coeff_csv family."""
    from entire_growth.multivar import growth_of
    rng = np.random.default_rng(seed)
    rho, s = rng.uniform(1.2, 2.5), rng.uniform(0.0, 1.0)
    ns = np.arange(size, dtype=float)
    bend = np.concatenate([[0.0], np.cumsum(np.cumsum(rng.exponential(1e-3, size - 1)))])
    return growth_of(table_coefficients(-(gammaln(ns / rho + 1.0) + s * ns + bend)))


def _search_cases():
    """name -> (fn, ys, keyword arguments) of conjugate_of_callable; each
    case has queries whose window saturates and queries whose does not."""
    return {
        # a 3 x 13 query array: the search is elementwise in ys of any shape
        "exp": (np.exp,
                np.concatenate(([-1.0, 0.0], np.geomspace(1e-3, 1e305, 37))).reshape(3, 13), {}),
        "square": (lambda x: np.asarray(x, float) ** 2, np.linspace(-1500.0, 1500.0, 41), {}),
        "stirling": (stirling_decay().fn, np.linspace(-1.0, 14.5, 41),
                     dict(x_min=0.0, hard_cap=MAX_TERMS)),
        "table": (_table_profile().fn, np.append(np.arange(1.0, 11.0), [150.0, 400.0]), {}),
        "power_log": (power_log(1.0, 2.0).fn, np.arange(1.0, 2001.0), {}),
    }


def _search_digest(table):
    return hashlib.sha256(table.gstars.tobytes() + table.argmax_xs.tobytes()
                          + table.saturated.tobytes()).hexdigest()


class TestAdaptiveSearchBits:
    # sha-256 of (gstars, argmax_xs, saturated) per case, taken before the
    # search evaluated both golden probes in one call: a speed edit to the
    # search must keep every bit
    DIGESTS = {
        "exp": "3b0b8980c7bfc082de5c4d590df9d9d4140f4fad0255b79502fd9d32ba90c3f2",
        "square": "c02fdb0c0913a785a6ac2b24abc3edee9b8a3fac5358ca6e6122281f7604d901",
        "stirling": "08888cd8142cbf217bceadcad1f6ee82dd9780b89379e914e9e186d0987a77bf",
        "table": "7f0d2413a2a6c9da00a8a8ac8c3882fe76f36114f7346cfbb118fbf926c1b4fe",
        "power_log": "df2a08b39ea98d4293825b6e2225c13858661354e7c0e003599dd1a5033d2b4d",
    }

    @pytest.mark.parametrize("case", list(DIGESTS))
    def test_bits_pinned_one_call_per_step(self, case, monkeypatch):
        fn, ys, kwargs = _search_cases()[case]
        sizes = []
        search_from = []
        golden = legendre._golden_max
        monkeypatch.setattr(legendre, "_golden_max",
                            lambda *a: search_from.append(len(sizes)) or golden(*a))
        t = conjugate_of_callable(lambda x: sizes.append(np.size(x)) or fn(x), ys, **kwargs)
        assert _search_digest(t) == self.DIGESTS[case]
        assert t.window_saturated
        # one call per window-expansion step, on the edge and inner probes
        # of each free side; then one per golden step, on both probes, and
        # one on the final midpoint
        m, sides = ys.size, 1 if "x_min" in kwargs else 2
        expand, search = sizes[:search_from[0]], sizes[search_from[0]:]
        assert expand and set(expand) == {2 * sides * m}
        assert search[:-1] == [2 * m] * (len(search) - 1) and search[-1] == m
        assert len(search) <= 120 + 1


def _kernel_sample(kind, size, seed=4099):
    """A sampled function and queries shaped like the bench's: 1/2 x^2 or a
    noisy a x^2 + c |x|^1.5 on [-L, L], queries on 1.1 times the window."""
    rng = np.random.default_rng([seed, size])
    half = rng.uniform(4.0, 8.0)
    xs = np.linspace(-half, half, size)
    if kind == "half_square":
        gs = 0.5 * xs ** 2
    else:
        a, c = rng.uniform(0.2, 2.0), rng.uniform(-1.0, 1.0)
        gs = a * xs ** 2 + c * np.abs(xs) ** 1.5 + rng.normal(0.0, 0.05 * a, size)
    return SampledFunction1D(xs, gs), np.linspace(1.1 * xs[0], 1.1 * xs[-1], size)


class TestConjugate1DBits:
    # sha-256 of (gstars, argmax_xs) per case, taken before the hull was
    # kept on the sampled function: caching it must move no conjugate bit
    DIGESTS = {
        ("half_square", 1000): "3e9e3f450a1c7e260b84d03c2dfe04429446d859913c35b1ace5ee5a9b80f0f3",
        ("half_square", 10000): "bc36e0f357b560f723ba1468a41c24fde1b0fa29a6890a166eaf09db81e347db",
        ("half_square", 100000): "4404381171bd67527527e8804363cf5e4e2b3085b5641caa75ce73ff790d7b4f",
        ("noisy", 1000): "cfdaf4db03579307313d4e48d441e1c1526fa7d57a3e6f883f6261296904132a",
        ("noisy", 10000): "c988a030e689bbd842c5e3656f7cc81ba40b5f92b25c01f45f09e15f9dd9f7f3",
        ("noisy", 100000): "f7aa70bed777626e9bf407ac35186ad39a30c496ca7b47e268720ae8fa896459",
    }

    @pytest.mark.parametrize("kind,size", list(DIGESTS))
    def test_bits_pinned(self, kind, size):
        g, ys = _kernel_sample(kind, size)
        for _ in range(2):  # the hull's first build, then its cached copy
            t = conjugate_1d(g, ys)
            digest = hashlib.sha256(t.gstars.tobytes() + t.argmax_xs.tobytes()).hexdigest()
            assert digest == self.DIGESTS[kind, size]


class TestConjugateND:
    def test_separable_matches_sum(self):
        xs = np.linspace(-4, 4, 81)
        part = SampledFunction1D(xs, 0.5 * xs ** 2)
        g = SampledFunctionND.from_separable([part, part])
        q = np.linspace(-2, 2, 9)
        res = conjugate_nd(g, [q, q])
        t1 = conjugate_1d(part, q).gstars
        np.testing.assert_allclose(res.values, t1[:, None] + t1[None, :],
                                   rtol=0, atol=1e-12)

    def test_bruteforce_consistency(self):
        rng = np.random.default_rng(21)
        xs = np.linspace(-2, 2, 17)
        vals = rng.normal(0, 1, (17, 17))
        g = SampledFunctionND([xs, xs], vals)
        q = np.linspace(-1, 1, 5)
        res = conjugate_nd(g, [q, q])
        for i, yi in enumerate(q):
            for j, yj in enumerate(q):
                ref = np.max(xs[:, None] * yi + xs[None, :] * yj - vals)
                assert res.values[i, j] == pytest.approx(ref, abs=1e-12)

    def test_dimension_cap(self):
        xs = np.linspace(0, 1, 3)
        with pytest.raises(UnsupportedDimensionError):
            SampledFunctionND([xs] * 4, np.zeros((3, 3, 3, 3)))

    def test_three_dimensions_at_scale(self):
        # 64^3 non-separable samples with +inf gaps and 16^3 queries, past
        # what a product-grid brute force can afford; 50 queries checked
        rng = np.random.default_rng(29)
        xs = np.linspace(-3, 3, 64)
        vals = rng.normal(0, 4, (64,) * 3)
        vals[rng.random(vals.shape) < 0.2] = np.inf
        q = np.linspace(-2, 2, 16)
        res = conjugate_nd(SampledFunctionND([xs] * 3, vals), [q] * 3).values
        mesh = np.meshgrid(xs, xs, xs, indexing="ij")
        for i, j, k in rng.integers(0, 16, (50, 3)):
            ref = np.max(mesh[0] * q[i] + mesh[1] * q[j] + mesh[2] * q[k] - vals)
            assert abs(res[i, j, k] - ref) <= 1e-12 * (1.0 + abs(ref))

    def test_separable_three_dimensions(self):
        rng = np.random.default_rng(31)
        parts = [random_sampled(rng, convex=bool(a % 2), max_samples=40) for a in range(3)]
        qs = [np.linspace(-3, 3, 7), np.linspace(-1, 2, 5), np.linspace(0, 4, 6)]
        res = conjugate_nd(SampledFunctionND.from_separable(parts), qs).values
        t = [conjugate_1d(p, q).gstars for p, q in zip(parts, qs)]
        expect = t[0][:, None, None] + t[1][None, :, None] + t[2][None, None, :]
        np.testing.assert_allclose(res, expect, rtol=1e-12, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=3, max_size=40, unique=True),
       st.floats(-10, 10))
def test_conjugate_touches_young(values, y):
    """g*(y) >= x*y - g(x) at every sample, with equality at the argmax."""
    xs = np.sort(np.asarray(values))
    if np.min(np.diff(xs)) < 1e-6:
        return
    gs = np.abs(xs) ** 1.5
    g = SampledFunction1D(xs, gs)
    t = conjugate_1d(g, [y])
    assert np.all(t.gstars[0] >= xs * y - gs - 1e-12 * max(1.0, abs(t.gstars[0])))
    k = int(np.argmin(np.abs(xs - t.argmax_xs[0])))
    assert t.gstars[0] == pytest.approx(xs[k] * y - gs[k], rel=1e-12, abs=1e-12)

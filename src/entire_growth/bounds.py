"""Bilateral growth/decay machinery.

Upper coefficient bound via the conjugate of the growth profile; reverse
maximal-function bound via the K/U/Y auxiliary series; doubling (gamma)
condition; Tauberian ratio diagnostics.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import entire
from .entire import CoefficientSequence, log_max_function, log_series
from .errors import (
    InputError,
    InvalidGrowthError,
    NoFiniteBoundError,
    PolynomialInputError,
    WindowSaturationWarning,
)
from .legendre import WINDOW_HARD_CAP, _hull, _vertex_conjugate, conjugate_of_callable

DEFAULT_EPS_POINTS = 199
# Refinement of eps* around the grid minimum: each stage evaluates ZOOM_POINTS
# points of its bracket (K, U and Q* one batched call each) and narrows the
# bracket to the neighbours of its best point, a factor (ZOOM_POINTS-1)/2.
ZOOM_POINTS = 33
ZOOM_STAGES = 5
# v per eps scan: a zoom stage's K/U blocks hold 33 series rows of 256
# terms per v, so a longer v array is scanned in blocks (13 MB at 64 v)
_V_BLOCK = 64
# rows a gamma-form decay builds first; each growth doubles them
_FIRST_ROWS = 1024


@dataclass(frozen=True)
class GrowthFunction:
    """Convex growth (or decay) profile, with its exact conjugate when known.

    domain_min pins the left edge of the domain (None means all of R).  conj
    is the conjugate sup_x (x y - fn(x)) over that domain as a vectorized
    callable, +inf where the sup is infinite; every named constructor sets
    it.  Without it, conjugate_at runs the adaptive search, whose window is
    capped in the profile's own units: WINDOW_HARD_CAP log-radius units on R,
    and entire.MAX_TERMS (the series kernel's term bound) on an index domain.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    domain_min: Optional[float] = None
    conj: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __call__(self, v):
        v = np.asarray(v, dtype=float)
        with np.errstate(over="ignore"):
            out = np.asarray(self.fn(v), dtype=float)
        return out if out.ndim else float(out)

    def conjugate_at(self, ys):
        """Conjugate values at ys; returns (values, window saturated flag)."""
        values, saturated = self._conjugate(ys)
        return values, bool(np.any(saturated))

    def _conjugate(self, ys):
        """Conjugate values at ys and, per query, whether its window hit the cap."""
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        if self.conj is not None:
            with np.errstate(over="ignore"):
                return np.asarray(self.conj(ys), dtype=float), np.zeros(ys.shape, dtype=bool)
        cap = WINDOW_HARD_CAP if self.domain_min is None else entire.MAX_TERMS
        table = conjugate_of_callable(self.fn, ys, x_min=self.domain_min, hard_cap=cap)
        return table.gstars, table.saturated

    def conjugate(self) -> "GrowthFunction":
        """The conjugate profile.  Its conjugate is this profile (fn** = fn
        for convex fn), +inf below domain_min, so no search runs inside
        another."""
        fn, lo = self.fn, self.domain_min
        if lo is not None:
            fn = lambda x: np.where(np.asarray(x, float) < lo, np.inf,
                                    self.fn(np.maximum(x, lo)))
        forward = self.conj or (lambda ys: self.conjugate_at(ys)[0])
        return GrowthFunction(f"{self.name}*", forward, conj=fn)


def power_of_exp(C: float = 1.0, rho: float = 1.0) -> GrowthFunction:
    """Lambda(v) = C e^(rho v): order-rho growth.  Lambda*(n) = (n/rho)
    (ln(n/(C rho)) - 1), Lambda*(0) = 0 (not attained), +inf for n < 0."""
    if C <= 0 or rho <= 0:
        raise InputError("C and rho must be positive")

    def conj(n):
        from scipy.special import xlogy
        k = np.maximum(n, 0.0) / rho
        return np.where(n < 0, np.inf, xlogy(k, k / C) - k)

    return GrowthFunction(f"power_of_exp(C={C:g},rho={rho:g})",
                          lambda v: C * np.exp(rho * np.asarray(v, float)), conj=conj)


def power_log(C: float = 1.0, m: float = 2.0) -> GrowthFunction:
    """Lambda(v) = C |v|^m: logarithmic-power growth (m > 1).
    Lambda*(n) = (m - 1) C (|n|/(m C))^(m/(m-1))."""
    if C <= 0 or m <= 1:
        raise InputError("need C > 0 and m > 1")
    return GrowthFunction(
        f"power_log(C={C:g},m={m:g})",
        lambda v: C * np.abs(np.asarray(v, float)) ** m,
        conj=lambda n: (m - 1.0) * C * (np.abs(n) / (m * C)) ** (m / (m - 1.0)))


def exp_of_exp(C5: float = 1.0, C6: float = 1.0) -> GrowthFunction:
    """Lambda(v) = C5 e^(C6 e^v): double-exponential growth.  Lambda*(n) =
    n ln(u/C6) - n/u at C6 e^v = u = W(n/C5) (Lambert W; Corless et al.,
    Adv. Comput. Math. 5, 1996), Lambda*(0) = -C5 (not attained), +inf for
    n < 0."""
    if C5 <= 0 or C6 <= 0:
        raise InputError("C5 and C6 must be positive")

    def fn(v):
        with np.errstate(over="ignore"):
            return C5 * np.exp(C6 * np.exp(np.asarray(v, float)))

    def conj(n):
        from scipy.special import lambertw
        k = np.where(n > 0, n, 1.0)  # keeps W, ln and 1/u finite off n > 0
        u = lambertw(k / C5).real
        return np.where(n > 0, k * np.log(u / C6) - k / u,
                        np.where(n < 0, np.inf, -C5))

    return GrowthFunction(f"exp_of_exp(C5={C5:g},C6={C6:g})", fn, conj=conj)


def stirling_decay() -> GrowthFunction:
    """Q(n) = n ln n - n (Q(0) = 0): the exp-family coefficient decay.
    Q*(y) = e^y."""

    def fn(n):
        n = np.asarray(n, dtype=float)
        return np.where(n > 0, n * np.log(np.maximum(n, 1e-300)) - n, 0.0)

    return GrowthFunction("stirling_decay", fn, domain_min=0.0, conj=np.exp)


def quadratic_decay(a: float = 0.5) -> GrowthFunction:
    """Q(n) = a n^2 on n >= 0; Q*(y) = max(y, 0)^2 / (4a)."""
    if a <= 0:
        raise InputError("a must be positive")
    return GrowthFunction(f"quadratic_decay(a={a:g})",
                          lambda n: a * np.asarray(n, float) ** 2, domain_min=0.0,
                          conj=lambda y: np.maximum(y, 0.0) ** 2 / (4.0 * a))


def index_decay(f: CoefficientSequence) -> GrowthFunction:
    """Convex decay of a coefficient sequence, with its exact discrete
    conjugate.

    Q is the lower convex envelope of -ln|c_n| over the rows n = 0..N (a
    table's last row, or entire.MAX_TERMS, the series kernel's term bound,
    for a rule): piecewise linear between the hull vertices, +inf outside
    them.  It lies below -ln|c_n| at every row, so |c_n| <= exp(-Q(n))
    holds, and it is convex, as the reverse bound requires.  Q*(y) = n y -
    Q(n) at the vertex n whose edge slopes bracket y, the discrete Legendre
    transform (Lucet, Numer. Algorithms 16, 1997; legendre's vertex kernel).
    Past the last slope the argmax is a table's last row, exact since c_n =
    0 beyond it; for a rule it lies past N, so Q* is +inf there.

    A table, or a rule without a gamma_form, builds all its rows and their
    hull.  A rule with one has convex rows, each a vertex, so it reads only
    the rows that its queries need (_gamma_form_decay), with the same
    values bit for bit.
    """
    if f.gamma_form is not None and not f.is_polynomial:
        return _gamma_form_decay(f)
    ns = np.arange((f.max_index if f.is_polynomial else entire.MAX_TERMS) + 1,
                   dtype=float)
    q = -f.log_abs_array(ns)
    hx, hq, slopes = _hull(ns, q)
    if hx.size < 2:
        raise InputError(f"{f.name}: need at least two nonzero coefficients")

    def fn(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= hx[0]) & (x <= hx[-1]), np.interp(x, hx, hq), np.inf)

    def conj(y):
        out, _ = _vertex_conjugate(hx, hq, slopes, y)
        return out if f.is_polynomial else np.where(y > slopes[-1], np.inf, out)

    return GrowthFunction(f"decay({f.name})", fn, domain_min=hx[0], conj=conj)


def _gamma_form_decay(f: CoefficientSequence) -> GrowthFunction:
    """index_decay of a rule with a gamma_form: the hull is the rows
    q(n) = -ln|c_n|, n = 0..N, so no row is built before a query needs it.

    Q is np.interp over the rows 0..M, M + 1 doubling as far as the largest
    x asked for (at most N + 1 rows), the same interpolant as over all N + 1
    rows; rows that are not convex where they are built raise InputError.
    Q*(y) runs the vertex kernel at k = min{n : q(n+1) - q(n) >= y} (N if
    none), the hull's searchsorted index.  k is found on the rows' own
    differences by _first_rise, seeded by inverting q(n+1) - q(n) ~
    a ln(a n + (a+1)/2) - b.
    """
    n_last = entire.MAX_TERMS
    a, b = f.gamma_form
    q = lambda ns: -f.log_abs_array(ns)
    d_last = entire.last_slope(f)
    xs = qs = np.zeros(0)

    def fn(x):
        nonlocal xs, qs
        x = np.asarray(x, dtype=float)
        inside = (x >= 0.0) & (x <= n_last)
        need = math.ceil(np.max(x[inside], initial=0.0)) + 1
        if need > qs.size:
            size = max(qs.size, _FIRST_ROWS)
            while size < need:
                size *= 2
            size = min(size, n_last + 1)
            qs = np.concatenate([qs, q(np.arange(qs.size, size, dtype=float))])
            xs = np.arange(size, dtype=float)
            if np.any(np.diff(qs, 2) < 0):
                raise InputError(f"{f.name}: rows are not convex, so its gamma_form "
                                 f"{f.gamma_form} is false")
        return np.where(inside, np.interp(x, xs, qs), np.inf)

    def conj(y):
        y = np.asarray(y, dtype=float)
        ys = y.ravel()

        def rises(ns, i):
            """q(n+1) - q(n) >= y at the indices ns of the queries i."""
            qn = q(np.concatenate([ns, ns + 1]).astype(float)).reshape(2, -1)
            return qn[1] - qn[0] >= ys[i]

        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            seed = np.ceil((np.exp((ys + b) / a) - (a - 1.0) / 2.0 - 1.0) / a)
        seed = np.clip(np.nan_to_num(seed, nan=0.0), 0, n_last).astype(np.int64)
        k = _first_rise(rises, seed, n_last)
        # vertices k-1, k, k+1 of query j sit at 3j, 3j+1, 3j+2
        cand = np.stack([np.maximum(k - 1, 0), k, np.minimum(k + 1, n_last)],
                        axis=1).ravel().astype(float)
        mid = 3 * np.arange(ys.size) + 1
        out, _ = _vertex_conjugate(cand, q(cand), None, ys, mid, mid - 1, mid + 1)
        return np.where(ys > d_last, np.inf, out).reshape(y.shape)

    return GrowthFunction(f"decay({f.name})", fn, domain_min=0.0, conj=conj)


def _first_rise(rises, seed, n_max):
    """min{n in [0, n_max) : rises(n)} per query, n_max where there is none,
    for a predicate that stays true once true.  rises(ns, i) tests the
    indices ns of the queries i.

    Each query gallops from its seed in steps 1, 2, 4, ... until a probe
    lands on the other side, then bisects: at most about 2 log2(n_max)
    probes per query, however wrong the seed.
    """
    lo = np.full(seed.shape, -1)          # rises is false at lo (or lo = -1)
    hi = np.full(seed.shape, n_max)       # and true at hi (or hi = n_max)
    at = np.flatnonzero(seed < n_max)
    up = rises(seed[at], at)
    hi[at[up]] = seed[at[up]]
    lo[at[~up]] = seed[at[~up]]
    # +1: gallop up from lo; -1: gallop down from hi
    way = np.where(lo >= 0, 1, -1)
    step = 1
    while True:
        i = np.flatnonzero(way)
        probe = np.where(way[i] > 0, lo[i] + step, hi[i] - step)
        inside = (probe >= 0) & (probe < n_max)
        way[i[~inside]] = 0
        i, probe = i[inside], probe[inside]
        if not i.size:
            break
        r = rises(probe, i)
        hi[i[r]], lo[i[~r]] = probe[r], probe[~r]
        way[i[r == (way[i] > 0)]] = 0     # the probe crossed over
        step *= 2
    while True:
        i = np.flatnonzero(hi - lo > 1)
        if not i.size:
            return hi
        mid = (lo[i] + hi[i]) // 2
        r = rises(mid, i)
        hi[i[r]], lo[i[~r]] = mid[r], mid[~r]


def coeff_upper_bound(Lambda: GrowthFunction, n: int) -> float:
    """Log upper bound on |c_n|: returns -Lambda*(n).

    Valid for every f with M_f(r) <= exp(Lambda(ln r)).  Window saturation at
    the hard cap leaves the bound valid but possibly loose (warns).
    """
    if n < 0:
        raise InputError("n must be >= 0")
    return float(coeff_upper_bound_many(Lambda, [float(n)])[0])


def coeff_upper_bound_many(Lambda: GrowthFunction, ns) -> np.ndarray:
    """Vectorized -Lambda*(n) over an index grid."""
    lstar, saturated = Lambda.conjugate_at(np.asarray(ns, float))
    if saturated:
        warnings.warn(f"conjugate window saturated for {Lambda.name}",
                      WindowSaturationWarning)
    return 0.0 - lstar  # +0.0, not -0.0, where Lambda*(n) = 0


def _log_sum(term_fn: Callable[[np.ndarray, np.ndarray], np.ndarray], shape=(),
             level=None):
    """ln sum_{n >= 0} exp(term_fn(ns, rows)) per series of a batch, each
    row stopping at its level if it has one (see log_series); +inf unless
    log_series converged."""
    total, _, converged = log_series(term_fn, shape=shape, level=level)
    return np.where(converged, total, np.inf)[()]


def _eps_rows(eps) -> np.ndarray:
    """eps, each in (0, 1), raveled: one series row per eps."""
    eps = np.asarray(eps, dtype=float)
    if not np.all((eps > 0) & (eps < 1)):
        raise InputError("eps must lie in (0, 1)")
    return eps.ravel()


def k_sum(decay: Callable[[np.ndarray], np.ndarray], eps):
    """ln K(eps) = ln sum_n exp(-eps * decay(n)), elementwise in eps; +inf
    marks divergence."""
    e = _eps_rows(eps)
    return _log_sum(lambda ns, rows: -e[rows, None] * np.asarray(decay(ns), float),
                    np.shape(eps))


def u_sum(decay: Callable[[np.ndarray], np.ndarray], eps, level=None):
    """ln U(eps) = ln sum_n exp(decay((1-eps) n) - decay(n)), elementwise in
    eps; +inf marks divergence.  With a level (an array shaped like eps), a
    row stops once its partial sum reaches its level, and that partial sum,
    >= the level, is its value (log_series)."""
    e = _eps_rows(eps)
    return _log_sum(lambda ns, rows: np.asarray(decay((1.0 - e[rows, None]) * ns), float)
                    - np.asarray(decay(ns), float), np.shape(eps), level)


def r_sum(Q: GrowthFunction, v: float) -> float:
    """ln R_Q(v) = ln sum_n exp(n v - Q(n)): the sharp summation reference."""
    return _log_sum(lambda ns, rows: ns * v - np.asarray(Q.fn(ns), float))


@dataclass(frozen=True)
class EpsilonReport:
    """ln K, ln U and ln Y over the eps grid (see _eps_scan), and the
    minimizing eps: bound = ln Y(eps*) + Q*(v/(1 - eps*)) and S0 = Y(eps*),
    both NaN when the bound is +inf at every eps.

    qstar_saturated: the Q* window hit its cap at v/(1 - eps_star), so
    Q*(v/(1 - eps_star)) may fall short and the bound may be too low.
    """

    eps_grid: np.ndarray
    ln_k: np.ndarray
    ln_u: np.ndarray
    ln_y: np.ndarray
    eps_star: float
    S0: float
    bound: float
    qstar_saturated: bool = False

    @property
    def c_eff(self) -> float:
        """Effective dilation constant (1 - eps*)^-1 of the saddle form."""
        return 1.0 / (1.0 - self.eps_star)


def _eps_scan(sums, conj, count: int, eps_points: int, name: str):
    """(bounds, reports): for each of count points v, min over eps of
    ln Y(eps) + Q*(y), y = v/(1-eps), with one EpsilonReport per v.

    sums(eps, ln_k) gives (ln K0, ln U) elementwise over a 1-D array of eps;
    they do not depend on v.  ln_k is None on the grid.  In a zoom stage it
    maps ln K0 at those eps to ln K there, and a U row may stop once its
    partial sum reaches ln K (see log_series): min(ln K, ln U) is ln K
    either way, bit for bit, so only the grid's ln U is exact.
    conj(eps) gives (Q*(y), saturated) elementwise over
    an array of eps of shape (count, m), row i at the i-th v (saturated may
    be one flag for all).  Each term of R_Q(v) splits two ways, n v - Q(n)
    = -eps Q(n) + (1-eps)(n y - Q(n)) and = ((1-eps) n y - Q((1-eps) n)) +
    Q((1-eps) n) - Q(n), so ln R_Q(v) <= ln Y + Q*(y) with Y = min(K, U),
    K = K0 e^(-eps Q*(y)) and K0, U the K/U sums.  ln K is +inf where Q*(y)
    is, so the bound there is +inf, not NaN.  Q*(y) = -inf means Q = +inf
    everywhere, so every coefficient vanishes and there is nothing to
    bound: InputError.

    One sums call covers the grid for every v.  Each zoom stage takes Q* at
    every v's own bracket (one conj call), then ln K0 and ln U there (one
    sums call, its U rows stopping at ln K).  All of them are elementwise,
    so each v gets the numbers that a scan of it alone gives.
    """

    def qstar_at(eps):
        qstar, _ = conj(eps)
        if np.any(qstar == -np.inf):
            raise InputError(f"Q* = -inf for {name}: its decay is +inf everywhere")
        return qstar

    def log_k(eps, qstar, ln_k0):
        return np.where(np.isfinite(qstar), ln_k0 - eps * qstar, np.inf)

    def scan(eps, qstar, ln_k0, ln_u):
        """ln K, ln Y and ln Y + Q*(y) at each eps of shape (count, m), given
        Q*(y), ln K0 and ln U there."""
        ln_k = log_k(eps, qstar, ln_k0)
        ln_y = np.minimum(ln_k, ln_u)
        return ln_k, ln_y, ln_y + qstar

    def pick(pts, obj, ln_y):
        """Per v: the minimizing point, its obj and ln Y, and its neighbours."""
        i = np.argmin(obj, axis=1)
        lo, hi = np.maximum(i - 1, 0), np.minimum(i + 1, pts.shape[1] - 1)
        return pts[at, i], obj[at, i], ln_y[at, i], pts[at, lo], pts[at, hi]

    at = np.arange(count)
    eps_grid = (np.arange(1, eps_points + 1)) / (eps_points + 1)
    grid = np.broadcast_to(eps_grid, (count, eps_points))
    ln_k0, ln_u = sums(eps_grid, None)
    ln_k, ln_y, obj = scan(grid, qstar_at(grid), ln_k0, ln_u)
    if not np.all(np.any(np.isfinite(ln_y), axis=1)):
        raise NoFiniteBoundError(f"Y(eps) infinite across the grid for {name}")
    eps_star, bound, ln_s0, lo, hi = pick(grid, obj, ln_y)
    # zoom into the grid neighbours of the minimum; never above the grid value
    for _ in range(ZOOM_STAGES):
        # np.linspace(lo, hi, ZOOM_POINTS) of each v, in its arithmetic
        pts = np.arange(ZOOM_POINTS) * ((hi - lo) / (ZOOM_POINTS - 1))[:, None] + lo[:, None]
        pts[:, -1] = hi
        qstar = qstar_at(pts)
        sums_z = sums(pts.ravel(),
                      lambda ln_k0: log_k(pts, qstar, ln_k0.reshape(pts.shape)).ravel())
        _, ln_y_z, obj_z = scan(pts, qstar, *(np.reshape(a, pts.shape) for a in sums_z))
        eps_z, bound_z, ln_s0_z, lo, hi = pick(pts, obj_z, ln_y_z)
        better = bound_z < bound
        eps_star, bound, ln_s0 = (np.where(better, z, a) for z, a in
                                  ((eps_z, eps_star), (bound_z, bound), (ln_s0_z, ln_s0)))
    _, saturated = conj(eps_star[:, None])
    saturated = np.broadcast_to(saturated, (count, 1))[:, 0]
    # no eps gives a finite bound: no eps* and no S0
    eps_star, ln_s0 = (np.where(np.isfinite(bound), a, np.nan) for a in (eps_star, ln_s0))
    reports = tuple(EpsilonReport(eps_grid, ln_k[i], ln_u, ln_y[i], float(eps_star[i]),
                                  float(np.exp(ln_s0[i])), float(bound[i]), bool(saturated[i]))
                    for i in range(count))
    return bound, reports


def max_function_upper_bounds(Q: GrowthFunction, vs,
                              eps_points: int = DEFAULT_EPS_POINTS,
                              coeffs: Optional[CoefficientSequence] = None):
    """Upper bounds on ln R_Q(v) (hence on ln M_f(e^v)) at each v of a 1-D
    array vs, from one eps scan over all of them.

    Hypothesis: |c_n| <= exp(-Q(n)) with Q convex.  Returns (log_bounds, an
    array over vs, and a tuple of one EpsilonReport per v).  Each bound is
    min over eps of ln Y(eps) + Q*(v/(1-eps)) (see _eps_scan); K0 and U do
    not depend on v, so their grid rows are summed once per block of up to
    _V_BLOCK v, and each zoom stage sums every v's bracket in one call.  The
    numbers for each v are those of max_function_upper_bound(Q, v), bit for
    bit.
    """
    vs = np.asarray(vs, dtype=float)
    if vs.ndim != 1 or not vs.size:
        raise InputError("vs must be a nonempty 1-D array")
    if not np.all(np.isfinite(vs)):
        raise InputError(f"v must be finite, not {vs[~np.isfinite(vs)][0]}")
    if coeffs is not None:
        ns = np.arange(0, 1001)
        la = coeffs.log_abs_array(ns)
        qv = np.asarray(Q.fn(ns.astype(float)), dtype=float)
        bad = np.flatnonzero(la > -qv + 1e-9)
        if bad.size:
            raise InputError(
                f"hypothesis |c_n| <= exp(-Q(n)) fails at n={int(ns[bad[0]])}")

    def sums(eps, ln_k):
        ln_k0 = k_sum(Q.fn, eps)
        return ln_k0, u_sum(Q.fn, eps, None if ln_k is None else ln_k(ln_k0))

    def scan(block):
        def conj(eps):
            values, saturated = Q._conjugate((block[:, None] / (1.0 - eps)).ravel())
            return values.reshape(eps.shape), saturated.reshape(eps.shape)

        return _eps_scan(sums, conj, block.size, eps_points, Q.name)

    scans = [scan(vs[i:i + _V_BLOCK]) for i in range(0, vs.size, _V_BLOCK)]
    return np.concatenate([b for b, _ in scans]), sum((r for _, r in scans), ())


def max_function_upper_bound(Q: GrowthFunction, v: float,
                             eps_points: int = DEFAULT_EPS_POINTS,
                             coeffs: Optional[CoefficientSequence] = None):
    """Upper bound on ln R_Q(v) (hence on ln M_f(e^v)) via the eps scan:
    max_function_upper_bounds at the one point v.  Returns (log_bound,
    EpsilonReport)."""
    (bound,), (report,) = max_function_upper_bounds(Q, np.ravel(v), eps_points, coeffs)
    return float(bound), report


@dataclass(frozen=True)
class GammaReport:
    """Doubling-condition diagnostics: sup of Lambda(v/(1-eps0))/Lambda(v)."""

    gamma_estimate: float
    holds: bool
    v_grid: np.ndarray
    ratios: np.ndarray


def gamma_condition(Lambda: GrowthFunction, eps0: float, v_grid) -> GammaReport:
    """Estimate gamma with Lambda(v/(1-eps0)) <= gamma Lambda(v) on v >= 1."""
    if not 0 < eps0 < 1:
        raise InputError("eps0 must lie in (0, 1)")
    v = np.asarray(v_grid, dtype=float)
    if np.any(v < 1.0):
        raise InputError("v_grid must lie in [1, inf)")
    base = np.asarray(Lambda(v), dtype=float)
    if np.any(base <= 0):
        raise InvalidGrowthError(f"{Lambda.name} non-positive on the grid")
    with np.errstate(over="ignore"):
        dil = np.asarray(Lambda(v / (1.0 - eps0)), dtype=float)
    with np.errstate(invalid="ignore"):  # inf/inf where both overflow: NaN
        ratios = dil / base
    if np.any(~np.isfinite(ratios)):
        # dilation overflowed: the ratio is unbounded on any larger window
        return GammaReport(math.inf, False, v, ratios)
    gamma = float(np.max(ratios))
    # bounded if the ratio trend has stabilized: the tail does not keep growing
    k = max(v.size // 4, 1)
    head_max = float(np.max(ratios[:-k])) if v.size > k else float(ratios[0])
    tail = ratios[-k:]
    growing = np.all(np.diff(ratios) > 0) and tail[-1] > head_max * (1.0 + 1e-9)
    holds = not growing
    return GammaReport(gamma, holds, v, ratios)


@dataclass(frozen=True)
class TauberianReport:
    """Both ratio sequences of the Tauberian equivalence; diagnostics only."""

    r_grid: np.ndarray
    lhs_ratios: np.ndarray
    n_grid: np.ndarray
    rhs_ratios: np.ndarray
    excluded_ns: np.ndarray
    terminal_lhs: float
    terminal_rhs: float

    @property
    def terminal_gap(self) -> float:
        return abs(self.terminal_lhs - self.terminal_rhs)


def tauberian_report(f: CoefficientSequence, Lambda: GrowthFunction,
                     r_grid, n_grid, window: int = 5) -> TauberianReport:
    """Ratio sequences ln M_f(r)/Lambda(ln r) and |ln 1/|c_n||/Lambda*(n).

    Reports windowed terminal means of both sides; no limit is asserted.
    Whenever ln M_f(e^v) <= Lambda(v), the Cauchy bound gives
    ln|c_n| <= -Lambda*(n), so every reported rhs ratio (Lambda*(n) > 0)
    is >= 1.
    """
    if f.is_polynomial:
        raise PolynomialInputError(f"{f.name} is polynomial; ratios degenerate")
    r = np.asarray(r_grid, dtype=float)
    n = np.asarray(n_grid, dtype=float)
    lam = np.asarray(Lambda(np.log(r)), dtype=float)
    if np.any(lam <= 0):
        raise InvalidGrowthError(f"{Lambda.name} must be positive on ln(r_grid)")
    lhs = log_max_function(f, r) / lam
    lstar, _ = Lambda.conjugate_at(n)
    ok = np.isfinite(lstar) & (lstar > 0)
    if not np.any(ok):
        raise InputError(f"no n in n_grid has 0 < {Lambda.name}*(n) < inf")
    excluded = n[~ok]
    la = f.log_abs_array(n[ok])
    rhs = np.abs(la) / lstar[ok]
    w_l = min(window, lhs.size)
    w_r = min(window, rhs.size)
    return TauberianReport(r, lhs, n[ok], rhs, excluded,
                           float(np.mean(lhs[-w_l:])), float(np.mean(rhs[-w_r:])))

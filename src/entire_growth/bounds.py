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
# terms at the end of each Tauberian ratio sequence that its terminal mean takes
_TAUBERIAN_WINDOW = 5


@dataclass(frozen=True)
class GrowthFunction:
    """Convex growth (or decay) profile, with its exact conjugate when known.

    domain_min pins the left edge of the domain (None means all of R).  conj
    is the conjugate sup_x (x y - fn(x)) over that domain as a vectorized
    callable, +inf where the sup is infinite; every named constructor sets
    it.  Without it, conjugate_at runs the adaptive search, whose window is
    capped in the profile's own units: WINDOW_HARD_CAP log-radius units on R,
    and entire.MAX_TERMS (the series kernel's term bound) on an index domain.
    The eps scan runs no search: it reads a decay without conj at the
    integers, through its exact discrete conjugate (max_function_upper_bounds).
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

    def conjugate_at(self, ys) -> np.ndarray:
        """Conjugate values at ys.  A search whose window hit its cap warns
        (WindowSaturationWarning): its values stay valid bounds, maybe loose."""
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        if self.conj is not None:
            with np.errstate(over="ignore"):
                return np.asarray(self.conj(ys), dtype=float)
        cap = WINDOW_HARD_CAP if self.domain_min is None else entire.MAX_TERMS
        table = conjugate_of_callable(self.fn, ys, x_min=self.domain_min, hard_cap=cap)
        if table.window_saturated:
            warnings.warn(f"conjugate window saturated for {self.name}",
                          WindowSaturationWarning)
        return table.gstars

    def conjugate(self) -> "GrowthFunction":
        """The conjugate profile.  Its conjugate is this profile (fn** = fn
        for convex fn), +inf below domain_min, so no search runs inside
        another."""
        fn, lo = self.fn, self.domain_min
        if lo is not None:
            fn = lambda x: np.where(np.asarray(x, float) < lo, np.inf,
                                    self.fn(np.maximum(x, lo)))
        forward = self.conj or self.conjugate_at
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
    hx, hq, slopes, _ = _hull(ns, q)
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
    q(n) = -ln|c_n|, n = 0..N, so _row_decay reads them, each only once a
    query needs it.  _first_rise starts from the inverse of q(n+1) - q(n) ~
    a ln(a n + (a+1)/2) - b."""
    a, b = f.gamma_form

    def seed(ys):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return np.nan_to_num(np.ceil((np.exp((ys + b) / a) - (a - 1.0) / 2.0 - 1.0) / a),
                                 nan=0.0)

    return _row_decay(f"decay({f.name})", lambda ns: -f.log_abs_array(ns),
                      f"{f.name}: rows are not convex, so its gamma_form {f.gamma_form} "
                      f"is false", seed)


def _integer_decay(Q: GrowthFunction) -> GrowthFunction:
    """A decay without conj read at the integers: _row_decay of the rows
    q(n) = Q(n), +inf below domain_min.  The reverse bound reads Q only at
    the indices n, where the interpolant of these rows equals Q."""
    lo = max(Q.domain_min or 0.0, 0.0)
    q = Q if lo == 0.0 else lambda ns: np.where(ns < lo, np.inf, Q(np.maximum(ns, lo)))
    return _row_decay(Q.name, q, f"{Q.name}: rows Q(n) are not convex", first=math.ceil(lo))


def _row_decay(name: str, q, refusal: str, seed=None, first: int = 0) -> GrowthFunction:
    """The convex decay whose rows are q(n), n = 0..N (N = entire.MAX_TERMS),
    with its exact discrete conjugate; no row is built before a query needs
    it.  q maps float indices to rows, +inf below first or past the last
    finite row.

    Q is np.interp over the rows 0..M, M + 1 doubling as far as the largest
    x asked for (at most N + 1 rows), the same interpolant as over all N + 1
    rows, +inf off [0, N] and next to a row at +inf; rows that are not
    convex where they are built raise InputError(refusal).  Q*(y) runs the
    vertex kernel at k = min{n >= first : q(n+1) - q(n) >= y} (+inf - +inf
    counts as a rise; N if none), the hull's searchsorted index, and is +inf
    past the last slope q(N) - q(N-1).  k is found on the rows' own
    differences by _first_rise, from seed(ys) if given, else from
    searchsorted on the differences of the rows built so far (0 before any):
    the seed moves only the probes, never k.
    """
    n_last = entire.MAX_TERMS
    with np.errstate(invalid="ignore"):  # +inf - +inf: no last slope
        d_last = float(np.diff(q(np.array([n_last - 1.0, n_last])))[0])
    xs = qs = ds = np.zeros(0)

    def fn(x):
        nonlocal xs, qs, ds
        x = np.asarray(x, dtype=float)
        hi = np.max(x, initial=0.0)
        # every x inside [0, n_last] (never so with a NaN): no masks
        inside = (None if np.min(x, initial=np.inf) >= 0.0 and hi <= n_last
                  else (x >= 0.0) & (x <= n_last))
        need = math.ceil(hi if inside is None else np.max(x[inside], initial=0.0)) + 1
        if need > qs.size:
            size = max(qs.size, _FIRST_ROWS)
            while size < need:
                size *= 2
            size = min(size, n_last + 1)
            qs = np.concatenate([qs, q(np.arange(qs.size, size, dtype=float))])
            xs = np.arange(size, dtype=float)
            with np.errstate(invalid="ignore"):
                ds = np.diff(qs)
            # convex: no difference below an earlier one (+inf rows only at the ends)
            if np.any(ds < np.fmax.accumulate(ds)):
                raise InputError(refusal)
        q_x = np.interp(x, xs, qs)
        return q_x if inside is None else np.where(inside, q_x, np.inf)

    def conj(y):
        y = np.asarray(y, dtype=float)
        ys = y.ravel()

        def rises(ns, i):
            """q(n+1) - q(n) >= y (+inf - +inf too) and n >= first, at the
            indices ns of the queries i."""
            qn = q(np.concatenate([ns, ns + 1]).astype(float)).reshape(2, -1)
            with np.errstate(invalid="ignore"):
                return ~(qn[1] - qn[0] < ys[i]) & (ns >= first)

        start = np.searchsorted(ds, ys) if seed is None else seed(ys)
        k = _first_rise(rises, np.clip(start, 0, n_last).astype(np.int64), n_last)
        # vertices k-1, k, k+1 of query j sit at 3j, 3j+1, 3j+2
        cand = np.stack([np.maximum(k - 1, 0), k, np.minimum(k + 1, n_last)],
                        axis=1).ravel().astype(float)
        mid = 3 * np.arange(ys.size) + 1
        out, _ = _vertex_conjugate(cand, q(cand), None, ys, mid, mid - 1, mid + 1)
        return np.where(ys > d_last, np.inf, out).reshape(y.shape)

    return GrowthFunction(name, fn, domain_min=0.0, conj=conj)


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
    return 0.0 - Lambda.conjugate_at(ns)  # +0.0, not -0.0, where Lambda*(n) = 0


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
    both NaN when the bound is +inf at every eps.  ln K is +inf at each eps
    where Q*(v/(1 - eps)) is +inf.  For a decay without conj, Q* is the
    discrete conjugate of its rows at the integers (max_function_upper_bounds).
    """

    eps_grid: np.ndarray
    ln_k: np.ndarray
    ln_u: np.ndarray
    ln_y: np.ndarray
    eps_star: float
    S0: float
    bound: float

    @property
    def c_eff(self) -> float:
        """Effective dilation constant (1 - eps*)^-1 of the saddle form."""
        return 1.0 / (1.0 - self.eps_star)


def _eps_scan(Q: GrowthFunction, vs: np.ndarray, eps_points: int):
    """(bounds, reports): for each v of vs, min over eps of ln Y(eps) +
    Q*(y), y = v/(1-eps), with one EpsilonReport per v.

    Each term of R_Q(v) splits two ways, n v - Q(n) = -eps Q(n) + (1-eps)(n y
    - Q(n)) and = ((1-eps) n y - Q((1-eps) n)) + Q((1-eps) n) - Q(n), so
    ln R_Q(v) <= ln Y + Q*(y) with Y = min(K, U), K = K0 e^(-eps Q*(y)) and
    K0, U the K/U sums (k_sum, u_sum), which do not depend on v.  ln K is
    +inf where Q*(y) is, so the bound there is +inf.  Q*(y) = -inf means Q
    = +inf everywhere, so every coefficient vanishes and there is nothing to
    bound: InputError.

    Each stage evaluates its eps points in one routine: Q*(y) at every v
    (one conjugate call), then ln K0 (one k_sum call), then ln U (one u_sum
    call).  The grid is one row of eps shared by every v, with ln U exact.
    Each zoom stage takes a row per v, its bracket, and each ln U row stops
    once its partial sum reaches ln K (see log_series): min(ln K, ln U) is
    ln K either way, bit for bit, so only the grid's ln U is exact.  All of
    them are elementwise, so each v gets the numbers that a scan of it alone
    gives.
    """
    at = np.arange(vs.size)

    def stage(pts, exact_u):
        """ln K, ln U (exact, or each row stopped at its ln K) and ln Y at
        the eps points pts (one row, or one per v), and per v the minimizing
        point, its bound and ln Y, and the points next to it."""
        with np.errstate(over="ignore"):
            qstar = np.asarray(Q.conj((vs[:, None] / (1.0 - pts)).ravel()), dtype=float)
        if np.any(qstar == -np.inf):  # before any series runs
            raise InputError(f"Q* = -inf for {Q.name}: its decay is +inf everywhere")
        qstar = qstar.reshape(vs.size, -1)
        ln_k0 = k_sum(Q.fn, pts.ravel()).reshape(pts.shape)
        with np.errstate(invalid="ignore"):  # inf - inf where K0 and Q* are both +inf
            ln_k = np.where(np.isfinite(qstar), ln_k0 - pts * qstar, np.inf)
        ln_u = u_sum(Q.fn, pts.ravel(), None if exact_u else ln_k.ravel()).reshape(pts.shape)
        ln_y = np.minimum(ln_k, ln_u)
        obj, pts = ln_y + qstar, np.broadcast_to(pts, qstar.shape)
        i = np.argmin(obj, axis=1)
        lo, hi = np.maximum(i - 1, 0), np.minimum(i + 1, pts.shape[1] - 1)
        return ln_k, ln_u, ln_y, (pts[at, i], obj[at, i], ln_y[at, i], pts[at, lo], pts[at, hi])

    eps_grid = (np.arange(1, eps_points + 1)) / (eps_points + 1)
    ln_k, ln_u, ln_y, (eps_star, bound, ln_s0, lo, hi) = stage(eps_grid[None, :], True)
    if not np.all(np.any(np.isfinite(ln_y), axis=1)):
        raise NoFiniteBoundError(f"Y(eps) infinite across the grid for {Q.name}")
    # zoom into the grid neighbours of the minimum; never above the grid value
    for _ in range(ZOOM_STAGES):
        # np.linspace(lo, hi, ZOOM_POINTS) of each v, in its arithmetic
        pts = np.arange(ZOOM_POINTS) * ((hi - lo) / (ZOOM_POINTS - 1))[:, None] + lo[:, None]
        pts[:, -1] = hi
        *_, (eps_z, bound_z, ln_s0_z, lo, hi) = stage(pts, False)
        better = bound_z < bound
        eps_star, bound, ln_s0 = (np.where(better, z, a) for z, a in (
            (eps_z, eps_star), (bound_z, bound), (ln_s0_z, ln_s0)))
    # no eps gives a finite bound: no eps* and no S0
    eps_star, ln_s0 = (np.where(np.isfinite(bound), a, np.nan) for a in (eps_star, ln_s0))
    reports = tuple(EpsilonReport(eps_grid, ln_k[i], ln_u[0], ln_y[i], float(eps_star[i]),
                                  float(np.exp(ln_s0[i])), float(bound[i]))
                    for i in range(vs.size))
    return bound, reports


def max_function_upper_bounds(Q: GrowthFunction, vs,
                              eps_points: int = DEFAULT_EPS_POINTS,
                              coeffs: Optional[CoefficientSequence] = None):
    """Upper bounds on ln R_Q(v) (hence on ln M_f(e^v)) at each v of a 1-D
    array vs, from one eps scan over all of them.

    Hypothesis: |c_n| <= exp(-Q(n)) with Q convex.  The bound reads Q only
    at the indices n, so a Q without conj is read at the integers: the scan
    runs on the linear interpolant of its rows Q(n), n <= entire.MAX_TERMS,
    which equals Q there, with that interpolant's exact discrete conjugate
    (_integer_decay); rows that are not convex raise InputError.  Returns
    (log_bounds, an array over vs, and a tuple of one EpsilonReport per v).
    Each bound is min over eps of ln Y(eps) + Q*(v/(1-eps)) (see _eps_scan);
    K0 and U do not depend on v, so their grid rows are summed once per
    block of up to _V_BLOCK v, and each zoom stage sums every v's bracket in
    one call.  The numbers for each v are those of
    max_function_upper_bound(Q, v), bit for bit.
    """
    vs = np.asarray(vs, dtype=float)
    if vs.ndim != 1 or not vs.size:
        raise InputError("vs must be a nonempty 1-D array")
    if not np.all(np.isfinite(vs)):
        raise InputError(f"v must be finite, not {vs[~np.isfinite(vs)][0]}")
    if eps_points < 1:
        raise InputError(f"eps_points {eps_points} must be >= 1")
    if coeffs is not None:
        ns = np.arange(0, 1001)
        la = coeffs.log_abs_array(ns)
        qv = np.asarray(Q.fn(ns.astype(float)), dtype=float)
        bad = np.flatnonzero(la > -qv + 1e-9)
        if bad.size:
            raise InputError(
                f"hypothesis |c_n| <= exp(-Q(n)) fails at n={int(ns[bad[0]])}")
    if Q.conj is None:
        Q = _integer_decay(Q)
    scans = [_eps_scan(Q, vs[i:i + _V_BLOCK], eps_points)
             for i in range(0, vs.size, _V_BLOCK)]
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
    terminal_lhs: float
    terminal_rhs: float

    @property
    def terminal_gap(self) -> float:
        return abs(self.terminal_lhs - self.terminal_rhs)


def tauberian_report(f: CoefficientSequence, Lambda: GrowthFunction,
                     r_grid, n_grid) -> TauberianReport:
    """Ratio sequences ln M_f(r)/Lambda(ln r) and |ln 1/|c_n||/Lambda*(n).

    Reports the means of the last _TAUBERIAN_WINDOW = 5 ratios of each side
    (all of them when there are fewer); no limit is asserted.
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
    lstar = Lambda.conjugate_at(n)
    ok = np.isfinite(lstar) & (lstar > 0)
    if not np.any(ok):
        raise InputError(f"no n in n_grid has 0 < {Lambda.name}*(n) < inf")
    la = f.log_abs_array(n[ok])
    rhs = np.abs(la) / lstar[ok]
    return TauberianReport(r, lhs, n[ok], rhs, float(np.mean(lhs[-_TAUBERIAN_WINDOW:])),
                           float(np.mean(rhs[-_TAUBERIAN_WINDOW:])))

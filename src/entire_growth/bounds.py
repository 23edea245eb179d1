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
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        if self.conj is not None:
            with np.errstate(over="ignore"):
                return np.asarray(self.conj(ys), dtype=float), False
        cap = WINDOW_HARD_CAP if self.domain_min is None else entire.MAX_TERMS
        table = conjugate_of_callable(self.fn, ys, x_min=self.domain_min, hard_cap=cap)
        return table.gstars, table.window_saturated

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
    """
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


def _log_sum(term_fn: Callable[[np.ndarray], np.ndarray]):
    """ln sum_{n >= 0} exp(term_fn(n)), per row of a batch; +inf unless
    log_series converged."""
    total, _, converged = log_series(term_fn)
    return np.where(converged, total, np.inf)[()]


def _eps_column(eps) -> np.ndarray:
    """eps, each in (0, 1), as a column against the index axis."""
    eps = np.asarray(eps, dtype=float)
    if not np.all((eps > 0) & (eps < 1)):
        raise InputError("eps must lie in (0, 1)")
    return eps[..., None]


def k_sum(decay: Callable[[np.ndarray], np.ndarray], eps):
    """ln K(eps) = ln sum_n exp(-eps * decay(n)), elementwise in eps; +inf
    marks divergence."""
    e = _eps_column(eps)
    return _log_sum(lambda ns: -e * np.asarray(decay(ns), float))


def u_sum(decay: Callable[[np.ndarray], np.ndarray], eps):
    """ln U(eps) = ln sum_n exp(decay((1-eps) n) - decay(n)), elementwise in
    eps; +inf marks divergence."""
    e = _eps_column(eps)
    return _log_sum(lambda ns: np.asarray(decay((1.0 - e) * ns), float)
                    - np.asarray(decay(ns), float))


def r_sum(Q: GrowthFunction, v: float) -> float:
    """ln R_Q(v) = ln sum_n exp(n v - Q(n)): the sharp summation reference."""
    return _log_sum(lambda ns: ns * v - np.asarray(Q.fn(ns), float))


@dataclass(frozen=True)
class EpsilonReport:
    """ln K, ln U and ln Y over the eps grid (see _eps_scan), and the
    minimizing eps: bound = ln Y(eps*) + Q*(v/(1 - eps*)) and S0 = Y(eps*).

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


def _eps_scan(sums, conj, eps_points: int, name: str):
    """(bound, EpsilonReport): min over eps of ln Y(eps) + Q*(y), y = v/(1-eps).

    sums(eps) gives (ln K0, ln U) and conj(eps) gives (Q*(y), saturated),
    each elementwise over an array of eps.  Each term of R_Q(v) splits two
    ways, n v - Q(n) = -eps Q(n) + (1-eps)(n y - Q(n)) and
    = ((1-eps) n y - Q((1-eps) n)) + Q((1-eps) n) - Q(n), so ln R_Q(v) <=
    ln Y + Q*(y) with Y = min(K, U), K = K0 e^(-eps Q*(y)) and K0, U the K/U
    sums.  ln K is +inf where Q*(y) is, so the bound there is +inf, not NaN.
    Q*(y) = -inf means Q = +inf everywhere, so every coefficient vanishes
    and there is nothing to bound: InputError.
    """

    def scan(eps):
        """ln K, ln U, ln Y and ln Y + Q*(y) at each eps."""
        qstar, _ = conj(eps)
        if np.any(qstar == -np.inf):
            raise InputError(f"Q* = -inf for {name}: its decay is +inf everywhere")
        ln_k0, ln_u = sums(eps)
        ln_k = np.where(np.isfinite(qstar), ln_k0 - eps * qstar, np.inf)
        ln_y = np.minimum(ln_k, ln_u)
        return ln_k, ln_u, ln_y, ln_y + qstar

    eps_grid = (np.arange(1, eps_points + 1)) / (eps_points + 1)
    ln_k, ln_u, ln_y, obj = scan(eps_grid)
    if not np.any(np.isfinite(ln_y)):
        raise NoFiniteBoundError(f"Y(eps) infinite across the grid for {name}")
    j = int(np.argmin(obj))
    eps_star, bound, ln_s0 = eps_grid[j], obj[j], ln_y[j]
    # zoom into the grid neighbours of the minimum; never above the grid value
    pts = eps_grid[max(j - 1, 0):j + 2]
    for _ in range(ZOOM_STAGES):
        pts = np.linspace(pts[0], pts[-1], ZOOM_POINTS)
        _, _, ln_y_z, obj_z = scan(pts)
        i = int(np.argmin(obj_z))
        if obj_z[i] < bound:
            eps_star, bound, ln_s0 = pts[i], obj_z[i], ln_y_z[i]
        pts = pts[max(i - 1, 0):i + 2]
    _, saturated = conj(np.array([eps_star]))
    report = EpsilonReport(eps_grid, ln_k, ln_u, ln_y, float(eps_star),
                           float(np.exp(ln_s0)), float(bound), saturated)
    return float(bound), report


def max_function_upper_bound(Q: GrowthFunction, v: float,
                             eps_points: int = DEFAULT_EPS_POINTS,
                             coeffs: Optional[CoefficientSequence] = None):
    """Upper bound on ln R_Q(v) (hence on ln M_f(e^v)) via the eps scan.

    Hypothesis: |c_n| <= exp(-Q(n)) with Q convex.  Returns (log_bound,
    EpsilonReport).  The bound is min over eps of ln Y(eps) + Q*(v/(1-eps))
    (see _eps_scan).
    """
    if coeffs is not None:
        ns = np.arange(0, 1001)
        la = coeffs.log_abs_array(ns)
        qv = np.asarray(Q.fn(ns.astype(float)), dtype=float)
        bad = np.flatnonzero(la > -qv + 1e-9)
        if bad.size:
            raise InputError(
                f"hypothesis |c_n| <= exp(-Q(n)) fails at n={int(ns[bad[0]])}")
    return _eps_scan(lambda eps: (k_sum(Q.fn, eps), u_sum(Q.fn, eps)),
                     lambda eps: Q.conjugate_at(v / (1.0 - eps)), eps_points, Q.name)


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
    excluded = n[~ok]
    la = f.log_abs_array(n[ok])
    rhs = np.abs(la) / lstar[ok]
    w_l = min(window, lhs.size)
    w_r = min(window, rhs.size)
    return TauberianReport(r, lhs, n[ok], rhs, excluded,
                           float(np.mean(lhs[-w_l:])), float(np.mean(rhs[-w_r:])))

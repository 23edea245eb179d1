"""Bilateral growth/decay machinery.

Upper coefficient bound via the conjugate of the growth profile; reverse
maximal-function bound via the K/U/Y auxiliary series; doubling (gamma)
condition; Tauberian ratio diagnostics.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

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
from .legendre import WINDOW_HARD_CAP, _lower_hull_indices, conjugate_of_callable

DEFAULT_EPS_POINTS = 199
# Refinement of eps* around the grid minimum: each stage evaluates
# ZOOM_POINTS points of its bracket (Q* in one batched call) and narrows the
# bracket to the neighbours of its best point, a factor (ZOOM_POINTS-1)/2.
ZOOM_POINTS = 33
ZOOM_STAGES = 5


@dataclass(frozen=True)
class GrowthFunction:
    """Evaluable growth (or decay) profile with convexity metadata.

    domain_min pins the left edge of the domain used for conjugation
    (None means all of R); v_min is the validity threshold for ratio
    diagnostics such as the gamma condition.  The conjugate window is capped
    in the profile's own units: WINDOW_HARD_CAP log-radius units on R, and
    entire.MAX_TERMS (the series kernel's term bound) on an index domain.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    convex: bool = True
    domain_min: Optional[float] = None
    v_min: float = 1.0

    def __call__(self, v):
        v = np.asarray(v, dtype=float)
        with np.errstate(over="ignore"):
            out = np.asarray(self.fn(v), dtype=float)
        return out if out.ndim else float(out)

    def conjugate_at(self, ys):
        """Adaptive-window conjugate values; returns (values, saturated flag)."""
        cap = WINDOW_HARD_CAP if self.domain_min is None else entire.MAX_TERMS
        table = conjugate_of_callable(self.fn, ys, x_min=self.domain_min, hard_cap=cap)
        return table.gstars, table.window_saturated

    def conjugate(self) -> "GrowthFunction":
        """Conjugate profile as a new evaluable GrowthFunction."""

        def fn(ys):
            vals, _ = self.conjugate_at(np.atleast_1d(ys))
            return vals

        return GrowthFunction(f"{self.name}*", fn, convex=True, domain_min=None,
                              v_min=self.v_min)


def power_of_exp(C: float = 1.0, rho: float = 1.0) -> GrowthFunction:
    """Lambda(v) = C e^(rho v): order-rho growth."""
    if C <= 0 or rho <= 0:
        raise InputError("C and rho must be positive")
    return GrowthFunction(f"power_of_exp(C={C:g},rho={rho:g})",
                          lambda v: C * np.exp(rho * np.asarray(v, float)))


def power_log(C: float = 1.0, m: float = 2.0) -> GrowthFunction:
    """Lambda(v) = C |v|^m: logarithmic-power growth (m > 1)."""
    if C <= 0 or m <= 1:
        raise InputError("need C > 0 and m > 1")
    return GrowthFunction(f"power_log(C={C:g},m={m:g})",
                          lambda v: C * np.abs(np.asarray(v, float)) ** m)


def exp_of_exp(C5: float = 1.0, C6: float = 1.0) -> GrowthFunction:
    """Lambda(v) = C5 e^(C6 e^v): double-exponential growth."""
    if C5 <= 0 or C6 <= 0:
        raise InputError("C5 and C6 must be positive")

    def fn(v):
        with np.errstate(over="ignore"):
            return C5 * np.exp(C6 * np.exp(np.asarray(v, float)))

    return GrowthFunction(f"exp_of_exp(C5={C5:g},C6={C6:g})", fn)


def stirling_decay() -> GrowthFunction:
    """Q(n) = n ln n - n (Q(0) = 0): the exp-family coefficient decay."""

    def fn(n):
        n = np.asarray(n, dtype=float)
        return np.where(n > 0, n * np.log(np.maximum(n, 1e-300)) - n, 0.0)

    return GrowthFunction("stirling_decay", fn, domain_min=0.0)


def quadratic_decay(a: float = 0.5) -> GrowthFunction:
    """Q(n) = a n^2."""
    if a <= 0:
        raise InputError("a must be positive")
    return GrowthFunction(f"quadratic_decay(a={a:g})",
                          lambda n: a * np.asarray(n, float) ** 2, domain_min=0.0)


def table_decay(f: CoefficientSequence) -> GrowthFunction:
    """Convex decay of a finite table: the lower convex envelope of -ln|c_n|.

    Piecewise linear between the hull vertices of the rows, +inf outside
    them (the domain starts at the first nonzero row).  It lies below
    -ln|c_n| at every row, so |c_n| <= exp(-Q(n)) holds, and it is convex,
    as the reverse bound requires.
    """
    ns = np.arange(f.max_index + 1, dtype=float)
    q = -f.log_abs_array(ns)
    hull = _lower_hull_indices(ns, q)
    if len(hull) < 2:
        raise InputError(f"{f.name}: need at least two nonzero coefficients")
    hx, hq = ns[hull], q[hull]

    def fn(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= hx[0]) & (x <= hx[-1]), np.interp(x, hx, hq), np.inf)

    return GrowthFunction(f"decay({f.name})", fn, domain_min=hx[0])


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
    return -lstar


def _log_sum(term_fn: Callable[[np.ndarray], np.ndarray]) -> float:
    """ln sum_{n >= 0} exp(term_fn(n)); +inf unless log_series converged."""
    total, _, converged = log_series(term_fn)
    return total if converged else np.inf


def k_sum(decay: Callable[[np.ndarray], np.ndarray], eps: float) -> float:
    """K(eps) = sum_n exp(-eps * decay(n)); +inf marks divergence."""
    if not 0 < eps < 1:
        raise InputError("eps must lie in (0, 1)")
    return float(np.exp(_log_sum(lambda ns: -eps * np.asarray(decay(ns), float))))


def u_sum(decay: Callable[[np.ndarray], np.ndarray], eps: float) -> float:
    """U(eps) = sum_n exp(decay((1-eps) n) - decay(n)); +inf marks divergence."""
    if not 0 < eps < 1:
        raise InputError("eps must lie in (0, 1)")
    return float(np.exp(_log_sum(lambda ns: np.asarray(decay((1.0 - eps) * ns), float)
                                 - np.asarray(decay(ns), float))))


def r_sum(Q: GrowthFunction, v: float) -> float:
    """ln R_Q(v) = ln sum_n exp(n v - Q(n)): the sharp summation reference."""
    return _log_sum(lambda ns: ns * v - np.asarray(Q.fn(ns), float))


@dataclass(frozen=True)
class EpsilonReport:
    """K/U/Y values over the eps grid and the minimizing eps for the bound.

    qstar_saturated: the Q* window hit its cap at v/(1 - eps_star), so
    Q*(v/(1 - eps_star)) may fall short and the bound may be too low (set
    by max_function_upper_bound; multi_max_bound leaves it False).
    """

    eps_grid: np.ndarray
    K_vals: np.ndarray
    U_vals: np.ndarray
    Y_vals: np.ndarray
    eps_star: float
    S0: float
    bound: float
    normalization_shift: float = 0.0
    qstar_saturated: bool = False

    @property
    def c_eff(self) -> float:
        """Effective dilation constant (1 - eps*)^-1 of the saddle form."""
        return 1.0 / (1.0 - self.eps_star)


def _normalization_shift(Q: GrowthFunction) -> float:
    """Shift a making Q + a >= 0 with (Q + a)(0) >= 0 (convex Q)."""
    # convex profiles are increasing past their minimum; 64 log-units suffice
    lo = Q.domain_min if Q.domain_min is not None else -64.0
    return max(0.0, -float(np.min(Q(np.linspace(lo, lo + 64.0, 2049)))))


def max_function_upper_bound(Q: GrowthFunction, v: float,
                             eps_points: int = DEFAULT_EPS_POINTS,
                             coeffs: Optional[CoefficientSequence] = None):
    """Upper bound on ln R_Q(v) (hence on ln M_f(e^v)) via the eps scan.

    Hypothesis: |c_n| <= exp(-Q(n)) with Q convex.  Returns (log_bound,
    EpsilonReport).  The bound is min over eps of ln Y(eps) + Q*(v/(1-eps)),
    where K and U are computed from the normalized decay Q + a and the
    normalization cancels against the conjugate shift.
    """
    if not Q.convex:
        raise InputError("Q must be convex (Q** = Q is used directly)")
    if coeffs is not None:
        ns = np.arange(0, 1001)
        la = coeffs.log_abs_array(ns)
        qv = np.asarray(Q.fn(ns.astype(float)), dtype=float)
        bad = np.flatnonzero(la > -qv + 1e-9)
        if bad.size:
            raise InputError(
                f"hypothesis |c_n| <= exp(-Q(n)) fails at n={int(ns[bad[0]])}")
    a = _normalization_shift(Q)
    decay = lambda ns: np.asarray(Q.fn(ns), dtype=float) + a

    eps_grid = (np.arange(1, eps_points + 1)) / (eps_points + 1)
    K_vals = np.array([k_sum(decay, e) for e in eps_grid])
    U_vals = np.array([u_sum(decay, e) for e in eps_grid])
    Y_vals = np.minimum(K_vals, U_vals)
    if not np.any(np.isfinite(Y_vals)):
        raise NoFiniteBoundError(f"Y(eps) infinite across the grid for {Q.name}")

    def objective(eps, Y):
        qstar, _ = Q.conjugate_at(v / (1.0 - eps))
        with np.errstate(divide="ignore"):
            return np.where(np.isfinite(Y), np.log(Y) + qstar, np.inf)

    obj = objective(eps_grid, Y_vals)
    j = int(np.argmin(obj))
    eps_star, bound, s0 = eps_grid[j], obj[j], Y_vals[j]
    # zoom into the grid neighbours of the minimum; never above the grid value
    pts = eps_grid[max(j - 1, 0):j + 2]
    for _ in range(ZOOM_STAGES):
        pts = np.linspace(pts[0], pts[-1], ZOOM_POINTS)
        Y = np.array([min(k_sum(decay, e), u_sum(decay, e)) for e in pts])
        obj = objective(pts, Y)
        i = int(np.argmin(obj))
        if obj[i] < bound:
            eps_star, bound, s0 = pts[i], obj[i], Y[i]
        pts = pts[max(i - 1, 0):i + 2]
    _, saturated = Q.conjugate_at([v / (1.0 - eps_star)])
    report = EpsilonReport(eps_grid, K_vals, U_vals, Y_vals,
                           float(eps_star), float(s0), float(bound),
                           normalization_shift=a, qstar_saturated=saturated)
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
    lhs = np.array([log_max_function(f, ri) for ri in r]) / lam
    lstar, _ = Lambda.conjugate_at(n)
    ok = np.isfinite(lstar) & (lstar > 0)
    excluded = n[~ok]
    la = f.log_abs_array(n[ok])
    rhs = np.abs(la) / lstar[ok]
    w_l = min(window, lhs.size)
    w_r = min(window, rhs.size)
    return TauberianReport(r, lhs, n[ok], rhs, excluded,
                           float(np.mean(lhs[-w_l:])), float(np.mean(rhs[-w_r:])))

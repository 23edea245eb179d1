"""Regularly varying growth scales and the executable worked examples.

Scales of the form C1 * lambda^m * (ln lambda)^q (m > 1, q >= 0), their
conjugate asymptotics, and the growth/decay correspondence checks for
log-power and double-exponential growth.  The order-rho bound is the closed
conjugate of bounds.power_of_exp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bounds import GrowthFunction, coeff_upper_bound_many, exp_of_exp, power_log
from .errors import InputError
from .legendre import conjugate_of_callable


@dataclass(frozen=True)
class RegVarScale:
    """Scale C1 * lambda^m * (ln lambda)^q with conjugate exponent m' = m/(m-1).

    q = 0 gives the pure power scale; the slowly varying factor supported is
    (ln lambda)^q.  Evaluation domain is lambda >= e when q > 0.
    """

    m: float
    q: float = 0.0
    C1: float = 1.0

    def __post_init__(self):
        if self.m <= 1:
            raise InputError("need m > 1")
        if self.q < 0 or self.C1 <= 0:
            raise InputError("need q >= 0 and C1 > 0")

    @property
    def m_conj(self) -> float:
        return self.m / (self.m - 1.0)

    @property
    def domain_min(self) -> float:
        return math.e if self.q > 0 else 1.0

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=float)
        safe = np.maximum(lam, self.domain_min)
        val = self.C1 * safe ** self.m
        if self.q > 0:
            val = val * np.log(safe) ** self.q
        # below the domain edge, continue with the edge value (harmless for sup)
        return np.where(lam >= self.domain_min, val,
                        self.C1 * self.domain_min ** self.m)


def phi_scale(m: float, L_const: float = 1.0) -> RegVarScale:
    """The (1/m) lambda^m L scale with constant slowly varying factor."""
    return RegVarScale(m=m, q=0.0, C1=L_const / m)


def psi_scale(m: float, q: float, C1: float = 1.0) -> RegVarScale:
    """The C1 lambda^m (ln lambda)^q scale."""
    return RegVarScale(m=m, q=q, C1=C1)


def conjugate_asymptotic(scale: RegVarScale, x) -> np.ndarray:
    """Closed-form large-x asymptotic of the scale's conjugate.

    For q = 0 this is the exact (m')^-1-style power law; for q > 0 the
    leading term C2(m, q) x^m' (ln x)^(-q/(m-1)) with the stationary-point
    constant.  Not the exact conjugate: compare with conjugate_numeric.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < math.e):
        raise InputError("asymptotic is stated for x >= e")
    m, q, c1 = scale.m, scale.q, scale.C1
    mc = scale.m_conj
    c2 = (1.0 - 1.0 / m) * (c1 * m) ** (-1.0 / (m - 1.0)) * (m - 1.0) ** (q / (m - 1.0))
    val = c2 * x ** mc
    if q > 0:
        val = val * np.log(x) ** (-q / (m - 1.0))
    return val


def conjugate_numeric(scale: RegVarScale, x: float) -> float:
    """Exact conjugate sup_lam (x lam - scale(lam)) by window maximization.

    The scale argument is lambda itself (not a log-radius), so the window
    cap is widened well past the log-domain default.
    """
    return float(conjugate_of_callable(scale, [float(x)], x_min=scale.domain_min,
                                       hard_cap=1e9).gstars[0])


def conjugate_ratio(scale: RegVarScale, x: float) -> float:
    """Diagnostic ratio asymptotic / numeric conjugate (tends to 1)."""
    return float(conjugate_asymptotic(scale, x)) / conjugate_numeric(scale, x)


@dataclass(frozen=True)
class PowerLawFitReport:
    """Conjugate values on an index grid with power-law exponent diagnostics."""

    n_grid: np.ndarray
    lam_star: np.ndarray
    exponent_fit: float
    constant_estimates: np.ndarray
    constant_estimate: float


def example_31_check(m: float, C3: float, n_grid) -> PowerLawFitReport:
    """Log-power growth C3 (ln r)^m vs coefficient decay exp(-C4 n^m').

    Computes Lambda*(n) for Lambda(v) = C3 |v|^m, fits the decay exponent
    (should be m' = m/(m-1)) and extracts the stabilizing constant C4(m).
    """
    Lambda = power_log(C=C3, m=m)
    n = np.asarray(n_grid, dtype=float)
    lam_star = -coeff_upper_bound_many(Lambda, n)
    pos = (n > 1) & (lam_star > 0)
    if np.count_nonzero(pos) < 2:
        raise InputError("need at least two indices above 1 for the exponent fit")
    ln_n = np.log(n[pos])
    ln_ls = np.log(lam_star[pos])
    slope = float(np.polyfit(ln_n, ln_ls, 1)[0])
    mc = m / (m - 1.0)
    consts = np.where(n > 0, lam_star / np.maximum(n, 1.0) ** mc, np.nan)
    return PowerLawFitReport(n, lam_star, slope, consts,
                             float(consts[np.isfinite(consts)][-1]))


def refined_decay_profile(rho: float, gamma: float, n_grid) -> np.ndarray:
    """Refined order/log-order decay rate: n ln n / rho + gamma n lnln n / rho - n / rho."""
    n = np.asarray(n_grid, dtype=float)
    if np.any(n < 3):
        raise InputError("need n >= 3 for the ln ln n term")
    return (n * np.log(n) + gamma * n * np.log(np.log(n)) - n) / rho


@dataclass(frozen=True)
class DoubleExpReport:
    """Leading-term diagnostics for double-exponential growth."""

    n_grid: np.ndarray
    lam_star: np.ndarray
    leading: np.ndarray
    ratios: np.ndarray


def example_33_check(C5: float, C6: float, n_grid) -> DoubleExpReport:
    """Growth C5 e^(C6 r) vs coefficient decay (ln n)^(-n), up to a constant.

    Takes Lambda*(n) for Lambda(v) = C5 e^(C6 e^v) from its closed form and
    reports the ratio of -Lambda*(n) to the leading decay term -n ln ln n.
    """
    n = np.asarray(n_grid, dtype=float)
    if n.size == 0 or np.any(n < 3):
        raise InputError("n_grid must be non-empty and lie in [3, inf)")
    lam_star, _ = exp_of_exp(C5=C5, C6=C6).conjugate_at(n)
    leading = n * np.log(np.log(n))
    ratios = lam_star / leading
    return DoubleExpReport(n, lam_star, leading, ratios)

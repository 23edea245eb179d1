"""The executable worked examples.

The growth/decay correspondence checks for log-power and
double-exponential growth, each on its profile's closed-form conjugate.
The order-rho bound is the closed conjugate of bounds.power_of_exp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import coeff_upper_bound_many, exp_of_exp, power_log
from .errors import InputError


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

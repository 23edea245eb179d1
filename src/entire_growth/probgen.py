"""Integer-valued random variables, generating functions, and the
probabilistic Tauberian diagnostics.

The generating function E z^xi is the power series with probability masses
as coefficients, so the whole growth/decay machinery applies verbatim when
the law is light-tailed enough for the series to be entire.  Heavy-tailed
laws (geometric) have a finite radius of convergence and are refused by the
Tauberian report rather than silently truncated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .bounds import GrowthFunction, TauberianReport, tauberian_report
from .entire import CoefficientSequence, ZERO, coefficients_from_csv, log_majorant
from .errors import DivergenceError, InputError, NotEntireError

_MASS_TOL = 1e-12


@dataclass(frozen=True)
class DiscreteDistribution:
    """Law of a nonnegative integer random variable via log masses."""

    name: str
    log_mass_fn: Callable[[np.ndarray], np.ndarray]
    entire: bool
    radius: float = math.inf
    max_support: Optional[int] = None
    gamma_form: Optional[Tuple[float, float]] = None  # see CoefficientSequence

    def log_mass(self, k: int) -> float:
        if k < 0:
            raise InputError("support index must be >= 0")
        if self.max_support is not None and k > self.max_support:
            return ZERO
        return float(self.log_mass_fn(np.asarray([k], dtype=float))[0])

    def log_mass_array(self, ks) -> np.ndarray:
        ks = np.asarray(ks, dtype=float)
        out = np.asarray(self.log_mass_fn(ks), dtype=float)
        if self.max_support is not None:
            out = np.where(ks > self.max_support, ZERO, out)
        return out

    def as_coefficients(self) -> CoefficientSequence:
        return CoefficientSequence(self.name, self.log_mass_array,
                                   sign_nonnegative=True,
                                   max_index=self.max_support,
                                   gamma_form=self.gamma_form)


def poisson(lam: float) -> DiscreteDistribution:
    """Poisson(lambda): entire generating function exp(lambda (z - 1))."""
    if lam <= 0:
        raise InputError("lambda must be positive")

    def lm(k):
        from scipy.special import gammaln
        k = np.asarray(k, dtype=float)
        return -lam + k * math.log(lam) - gammaln(k + 1.0)

    return DiscreteDistribution(f"poisson(lam={lam:g})", lm, entire=True,
                                gamma_form=(1.0, math.log(lam)))


def poisson_growth(lam: float) -> GrowthFunction:
    """Closed-form growth profile of the Poisson g.f.: lambda (e^v - 1).

    Lambda*(n) = n ln(n/lambda) - n + lambda, at e^v = n/lambda;
    Lambda*(0) = lambda (not attained) and +inf for n < 0.
    """

    def conj(n):
        from scipy.special import xlogy
        k = np.maximum(n, 0.0)
        return np.where(n < 0, np.inf, xlogy(k, k / lam) - k + lam)

    return GrowthFunction(f"poisson_growth(lam={lam:g})",
                          lambda v: lam * (np.exp(np.asarray(v, float)) - 1.0), conj=conj)


def geometric(p: float) -> DiscreteDistribution:
    """Geometric(p) on {0, 1, ...}: masses (1-p) p^k; radius 1/p, not entire."""
    if not 0 < p < 1:
        raise InputError("p must lie in (0, 1)")

    def lm(k):
        k = np.asarray(k, dtype=float)
        return math.log1p(-p) + k * math.log(p)

    return DiscreteDistribution(f"geometric(p={p:g})", lm, entire=False, radius=1.0 / p)


def degenerate(k0: int) -> DiscreteDistribution:
    """Point mass at k0."""
    if k0 < 0:
        raise InputError("k0 must be >= 0")

    def lm(k):
        k = np.asarray(k, dtype=float)
        return np.where(k == k0, 0.0, ZERO)

    return DiscreteDistribution(f"degenerate(k={k0})", lm, entire=True, max_support=k0)


def distribution_from_csv(path, name: Optional[str] = None) -> DiscreteDistribution:
    """Load a mass table: `k, ln_mass` rows read by coefficients_from_csv.

    Normalization sum_k P = 1 is checked to 1e-12 by direct summation.
    """
    from scipy.special import logsumexp
    table = coefficients_from_csv(path, name)
    vals = table.log_abs_array(np.arange(table.max_index + 1))
    total = float(np.exp(logsumexp(vals[np.isfinite(vals)])))
    if abs(total - 1.0) > _MASS_TOL:
        raise InputError(f"masses in {path} sum to {total}, not 1")
    return DiscreteDistribution(table.name, table.log_abs_fn, entire=True,
                                max_support=table.max_index)


def generating_function_log(dist: DiscreteDistribution, r: float) -> float:
    """ln E r^xi = ln sum_k P(xi = k) r^k.

    Coefficients are nonnegative, so this is exactly ln M_g(r).  Radii at or
    beyond the convergence radius raise (geometric-type laws).
    """
    if r >= dist.radius:
        raise DivergenceError(
            f"{dist.name}: series diverges at r={r} (radius {dist.radius})")
    return log_majorant(dist.as_coefficients(), r)


def prob_tauberian_report(dist: DiscreteDistribution, LambdaP: GrowthFunction,
                          r_grid, n_grid) -> TauberianReport:
    """Tauberian ratio diagnostics with the mass sequence as coefficients."""
    if not dist.entire:
        raise NotEntireError(f"{dist.name}: generating function is not entire")
    return tauberian_report(dist.as_coefficients(), LambdaP, r_grid, n_grid)

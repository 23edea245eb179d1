"""Integer-valued random variables, generating functions, and the
probabilistic Tauberian diagnostics.

The generating function E z^xi is the power series with probability masses
as coefficients, so a law is a CoefficientSequence of log masses and the
whole growth/decay machinery applies to it as it stands.  The Poisson law
has an entire generating function (radius inf).  A law built with a finite
radius has a series that diverges past it, and both the generating
function and the Tauberian report refuse it rather than truncate it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import GrowthFunction, TauberianReport, tauberian_report
from .entire import CoefficientSequence, log_majorant
from .errors import DivergenceError, InputError, NotEntireError


@dataclass(frozen=True)
class DiscreteDistribution(CoefficientSequence):
    """Law of a nonnegative integer random variable: log_abs_fn gives the
    log masses ln P(xi = k), and radius is the radius of convergence of
    E z^xi (inf for an entire generating function)."""

    radius: float = math.inf


def poisson(lam: float) -> DiscreteDistribution:
    """Poisson(lambda): entire generating function exp(lambda (z - 1))."""
    if lam <= 0:
        raise InputError("lambda must be positive")

    def lm(k):
        from scipy.special import gammaln
        k = np.asarray(k, dtype=float)
        return -lam + k * math.log(lam) - gammaln(k + 1.0)

    return DiscreteDistribution(f"poisson(lam={lam:g})", lm,
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


def generating_function_log(dist: DiscreteDistribution, r: float) -> float:
    """ln E r^xi = ln sum_k P(xi = k) r^k.

    Coefficients are nonnegative, so this is exactly ln M_g(r).  Radii at or
    beyond a finite convergence radius raise.
    """
    if r >= dist.radius:
        raise DivergenceError(
            f"{dist.name}: series diverges at r={r} (radius {dist.radius})")
    return log_majorant(dist, r)


def prob_tauberian_report(dist: DiscreteDistribution, LambdaP: GrowthFunction,
                          r_grid, n_grid) -> TauberianReport:
    """Tauberian ratio diagnostics with the mass sequence as coefficients."""
    if dist.radius < math.inf:
        raise NotEntireError(f"{dist.name}: generating function is not entire")
    return tauberian_report(dist, LambdaP, r_grid, n_grid)

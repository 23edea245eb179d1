"""Integer-valued random variables, generating functions, and the
probabilistic Tauberian diagnostics.

The generating function E z^xi is the power series with probability masses
as coefficients, so a law is a CoefficientSequence of log masses and the
whole growth/decay machinery applies to it as it stands.  The Poisson law
has an entire generating function.  A law whose generating function is not
entire is refused, as any coefficient rule is, by assert_entire: its series
diverges past the radius, and nothing here truncates it.
"""

from __future__ import annotations

import math

import numpy as np

from .bounds import GrowthFunction, tauberian_report
from .entire import CoefficientSequence, log_max_function
from .errors import InputError


def poisson(lam: float) -> CoefficientSequence:
    """Poisson(lambda): masses ln P(xi = k) = -lambda + k ln lambda - ln k!,
    generating function exp(lambda (z - 1))."""
    if lam <= 0:
        raise InputError("lambda must be positive")

    def lm(k):
        from scipy.special import gammaln
        k = np.asarray(k, dtype=float)
        return -lam + k * math.log(lam) - gammaln(k + 1.0)

    return CoefficientSequence(f"poisson(lam={lam:g})", lm, gamma_form=(1.0, math.log(lam)))


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


#: ln E r^xi = ln sum_k P(xi = k) r^k: the masses are nonnegative, so this
#: is ln M of the generating function exactly
generating_function_log = log_max_function

#: Tauberian ratio diagnostics with the masses as coefficients
prob_tauberian_report = tauberian_report

"""References computed apart from the library: closed forms and brute force.

Nothing here imports entire_growth.  Every function takes plain numbers or
numpy arrays and returns the value the library is checked against.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf, gammaln, lambertw, logsumexp, xlogy

# ---------------------------------------------------------------- decays Q(n)


def stirling_q(n):
    """Q(n) = n ln n - n with Q(0) = 0."""
    n = np.asarray(n, dtype=float)
    return xlogy(n, n) - n


def order_q(rho):
    """Q(n) = ln Gamma(n/rho + 1): the order-rho decay."""
    return lambda n: gammaln(np.asarray(n, dtype=float) / rho + 1.0)


def quadratic_q(a):
    return lambda n: a * np.asarray(n, dtype=float) ** 2


def log_r(q, v, n_max=None):
    """ln R_Q(v) = ln sum_{n>=0} exp(n v - Q(n)) by logsumexp.

    Without n_max the number of terms doubles until the last 64 terms lie
    more than 60 nats under the largest one and fall, so the tail left out
    is below e^-60 of the sum.
    """
    if n_max is not None:
        ns = np.arange(n_max + 1, dtype=float)
        t = ns * v - q(ns)
        return float(logsumexp(t[np.isfinite(t)]))
    size = 1024
    while True:
        ns = np.arange(size, dtype=float)
        t = ns * v - q(ns)
        tail = t[-64:]
        if np.all(tail < np.max(t) - 60.0) and np.all(np.diff(tail) < 0):
            return float(logsumexp(t))
        size *= 2
        if size > 1 << 24:
            raise RuntimeError("reference series did not settle")


# ------------------------------------------------------ maximal functions


def ln_m_exp(r):
    """ln M(r) of e^z."""
    return float(r)


def ln_m_order2(r):
    """ln M(r) of sum z^n / Gamma(n/2 + 1) = e^{z^2}(1 + erf z)."""
    return float(r) ** 2 + math.log1p(float(erf(r)))


def ln_m_poisson(lam, r):
    """ln of the Poisson generating function e^{lam (r - 1)}."""
    return lam * (float(r) - 1.0)


# ------------------------------------------------- conjugates Lambda*(n)


def conj_power_of_exp(C, rho, n):
    """sup_v (n v - C e^{rho v}) = (n/rho)(ln(n/(C rho)) - 1), n > 0."""
    n = np.asarray(n, dtype=float)
    return (n / rho) * (np.log(n / (C * rho)) - 1.0)


def conj_power_log(C, m, n):
    """sup_v (n v - C |v|^m) = (m-1) C (n/(m C))^{m/(m-1)}, n >= 0."""
    n = np.asarray(n, dtype=float)
    return (m - 1.0) * C * (n / (m * C)) ** (m / (m - 1.0))


def argmax_power_log(C, m, n):
    return (np.asarray(n, dtype=float) / (m * C)) ** (1.0 / (m - 1.0))


def conj_exp_of_exp(C5, C6, n):
    """sup_v (n v - C5 e^{C6 e^v}) = n ln(w/C6) - n/w with w = W(n/C5)."""
    n = np.asarray(n, dtype=float)
    w = np.real(lambertw(n / C5))
    return n * np.log(w / C6) - n / w


def conj_poisson(lam, n):
    """sup_v (n v - lam (e^v - 1)) = n ln(n/lam) - n + lam, n > 0."""
    n = np.asarray(n, dtype=float)
    return n * np.log(n / lam) - n + lam


def conj_half_square(y):
    """(x^2/2)* = y^2/2."""
    return 0.5 * np.asarray(y, dtype=float) ** 2


def brute_conjugate(xs, gs, ys):
    """max over samples of x y - g(x), one multiply and one subtract each."""
    return np.max(xs[:, None] * ys[None, :] - gs[:, None], axis=0)


# --------------------------------------------------------------- checks


def close(a, b, rtol=1e-9, atol=1e-9):
    """Elementwise |a - b| <= atol + rtol |b|, with equal infinities allowed."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    same_inf = np.isinf(a) & np.isinf(b) & (np.sign(a) == np.sign(b))
    with np.errstate(invalid="ignore"):
        ok = np.abs(a - b) <= atol + rtol * np.abs(b)
    return bool(np.all(ok | same_inf))


def leq(a, b, rtol=1e-9, atol=1e-9):
    """Elementwise a <= b up to atol + rtol |b|."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return bool(np.all(a <= b + atol + rtol * np.abs(b)))

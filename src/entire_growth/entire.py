"""Entire functions modeled by Taylor-coefficient rules.

Coefficients are handled in the log domain: an accessor returns ln|c_n|,
with -inf (the ZERO marker) standing in for vanishing coefficients.  The
maximal function is evaluated through the coefficient-sum upper bound
ln sum_n |c_n| r^n, which is exact for nonnegative coefficients.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
    InputError,
    NotEntireError,
    TruncationError,
    UndefinedOrderError,
)

#: log-domain marker for a vanishing coefficient (ln 0)
ZERO = float("-inf")

# series truncation (see log_series)
_TAIL_RUN = 50
_TAIL_LOG = 45.0
MAX_TERMS = 10 ** 6


@dataclass(frozen=True)
class CoefficientSequence:
    """Rule or table producing ln|c_n| for each index n."""

    name: str
    log_abs_fn: Callable[[np.ndarray], np.ndarray]
    sign_nonnegative: bool = True
    max_index: Optional[int] = None
    _entire_checked: list = field(default_factory=list, repr=False, compare=False)

    def log_abs(self, n: int) -> float:
        """ln|c_n|, or ZERO (-inf) for a vanishing coefficient."""
        if n < 0:
            raise InputError("coefficient index must be >= 0")
        if self.max_index is not None and n > self.max_index:
            return ZERO
        return float(self.log_abs_fn(np.asarray([n], dtype=float))[0])

    def log_abs_array(self, ns) -> np.ndarray:
        ns = np.asarray(ns, dtype=float)
        if np.any(ns < 0):
            raise InputError("coefficient indices must be >= 0")
        out = np.asarray(self.log_abs_fn(ns), dtype=float)
        if self.max_index is not None:
            out = np.where(ns > self.max_index, ZERO, out)
        return out

    @property
    def is_polynomial(self) -> bool:
        return self.max_index is not None

    def assert_entire(self, n0: int = 16, n1: int = 2048) -> None:
        """Numerical radius-of-convergence check on the available range.

        Requires (1/n) ln|c_n| to trend down (toward -inf) past n0.
        Polynomials are entire by definition and skip the trend check.
        """
        if self._entire_checked:
            if self._entire_checked[0]:
                return
            raise NotEntireError(f"{self.name}: fails entirety trend check")
        ok = True
        if not self.is_polynomial:
            ns = np.arange(n0, n1 + 1)
            la = self.log_abs_array(ns)
            finite = np.isfinite(la)
            if np.count_nonzero(finite) >= 8:
                ratio = la[finite] / ns[finite]
                k = ratio.size // 4
                ok = (np.mean(ratio[-k:]) < np.mean(ratio[:k])) and ratio[-1] < 0
        self._entire_checked.append(ok)
        if not ok:
            raise NotEntireError(f"{self.name}: fails entirety trend check")


def exp_coefficients() -> CoefficientSequence:
    """c_n = 1/n!, the exponential function."""
    return CoefficientSequence("exp", gamma_order_coefficients(1.0).log_abs_fn)


def gamma_order_coefficients(rho: float, c4: float = 1.0) -> CoefficientSequence:
    """c_n = c4^(n/rho) / Gamma(n/rho + 1), the Mittag-Leffler coefficients
    of E_{1/rho}(c4^(1/rho) z), with ln M(r) ~ c4 r^rho.  Gamma(k+1) >= (k/e)^k
    at k = n/rho gives ln|c_n| <= -Lambda*(n) for Lambda(v) = c4 e^(rho v)."""
    if rho <= 0 or c4 <= 0:
        raise InputError("rho and c4 must be positive")

    def la(n):
        from scipy.special import gammaln
        k = n / rho
        return -(gammaln(k + 1.0) - k * math.log(c4))  # -0.0 where gammaln = 0 at c4 = 1

    return CoefficientSequence(f"gamma_order(rho={rho:g})", la)


def power_decay_coefficients(alpha: float) -> CoefficientSequence:
    """c_0 = 1 and c_n = n^(-alpha*n) for n >= 1."""
    if alpha <= 0:
        raise InputError("alpha must be positive")

    def la(n):
        n = np.asarray(n, dtype=float)
        return np.where(n > 0, -alpha * n * np.log(np.maximum(n, 1.0)), 0.0)

    return CoefficientSequence(f"power_decay(alpha={alpha:g})", la)


def gaussian_coefficients(a: float = 1.0) -> CoefficientSequence:
    """c_n = exp(-a*n^2)."""
    if a <= 0:
        raise InputError("a must be positive")
    return CoefficientSequence(f"gaussian(a={a:g})", lambda n: -a * np.asarray(n, float) ** 2)


def table_coefficients(log_abs_values, name: str = "table",
                       sign_nonnegative: bool = True) -> CoefficientSequence:
    """Finite table of ln|c_n| values, n = 0..len-1; ZERO marks gaps."""
    vals = np.asarray(log_abs_values, dtype=float)
    if vals.ndim != 1 or vals.size == 0:
        raise InputError("table must be a nonempty 1-D sequence")

    def la(n):
        n = np.asarray(n, dtype=float)
        idx = np.clip(n.astype(int), 0, vals.size - 1)
        return np.where(n < vals.size, vals[idx], ZERO)

    return CoefficientSequence(name, la, sign_nonnegative=sign_nonnegative,
                               max_index=vals.size - 1)


def polynomial_coefficients(coeffs, name: str = "polynomial") -> CoefficientSequence:
    """Table built from plain coefficient values c_0..c_N."""
    c = np.asarray(coeffs, dtype=float)
    with np.errstate(divide="ignore"):
        la = np.where(c == 0.0, ZERO, np.log(np.abs(np.where(c == 0.0, 1.0, c))))
    return table_coefficients(la, name=name, sign_nonnegative=bool(np.all(c >= 0)))


def coefficients_from_csv(path, name: Optional[str] = None) -> CoefficientSequence:
    """Load a table of `index, ln value` rows; "ZERO" marks ln 0.

    A first cell "n", "k" or empty marks a header or blank row; later rows
    for the same index win and missing indices are ZERO.  Any other row
    that is not an integer index in [0, MAX_TERMS] and a number below +inf
    (or ZERO) raises InputError naming the file and line.
    """
    entries = {}
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            for row in reader:
                if not row or row[0].strip().lower() in ("n", "k", ""):
                    continue
                try:
                    n, v = int(row[0]), row[1].strip()
                    v = ZERO if v.upper() == "ZERO" else float(v)
                    if not 0 <= n <= MAX_TERMS or not v < math.inf:
                        raise ValueError
                except (ValueError, IndexError):
                    raise InputError(
                        f"{path} line {reader.line_num}: malformed row {row!r}; want an "
                        f"index in [0, {MAX_TERMS}] and a ln value or ZERO") from None
                entries[n] = v
    except (csv.Error, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: unreadable table ({exc})") from None
    if not entries:
        raise InputError(f"no table rows in {path}")
    vals = np.full(max(entries) + 1, ZERO)
    for n, v in entries.items():
        vals[n] = v
    return table_coefficients(vals, name=name or str(path))


def log_series(term_fn: Callable[[np.ndarray], np.ndarray], n_max: int = MAX_TERMS,
               block: int = 256, finite: bool = False):
    """ln sum_{n=0}^{n_max} exp(term_fn(n)), summed in blocks of `block` terms.

    Returns (log_sum, terms_summed, converged).  The sum stops, converged,
    after the first block that ends with 50 consecutive terms more than 45
    nats under the running log-sum; otherwise it runs to n_max, which
    defaults to the cap MAX_TERMS = 10^6.  A `finite` series (n_max is its
    last term) has no stop rule: every term is summed and the sum counts as
    converged.  A +inf term makes the sum +inf (converged); a NaN term
    counts as -inf.

    term_fn may also return terms of shape (rows, block): a batch of series,
    each row with its own stop rule and its result fixed once it stops.
    The three results are then arrays over the rows.
    """
    n = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while n <= n_max:
            ns = np.arange(n, min(n + block, n_max + 1), dtype=float)
            t = np.asarray(term_fn(ns), dtype=float)
            if n == 0:
                total = np.full(t.shape[:-1], -math.inf)
                run = terms = np.zeros(total.shape, dtype=int)
                stopped = np.zeros(total.shape, dtype=bool)
            n += ns.size
            live = ~stopped
            terms = np.where(live, n, terms)
            t = np.where(np.isnan(t), -math.inf, t)
            top = t.max(axis=-1)
            m = np.maximum(total, top)
            summed = m + np.log(np.exp(total - m) + np.exp(t - m[..., None]).sum(axis=-1))
            summed = np.where(top == math.inf, math.inf, summed)
            total = np.where(live & (top > -math.inf), summed, total)
            # length of each row's trailing run of negligible terms
            big = t >= total[..., None] - _TAIL_LOG
            run = np.where(big.any(axis=-1), np.argmax(big[..., ::-1], axis=-1),
                           run + t.shape[-1])
            stopped = stopped | (live & ((top == math.inf) | (run >= _TAIL_RUN) & (not finite)))
            if stopped.all():
                break
    return total[()], terms[()], (stopped | finite)[()]  # scalars for one series


def log_max_function(f: CoefficientSequence, r):
    """ln of the coefficient-sum majorant sum_n |c_n| r^n, elementwise in r.

    Exact equal to ln M_f(r) when all coefficients are nonnegative; an upper
    bound on it otherwise (flagged by f.sign_nonnegative).  f must pass the
    entirety check; see log_majorant for the sum itself.
    """
    f.assert_entire()
    return log_majorant(f, r)


def log_majorant(f: CoefficientSequence, r):
    """ln sum_n |c_n| r^n for a series that converges at r, elementwise in r.

    Raises TruncationError when an infinite series has not converged
    within MAX_TERMS terms.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise InputError("r must be positive")
    lr = np.log(r)[..., None]
    total, terms, converged = log_series(
        lambda ns: f.log_abs_array(ns) + ns * lr,
        f.max_index if f.is_polynomial else MAX_TERMS, finite=f.is_polynomial)
    if not np.all(converged):
        raise TruncationError(f"series for {f.name} at r={r[~np.asarray(converged)][0]} "
                              f"not converged within {np.max(terms)} terms")
    return total


@dataclass(frozen=True)
class LimsupEstimate:
    """Windowed running-max surrogate for a limsup, with trend diagnostics."""

    value: float
    ns: np.ndarray
    values: np.ndarray
    running_max: np.ndarray


def order_estimate(f: CoefficientSequence, n_min: int, n_max: int) -> LimsupEstimate:
    """Finite-range surrogate for the order: max of n ln n / |ln|c_n||.

    This is the classical rho = limsup n ln n / ln(1/|c_n|) taken as a
    running max over [n_min, n_max].  For exp-type families the terms
    decrease towards the order, so the surrogate approaches it from above
    (for exp itself, n ln n / ln n! > 1 for every n >= 2).
    """
    if not (n_max > n_min >= 2):
        raise InputError("need n_max > n_min >= 2")
    ns = np.arange(n_min, n_max + 1)
    la = f.log_abs_array(ns)
    valid = np.isfinite(la) & (la != 0.0)
    if not np.any(valid):
        raise UndefinedOrderError(f"{f.name}: no usable coefficients in range (polynomial?)")
    ns_v = ns[valid]
    vals = ns_v * np.log(ns_v) / np.abs(la[valid])
    rmax = np.maximum.accumulate(vals)
    return LimsupEstimate(float(rmax[-1]), ns_v, vals, rmax)


def type_estimate(f: CoefficientSequence, rho: float, n_min: int, n_max: int) -> LimsupEstimate:
    """Finite-range surrogate for the type: max of n^(1/rho) |c_n|^(1/n).

    Implements the coefficient formula verbatim; this normalization differs
    from the classical sigma = (e*rho)^-1 limsup n |c_n|^(rho/n) by constants.
    """
    if rho <= 0:
        raise InputError("rho must be positive")
    if not (n_max > n_min >= 1):
        raise InputError("need n_max > n_min >= 1")
    ns = np.arange(n_min, n_max + 1)
    la = f.log_abs_array(ns)
    valid = np.isfinite(la)
    if not np.any(valid):
        raise UndefinedOrderError(f"{f.name}: no usable coefficients in range (polynomial?)")
    ns_v = ns[valid]
    vals = np.exp(np.log(ns_v) / rho + la[valid] / ns_v)
    rmax = np.maximum.accumulate(vals)
    return LimsupEstimate(float(rmax[-1]), ns_v, vals, rmax)


def derivative_coeffs(f: CoefficientSequence) -> CoefficientSequence:
    """Coefficient rule of f': c_k[f'] = (k+1) c_{k+1}[f]."""

    def la(k):
        k = np.asarray(k, dtype=float)
        return np.log(k + 1.0) + f.log_abs_array(k + 1.0)

    new_max = None if f.max_index is None else max(f.max_index - 1, 0)
    return CoefficientSequence(f"d/dz[{f.name}]", la,
                               sign_nonnegative=f.sign_nonnegative, max_index=new_max)

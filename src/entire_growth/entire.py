"""Entire functions modeled by Taylor-coefficient rules.

Coefficients are handled in the log domain: an accessor returns ln|c_n|,
with -inf (the ZERO marker) standing in for vanishing coefficients.  The
maximal function is evaluated through the coefficient-sum upper bound
ln sum_n |c_n| r^n, which is exact for nonnegative coefficients.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import (
    InputError,
    NotEntireError,
    TruncationError,
    UndefinedOrderError,
)

#: log-domain marker for a vanishing coefficient (ln 0)
ZERO = float("-inf")

# series truncation (see log_series): terms per block, and the stop rule
_BLOCK = 256
_TAIL_RUN = 50
_TAIL_LOG = 45.0
MAX_TERMS = 10 ** 6
# indices of assert_entire's trend check
_TREND_N0, _TREND_N1 = 16, 2048


@dataclass(frozen=True)
class CoefficientSequence:
    """Rule or table producing ln|c_n| for each index n.

    gamma_form = (a, b) declares that -ln|c_n| = lnGamma(a n + 1) - b n + c
    for some constant c.  Such rows are convex in n (digamma increases), so
    every row is a vertex of their lower hull; bounds.index_decay and
    log_max_function rely on that.  (a, b) only seed searches on the rows,
    which read every value from log_abs_fn.
    """

    name: str
    log_abs_fn: Callable[[np.ndarray], np.ndarray]
    max_index: Optional[int] = None
    gamma_form: Optional[Tuple[float, float]] = None

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

    def assert_entire(self) -> None:
        """Numerical radius-of-convergence check on n in [16, 2048].

        Requires (1/n) ln|c_n| to trend down (toward -inf) past n = 16.
        Polynomials are entire by definition and skip the trend check, and
        so does a declared gamma_form with a > 0: -ln|c_n| = lnGamma(a n +
        1) - b n + c grows faster than any multiple of n, while the probe
        can read a slow start (Poisson(1000) for n < 1000) as a finite
        radius.
        """
        if self.is_polynomial or (self.gamma_form and self.gamma_form[0] > 0):
            return
        ns = np.arange(_TREND_N0, _TREND_N1 + 1)
        la = self.log_abs_array(ns)
        finite = np.isfinite(la)
        if np.count_nonzero(finite) >= 8:
            ratio = la[finite] / ns[finite]
            k = ratio.size // 4
            if not (np.mean(ratio[-k:]) < np.mean(ratio[:k]) and ratio[-1] < 0):
                raise NotEntireError(f"{self.name}: fails entirety trend check")


def exp_coefficients() -> CoefficientSequence:
    """c_n = 1/n!, the exponential function."""
    return CoefficientSequence("exp", gamma_order_coefficients(1.0).log_abs_fn,
                               gamma_form=(1.0, 0.0))


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

    return CoefficientSequence(f"gamma_order(rho={rho:g})", la,
                               gamma_form=(1.0 / rho, math.log(c4) / rho))


def table_coefficients(log_abs_values, name: str = "table") -> CoefficientSequence:
    """Finite table of ln|c_n| values, n = 0..len-1; ZERO marks gaps."""
    vals = np.asarray(log_abs_values, dtype=float)
    if vals.ndim != 1 or vals.size == 0:
        raise InputError("table must be a nonempty 1-D sequence")

    def la(n):
        n = np.asarray(n, dtype=float)
        idx = np.minimum(np.maximum(n.astype(int), 0), vals.size - 1)
        return np.where(n < vals.size, vals[idx], ZERO)

    return CoefficientSequence(name, la, max_index=vals.size - 1)


def polynomial_coefficients(coeffs, name: str = "polynomial") -> CoefficientSequence:
    """Table built from plain coefficient values c_0..c_N."""
    c = np.asarray(coeffs, dtype=float)
    with np.errstate(divide="ignore"):
        la = np.where(c == 0.0, ZERO, np.log(np.abs(np.where(c == 0.0, 1.0, c))))
    return table_coefficients(la, name=name)


def coefficients_from_csv(path, name: Optional[str] = None) -> CoefficientSequence:
    """Load a table of `index, ln value` rows; "ZERO" marks ln 0.

    A first cell "n", "k" or empty marks a header or blank row; later rows
    for the same index win and missing indices are ZERO.  Any other row
    that is not an integer index in [0, MAX_TERMS] and a number below +inf
    (or ZERO) raises InputError naming the file and line, and so does a
    table with no nonzero coefficient.
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
    if not any(v > ZERO for v in entries.values()):  # an empty table too
        raise InputError(f"{path}: no nonzero coefficient")
    vals = np.full(max(entries) + 1, ZERO)
    for n, v in entries.items():
        vals[n] = v
    return table_coefficients(vals, name=name or str(path))


def log_series(term_fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
               n_max: int = MAX_TERMS, finite: bool = False,
               shape: tuple = (), level=None):
    """ln sum_{n=0}^{n_max} exp(term_fn(n)) for each series of a batch of
    the given shape, summed in blocks of _BLOCK = 256 terms.

    term_fn(ns, rows) gives the terms at indices ns of the series still
    running, rows being their flat indices into the batch: an array of
    shape (rows.size, ns.size), or one row's terms when the batch holds
    one series.  A series stops, converged, after the first block that
    ends with 50 consecutive terms more than 45 nats under its running
    log-sum, and term_fn is never asked for its terms again; otherwise it
    runs to n_max, which defaults to the cap MAX_TERMS = 10^6.  A `finite`
    series (n_max is its last term) has no stop rule: every term is summed,
    no trailing run is counted, and the sum counts as converged.  A +inf
    term makes the sum +inf (converged); a NaN term counts as -inf.

    The stop is safe for log-concave rows (ln of the terms concave in n, as
    the K0 rows -eps Q(n) of a convex Q are).  While the terms rise, each
    is the largest so far, so it lies within ln(n+1) < 14 nats of the sum;
    so does the peak term, and a stop at N comes after the peak.  From the
    peak to term N the terms fall by more than 45 - ln(N+1) > 31 nats, so
    by concavity each later ratio t(n+1)/t(n) is at most r = e^(-31/(N -
    peak)), and the tail past N is at most t(N) r/(1 - r) < S e^-45 (N -
    peak)/31 < S e^-34 for the sum S: a relative error below e^-30.

    level, an array of the batch's shape (or one value for all), gives each
    row a stop level: the row stops after the first block whose running
    log-sum is >= its level, and that partial sum is its log_sum (counted
    as converged).  A NaN or +inf level never stops a row.  A running
    log-sum never decreases, in floating point too: a block makes it m +
    ln(e^(total - m) + sum_i e^(t_i - m)), m the larger of the total and
    the block's top term, and the sum under the ln holds e^0 = 1, so the
    new total is >= m >= the old one.  So a row stopped at a level L has L
    <= log_sum <= its full sum, and min(L, full sum) is L bit for bit.

    Returns (log_sum, terms_summed, converged), arrays of the batch's shape
    (scalars for shape ()).
    """
    total = np.full(shape, -math.inf).ravel()
    run, terms = np.zeros((2, total.size), dtype=int)
    live = np.arange(total.size)
    if level is not None:
        level = np.broadcast_to(np.asarray(level, dtype=float), shape).ravel()
    n = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while n <= n_max and live.size:
            ns = np.arange(n, min(n + _BLOCK, n_max + 1), dtype=float)
            t = np.asarray(term_fn(ns, live), dtype=float).reshape(live.size, ns.size)
            n += ns.size
            terms[live] = n
            t = np.fmax(t, -math.inf)  # NaN -> -inf
            top, tot = t.max(axis=-1), total[live]
            m = np.maximum(tot, top)
            d = t - m[:, None]
            summed = m + np.log(np.exp(tot - m) + np.exp(d, out=d).sum(axis=-1))
            summed = np.where(top == math.inf, math.inf, summed)
            total[live] = tot = np.where(top > -math.inf, summed, tot)
            keep = top < math.inf
            if not finite:
                # length of each row's trailing run of negligible terms: the
                # distance back to its last big term, if the block has one
                big = t >= (tot - _TAIL_LOG)[:, None]
                back = np.argmax(big[:, ::-1], axis=-1)
                hit = big[np.arange(live.size), ns.size - 1 - back]
                run[live] = r = np.where(hit, back, run[live] + ns.size)
                keep &= r < _TAIL_RUN
            if level is not None:
                keep &= ~(tot >= level[live])
            live = live[keep]
    converged = np.ones(total.size, dtype=bool)
    converged[live] = finite
    return tuple(a.reshape(shape)[()] for a in (total, terms, converged))


def log_max_function(f: CoefficientSequence, r):
    """ln of the coefficient-sum majorant sum_n |c_n| r^n, elementwise in r.

    Exactly ln M_f(r) when all coefficients are nonnegative; an upper bound
    on it otherwise.  f must pass the entirety check.  A polynomial's rows
    0..max_index are read once per call, in one log_abs_array call, and
    each block of the sum takes its slice of them.  Raises TruncationError
    when an infinite series has not converged within MAX_TERMS terms.
    """
    f.assert_entire()
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise InputError("r must be positive")
    lr = np.log(r).ravel()
    if f.gamma_form is not None and not f.is_polynomial:
        # convex rows q(n) = -ln|c_n|: past their last slope q(MAX_TERMS) -
        # q(MAX_TERMS - 1) the terms still rise at n = MAX_TERMS, each within
        # ln(n + 1) < 45 nats of the running sum, so the series cannot stop
        q = -f.log_abs_array(np.array([MAX_TERMS - 1.0, MAX_TERMS]))
        rising = np.isfinite(lr) & (lr > q[1] - q[0])
        if np.any(rising):
            raise TruncationError(f"series for {f.name} at r={r.ravel()[rising][0]} not "
                                  f"converged within {MAX_TERMS + 1} terms: its terms "
                                  f"still rise at n = {MAX_TERMS}")
    if f.is_polynomial:
        la = f.log_abs_array(np.arange(f.max_index + 1, dtype=float))
        rows_at = lambda ns: la[int(ns[0]):int(ns[0]) + ns.size]
    else:
        rows_at = f.log_abs_array
    total, terms, converged = log_series(
        lambda ns, rows: rows_at(ns) + ns * lr[rows, None],
        f.max_index if f.is_polynomial else MAX_TERMS, finite=f.is_polynomial, shape=r.shape)
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


def _limsup_estimate(f: CoefficientSequence, n_min: int, n_max: int, valid_fn,
                     value_fn) -> LimsupEstimate:
    """Running max of value_fn(n, ln|c_n|) over the n in [n_min, n_max]
    whose ln|c_n| passes valid_fn."""
    ns = np.arange(n_min, n_max + 1)
    la = f.log_abs_array(ns)
    valid = valid_fn(la)
    if not np.any(valid):
        raise UndefinedOrderError(f"{f.name}: no usable coefficients in range (polynomial?)")
    ns_v = ns[valid]
    vals = value_fn(ns_v, la[valid])
    rmax = np.maximum.accumulate(vals)
    return LimsupEstimate(float(rmax[-1]), ns_v, vals, rmax)


def order_estimate(f: CoefficientSequence, n_min: int, n_max: int) -> LimsupEstimate:
    """Finite-range surrogate for the order: max of n ln n / |ln|c_n||.

    This is the classical rho = limsup n ln n / ln(1/|c_n|) taken as a
    running max over [n_min, n_max].  For exp-type families the terms
    decrease towards the order, so the surrogate approaches it from above
    (for exp itself, n ln n / ln n! > 1 for every n >= 2).
    """
    if not (n_max > n_min >= 2):
        raise InputError("need n_max > n_min >= 2")
    return _limsup_estimate(f, n_min, n_max, lambda la: np.isfinite(la) & (la != 0.0),
                            lambda ns, la: ns * np.log(ns) / np.abs(la))


def type_estimate(f: CoefficientSequence, rho: float, n_min: int, n_max: int) -> LimsupEstimate:
    """Finite-range surrogate for the type: max of n^(1/rho) |c_n|^(1/n).

    Implements the coefficient formula verbatim; this normalization differs
    from the classical sigma = (e*rho)^-1 limsup n |c_n|^(rho/n) by constants.
    """
    if rho <= 0:
        raise InputError("rho must be positive")
    if not (n_max > n_min >= 1):
        raise InputError("need n_max > n_min >= 1")
    return _limsup_estimate(f, n_min, n_max, np.isfinite,
                            lambda ns, la: np.exp(np.log(ns) / rho + la / ns))

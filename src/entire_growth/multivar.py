"""Several-complex-variables extension.

Multi-index coefficient bounds through d-dimensional conjugates, K/U/Y sums
over multi-indices, and the factorizable-function consistency checks.
Dimension is capped at 3; non-separable profiles go through brute-force
product-grid conjugation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .bounds import DEFAULT_EPS_POINTS, EpsilonReport, GrowthFunction, _y_branches
from .entire import CoefficientSequence, ZERO, log_max_function, log_series
from .errors import (
    InputError,
    NoFiniteBoundError,
    ResourceLimitError,
    UnsupportedDimensionError,
)
from .legendre import SampledFunctionND, conjugate_nd

_AXIS_CAP = 4096  # per-axis limit on the truncated multi-index box


def _check_dim(d: int) -> None:
    if not 1 <= d <= 3:
        raise UnsupportedDimensionError(f"dimension {d} not supported (d <= 3)")


@dataclass(frozen=True)
class MultiCoefficientSequence:
    """Coefficients c_k indexed by multi-indices, optionally factorized."""

    dimension: int
    log_abs_fn: Callable[[Tuple[int, ...]], float]
    factors: Optional[Sequence[CoefficientSequence]] = None

    def __post_init__(self):
        _check_dim(self.dimension)
        if self.factors is not None and len(self.factors) != self.dimension:
            raise InputError("one factor sequence per axis required")

    @classmethod
    def from_factors(cls, factors: Sequence[CoefficientSequence]) -> "MultiCoefficientSequence":
        factors = tuple(factors)
        _check_dim(len(factors))

        def la(k):
            parts = [f.log_abs(int(kj)) for f, kj in zip(factors, k)]
            return ZERO if any(p == ZERO for p in parts) else float(sum(parts))

        return cls(len(factors), la, factors=factors)

    def log_abs(self, k) -> float:
        k = tuple(int(x) for x in k)
        if len(k) != self.dimension or any(x < 0 for x in k):
            raise InputError("multi-index must be nonnegative of matching dimension")
        return float(self.log_abs_fn(k))


@dataclass(frozen=True)
class MultiGrowthFunction:
    """Growth/decay profile on R^d, coordinatewise nondecreasing on its box."""

    dimension: int
    fn: Callable[[np.ndarray], np.ndarray]  # (..., d) -> (...)
    separable_parts: Optional[Sequence[GrowthFunction]] = None
    domain_min: Optional[float] = None

    def __post_init__(self):
        _check_dim(self.dimension)
        if self.separable_parts is not None and len(self.separable_parts) != self.dimension:
            raise InputError("one part per axis required")

    @classmethod
    def from_separable(cls, parts: Sequence[GrowthFunction]) -> "MultiGrowthFunction":
        parts = tuple(parts)
        _check_dim(len(parts))
        dom = parts[0].domain_min
        if any(p.domain_min != dom for p in parts):
            raise InputError("separable parts must share their domain edge")

        def fn(v):
            v = np.asarray(v, dtype=float)
            return sum(np.asarray(p.fn(v[..., j]), dtype=float)
                       for j, p in enumerate(parts))

        return cls(len(parts), fn, separable_parts=parts, domain_min=dom)

    def __call__(self, v):
        out = np.asarray(self.fn(np.asarray(v, dtype=float)), dtype=float)
        return out if out.ndim else float(out)

    @property
    def separable(self) -> bool:
        return self.separable_parts is not None


def multi_coeff_bound(Lambda: MultiGrowthFunction, k,
                      window: Tuple[float, float] = (-12.0, 12.0),
                      samples_per_axis: int = 241) -> float:
    """Log upper bound on |c_k|: returns -Lambda*(k).

    Separable profiles use exact per-axis adaptive conjugation; general
    profiles fall back to product-grid brute force on the given window.
    """
    k = tuple(float(x) for x in k)
    if len(k) != Lambda.dimension or any(x < 0 for x in k):
        raise InputError("multi-index must be nonnegative of matching dimension")
    if Lambda.separable:
        return -sum(float(part.conjugate_at([kj])[0][0])
                    for part, kj in zip(Lambda.separable_parts, k))
    lo, hi = window
    axes = [np.linspace(lo, hi, samples_per_axis)] * Lambda.dimension
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack(mesh, axis=-1)
    values = np.asarray(Lambda.fn(pts), dtype=float)
    g = SampledFunctionND(axes, values)
    ks = [np.asarray([kj]) for kj in k]
    res = conjugate_nd(g, ks)
    return -float(res.values.flat[0])


def _axis_truncation(decay_1d: Callable[[np.ndarray], np.ndarray], eps: float) -> int:
    """Per-axis cap: the number of eps-damped terms log_series sums."""
    _, terms, _ = log_series(lambda ns: -eps * np.asarray(decay_1d(ns), dtype=float),
                             _AXIS_CAP - 1, block=64)
    return terms


def _multi_index_logsum(term_fn: Callable[[np.ndarray], np.ndarray],
                        caps: Sequence[int]) -> float:
    """ln sum over the truncated multi-index box of exp(term_fn(points))."""
    grids = [np.arange(c, dtype=float) for c in caps]
    total = int(np.prod([g.size for g in grids]))
    if total > 20_000_000:
        raise ResourceLimitError(f"multi-index sum over {total} points")
    mesh = np.meshgrid(*grids, indexing="ij")
    pts = np.stack(mesh, axis=-1).reshape(-1, len(caps))
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.asarray(term_fn(pts), dtype=float).ravel()
    t = t[np.isfinite(t)]
    if t.size == 0:
        return -np.inf
    m = float(np.max(t))
    return m + math.log(float(np.sum(np.exp(t - m))))


def _multi_conjugate(Q: MultiGrowthFunction, ys: np.ndarray) -> np.ndarray:
    """Q*(y) = sup_x (x.y - Q(x)) for each row y of ys.

    Separable Q: one batched, exact per-axis conjugate per axis.
    """
    if Q.separable:
        return sum(p.conjugate_at(ys[:, j])[0] for j, p in enumerate(Q.separable_parts))
    # brute force over a nonnegative box (decay profiles live on k >= 0)
    axes = [np.linspace(0.0, 64.0, 257)] * Q.dimension
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack(mesh, axis=-1)
    vals = np.asarray(Q.fn(pts), dtype=float)
    return np.array([np.max(sum(mesh[j] * y[j] for j in range(Q.dimension)) - vals)
                     for y in ys])


def multi_max_bound(Q: MultiGrowthFunction, v,
                    eps_points: int = DEFAULT_EPS_POINTS):
    """Upper bound on ln R(v) over multi-indices: min_eps ln Y(eps) + Q*(v/(1-eps)).

    Multi-index K/U sums are truncated per-axis; for separable Q both sums
    factor into products of the per-axis sums (consistency with the 1-D
    bounds at the same eps).
    """
    v = np.asarray(v, dtype=float)
    if v.size != Q.dimension:
        raise InputError("v must match the profile dimension")

    def diag_decay(axis):
        def d(ns):
            pts = np.zeros(ns.shape + (Q.dimension,))
            pts[..., axis] = ns
            return np.asarray(Q.fn(pts), dtype=float)
        return d

    eps_grid = (np.arange(1, eps_points + 1)) / (eps_points + 1)
    ln_k0 = np.empty(eps_grid.size)
    ln_u = np.empty(eps_grid.size)
    for i, e in enumerate(eps_grid):
        caps = [_axis_truncation(diag_decay(j), float(e)) for j in range(Q.dimension)]
        lk = _multi_index_logsum(lambda p: -e * np.asarray(Q.fn(p), float), caps)
        lu = _multi_index_logsum(lambda p: np.asarray(Q.fn((1.0 - e) * p), float)
                                 - np.asarray(Q.fn(p), float), caps)
        ln_k0[i] = lk if np.isfinite(lk) else np.inf
        ln_u[i] = lu if np.isfinite(lu) else np.inf
    qstar = _multi_conjugate(Q, v[None, :] / (1.0 - eps_grid[:, None]))
    ln_k, ln_y, objective = _y_branches(eps_grid, ln_k0, ln_u, qstar)
    if not np.any(np.isfinite(ln_y)):
        raise NoFiniteBoundError("Y(eps) infinite across the grid")
    j = int(np.argmin(objective))
    bound = float(objective[j])
    report = EpsilonReport(eps_grid, ln_k, ln_u, ln_y, float(eps_grid[j]),
                           float(np.exp(ln_y[j])), bound)
    return bound, report


@dataclass(frozen=True)
class FactorizableReport:
    """Product-function checks: maximal-function and bound separability."""

    log_max_product: float
    log_max_factors: Tuple[float, float]
    residual: float
    k_grid: np.ndarray
    l_grid: np.ndarray
    coeff_log_abs: np.ndarray
    coeff_bound: np.ndarray
    bound_holds: bool


def factorizable_demo(f1: CoefficientSequence, f2: CoefficientSequence,
                      r1: float, r2: float,
                      Lambda1: Optional[GrowthFunction] = None,
                      Lambda2: Optional[GrowthFunction] = None,
                      k_grid=range(20), l_grid=range(20)) -> FactorizableReport:
    """Verify ln M_f = ln M_f1 + ln M_f2 and separable coefficient bounds.

    The product maximal function is summed directly over the truncated
    (k, l) product series; the factor growth profiles default to the
    numerically evaluated ln M_fi(e^v).
    """
    m1 = log_max_function(f1, r1)
    m2 = log_max_function(f2, r2)
    # direct double-sum of the product series in the log domain
    n1 = f1.max_index if f1.max_index is not None else 2048
    n2 = f2.max_index if f2.max_index is not None else 2048
    ks = np.arange(n1 + 1, dtype=float)
    ls = np.arange(n2 + 1, dtype=float)
    t1 = f1.log_abs_array(ks) + ks * math.log(r1)
    t2 = f2.log_abs_array(ls) + ls * math.log(r2)
    t = t1[:, None] + t2[None, :]
    t = t[np.isfinite(t)]
    m = float(np.max(t))
    log_max_product = m + math.log(float(np.sum(np.exp(t - m))))
    residual = abs(log_max_product - (m1 + m2))

    if Lambda1 is None:
        Lambda1 = growth_of(f1)
    if Lambda2 is None:
        Lambda2 = growth_of(f2)
    kg = np.asarray(list(k_grid), dtype=float)
    lg = np.asarray(list(l_grid), dtype=float)
    from .bounds import coeff_upper_bound_many
    b1 = coeff_upper_bound_many(Lambda1, kg)
    b2 = coeff_upper_bound_many(Lambda2, lg)
    bound = b1[:, None] + b2[None, :]
    la = f1.log_abs_array(kg)[:, None] + f2.log_abs_array(lg)[None, :]
    holds = bool(np.all((la <= bound + 1e-9) | ~np.isfinite(la)))
    return FactorizableReport(log_max_product, (m1, m2), residual,
                              kg, lg, la, bound, holds)


def growth_of(f: CoefficientSequence, name: Optional[str] = None) -> GrowthFunction:
    """Growth profile ln M_f(e^v) evaluated from the coefficient series."""

    def fn(v):
        v = np.atleast_1d(np.asarray(v, dtype=float))
        out = np.array([log_max_function(f, math.exp(vi)) for vi in v])
        return out

    return GrowthFunction(name or f"lnM[{f.name}]", fn)

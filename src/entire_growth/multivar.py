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

from .bounds import DEFAULT_EPS_POINTS, GrowthFunction, _eps_scan, k_sum, u_sum
from .entire import CoefficientSequence, log_max_function, log_series
from .errors import InputError, ResourceLimitError, UnsupportedDimensionError
from .legendre import SampledFunctionND, conjugate_nd

_AXIS_CAP = 4096  # per-axis limit on the truncated multi-index box
_BOX_EDGE = 64.0  # far face of the box the brute-force Q* searches


def _check_dim(d: int) -> None:
    if not 1 <= d <= 3:
        raise UnsupportedDimensionError(f"dimension {d} not supported (d <= 3)")


@dataclass(frozen=True)
class MultiGrowthFunction:
    """Growth/decay profile on R^d, coordinatewise nondecreasing on its box."""

    dimension: int
    fn: Callable[[np.ndarray], np.ndarray]  # (..., d) -> (...)
    separable_parts: Optional[Sequence[GrowthFunction]] = None

    def __post_init__(self):
        _check_dim(self.dimension)
        if self.separable_parts is not None and len(self.separable_parts) != self.dimension:
            raise InputError("one part per axis required")

    @classmethod
    def from_separable(cls, parts: Sequence[GrowthFunction]) -> "MultiGrowthFunction":
        parts = tuple(parts)
        _check_dim(len(parts))

        def fn(v):
            v = np.asarray(v, dtype=float)
            return sum(np.asarray(p.fn(v[..., j]), dtype=float)
                       for j, p in enumerate(parts))

        return cls(len(parts), fn, separable_parts=parts)

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


def _axis_truncation(Q: MultiGrowthFunction, axis: int, eps: np.ndarray):
    """Caps along one axis, one per eps: the number of eps-damped terms of
    Q on that axis (the other indices 0) that log_series sums."""

    def terms(ns):
        pts = np.zeros(ns.shape + (Q.dimension,))
        pts[..., axis] = ns
        return -eps[:, None] * np.asarray(Q.fn(pts), dtype=float)

    return log_series(terms, _AXIS_CAP - 1, block=64)[1]


def _multi_sums(Q: MultiGrowthFunction, eps: np.ndarray):
    """(ln K0, ln U) over multi-indices at each eps.  Separable Q: K0 and U
    are products of the per-axis sums, so their logs are sums of the batched
    k_sum / u_sum.  Otherwise both run over a box truncated per axis by
    _axis_truncation, with Q evaluated once on the largest box."""
    if Q.separable:
        return (sum(k_sum(p.fn, eps) for p in Q.separable_parts),
                sum(u_sum(p.fn, eps) for p in Q.separable_parts))
    from scipy.special import logsumexp
    caps = np.stack([_axis_truncation(Q, j, eps) for j in range(Q.dimension)], axis=-1)
    outer = caps.max(axis=0)
    if np.prod(outer) > 20_000_000:
        raise ResourceLimitError(f"multi-index sum over {np.prod(outer)} points")
    pts = np.stack(np.meshgrid(*[np.arange(c, dtype=float) for c in outer],
                               indexing="ij"), axis=-1)
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        q = np.asarray(Q.fn(pts), dtype=float)
        for e, cap in zip(eps, caps):
            box = tuple(slice(c) for c in cap)
            terms = (-e * q[box], np.asarray(Q.fn((1.0 - e) * pts[box]), dtype=float) - q[box])
            out.append([logsumexp(t[np.isfinite(t)]) for t in terms])  # -inf if none
    out = np.array(out)
    return tuple(np.where(np.isfinite(out), out, np.inf).T)


def _multi_conjugate(Q: MultiGrowthFunction, ys: np.ndarray):
    """Q*(y) = sup_x (x.y - Q(x)) for each row y of ys, and a saturation flag.
    Separable Q: one batched, exact conjugate per axis, saturated when any
    axis is.  Otherwise brute force over the box [0, 64]^d (decays live on
    k >= 0), saturated when an argmax lies on its far face."""
    if Q.separable:
        parts = [p.conjugate_at(ys[:, j]) for j, p in enumerate(Q.separable_parts)]
        return sum(q for q, _ in parts), any(sat for _, sat in parts)
    axes = [np.linspace(0.0, _BOX_EDGE, 257)] * Q.dimension
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, Q.dimension)
    vals = np.asarray(Q.fn(pts), dtype=float)
    out, saturated = np.empty(len(ys)), False
    for i, y in enumerate(ys):
        obj = sum(pts[:, j] * y[j] for j in range(Q.dimension)) - vals
        best = int(np.argmax(obj))
        out[i] = obj[best]
        saturated = saturated or bool(np.any(pts[best] == _BOX_EDGE))
    return out, saturated


def multi_max_bound(Q: MultiGrowthFunction, v,
                    eps_points: int = DEFAULT_EPS_POINTS):
    """Upper bound on ln R(v) over multi-indices: min_eps ln Y(eps) + Q*(v/(1-eps)).

    The eps-scan of max_function_upper_bound (grid, zoom, saturation flag)
    over the sums of _multi_sums and the conjugate of _multi_conjugate.
    """
    v = np.asarray(v, dtype=float)
    if v.size != Q.dimension:
        raise InputError("v must match the profile dimension")
    return _eps_scan(lambda eps: _multi_sums(Q, eps),
                     lambda eps: _multi_conjugate(Q, v[None, :] / (1.0 - eps[:, None])),
                     eps_points, f"the {Q.dimension}-d profile")


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
    # by hand: scipy's logsumexp would hold about five copies of this array
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
    """Growth profile ln M_f(e^v) from the coefficient series, one batched
    series per call."""
    return GrowthFunction(name or f"lnM[{f.name}]",
                          lambda v: log_max_function(f, np.exp(np.asarray(v, dtype=float))))

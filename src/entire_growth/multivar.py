"""Several-complex-variables extension.

Multi-index coefficient bounds and reverse bounds, and the
factorizable-function checks.  Dimension is capped at 3.  A separable
profile is answered axis by axis by the 1-D engine of bounds; any other is
conjugated on a sampled product grid by the d-pass hull kernel of legendre,
with its K/U/Y sums over a truncated multi-index box.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .bounds import DEFAULT_EPS_POINTS, GrowthFunction, _eps_scan, max_function_upper_bound
from .entire import CoefficientSequence, log_max_function, log_series
from .errors import InputError, ResourceLimitError, UnsupportedDimensionError
from .legendre import _conjugate_passes

_AXIS_CAP = 4096  # per-axis limit on the truncated multi-index box
_COEFF_AXIS = np.linspace(-12.0, 12.0, 241)  # per-axis samples of a growth Lambda
_BOX_AXIS = np.linspace(0.0, 64.0, 257)  # per-axis samples of a decay Q on k >= 0


@dataclass(frozen=True)
class MultiGrowthFunction:
    """Growth/decay profile on R^d, coordinatewise nondecreasing on its box."""

    dimension: int
    fn: Callable[[np.ndarray], np.ndarray]  # (..., d) -> (...)
    separable_parts: Optional[Sequence[GrowthFunction]] = None

    def __post_init__(self):
        if not 1 <= self.dimension <= 3:
            raise UnsupportedDimensionError(f"dimension {self.dimension} not supported (d <= 3)")
        if self.separable_parts is not None and len(self.separable_parts) != self.dimension:
            raise InputError("one part per axis required")

    @classmethod
    def from_separable(cls, parts: Sequence[GrowthFunction]) -> "MultiGrowthFunction":
        parts = tuple(parts)

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


def multi_coeff_bound(Lambda: MultiGrowthFunction, k):
    """Log upper bound on |c_k|: returns -Lambda*(k).  A separable Lambda
    conjugates axis by axis, Lambda*(k) = sum_j Lambda_j*(k_j); any other
    by _multi_conjugate on the window [-12, 12]^d.  k is one multi-index (a
    float comes back) or a stack of shape (K, d), all conjugated in one call
    (an array of K)."""
    k = np.asarray(k, dtype=float)
    if (k.ndim not in (1, 2) or k.shape[-1] != Lambda.dimension
            or not np.all(np.isfinite(k)) or np.any(k < 0)):
        raise InputError("multi-index must be finite, nonnegative, of matching dimension")
    ks = k.reshape(-1, Lambda.dimension)
    if Lambda.separable:
        out = -sum(p.conjugate_at(ks[:, j])[0] for j, p in enumerate(Lambda.separable_parts))
    else:
        out = -_multi_conjugate(Lambda, ks, _COEFF_AXIS)[0]
    return float(out[0]) if k.ndim == 1 else out


def _axis_truncation(Q: MultiGrowthFunction, axis: int, eps: np.ndarray):
    """Caps along one axis, one per eps: the number of eps-damped terms of
    Q on that axis (the other indices 0) that log_series sums."""

    def terms(ns, rows):
        pts = np.zeros(ns.shape + (Q.dimension,))
        pts[..., axis] = ns
        return -eps[rows, None] * np.asarray(Q.fn(pts), dtype=float)

    return log_series(terms, _AXIS_CAP - 1, block=64, shape=eps.shape)[1]


def _multi_sums(Q: MultiGrowthFunction, eps: np.ndarray):
    """(ln K0, ln U) over multi-indices at each eps, each a sum over a box
    truncated per axis by _axis_truncation, with Q evaluated once on the
    largest box."""
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


def _multi_conjugate(Q: MultiGrowthFunction, ys: np.ndarray, axis: np.ndarray):
    """Q*(y) = sup_x (x.y - Q(x)) for each row y of ys, and a saturation flag.

    The sup over the sampled lattice axis^d only, which lower-bounds the
    real sup the U split needs: _conjugate_passes on the product of the
    distinct query coordinates, read off at each row, saturated when an
    argmax is the last sample of an axis (the far face of the box).
    """
    axes = [axis] * Q.dimension
    values = np.asarray(Q.fn(np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)), dtype=float)
    queries = [np.unique(ys[:, j]) for j in range(Q.dimension)]
    vals, args = _conjugate_passes(axes, values, queries)
    at = tuple(np.searchsorted(q, ys[:, j]) for j, q in enumerate(queries))
    return vals[at], any(bool(np.any(a[at] == axis.size - 1)) for a in args)


def multi_max_bound(Q: MultiGrowthFunction, v,
                    eps_points: int = DEFAULT_EPS_POINTS):
    """Upper bound on ln R(v) over multi-indices; returns (bound, reports),
    a tuple of EpsilonReport.

    Separable Q: R(v) = prod_j R_Qj(v_j), so the bound is the sum of the
    1-D bounds max_function_upper_bound(Q_j, v_j), each axis with its own
    eps* and report.  Otherwise the eps-scan of max_function_upper_bound
    (grid, zoom, saturation flag) runs once, over the sums of _multi_sums
    (summed in full: they ignore the zoom's ln K) and the conjugate of
    _multi_conjugate, with one report.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (Q.dimension,) or not np.all(np.isfinite(v)):
        raise InputError(f"v must be a finite vector of shape ({Q.dimension},)")
    if Q.separable:
        axes = [max_function_upper_bound(p, float(vj), eps_points)
                for p, vj in zip(Q.separable_parts, v)]
        return sum(b for b, _ in axes), tuple(rep for _, rep in axes)

    def conj(eps):
        values, saturated = _multi_conjugate(Q, v / (1.0 - eps.reshape(-1, 1)), _BOX_AXIS)
        return values.reshape(eps.shape), saturated

    (bound,), reps = _eps_scan(lambda eps, _ln_k: _multi_sums(Q, eps), conj, 1, eps_points,
                               f"the {Q.dimension}-d profile")
    return float(bound), reps


@dataclass(frozen=True)
class FactorizableReport:
    """Product-function checks: maximal-function and bound separability."""

    log_max_product: float
    log_max_factors: Tuple[float, float]
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
    """ln M_f of f(z1, z2) = f1(z1) f2(z2) at (r1, r2), and the separable
    coefficient bounds on a (k, l) grid.

    The product series factors, so ln M_f = ln M_f1(r1) + ln M_f2(r2), each
    from log_max_function (which raises when its series has not
    converged).  The factor growth profiles default to the numerically
    evaluated ln M_fi(e^v).
    """
    m1 = log_max_function(f1, r1)
    m2 = log_max_function(f2, r2)
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
    return FactorizableReport(m1 + m2, (m1, m2), kg, lg, la, bound, holds)


def growth_of(f: CoefficientSequence, name: Optional[str] = None) -> GrowthFunction:
    """Growth profile ln M_f(e^v) from the coefficient series, one batched
    series per call."""
    return GrowthFunction(name or f"lnM[{f.name}]",
                          lambda v: log_max_function(f, np.exp(np.asarray(v, dtype=float))))

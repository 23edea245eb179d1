"""Several-complex-variables extension.

Multi-index coefficient bounds and reverse bounds, and the
factorizable-function checks.  Dimension is capped at 3.  A separable
profile is answered axis by axis by the 1-D engine of bounds.  Both
bounds refuse any other profile: a conjugate sampled on a lattice
under-estimates the real one, and neither bound may rest on that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .bounds import DEFAULT_EPS_POINTS, GrowthFunction, max_function_upper_bound
from .entire import CoefficientSequence, log_max_function
from .errors import InputError, UnsupportedDimensionError


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
    """Log upper bound on |c_k|: returns -Lambda*(k) = -sum_j Lambda_j*(k_j)
    for a separable Lambda, conjugated axis by axis.  k is one multi-index
    (a float comes back) or a stack of shape (K, d), all conjugated in one
    call (an array of K).  Any other Lambda raises InputError before any
    conjugate runs."""
    k = np.asarray(k, dtype=float)
    if (k.ndim not in (1, 2) or k.shape[-1] != Lambda.dimension
            or not np.all(np.isfinite(k)) or np.any(k < 0)):
        raise InputError("multi-index must be finite, nonnegative, of matching dimension")
    if not Lambda.separable:
        raise InputError("multi_coeff_bound needs a separable Lambda: build it with "
                         "MultiGrowthFunction.from_separable")
    ks = k.reshape(-1, Lambda.dimension)
    out = -sum(p.conjugate_at(ks[:, j])[0] for j, p in enumerate(Lambda.separable_parts))
    return float(out[0]) if k.ndim == 1 else out


def multi_max_bound(Q: MultiGrowthFunction, v,
                    eps_points: int = DEFAULT_EPS_POINTS):
    """Upper bound on ln R(v) over multi-indices for a separable Q; returns
    (bound, reports), a tuple of one EpsilonReport per axis.

    R(v) = prod_j R_Qj(v_j), so the bound is the sum of the 1-D bounds
    max_function_upper_bound(Q_j, v_j), each axis with its own eps* and
    report.  Any other Q raises InputError before any series runs: its Q*
    would be a sup over a sampled lattice, below the real one, and the
    bound could fall below ln R.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (Q.dimension,) or not np.all(np.isfinite(v)):
        raise InputError(f"v must be a finite vector of shape ({Q.dimension},)")
    if not Q.separable:
        raise InputError("multi_max_bound needs a separable Q: build it with "
                         "MultiGrowthFunction.from_separable")
    axes = [max_function_upper_bound(p, float(vj), eps_points)
            for p, vj in zip(Q.separable_parts, v)]
    return sum(b for b, _ in axes), tuple(rep for _, rep in axes)


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

"""Several-complex-variables extension.

Multi-index coefficient bounds and reverse bounds, and the
factorizable-function checks.  Dimension is capped at 3.  A profile is
separable, one 1-D profile per axis, and both bounds answer it axis by
axis with the 1-D engine of bounds.  There is no non-separable form: its
conjugate sampled on a lattice under-estimates the real one, and neither
bound may rest on that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .bounds import (
    DEFAULT_EPS_POINTS,
    GrowthFunction,
    coeff_upper_bound_many,
    max_function_upper_bound,
)
from .entire import CoefficientSequence, log_max_function
from .errors import InputError, UnsupportedDimensionError


@dataclass(frozen=True)
class MultiGrowthFunction:
    """Separable growth/decay profile on R^d, the sum of one nondecreasing
    1-D profile per axis."""

    separable_parts: Tuple[GrowthFunction, ...]

    @classmethod
    def from_separable(cls, parts: Sequence[GrowthFunction]) -> "MultiGrowthFunction":
        parts = tuple(parts)
        if not 1 <= len(parts) <= 3:
            raise UnsupportedDimensionError(f"dimension {len(parts)} not supported (d <= 3)")
        return cls(parts)

    @property
    def dimension(self) -> int:
        return len(self.separable_parts)


def multi_coeff_bound(Lambda: MultiGrowthFunction, k):
    """Log upper bound on |c_k|: returns -Lambda*(k) = -sum_j Lambda_j*(k_j),
    conjugated axis by axis.  k is one multi-index (a float comes back) or
    a stack of shape (K, d), all conjugated in one call (an array of K)."""
    k = np.asarray(k, dtype=float)
    if (k.ndim not in (1, 2) or k.shape[-1] != Lambda.dimension
            or not np.all(np.isfinite(k)) or np.any(k < 0)):
        raise InputError("multi-index must be finite, nonnegative, of matching dimension")
    ks = k.reshape(-1, Lambda.dimension)
    out = -sum(p.conjugate_at(ks[:, j])[0] for j, p in enumerate(Lambda.separable_parts))
    return float(out[0]) if k.ndim == 1 else out


def multi_max_bound(Q: MultiGrowthFunction, v,
                    eps_points: int = DEFAULT_EPS_POINTS):
    """Upper bound on ln R(v) over multi-indices; returns (bound, reports),
    a tuple of one EpsilonReport per axis.

    R(v) = prod_j R_Qj(v_j), so the bound is the sum of the 1-D bounds
    max_function_upper_bound(Q_j, v_j), each axis with its own eps* and
    report.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (Q.dimension,) or not np.all(np.isfinite(v)):
        raise InputError(f"v must be a finite vector of shape ({Q.dimension},)")
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
    bound_holds: bool


def factorizable_demo(f1: CoefficientSequence, f2: CoefficientSequence,
                      r1: float, r2: float,
                      Lambda1: GrowthFunction, Lambda2: GrowthFunction,
                      k_grid, l_grid) -> FactorizableReport:
    """ln M_f of f(z1, z2) = f1(z1) f2(z2) at (r1, r2), and the separable
    coefficient bounds of the factor growth profiles Lambda1, Lambda2 on a
    (k, l) grid.

    The product series factors, so ln M_f = ln M_f1(r1) + ln M_f2(r2), each
    from log_max_function (which raises when its series has not
    converged).
    """
    m1 = log_max_function(f1, r1)
    m2 = log_max_function(f2, r2)
    kg = np.asarray(list(k_grid), dtype=float)
    lg = np.asarray(list(l_grid), dtype=float)
    b1 = coeff_upper_bound_many(Lambda1, kg)
    b2 = coeff_upper_bound_many(Lambda2, lg)
    bound = b1[:, None] + b2[None, :]
    la = f1.log_abs_array(kg)[:, None] + f2.log_abs_array(lg)[None, :]
    holds = bool(np.all((la <= bound + 1e-9) | ~np.isfinite(la)))
    return FactorizableReport(m1 + m2, (m1, m2), kg, lg, holds)


def growth_of(f: CoefficientSequence, name: Optional[str] = None) -> GrowthFunction:
    """Growth profile ln M_f(e^v) from the coefficient series, one batched
    series per call."""
    return GrowthFunction(name or f"lnM[{f.name}]",
                          lambda v: log_max_function(f, np.exp(np.asarray(v, dtype=float))))

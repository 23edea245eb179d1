"""Young-Fenchel (Legendre) conjugation engine.

Discrete 1-D and d-dimensional conjugates g*(y) = sup_x (x.y - g(x)),
biconjugates, Young-inequality gaps, and an adaptive-window conjugate for
closed-form convex functions.  All routines work on extended reals: +inf
marks points outside the domain of g; -inf is never a valid sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    DomainDegenerateError,
    ExtrapolationError,
    InputError,
    ResourceLimitError,
    UnsupportedDimensionError,
)

# Hard cap for adaptive windows, in log-domain units: keeps e^x representable.
WINDOW_HARD_CAP = 700.0

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _as_increasing_array(xs, name: str, min_size: int = 2) -> np.ndarray:
    a = np.asarray(xs, dtype=float)
    if a.ndim != 1 or a.size < min_size:
        raise InputError(f"{name} must be a 1-D sequence with at least {min_size} entries")
    if not np.all(np.diff(a) > 0):
        raise InputError(f"{name} must be strictly increasing")
    return a


@dataclass(frozen=True)
class SampledFunction1D:
    """A function g sampled on a strictly increasing grid.

    Values may be +inf to mark points outside Dom[g]; -inf is rejected.
    """

    xs: np.ndarray
    gs: np.ndarray

    def __post_init__(self):
        xs = _as_increasing_array(self.xs, "xs")
        gs = np.asarray(self.gs, dtype=float)
        if gs.shape != xs.shape:
            raise InputError("xs and gs must have equal length")
        if np.any(np.isneginf(gs)) or np.any(np.isnan(gs)):
            raise InputError("gs entries must be finite or +inf")
        if np.count_nonzero(np.isfinite(gs)) < 2:
            raise DomainDegenerateError("need at least two finite samples")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "gs", gs)

    @classmethod
    def from_callable(cls, fn, lo: float, hi: float, num: int) -> "SampledFunction1D":
        xs = np.linspace(lo, hi, num)
        with np.errstate(over="ignore"):
            gs = np.asarray(fn(xs), dtype=float)
        return cls(xs, gs)

    def finite_mask(self) -> np.ndarray:
        return np.isfinite(self.gs)


@dataclass(frozen=True)
class ConjugateTable:
    """Sampled conjugate g*(y) on a query grid, with the maximizing x per query."""

    ys: np.ndarray
    gstars: np.ndarray
    argmax_xs: np.ndarray
    window_saturated: bool = False

    def __post_init__(self):
        object.__setattr__(self, "ys", np.asarray(self.ys, dtype=float))
        object.__setattr__(self, "gstars", np.asarray(self.gstars, dtype=float))
        object.__setattr__(self, "argmax_xs", np.asarray(self.argmax_xs, dtype=float))

    def convexity_defect(self) -> float:
        """Most negative discrete second difference of g* (0 for convex tables)."""
        if self.ys.size < 3:
            return 0.0
        d1 = np.diff(self.gstars) / np.diff(self.ys)
        return float(min(np.min(np.diff(d1)), 0.0))

    def check_convex(self, tol: Optional[float] = None) -> bool:
        if tol is None:
            scale = float(np.max(np.abs(self.gstars[np.isfinite(self.gstars)]), initial=1.0))
            tol = 1e-12 * max(scale, 1.0)
        return self.convexity_defect() >= -tol


def _lower_hull_indices(xs: np.ndarray, gs: np.ndarray) -> np.ndarray:
    """Indices of the lower convex hull of the finite sample points.

    Collinear points are kept, so exact ties on hull edges resolve to the
    smallest x during the merge.  When the merge's pop test passes on every
    consecutive triple, every finite point is a vertex and the merge is
    skipped: the same indices, from the same arithmetic.
    """
    finite = np.flatnonzero(np.isfinite(gs))
    dx, dg = np.diff(xs[finite]), np.diff(gs[finite])
    if not np.any(dg[:-1] * dx[1:] > dg[1:] * dx[:-1]):
        return finite
    hull: list = []
    for i in finite:
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            # pop b when slope(a,b) > slope(b,i), i.e. b lies strictly above
            if (gs[b] - gs[a]) * (xs[i] - xs[b]) > (gs[i] - gs[b]) * (xs[b] - xs[a]):
                hull.pop()
            else:
                break
        hull.append(i)
    return np.asarray(hull, dtype=int)


def conjugate_1d(g: SampledFunction1D, ys) -> ConjugateTable:
    """Discrete conjugate by linear-time merge over the lower hull.

    Equals the brute-force max over all samples of x*y - g(x), computed with
    the same arithmetic (one multiply, one subtract per candidate).  Argmax
    ties break toward the smallest x.
    """
    ys = _as_increasing_array(np.atleast_1d(np.asarray(ys, dtype=float)), "ys") \
        if np.asarray(ys).size > 1 else np.atleast_1d(np.asarray(ys, dtype=float))
    xs, gs = g.xs, g.gs
    hull = _lower_hull_indices(xs, gs).tolist()
    out = np.empty(ys.size)
    arg = np.empty(ys.size)
    j = 0
    for k, y in enumerate(ys):
        while j + 1 < len(hull):
            i_cur, i_nxt = hull[j], hull[j + 1]
            if xs[i_nxt] * y - gs[i_nxt] > xs[i_cur] * y - gs[i_cur]:
                j += 1
            else:
                break
        i = hull[j]
        out[k] = xs[i] * y - gs[i]
        arg[k] = xs[i]
    return ConjugateTable(ys, out, arg)


def conjugate_1d_bruteforce(g: SampledFunction1D, ys) -> ConjugateTable:
    """O(n*m) reference conjugate; the oracle the merge must match exactly."""
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    finite = np.isfinite(g.gs)
    xs, gs = g.xs[finite], g.gs[finite]
    t = xs[:, None] * ys[None, :] - gs[:, None]
    idx = np.argmax(t, axis=0)
    return ConjugateTable(ys, t[idx, np.arange(ys.size)], xs[idx])


def _hull_slopes(g: SampledFunction1D):
    xs, gs = g.xs, g.gs
    hull = _lower_hull_indices(xs, gs)
    hx = xs[hull]
    hg = gs[hull]
    slopes = np.diff(hg) / np.diff(hx)
    return hx, hg, np.unique(slopes)


def biconjugate_1d(g: SampledFunction1D, xs_out) -> ConjugateTable:
    """Double conjugate on xs_out: the convex envelope of the samples.

    The intermediate y-grid is the set of hull edge slopes, which makes the
    second conjugation exact for the sampled envelope.
    """
    xs_out = np.atleast_1d(np.asarray(xs_out, dtype=float))
    hx, hg, slopes = _hull_slopes(g)
    if slopes.size == 0:
        raise DomainDegenerateError("hull has a single vertex")
    first = conjugate_1d(g, slopes)
    if slopes.size == 1:
        s = slopes[0]
        vals = xs_out * s - first.gstars[0]
        return ConjugateTable(xs_out, vals, np.full(xs_out.size, s))
    gstar = SampledFunction1D(slopes, first.gstars)
    order = np.argsort(xs_out, kind="stable")
    res = conjugate_1d(gstar, xs_out[order]) if np.all(np.diff(xs_out[order]) > 0) \
        else conjugate_1d_bruteforce(gstar, xs_out[order])
    vals = np.empty_like(xs_out)
    args = np.empty_like(xs_out)
    vals[order] = res.gstars
    args[order] = res.argmax_xs
    return ConjugateTable(xs_out, vals, args)


def young_gap(g: SampledFunction1D, x: float, y: float, gamma: float) -> float:
    """Gap g(gamma*x) + g*(y/gamma) - x*y of the generalized Young inequality.

    g is evaluated by linear interpolation between samples; queries outside
    the sampled window raise.  The gap is >= 0 up to interpolation error.
    """
    if gamma <= 0:
        raise InputError("gamma must be positive")
    finite = g.finite_mask()
    xs, gs = g.xs[finite], g.gs[finite]
    q = gamma * x
    if q < xs[0] or q > xs[-1]:
        raise ExtrapolationError(f"gamma*x = {q} outside sampled window [{xs[0]}, {xs[-1]}]")
    g_at = float(np.interp(q, xs, gs))
    gstar = conjugate_1d(g, [y / gamma]).gstars[0]
    return g_at + gstar - x * y


@dataclass(frozen=True)
class ConjugatePoint:
    """One adaptive-window conjugate value g*(y) of a closed-form function."""

    y: float
    value: float
    argmax: float
    saturated: bool


def _golden_max(h: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray):
    """Vectorized golden-section maximization of a concave h on [lo, hi].

    120 steps shrink the bracket by 0.618^120 ~ 1e-25 of its width.
    """
    lo = np.array(lo, dtype=float, copy=True)
    hi = np.array(hi, dtype=float, copy=True)
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    hc = h(c)
    hd = h(d)
    for _ in range(120):
        left = hc >= hd  # keep smaller x on ties
        hi = np.where(left, d, hi)
        lo = np.where(left, lo, c)
        c = hi - _INVPHI * (hi - lo)
        d = lo + _INVPHI * (hi - lo)
        hc = h(c)
        hd = h(d)
    mid = 0.5 * (lo + hi)
    return mid, h(mid)


def conjugate_of_callable(fn: Callable[[np.ndarray], np.ndarray], ys,
                          x_min: Optional[float] = None,
                          hard_cap: float = WINDOW_HARD_CAP):
    """Conjugate sup_x (x*y - fn(x)) of a convex callable: expand, then search.

    Each window edge doubles while h(x) = x*y - fn(x) still rises across the
    edge's last unit, up to the hard cap.  h is concave, so an edge where it
    no longer rises proves the argmax lies inside; one golden-section search
    on the final window then finds it.  An edge at the cap sets the saturated
    flag while h still rises there by more than 1e-12 (1 + |value|); a
    supremum approached only at infinity (e.g. sup_x -e^x = 0) is not
    flagged.  x_min pins the left edge of Dom[fn] (e.g. 0 for index-domain
    functions).  Elementwise in ys: one batched call equals a loop of
    one-query calls bit for bit.  Returns a ConjugateTable (ys need not be
    sorted).
    """
    ys_arr = np.atleast_1d(np.asarray(ys, dtype=float))

    def h(v):
        with np.errstate(over="ignore", invalid="ignore"):
            out = ys_arr * v - np.asarray(fn(v), dtype=float)
        return np.where(np.isnan(out), -np.inf, out)

    def rise(edge, inner):
        with np.errstate(invalid="ignore"):  # -inf - -inf past Dom[fn]: not rising
            return h(edge) - h(inner)

    left_fixed = x_min is not None
    lo = np.full(ys_arr.shape, x_min if left_fixed else -1.0)
    hi = np.maximum(lo + 2.0, 1.0)
    while True:
        rise_right = rise(hi, hi - 1.0)
        rise_left = np.full(ys_arr.shape, -np.inf) if left_fixed else rise(lo, lo + 1.0)
        grow_right = (rise_right > 0) & (hi < hard_cap)
        grow_left = (rise_left > 0) & (lo > -hard_cap)
        if not np.any(grow_right | grow_left):
            break
        width = hi - lo
        hi, lo = (np.where(grow_right, np.minimum(lo + 2.0 * width, hard_cap), hi),
                  np.where(grow_left, np.maximum(hi - 2.0 * width, -hard_cap), lo))
    arg, val = _golden_max(h, lo, hi)
    tol = 1e-12 * (1.0 + np.abs(val))
    saturated = (rise_right > tol) | (rise_left > tol)
    return ConjugateTable(ys_arr, val, arg, window_saturated=bool(np.any(saturated)))


def conjugate_point(fn, y: float, **kwargs) -> ConjugatePoint:
    """Scalar convenience wrapper around conjugate_of_callable."""
    table = conjugate_of_callable(fn, [float(y)], **kwargs)
    return ConjugatePoint(float(y), float(table.gstars[0]),
                          float(table.argmax_xs[0]), table.window_saturated)


@dataclass(frozen=True)
class SampledFunctionND:
    """A function g sampled on a product grid in up to 3 dimensions."""

    grids: Sequence[np.ndarray]
    values: np.ndarray
    separable_parts: Optional[Sequence[SampledFunction1D]] = field(default=None)

    def __post_init__(self):
        grids = [_as_increasing_array(ax, f"grid[{i}]", min_size=1)
                 for i, ax in enumerate(self.grids)]
        if len(grids) < 1 or len(grids) > 3:
            raise UnsupportedDimensionError(f"dimension {len(grids)} not supported (d <= 3)")
        values = np.asarray(self.values, dtype=float)
        if values.shape != tuple(ax.size for ax in grids):
            raise InputError("value table shape must match the product grid")
        if np.any(np.isneginf(values)) or np.any(np.isnan(values)):
            raise InputError("values must be finite or +inf")
        object.__setattr__(self, "grids", tuple(grids))
        object.__setattr__(self, "values", values)

    @property
    def dimension(self) -> int:
        return len(self.grids)

    @classmethod
    def from_separable(cls, parts: Sequence[SampledFunction1D]) -> "SampledFunctionND":
        grids = [p.xs for p in parts]
        total = parts[0].gs
        for p in parts[1:]:
            total = np.add.outer(total, p.gs)
        return cls(grids, total, separable_parts=tuple(parts))


_ND_OPS_LIMIT = 500_000_000


def conjugate_nd(g: SampledFunctionND, query_grids) -> SampledFunctionND:
    """d-dimensional conjugate on a product query grid.

    Separable inputs factor into per-axis 1-D conjugates; general inputs fall
    back to brute-force maximization over the sample product grid.
    """
    query_grids = [_as_increasing_array(q, f"query[{i}]", min_size=1)
                   for i, q in enumerate(query_grids)]
    if len(query_grids) != g.dimension:
        raise InputError("query grid dimension mismatch")
    if g.separable_parts is not None:
        tables = [conjugate_1d(p, q) for p, q in zip(g.separable_parts, query_grids)]
        total = tables[0].gstars
        for t in tables[1:]:
            total = np.add.outer(total, t.gstars)
        return SampledFunctionND(query_grids, total)
    n_x = int(np.prod([ax.size for ax in g.grids]))
    n_y = int(np.prod([q.size for q in query_grids]))
    if n_x * n_y > _ND_OPS_LIMIT:
        raise ResourceLimitError(f"product-grid conjugate needs {n_x * n_y:.2e} ops")
    finite = np.isfinite(g.values)
    mesh = np.meshgrid(*g.grids, indexing="ij")
    xs_flat = np.stack([m[finite] for m in mesh], axis=1)  # (n_finite, d)
    gs_flat = g.values[finite]
    out_shape = tuple(q.size for q in query_grids)
    out = np.empty(out_shape)
    for idx in np.ndindex(out_shape):
        y = np.array([query_grids[a][idx[a]] for a in range(g.dimension)])
        out[idx] = np.max(xs_flat @ y - gs_flat)
    return SampledFunctionND(query_grids, out)

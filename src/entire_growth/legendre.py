"""Young-Fenchel (Legendre) conjugation engine.

Discrete 1-D and d-dimensional conjugates g*(y) = sup_x (x.y - g(x)),
the 1-D biconjugate (the lower convex envelope, read off the same hull),
and an adaptive-window conjugate for closed-form convex functions.  All
routines work on extended reals: +inf marks points outside the domain of
g; -inf is never a valid sample.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    DomainDegenerateError,
    InputError,
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
    The samples are not copied and must not change: the lower hull is
    built on the first conjugation and kept.
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

    @functools.cached_property
    def hull(self):
        """(hx, hg, slopes) of the lower hull (_hull), built once."""
        return _hull(self.xs, self.gs)


@dataclass(frozen=True)
class ConjugateTable:
    """Sampled conjugate g*(y) on a query grid, with the maximizing x per query.

    saturated marks, per query, an adaptive window that hit its cap (None:
    no window, as for a sampled g).
    """

    ys: np.ndarray
    gstars: np.ndarray
    argmax_xs: np.ndarray
    saturated: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "ys", np.asarray(self.ys, dtype=float))
        object.__setattr__(self, "gstars", np.asarray(self.gstars, dtype=float))
        object.__setattr__(self, "argmax_xs", np.asarray(self.argmax_xs, dtype=float))

    @property
    def window_saturated(self) -> bool:
        """Some query's window hit its cap."""
        return self.saturated is not None and bool(np.any(self.saturated))


# Points the hull passes may visit, per sample; past it the merge finishes.
# A fibre of up to this many points never reaches the merge.
_HULL_PASS_BUDGET = 256


def _hull_by_merge(xs: np.ndarray, gs: np.ndarray, idx: np.ndarray, row=None) -> np.ndarray:
    """Monotone-chain merge over the points idx (increasing x in each row)."""
    hull: list = []
    for i in idx:
        while len(hull) >= 2 and (row is None or row[hull[-2]] == row[i]):
            a, b = hull[-2], hull[-1]
            # pop b when slope(a,b) > slope(b,i), i.e. b lies strictly above
            if (gs[b] - gs[a]) * (xs[i] - xs[b]) > (gs[i] - gs[b]) * (xs[b] - xs[a]):
                hull.pop()
            else:
                break
        hull.append(i)
    return np.asarray(hull, dtype=int)


def _lower_hull_indices(xs: np.ndarray, gs: np.ndarray, row=None) -> np.ndarray:
    """Indices of the lower convex hull of the finite sample points.

    Each pass applies the merge's pop test to every consecutive triple of
    survivors and drops all popped points, each strictly above a chord, at
    once.  When nothing pops, the survivors are the merge's hull, collinear
    points kept.  Past the pass budget the merge finishes the survivors.
    With row labels (nondecreasing, one per point, x increasing within a
    row) a triple pops only inside one row, so one set of passes hulls
    every row at once.
    """
    idx = np.flatnonzero(np.isfinite(gs))
    work = 0
    while idx.size > 2:
        work += idx.size
        if work > _HULL_PASS_BUDGET * xs.size:
            return _hull_by_merge(xs, gs, idx, row)
        dx, dg = np.diff(xs[idx]), np.diff(gs[idx])
        pop = dg[:-1] * dx[1:] > dg[1:] * dx[:-1]
        if row is not None:
            r = row[idx]
            pop &= r[:-2] == r[2:]
        if not pop.any():
            break
        idx = idx[np.concatenate(([True], ~pop, [True]))]
    return idx


def _hull(xs: np.ndarray, gs: np.ndarray):
    """Lower hull vertices (hx, hg) of the finite samples and its edge slopes."""
    idx = _lower_hull_indices(xs, gs)
    hx, hg = xs[idx], gs[idx]
    return hx, hg, np.diff(hg) / np.diff(hx)


def _vertex_conjugate(hx: np.ndarray, hg: np.ndarray, slopes: np.ndarray, ys,
                      k=None, first=0, last=None):
    """max over hull vertices of x*y - g(x), elementwise in ys of any shape.

    searchsorted on the edge slopes finds the vertex k whose edges bracket
    y (or k comes precomputed, with each query's vertices first..last);
    vertices k-1, k and k+1 are compared in the brute force's arithmetic
    and the first maximum (smallest x) wins.  Returns values and indices.
    """
    ys = np.asarray(ys, dtype=float)
    k = np.searchsorted(slopes, ys) if k is None else k  # at most hx.size - 1
    inf_y = np.isinf(ys)
    inf_y = inf_y if inf_y.any() else None

    def value(c):
        """x y - g(x) at the vertices c; x y at x = 0 is 0, signed like y,
        also at y = +-inf."""
        if inf_y is None:
            return hx[c] * ys - hg[c]
        with np.errstate(invalid="ignore"):
            return np.where((hx[c] == 0.0) & inf_y, np.copysign(0.0, ys), hx[c] * ys) - hg[c]

    best = np.maximum(k - 1, first)
    val = value(best)
    for cand in (k, np.minimum(k + 1, hx.size - 1 if last is None else last)):
        v = value(cand)
        up = v > val
        best, val = np.where(up, cand, best), np.where(up, v, val)
    return val, best


def conjugate_1d(g: SampledFunction1D, ys) -> ConjugateTable:
    """Discrete conjugate at the lower-hull vertex that each y selects.

    Each value is x*y - g(x) at a sample, in the brute force's arithmetic
    (one multiply, one subtract): never above the brute-force max, and
    equal to it bit for bit where the hull slopes are well separated.  Ties
    go to the smallest x.  Elementwise in ys, which may come in any order.
    """
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    hx, hg, slopes = g.hull
    vals, k = _vertex_conjugate(hx, hg, slopes, ys)
    return ConjugateTable(ys, vals, hx[k])


def conjugate_1d_bruteforce(g: SampledFunction1D, ys) -> ConjugateTable:
    """O(n*m) reference conjugate; the oracle for conjugate_1d."""
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    finite = np.isfinite(g.gs)
    xs, gs = g.xs[finite], g.gs[finite]
    t = xs[:, None] * ys[None, :] - gs[:, None]
    idx = np.argmax(t, axis=0)
    return ConjugateTable(ys, t[idx, np.arange(ys.size)], xs[idx])


def biconjugate_1d(g: SampledFunction1D, xs_out) -> ConjugateTable:
    """Double conjugate on xs_out: the lower convex envelope of the samples
    (Fenchel-Moreau), read off the hull of conjugate_1d.

    Each x takes the hull edge e that spans it, or past either end of the
    hull the first or last edge (the envelope's linear extension), and the
    value hg[e] + s_e (x - hx[e]); at a hull vertex, g itself, bit for bit.
    argmax_xs is s_e, the maximizing y of the double conjugate: the smaller
    slope at a vertex.
    """
    xs_out = np.atleast_1d(np.asarray(xs_out, dtype=float))
    hx, hg, slopes = g.hull
    e = np.searchsorted(hx[1:-1], xs_out)  # hx[e] < x <= hx[e + 1] inside the hull
    s = slopes[e]
    vals = hg[e] + s * (xs_out - hx[e])
    at = xs_out == hx[1:][e]
    vals[at] = hg[1:][e[at]]
    return ConjugateTable(xs_out, vals, s)


@dataclass(frozen=True)
class ConjugatePoint:
    """One adaptive-window conjugate value g*(y) of a closed-form function."""

    y: float
    value: float
    argmax: float
    saturated: bool


def _golden_max(h: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray):
    """Vectorized golden-section maximization of a concave h on [lo, hi].

    h maps a stack of k probe rows, shape (k,) + lo.shape, to its values,
    so each step evaluates both inner points in one call.  120 steps shrink
    the bracket by 0.618^120 ~ 1e-25 of its width.  A step's whole state is
    (lo, hi), so the search stops at the first step that leaves every
    bracket bit for bit unchanged: the rest would too.
    """
    lo = np.array(lo, dtype=float, copy=True)
    hi = np.array(hi, dtype=float, copy=True)
    for _ in range(120):
        step = _INVPHI * (hi - lo)
        probes = np.empty((2,) + lo.shape)
        c = np.subtract(hi, step, out=probes[0])
        d = np.add(lo, step, out=probes[1])
        hc, hd = h(probes)
        left = hc >= hd  # keep smaller x on ties
        new_lo, new_hi = np.where(left, lo, c), np.where(left, d, hi)
        if new_lo.tobytes() == lo.tobytes() and new_hi.tobytes() == hi.tobytes():
            break
        lo, hi = new_lo, new_hi
    mid = 0.5 * (lo + hi)
    return mid, h(mid[None])[0]


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
    one-query calls bit for bit.  For m queries, each expansion step
    evaluates fn once, on the edge and inner probes of both free sides (2m
    points per side), and so does each golden step, on the 2m points of
    both probes.  Returns a ConjugateTable (ys need not be sorted).
    """
    ys_arr = np.atleast_1d(np.asarray(ys, dtype=float))
    # ys once per probe row: a multiply without broadcasting is faster
    ys_rows = np.tile(ys_arr, (4,) + (1,) * ys_arr.ndim)

    def h(x):
        """x*y - fn(x) on a stack of up to 4 probe rows, shape (k,) +
        ys.shape, in one fn call."""
        with np.errstate(over="ignore", invalid="ignore"):
            out = ys_rows[:len(x)] * x - np.asarray(fn(x.ravel()), dtype=float).reshape(x.shape)
        return np.where(np.isnan(out), -np.inf, out)

    left_fixed = x_min is not None
    lo = np.full(ys_arr.shape, x_min if left_fixed else -1.0)
    hi = np.maximum(lo + 2.0, 1.0)
    while True:
        hs = h(np.stack((hi, hi - 1.0) if left_fixed else (hi, hi - 1.0, lo, lo + 1.0)))
        with np.errstate(invalid="ignore"):  # -inf - -inf past Dom[fn]: not rising
            rise_right = hs[0] - hs[1]
            rise_left = np.full(ys_arr.shape, -np.inf) if left_fixed else hs[2] - hs[3]
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
    return ConjugateTable(ys_arr, val, arg, saturated)


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
        return cls([p.xs for p in parts], functools.reduce(np.add.outer, [p.gs for p in parts]))


def _conjugate_rows(xs: np.ndarray, gs: np.ndarray, ys: np.ndarray):
    """Conjugate of every row of gs (rows, xs.size) on the increasing ys: one
    set of hull passes, then one searchsorted.  A vertex's key is row (m + 1)
    + #{ys <= its edge slope} (+inf at a row's last vertex), query j's is
    row (m + 1) + j + 1: the keys below it are the earlier rows' vertices and
    its row's with slope < y_j, so the 1-D search's vertex k, exactly.
    Returns the values, -inf on a row with no finite sample.
    """
    rows, n, m = gs.shape[0], xs.size, ys.size
    idx = _lower_hull_indices(np.tile(xs, rows), gs.ravel(), np.repeat(np.arange(rows), n))
    hr, hi = np.divmod(idx, n)
    hx, hg = xs[hi], gs.ravel()[idx]
    e = np.flatnonzero(hr[1:] == hr[:-1])  # vertices with a next one in their row
    slopes = np.full(idx.size, np.inf)
    slopes[e] = (hg[e + 1] - hg[e]) / (hx[e + 1] - hx[e])
    keys = hr * (m + 1) + np.searchsorted(ys, slopes, "right")
    counts = np.bincount(hr, minlength=rows)
    has = np.flatnonzero(counts)
    first = (np.cumsum(counts) - counts)[has, None]
    k = np.searchsorted(keys, has[:, None] * (m + 1) + np.arange(1, m + 1))
    vals = np.full((rows, m), -np.inf)
    vals[has] = _vertex_conjugate(hx, hg, None, ys, k, first, first + counts[has, None] - 1)[0]
    return vals


def _conjugate_passes(grids, values: np.ndarray, query_grids):
    """max over the sample grid of x.y - g(x) on the product of the increasing
    query grids, as nested one-axis sups (Lucet, Numer. Algorithms 16, 1997):
    the last axis first, each later pass on -(the previous result), all
    fibres of an axis in one _conjugate_rows."""
    vals = values
    for a in reversed(range(len(grids))):
        g = np.moveaxis(vals if a == len(grids) - 1 else -vals, a, -1)
        out = _conjugate_rows(grids[a], g.reshape(-1, g.shape[-1]), query_grids[a])
        vals = np.moveaxis(out.reshape(g.shape[:-1] + (query_grids[a].size,)), -1, a)
    return vals


def conjugate_nd(g: SampledFunctionND, query_grids) -> SampledFunctionND:
    """d-dimensional conjugate on a product query grid (_conjugate_passes)."""
    qs = [_as_increasing_array(q, f"query[{i}]", min_size=1) for i, q in enumerate(query_grids)]
    if len(qs) != g.dimension:
        raise InputError("query grid dimension mismatch")
    return SampledFunctionND(qs, _conjugate_passes(g.grids, g.values, qs))

"""Young-Fenchel (Legendre) conjugation engine.

Discrete 1-D conjugates g*(y) = sup_x (x y - g(x)), the biconjugate (the
lower convex envelope, read off the same hull), and an adaptive-window
conjugate for closed-form convex functions.  All routines work on
extended reals: +inf marks points outside the domain of g; -inf is never
a valid sample.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainDegenerateError, InputError

# Hard cap for adaptive windows, in log-domain units: keeps e^x representable.
WINDOW_HARD_CAP = 700.0

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_SQRT_EPS = math.sqrt(np.finfo(float).eps)


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
        xs = np.asarray(self.xs, dtype=float)
        if xs.ndim != 1 or xs.size < 2:
            raise InputError("xs must be a 1-D sequence with at least 2 entries")
        if not np.all(np.diff(xs) > 0):
            raise InputError("xs must be strictly increasing")
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
        """(hx, hg, slopes, vertex) of the lower hull (_hull), built once;
        vertex marks the samples that are hull vertices, in n bytes where
        their indices would take 8 per vertex."""
        hx, hg, slopes, idx = _hull(self.xs, self.gs)
        vertex = np.zeros(self.xs.size, dtype=bool)
        vertex[idx] = True
        return hx, hg, slopes, vertex


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

    @property
    def window_saturated(self) -> bool:
        """Some query's window hit its cap."""
        return self.saturated is not None and bool(np.any(self.saturated))


# Points the hull passes may visit, per sample; past it the merge finishes.
# A set of up to this many points never reaches the merge.
_HULL_PASS_BUDGET = 256


def _hull_by_merge(xs: np.ndarray, gs: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Monotone-chain merge over the points idx (increasing x)."""
    hull: list = []
    for i in idx:
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            # pop b when slope(a,b) > slope(b,i), i.e. b lies strictly above
            if (gs[b] - gs[a]) * (xs[i] - xs[b]) > (gs[i] - gs[b]) * (xs[b] - xs[a]):
                hull.pop()
            else:
                break
        hull.append(i)
    return np.asarray(hull, dtype=int)


def _hull(xs: np.ndarray, gs: np.ndarray):
    """(hx, hg, slopes, idx): the lower convex hull of the finite samples,
    its edge slopes, and the indices of its vertices among the samples.

    Each pass applies the merge's pop test to every consecutive triple of
    survivors and drops all popped points, each strictly above a chord, at
    once.  When nothing pops, the survivors are the merge's hull, collinear
    points kept, and that pass's differences give the slopes, divided in
    place.  The pass does not keep its gathers of xs and gs: held through
    the pop test, they raise the peak memory by two arrays of the hull's
    size.  Past the pass budget the merge finishes the survivors.
    """
    idx = np.flatnonzero(np.isfinite(gs))
    work = 0
    while idx.size > 2:
        work += idx.size
        if work > _HULL_PASS_BUDGET * xs.size:
            idx = _hull_by_merge(xs, gs, idx)
            break
        dx, dg = np.diff(xs[idx]), np.diff(gs[idx])
        pop = dg[:-1] * dx[1:] > dg[1:] * dx[:-1]
        if not pop.any():
            return xs[idx], gs[idx], np.divide(dg, dx, out=dg), idx
        idx = idx[np.concatenate(([True], ~pop, [True]))]
    hx, hg = xs[idx], gs[idx]
    return hx, hg, np.diff(hg) / np.diff(hx), idx


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
    hx, hg, slopes, _ = g.hull
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
    slope at a vertex.  On the samples themselves (xs_out is g.xs), e is
    the count of interior vertices before each sample, read off the hull's
    vertex mask by one np.repeat over the gaps between interior vertices
    (the merge of Lucet's linear-time transform); any other xs_out finds e
    by a binary search, with the same e.
    """
    xs_out = np.atleast_1d(np.asarray(xs_out, dtype=float))
    hx, hg, slopes, vertex = g.hull
    if xs_out is g.xs:
        # edge k spans the samples from vertex k (excluded) to vertex k + 1;
        # the first edge also takes those before it, the last those after
        at_vertex = np.flatnonzero(vertex)
        gaps = at_vertex[1:] - at_vertex[:-1]
        gaps[0] += at_vertex[0] + 1
        gaps[-1] += xs_out.size - 1 - at_vertex[-1]
        e = np.repeat(np.arange(gaps.size), gaps)
    else:
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
    so each step evaluates both inner points in one call, on one probe
    buffer that the search allocates once.  A query stays
    live while hi - lo > sqrt(eps) (1 + |lo| + |hi|), Brent's tolerance on
    its current bracket.  Near its max x* a smooth h falls by h''(x - x*)^2
    / 2, about an ulp of h once |x - x*| ~ sqrt(eps) |x|, so past that
    width the two probe values differ only by rounding (Brent, Algorithms
    for Minimization without Derivatives, 1973, ch. 5).  A query that is
    no longer live keeps its bracket, so the search is elementwise in the
    queries; it ends when none is live, after at most 120 steps.  The
    argmax is the first maximum of h over (midpoint, lo, hi), in one call:
    a bracket closed on an edge of the window returns that edge exactly.
    """
    lo = np.array(lo, dtype=float, copy=True)
    hi = np.array(hi, dtype=float, copy=True)
    probes = np.empty((2,) + lo.shape)
    for _ in range(120):
        width = hi - lo
        live = width > _SQRT_EPS * (1.0 + np.abs(lo) + np.abs(hi))
        if not live.any():
            break
        step = _INVPHI * width
        c = np.subtract(hi, step, out=probes[0])
        d = np.add(lo, step, out=probes[1])
        hc, hd = h(probes)
        left = hc >= hd  # keep smaller x on ties
        lo, hi = np.where(live & ~left, c, lo), np.where(live & left, d, hi)
    points = np.stack((0.5 * (lo + hi), lo, hi))
    vals = h(points)
    best = np.argmax(vals, axis=0)  # the first maximum: the midpoint on ties
    return np.choose(best, points), np.choose(best, vals)


def conjugate_of_callable(fn: Callable[[np.ndarray], np.ndarray], ys,
                          x_min: Optional[float] = None,
                          hard_cap: float = WINDOW_HARD_CAP):
    """Conjugate sup_x (x*y - fn(x)) of a convex callable: expand, then search.

    Each window edge doubles while h(x) = x*y - fn(x) still rises across the
    edge's last unit, up to the hard cap.  h is concave, so an edge where it
    no longer rises proves the argmax lies inside; one golden-section search
    on the final window then finds it, to Brent's tolerance on each bracket
    (_golden_max).  A window that capped with h still rising there returns
    the cap itself as its argmax.  An edge at the cap sets the saturated
    flag while h still rises there by more than 1e-12 (1 + |value|); a
    supremum approached only at infinity (e.g. sup_x -e^x = 0) is not
    flagged.  x_min pins the left edge of Dom[fn] (e.g. 0 for index-domain
    functions).  Elementwise in ys: one batched call equals a loop of
    one-query calls bit for bit.  For m queries, each expansion step
    evaluates fn once, on the edge and inner probes of both free sides (2m
    points per side), and so does each golden step, on the 2m points of
    both probes; the search ends with one call on 3m points.  Returns a
    ConjugateTable (ys need not be sorted).
    """
    ys_arr = np.atleast_1d(np.asarray(ys, dtype=float))
    # ys once per probe row: a multiply without broadcasting is faster
    ys_rows = np.tile(ys_arr, (4,) + (1,) * ys_arr.ndim)

    def h(x):
        """x*y - fn(x) on a stack of up to 4 probe rows, shape (k,) +
        ys.shape, in one fn call."""
        with np.errstate(over="ignore", invalid="ignore"):
            out = ys_rows[:len(x)] * x
            out -= np.asarray(fn(x.ravel()), dtype=float).reshape(x.shape)
        return np.fmax(out, -np.inf, out=out)  # NaN -> -inf

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

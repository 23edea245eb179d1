"""Span tracer that wraps the library's public functions from outside.

A span records name, start, end, parent and thread.  The parent is the
innermost open span of the same thread; a span opened on a thread with no
open span (a worker of the CLI's section pool) takes the outermost span open
on another thread, so the pool's work is charged to the cli.run that
started it.  Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from collections import defaultdict

# (module, function) pairs wrapped in a traced run.  The wrapper replaces
# the name in every entire_growth module that holds the same function, so a
# call that goes through `from .legendre import conjugate_point` is seen too.
LAYER_FUNCTIONS = (
    ("legendre", "conjugate_point"),
    ("legendre", "conjugate_of_callable"),
    ("legendre", "conjugate_1d"),
    ("legendre", "biconjugate_1d"),
    ("bounds", "max_function_upper_bound"),
    ("bounds", "k_sum"),
    ("bounds", "u_sum"),
    ("bounds", "coeff_upper_bound_many"),
    ("bounds", "tauberian_report"),
    ("entire", "log_max_function"),
    ("multivar", "multi_max_bound"),
    ("multivar", "factorizable_demo"),
    ("scales", "example_31_check"),
    ("scales", "example_33_check"),
    ("probgen", "prob_tauberian_report"),
    ("cli", "run"),
)

# Per-layer metrics reported by a traced run: (name, unit).  Counts and self
# times are per round of the workload; bounds.profile.points is points per
# call into a profile the benchmark built.
PER_LAYER = [
    ("legendre.conjugate_point.calls", "count"),
    ("legendre.conjugate_point.self_s", "s"),
    ("legendre.conjugate_point.saturated", "count"),
    ("legendre.conjugate_of_callable.calls", "count"),
    ("legendre.conjugate_of_callable.self_s", "s"),
    ("legendre.conjugate_of_callable.queries", "count"),
    ("legendre.conjugate_of_callable.saturated", "count"),
    ("legendre.conjugate_1d.calls", "count"),
    ("legendre.conjugate_1d.self_s", "s"),
    ("legendre.conjugate_1d.points", "count"),
    ("legendre.biconjugate_1d.calls", "count"),
    ("legendre.biconjugate_1d.self_s", "s"),
    ("bounds.max_function_upper_bound.calls", "count"),
    ("bounds.max_function_upper_bound.self_s", "s"),
    ("bounds.k_sum.calls", "count"),
    ("bounds.k_sum.self_s", "s"),
    ("bounds.u_sum.calls", "count"),
    ("bounds.u_sum.self_s", "s"),
    ("bounds.profile.calls", "count"),
    ("bounds.profile.points", "count"),
    ("bounds.eps_star_at_edge", "count"),
    ("bounds.coeff_upper_bound_many.calls", "count"),
    ("bounds.coeff_upper_bound_many.self_s", "s"),
    ("bounds.tauberian_report.calls", "count"),
    ("bounds.tauberian_report.self_s", "s"),
    ("entire.log_max_function.calls", "count"),
    ("entire.log_max_function.self_s", "s"),
    ("multivar.multi_max_bound.calls", "count"),
    ("multivar.multi_max_bound.self_s", "s"),
    ("multivar.factorizable_demo.self_s", "s"),
    ("scales.example_31_check.self_s", "s"),
    ("scales.example_33_check.self_s", "s"),
    ("probgen.prob_tauberian_report.self_s", "s"),
    ("cli.run.calls", "count"),
    ("cli.run.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


def _size(x) -> int:
    try:
        return int(getattr(x, "size", None) or len(x))
    except TypeError:
        return 1


def _record_extra(name, args, result, counts):
    """Counts measured where the work happens, from arguments and results."""
    if name == "legendre.conjugate_point" and result.saturated:
        counts["legendre.conjugate_point.saturated"] += 1
    elif name == "legendre.conjugate_of_callable":
        counts["legendre.conjugate_of_callable.queries"] += _size(args[1])
        if result.window_saturated:
            counts["legendre.conjugate_of_callable.saturated"] += 1
    elif name == "legendre.conjugate_1d":
        counts["legendre.conjugate_1d.points"] += args[0].xs.size + _size(args[1])
    elif name == "bounds.max_function_upper_bound":
        grid, eps_star = result[1].eps_grid, result[1].eps_star
        # in the outermost grid cell: the refinement bracket was pinned to an edge
        if grid.size > 1 and (eps_star < grid[1] or eps_star > grid[-2]):
            counts["bounds.eps_star_at_edge"] += 1


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, thread)
        self.counts = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root = None  # (span id, thread id) of the outermost open span
        self._next_id = 0
        self._restore = []

    def _wrap(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            tid = threading.get_ident()
            with tracer._lock:
                sid = tracer._next_id
                tracer._next_id += 1
                if stack:
                    parent = stack[-1]
                elif tracer._root is not None and tracer._root[1] != tid:
                    parent = tracer._root[0]
                else:
                    parent = None
                    tracer._root = (sid, tid)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    tracer.spans.append((sid, name, start, end, parent, tid))
                    if tracer._root is not None and tracer._root[0] == sid:
                        tracer._root = None
            with tracer._lock:
                _record_extra(name, args, result, tracer.counts)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self, package):
        """Wrap LAYER_FUNCTIONS wherever package's modules bind them."""
        modules = [package] + [importlib.import_module(f"{package.__name__}.{m}")
                               for m in ("legendre", "entire", "bounds", "scales",
                                         "multivar", "probgen", "cli")]
        for mod_name, fn_name in LAYER_FUNCTIONS:
            home = importlib.import_module(f"{package.__name__}.{mod_name}")
            original = getattr(home, fn_name)
            wrapped = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    setattr(mod, fn_name, wrapped)
                    self._restore.append((mod, fn_name, original))

    def uninstall(self):
        for mod, fn_name, original in reversed(self._restore):
            setattr(mod, fn_name, original)
        self._restore.clear()

    def profile(self, fn):
        """Count calls into a callable the benchmark builds, and points per call."""
        counts, lock = self.counts, self._lock

        def counted(v):
            with lock:
                counts["bounds.profile.calls"] += 1
                counts["bounds.profile.points"] += _size(v)
            return fn(v)

        return counted

    def layer_totals(self):
        """calls and self time per span name, self time = duration minus the
        union of its children's intervals (children may run concurrently)."""
        children = defaultdict(list)
        for sid, _n, s, e, parent, _t in self.spans:
            if parent is not None:
                children[parent].append((s, e))
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for sid, name, s, e, _p, _t in self.spans:
            covered, cur_s, cur_e = 0.0, None, None
            for cs, ce in sorted(children.get(sid, ())):
                cs, ce = max(cs, s), min(ce, e)
                if ce <= cs:
                    continue
                if cur_e is None or cs > cur_e:
                    if cur_e is not None:
                        covered += cur_e - cur_s
                    cur_s, cur_e = cs, ce
                else:
                    cur_e = max(cur_e, ce)
            if cur_e is not None:
                covered += cur_e - cur_s
            calls[name] += 1
            self_s[name] += (e - s) - covered
        return calls, self_s

    def write(self, path):
        with open(path, "w") as fh:
            for sid, name, s, e, parent, tid in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": s, "end": e,
                                     "parent": parent, "thread": tid}) + "\n")

"""The benchmark's workloads, the checks on their outputs and their metrics.

Each workload is a closed loop: one caller, one operation at a time.  A run
repeats whole rounds of the same operations.  A round runs the workload's
own operations, which are timed into wall_s.  bound_slack_nats comes from
the reverse bounds a workload computes: the bounds of reverse-scan, the
upper_bound tables the CLI prints on cli-report, and on conjugate-kernels,
which computes none, two fixed reverse bounds that each round runs untimed.
The tracer, when on, sees only the workload's own operations.
"""

from __future__ import annotations

import configparser
import csv
import dataclasses
import hashlib
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import numpy as np
from scipy.special import gammaln

import refs

# Operations that fail every time, on inputs that do not depend on the seed,
# because of a fault in the program.  A failure outside this table makes the
# run incorrect; an operation in it that starts to pass simply stops counting
# as failed.
KNOWN_FAULTS = {
    "reverse:stirling:v=7": "Q* window capped at n = 700, the saturation flag "
                            "is dropped and the bound falls below ln M",
    "reverse:order2:v=3.5": "same saturated Q* as above",
    "reverse:order2:v=4": "same saturated Q* as above",
    "reverse:log_power_conjugate:v=2": "nested golden search in "
                                       "GrowthFunction.conjugate misses its deadline",
    "cli:every:order2/upper_bound": "power_order rho = 2 at v = 4: the same "
                                    "saturated Q* as reverse:order2:v=4",
}

DEADLINE_S = 1.0  # for the nested-conjugation bound, which needs over 60 s
MULTI_EPS_POINTS = 9
KERNEL_SIZES = (1_000, 10_000, 100_000)
# calls under a tenth of a second repeat within a round, so that their
# mean is taken over more samples
SHORT_REPEATS = 3
COEFF_GRID = np.arange(1, 2001, dtype=float)
# Times are scaled to a machine on which calibrate() takes CAL_REF_S, using
# the mean of all calibrations of the run.  After each call the run
# calibrates once, plus once for every CAL_EVERY_S the call took, at most
# CAL_MAX times, so that long calls leave as many samples as short ones.
CAL_REF_S = 0.007
CAL_EVERY_S = 0.5
CAL_MAX = 9
HERE = os.path.dirname(os.path.abspath(__file__))


class Ledger:
    """Operations attempted and failed, and the samples behind the metrics."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = []
        self.own = True                      # False while a round runs its probes
        self.samples = defaultdict(list)     # op id -> seconds of each call
        self.unscaled = set()                # op ids whose time is a wait
        self.slack = {}                      # op id -> mean of bound - ln R_Q
        self.manifests = defaultdict(list)
        self.cals = []                       # seconds of each calibrate()

    def calibrate_after(self, seconds):
        """Calibrate after something that took `seconds`."""
        count = min(CAL_MAX, 1 + int(seconds / CAL_EVERY_S))
        self.cals.extend(calibrate() for _ in range(count))

    def timed(self, op_id, seconds, scaled=True):
        """Record one call; only the workload's own operations keep a sample,
        but every call is followed by calibrations."""
        if self.own:
            self.samples[op_id].append(seconds)
            if not scaled:
                self.unscaled.add(op_id)
        self.calibrate_after(seconds)

    def scale(self):
        """The factor that takes a time measured in this run to the
        machine speed at which calibrate() takes CAL_REF_S."""
        med = statistics.median(self.cals)
        # a calibration over twice the median was interrupted, not slowed
        return CAL_REF_S / statistics.fmean(c for c in self.cals if c <= 2.0 * med)

    def op(self, op_id, ok, why=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if op_id not in KNOWN_FAULTS:
                self.unexpected.append(f"{op_id}: {why}")


class Context:
    """Library handles, seeded inputs and the tracer switch for one run."""

    def __init__(self, eg, root, workdir):
        self.eg = eg
        self.root = root
        self.workdir = workdir
        self.tracer = None
        self.ref_cache = {}
        self.inputs = None

    def profile(self, gf):
        """A profile the benchmark built, with its calls counted when traced."""
        if self.tracer is None:
            return gf
        return dataclasses.replace(gf, fn=self.tracer.profile(gf.fn))

    def ref(self, key, fn):
        if key not in self.ref_cache:
            self.ref_cache[key] = fn()
        return self.ref_cache[key]


def calibrate():
    """Seconds for a fixed mix of interpreter and NumPy work, which does not
    touch the library: the speed of the machine at this moment."""
    t0 = time.perf_counter()
    x = 0.0
    for i in range(60000):
        x += (i * 0.5) % 7.0
    a = np.linspace(0.0, 1.0, 2048)
    for _ in range(300):
        a = np.sqrt(a * a + 1.0) - 1.0
    return time.perf_counter() - t0


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


# ================================================================ inputs


def make_inputs(eg, seed, workdir):
    """Everything the workloads feed the program, made from the seed alone."""
    rng = np.random.default_rng(seed)
    b = eg.bounds
    inp = {}

    # reverse-scan: v grids spanning tight (small v) to loose (large v) bounds
    jit = lambda base: [float(x) for x in np.asarray(base) + rng.uniform(0.0, 0.01, len(base))]
    stir, quad = b.stirling_decay(), b.quadratic_decay(0.5)
    order2 = b.GrowthFunction("order_decay(rho=2)",
                              lambda n: gammaln(np.asarray(n, float) / 2.0 + 1.0),
                              domain_min=0.0)
    ref_st, ref_o2, ref_qd = refs.stirling_q, refs.order_q(2.0), refs.quadratic_q(0.5)
    ops = []
    for v in jit([0.0, 2.0, 4.0, 6.0]):
        ops.append((f"reverse:stirling:v={v:.4f}", stir, ref_st, math.exp, v))
    for v in jit([1.0, 2.5]):
        ops.append((f"reverse:order2:v={v:.4f}", order2, ref_o2,
                    lambda v: refs.ln_m_order2(math.exp(v)), v))
    for v in jit([1.0, 10.0]):
        ops.append((f"reverse:quadratic:v={v:.4f}", quad, ref_qd, None, v))
    ops.append(("reverse:stirling:v=7", stir, ref_st, math.exp, 7.0))
    ops.append(("reverse:order2:v=3.5", order2, ref_o2,
                lambda v: refs.ln_m_order2(math.exp(v)), 3.5))
    ops.append(("reverse:order2:v=4", order2, ref_o2,
                lambda v: refs.ln_m_order2(math.exp(v)), 4.0))
    inp["bounds"] = ops
    v2 = jit([1.0, 2.0, 2.0, 4.0])
    inp["multi"] = [
        ("reverse:multi:stirling*stirling", (stir, stir), (ref_st, ref_st), tuple(v2[:2])),
        ("reverse:multi:stirling*quadratic", (stir, quad), (ref_st, ref_qd), tuple(v2[2:])),
    ]
    # untimed bounds that give conjugate-kernels its bound_slack_nats
    inp["probe_bounds"] = [
        ("probe:stirling", stir, ref_st, math.exp, 2.0 + float(rng.uniform(0, 0.01))),
        ("probe:quadratic", quad, ref_qd, None, 5.0 + float(rng.uniform(0, 0.01))),
    ]

    # conjugate-kernels: sampled functions and closed-form growth profiles
    sampled = []
    for size in KERNEL_SIZES:
        half = float(rng.uniform(4.0, 8.0))
        xs = np.linspace(-half, half, size)
        sampled.append((f"kernel:half_square:{size}", xs, 0.5 * xs ** 2, "half_square"))
        a, c = rng.uniform(0.2, 2.0), rng.uniform(-1.0, 1.0)
        gs = a * xs ** 2 + c * np.abs(xs) ** 1.5 + rng.normal(0.0, 0.05 * a, size)
        sampled.append((f"kernel:noisy:{size}", xs, gs, None))
    inp["sampled"] = sampled
    u = lambda lo, hi: float(rng.uniform(lo, hi))
    # the seeded parameters keep every argmax far inside the window; the
    # fixed power_log(1, 2) grid runs past the cap (argmax n/2 > 700 for
    # n > 1400) to check how saturated entries are flagged
    inp["profiles"] = [
        ("kernel:power_of_exp", "power_of_exp", (u(0.8, 1.25), u(0.8, 1.25))),
        ("kernel:power_log", "power_log", (u(1.0, 2.0), u(2.5, 3.0))),
        ("kernel:power_log_capped", "power_log", (1.0, 2.0)),
        ("kernel:exp_of_exp", "exp_of_exp", (u(0.8, 1.25), u(0.8, 1.25))),
        ("kernel:poisson_growth", "poisson_growth", (u(1.0, 4.0),)),
    ]

    # cli-report: a log-concave coefficient table (convex decay) and the
    # every-analysis config next to it
    size = 300
    rho, s = u(1.2, 2.5), u(0.0, 1.0)
    ns = np.arange(size, dtype=float)
    bend = np.concatenate([[0.0], np.cumsum(np.cumsum(rng.exponential(1e-3, size - 1)))])
    ln_c = -(gammaln(ns / rho + 1.0) + s * ns + bend)
    inp["table"] = ln_c
    with open(os.path.join(workdir, "custom_table.csv"), "w", newline="\n") as fh:
        fh.write("n,ln_abs_c\n")
        for n, v in enumerate(ln_c):
            fh.write(f"{n},{format(float(v), '.17g')}\n")
    shutil.copy(os.path.join(HERE, "every.cfg"), os.path.join(workdir, "every.cfg"))
    inp["configs"] = [("all", os.path.join(os.path.dirname(HERE), "configs", "all.cfg")),
                      ("every", os.path.join(workdir, "every.cfg"))]
    return inp


def warm_up(eg):
    """One small call of each operation kind, so lazy set-up is done."""
    xs = np.linspace(-1.0, 1.0, 101)
    g = eg.legendre.SampledFunction1D(xs, xs ** 2)
    eg.legendre.conjugate_1d(g, xs)
    eg.legendre.biconjugate_1d(g, xs)
    eg.bounds.coeff_upper_bound_many(eg.probgen.poisson_growth(1.0), np.arange(1.0, 11.0))
    eg.bounds.max_function_upper_bound(eg.bounds.quadratic_decay(0.5), 1.0, eps_points=9)


# ======================================================== reverse direction


def _bound_op(ctx, led, op_id, decay, q_ref, ln_m, v):
    b = ctx.eg.bounds
    (bound, rep), dt = _timed(b.max_function_upper_bound, ctx.profile(decay), v)
    led.timed(op_id, dt)
    ln_r = ctx.ref(("lnR", op_id), lambda: refs.log_r(q_ref, v))
    ok = refs.leq(ln_r, bound)
    why = f"bound {bound!r} < ln R_Q {ln_r!r}"
    if ln_m is not None:
        # the sandwich ln M <= ln R_Q <= bound
        ok = ok and refs.leq(ln_m(v), ln_r)
    if op_id not in KNOWN_FAULTS:
        led.slack[op_id] = bound - ln_r
    led.op(op_id, ok, why)
    return dt


def _deadline_op(ctx, led):
    """max_function_upper_bound on the decay the CLI builds for
    log_power_growth (Q = (|v|^2)*), in a child process with a deadline."""
    op_id = "reverse:log_power_conjugate:v=2"
    code = ("import sys; sys.path.insert(0, sys.argv[1]);"
            "from entire_growth import bounds;"
            "b, _ = bounds.max_function_upper_bound("
            "bounds.power_log(C=1.0, m=2.0).conjugate(), 2.0);"
            "print(repr(b))")
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code, os.path.join(ctx.root, "src")],
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    try:
        out, _ = proc.communicate(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        led.timed(op_id, time.perf_counter() - t0, scaled=False)
        led.op(op_id, False, f"no result within {DEADLINE_S} s")
        return time.perf_counter() - t0
    led.timed(op_id, time.perf_counter() - t0, scaled=False)
    # Q(n) = n^2/4 is the conjugate of v^2
    ok = proc.returncode == 0 and refs.leq(refs.log_r(refs.quadratic_q(0.25), 2.0),
                                           float(out.strip() or "nan"))
    led.op(op_id, ok, f"exit {proc.returncode}, output {out.strip()!r}")
    return time.perf_counter() - t0


def _multi_op(ctx, led, op_id, parts, q_refs, v):
    mv = ctx.eg.multivar
    Q = mv.MultiGrowthFunction.from_separable([ctx.profile(p) for p in parts])
    (bound, _rep), dt = _timed(mv.multi_max_bound, Q, list(v),
                               eps_points=MULTI_EPS_POINTS)
    # separable Q: R_Q(v1, v2) = R_Q1(v1) R_Q2(v2)
    ln_r = ctx.ref(("lnR", op_id), lambda: sum(refs.log_r(q, vi) for q, vi in zip(q_refs, v)))
    led.timed(op_id, dt)
    led.slack[op_id] = bound - ln_r
    led.op(op_id, refs.leq(ln_r, bound), f"bound {bound!r} < ln R_Q {ln_r!r}")
    return dt


def reverse_scan_round(ctx, led):
    main = 0.0
    for op in ctx.inputs["bounds"]:
        main += _bound_op(ctx, led, *op)
    for op in ctx.inputs["multi"]:
        main += _multi_op(ctx, led, *op)
    return main + _deadline_op(ctx, led)


def probe_bounds(ctx, led):
    for op in ctx.inputs["probe_bounds"]:
        _bound_op(ctx, led, *op)


# ===================================================== conjugation kernels


def _sampled_op(ctx, led, op_id, xs, gs, closed):
    lg = ctx.eg.legendre
    g = lg.SampledFunction1D(xs, gs)
    ys = np.linspace(1.1 * xs[0], 1.1 * xs[-1], xs.size)
    table, dt1 = _timed(lg.conjugate_1d, g, ys)
    env, dt2 = _timed(lg.biconjugate_1d, g, xs)
    led.timed(op_id, dt1 + dt2)
    pick = np.unique(np.linspace(0, ys.size - 1, 64).astype(int))
    ok = np.array_equal(table.gstars[pick], refs.brute_conjugate(xs, gs, ys[pick]))
    why = "conjugate differs from brute force"
    if closed == "half_square":
        h = xs[1] - xs[0]
        inside = np.abs(ys) <= xs[-1]
        exact = refs.conj_half_square(ys[inside])
        ok = ok and refs.leq(table.gstars[inside], exact, atol=1e-9) and \
            refs.leq(exact - h * h / 8.0, table.gstars[inside], atol=1e-9)
        why += " or from y^2/2 by more than h^2/8"
    # the convex envelope: below the samples, equal at hull vertices, convex
    d2 = np.diff(env.gstars, 2)
    ok = ok and refs.leq(env.gstars, gs, atol=1e-9) and \
        bool(np.all(d2 >= -1e-9 * max(1.0, float(np.max(np.abs(gs)))))) and \
        refs.close(env.gstars[[0, -1]], gs[[0, -1]], atol=1e-9)
    led.op(op_id, ok, why + " / envelope not convex or above g")
    return dt1 + dt2


def _growth(eg, name, params):
    b, pg = eg.bounds, eg.probgen
    return {"power_of_exp": lambda C, rho: b.power_of_exp(C=C, rho=rho),
            "power_log": lambda C, m: b.power_log(C=C, m=m),
            "exp_of_exp": lambda C5, C6: b.exp_of_exp(C5=C5, C6=C6),
            "poisson_growth": lambda lam: pg.poisson_growth(lam)}[name](*params)


def _closed_conj(name, params, n):
    return {"power_of_exp": refs.conj_power_of_exp,
            "power_log": refs.conj_power_log,
            "exp_of_exp": refs.conj_exp_of_exp,
            "poisson_growth": refs.conj_poisson}[name](*params, n)


def _coeff_op(ctx, led, op_id, name, params):
    b, lg = ctx.eg.bounds, ctx.eg.legendre
    lam = ctx.profile(_growth(ctx.eg, name, params))
    exact = _closed_conj(name, params, COEFF_GRID)
    cap = lg.WINDOW_HARD_CAP
    if name == "power_log":
        past_cap = refs.argmax_power_log(*params, COEFF_GRID) > cap - 1.0
    else:
        past_cap = np.zeros(COEFF_GRID.size, dtype=bool)
    bnd, dt1 = _timed(b.coeff_upper_bound_many, lam, COEFF_GRID)
    table, dt2 = _timed(lg.conjugate_of_callable, lam.fn, COEFF_GRID, x_min=lam.domain_min)
    led.timed(op_id, dt1 + dt2)
    # an argmax inside the window gives the closed form; a capped one may only
    # fall short of it, and must be flagged
    inside = table.argmax_xs < cap - 1e-6
    ok = refs.close(table.gstars[inside], exact[inside], rtol=1e-9) and \
        refs.leq(table.gstars[~inside], exact[~inside]) and \
        (table.window_saturated or bool(np.all(inside))) and \
        refs.close(-bnd[~past_cap], exact[~past_cap], rtol=1e-9) and \
        refs.leq(-bnd[past_cap], exact[past_cap])
    led.op(op_id, ok, "conjugate differs from its closed form")
    return dt1 + dt2


def conjugate_kernels_round(ctx, led):
    main = 0.0
    for op in ctx.inputs["sampled"]:
        for _ in range(SHORT_REPEATS if op[1].size < KERNEL_SIZES[-1] else 1):
            main += _sampled_op(ctx, led, *op)
    for op in ctx.inputs["profiles"]:
        for _ in range(SHORT_REPEATS):
            main += _coeff_op(ctx, led, *op)
    return main


# ============================================================== CLI report


def _floats(text):
    text = text.strip()
    if ":" in text and "," not in text:
        lo, hi, count = text.split(":")
        return np.linspace(float(lo), float(hi), int(count))
    return np.array([float(t) for t in text.split(",") if t.strip()])


def _ints(text):
    text = text.strip()
    if ":" in text and "," not in text:
        lo, hi = text.split(":")
        return np.arange(int(lo), int(hi) + 1)
    return np.array([int(t) for t in text.split(",") if t.strip()])


class _Family:
    """Independent model of one config section: ln|c_n|, Lambda, Lambda*, ln M."""

    def __init__(self, sec, table):
        fam = sec["family"].strip()
        num = lambda k, d: float(sec.get(k, d))
        self.ln_c = self.lam = self.lam_star = self.ln_m = None
        if fam == "exp":
            self.ln_c = lambda n: -gammaln(n + 1.0)
            self.lam = np.exp
            self.lam_star = lambda n: refs.conj_power_of_exp(1.0, 1.0, n)
            self.ln_m = refs.ln_m_exp
        elif fam == "power_order":
            rho, c = num("rho", "1"), num("c", "1")
            self.ln_c = lambda n: -gammaln(n / rho + 1.0)
            self.lam = lambda v: c * np.exp(rho * v)
            self.lam_star = lambda n: refs.conj_power_of_exp(c, rho, n)
            self.ln_m = refs.ln_m_order2 if rho == 2.0 else \
                (lambda r: refs.log_r(lambda n: -self.ln_c(n), math.log(r)))
        elif fam == "poisson":
            lam = num("lam", "1")
            self.ln_c = lambda n: -lam + n * math.log(lam) - gammaln(n + 1.0)
            self.lam = lambda v: lam * (np.exp(v) - 1.0)
            self.lam_star = lambda n: refs.conj_poisson(lam, n)
            self.ln_m = lambda r: refs.ln_m_poisson(lam, r)
        elif fam == "custom_coeff_csv":
            top = table.size - 1
            self.ln_c = lambda n: np.where(np.asarray(n) <= top,
                                           table[np.minimum(np.asarray(n, int), top)], -np.inf)
            self.ln_m = lambda r: refs.log_r(lambda n: -self.ln_c(n), math.log(r), n_max=top)
            self.lam = lambda v: np.array([self.ln_m(math.exp(x)) for x in np.atleast_1d(v)])
        elif fam == "log_power_growth":
            m, c = num("m", "2"), num("c", "1")
            self.lam = lambda v: c * np.abs(v) ** m
            self.lam_star = lambda n: refs.conj_power_log(c, m, n)
        elif fam == "double_exp":
            c5, c6 = num("c5", "1"), num("c6", "1")
            self.lam = lambda v: c5 * np.exp(c6 * np.exp(v))
            self.lam_star = lambda n: refs.conj_exp_of_exp(c5, c6, n)


def _read(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _col(rows, i):
    return np.array([float(r[i]) for r in rows if r[i] != ""])


def _check_analysis(out, name, sec, analysis, fam, sections, table, slack):
    """True when the CSV the CLI wrote for one analysis holds up.  For
    upper_bound, the mean of bound - ln R_Q is appended to slack."""
    _h, rows = _read(os.path.join(out, name, f"{analysis}.csv"))
    n_grid = _ints(sec.get("n_grid", "1:200")).astype(float)
    eps0 = float(sec.get("eps0", "0.5"))
    if analysis == "coeff_bound":
        n, la, bnd, slack = (_col(rows, i) for i in range(4))
        ok = np.array_equal(n, n_grid) and refs.close(la, fam.ln_c(n), rtol=1e-12) \
            and refs.leq(la, bnd) and refs.close(slack, bnd - la, rtol=1e-12)
        if fam.lam_star is not None:
            ok = ok and refs.close(bnd, -fam.lam_star(n), rtol=1e-9)
        return ok
    if analysis == "tauberian":
        r, lhs, n, rhs = (_col(rows, i) for i in range(4))
        want_lhs = np.array([fam.ln_m(x) for x in r]) / fam.lam(np.log(r))
        # where Lambda*(n) is 0 in closed form the printed ratio is only rounding
        star = fam.lam_star(n)
        pos = star > 1e-6
        return refs.close(lhs, want_lhs, rtol=1e-9) and \
            refs.close(rhs[pos], np.abs(fam.ln_c(n[pos])) / star[pos], rtol=1e-9) and \
            refs.leq(np.ones_like(rhs), rhs)
    if analysis == "upper_bound":
        v, bnd, eps_star, c_eff, _s0 = (_col(rows, i) for i in range(5))
        q = lambda n: -fam.ln_c(n)
        ln_r = np.array([refs.log_r(q, x) for x in v])
        ln_m = np.array([fam.ln_m(math.exp(x)) for x in v])
        _eh, erows = _read(os.path.join(out, name, "epsilon_report.csv"))
        k, u, y = (_col(erows, i) for i in (1, 2, 3))
        slack.append(float(np.mean(bnd - ln_r)))
        return refs.close(ln_m, ln_r, rtol=1e-9) and refs.leq(ln_r, bnd) and \
            refs.close(c_eff, 1.0 / (1.0 - eps_star), rtol=1e-12) and \
            refs.close(y, np.minimum(k, u), rtol=0.0, atol=0.0)
    if analysis == "gamma":
        v, ratio = _col(rows, 0), _col(rows, 1)
        want = fam.lam(v / (1.0 - eps0)) / fam.lam(v)
        return refs.close(ratio, want, rtol=1e-9) and refs.leq(np.ones_like(ratio), ratio)
    if analysis == "example_31":
        m = float(sec["m"])
        n, conj, _const, fit = (_col(rows, i) for i in range(4))
        return refs.close(conj, fam.lam_star(n), rtol=1e-9) and \
            refs.close(fit, np.full_like(fit, m / (m - 1.0)), rtol=1e-6)
    if analysis == "example_32":
        n, la, bnd, _slack = (_col(rows, i) for i in range(4))
        return refs.close(bnd, -fam.lam_star(n), rtol=1e-12) and refs.leq(la, bnd)
    if analysis == "example_33":
        n, conj, lead, ratio = (_col(rows, i) for i in range(4))
        return refs.close(conj, fam.lam_star(n), rtol=1e-9) and \
            refs.close(lead, n * np.log(np.log(n)), rtol=1e-12) and \
            refs.close(ratio, conj / lead, rtol=1e-12)
    if analysis == "order_type":
        got = {r[0]: float(r[1]) for r in rows}
        ns = np.arange(int(sec.get("n_min", "100")), int(sec.get("n_max", "1000")) + 1,
                       dtype=float)
        la = fam.ln_c(ns)
        use = np.isfinite(la) & (la != 0.0)
        order = float(np.max(ns[use] * np.log(ns[use]) / np.abs(la[use])))
        rho = float(sec.get("rho", "1") or "1")
        fin = np.isfinite(la)
        typ = float(np.max(np.exp(np.log(ns[fin]) / rho + la[fin] / ns[fin])))
        return refs.close(got["order"], order, rtol=1e-12) and \
            refs.close(got["type"], typ, rtol=1e-12)
    if analysis == "factorized":
        got = {r[0]: float(r[1]) for r in rows}
        r_grid = _floats(sec["r_grid"])
        parts = [p.strip() for p in sec["parts"].split(",")]
        m1 = sections[parts[0]].ln_m(r_grid[0])
        m2 = sections[parts[1]].ln_m(r_grid[min(1, r_grid.size - 1)])
        return refs.close(got["log_max_factor_1"], m1, rtol=1e-9) and \
            refs.close(got["log_max_factor_2"], m2, rtol=1e-9) and \
            refs.close(got["log_max_product"], m1 + m2, rtol=1e-9) and \
            got["bound_holds"] == 1.0
    raise ValueError(f"no check for analysis {analysis}")


def _check_cli(ctx, led, label, config, out, rc):
    parser = configparser.ConfigParser()
    parser.read(config)
    table = ctx.inputs["table"]
    fams = {name: _Family(parser[name], table) for name in parser.sections()}
    try:
        with open(os.path.join(out, "MANIFEST"), "rb") as fh:
            manifest = fh.read()
    except OSError as exc:
        manifest = b""
        led.unexpected.append(f"cli:{label}: exit {rc}, no MANIFEST ({exc})")
    for line in manifest.decode().splitlines():
        rel, digest, _count = line.rsplit(",", 2)
        with open(os.path.join(out, rel), "rb") as fh:
            if hashlib.sha256(fh.read()).hexdigest() != digest:
                led.unexpected.append(f"cli:{label}: MANIFEST digest of {rel} is wrong")
    led.manifests[label].append(manifest)
    for name in parser.sections():
        sec = parser[name]
        for analysis in [a.strip() for a in sec["analyses"].split(",") if a.strip()]:
            op_id = f"cli:{label}:{name}/{analysis}"
            slack = []
            try:
                ok = rc == 0 and _check_analysis(out, name, sec, analysis, fams[name],
                                                 fams, table, slack)
            except (OSError, KeyError, ValueError, IndexError) as exc:
                ok = False
                why = f"{type(exc).__name__}: {exc}"
            else:
                why = f"exit {rc}" if rc else "output does not match the reference"
            led.op(op_id, ok, why)
            if slack and op_id not in KNOWN_FAULTS:
                led.slack[op_id] = slack[0]


def cli_run(ctx, led, label, config):
    out = os.path.join(ctx.workdir, f"cli-{label}")
    shutil.rmtree(out, ignore_errors=True)
    rc, dt = _timed(ctx.eg.cli.run, config, out, quiet=True)
    led.timed(f"cli:{label}", dt)
    _check_cli(ctx, led, label, config, out, rc)
    shutil.rmtree(out, ignore_errors=True)
    return dt


def cli_report_round(ctx, led):
    return sum(cli_run(ctx, led, label, cfg) for label, cfg in ctx.inputs["configs"])


# =============================================================== registry

# (own operations, probes, fewest rounds in a run): every timed operation
# repeats at least twice in a run
WORKLOADS = {
    "cli-report": (cli_report_round, (), 2),
    "reverse-scan": (reverse_scan_round, (), 2),
    "conjugate-kernels": (conjugate_kernels_round, (probe_bounds,), 2),
}


def end_to_end(led, setups, peak_rss_mb):
    """The end-to-end metrics from one run's samples.

    The machine flips between a fast and a slow state every few seconds.
    Times are therefore scaled by led.scale(), which the run measures beside
    its calls.  An operation's cost is the mean of its calls: over the mean
    calibration time, a ratio of means, which follows the share of the run
    the machine spent slow (a median would jump between the two states).
    The deadline operation is a wait, and stays unscaled.
    """
    scale = led.scale()
    cost = {op: statistics.fmean(calls) * (1.0 if op in led.unscaled else scale)
            for op, calls in led.samples.items()}
    m = {
        "setup_s": (statistics.median(setups) * scale, "s"),
        "wall_s": (sum(cost.values()), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "bound_slack_nats": (statistics.fmean(led.slack.values()), "nats"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}

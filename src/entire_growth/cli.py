"""Command-line front end: config-driven analyses with CSV reports.

The config is INI-style text, one section per function spec:

    [exp_demo]
    family = exp
    analyses = coeff_bound, tauberian
    n_grid = 1:200
    r_grid = 2.718281828459045, 7.389056098930650

Each analysis writes one CSV under <out>/<section>/; a MANIFEST at the
output root lists every file with its sha-256 and row count, and
summary.txt carries the headline numbers.  Identical configs produce
byte-identical trees: floats are printed with 17 significant digits and
files use '\n' line endings.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import math
import os
import sys
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import bounds, entire, multivar, probgen, scales
from .errors import ConfigError, EntireGrowthError

_FAMILIES = ("exp", "power_order", "log_power_growth", "double_exp",
             "custom_coeff_csv", "poisson", "factorized")

_ANALYSES = ("coeff_bound", "tauberian", "upper_bound", "gamma",
             "example_31", "example_32", "example_33", "order_type",
             "factorized")


def _fmt(x) -> str:
    """Fixed float formatting: 17 significant digits, '.' separator."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x, ".17g")


def _write_csv(path: str, header: List[str], rows: List[List]) -> Tuple[int, str]:
    """Write a CSV with '\n' endings; returns the data row count and the
    sha-256 of the bytes written."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    data = "".join(",".join("" if v is None else (v if isinstance(v, str) else _fmt(v))
                            for v in row) + "\n" for row in [header] + rows).encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return len(rows), hashlib.sha256(data).hexdigest()


def _parse_floats(text: str) -> np.ndarray:
    """Grid syntax: 'a, b, c' literal values or 'lo:hi:count' linspace."""
    text = text.strip()
    if ":" in text and "," not in text:
        lo, hi, count = text.split(":")
        return np.linspace(float(lo), float(hi), int(count))
    return np.asarray([float(t) for t in text.split(",") if t.strip()])


def _parse_ints(text: str) -> np.ndarray:
    """Index grid: 'a, b, c' literal values or 'lo:hi' inclusive range, every
    entry in [0, entire.MAX_TERMS] (checked before a range is built)."""
    text = text.strip()
    is_range = ":" in text and "," not in text
    ints = [int(t) for t in text.split(":" if is_range else ",") if t.strip()]
    if is_range and len(ints) != 2:
        raise ValueError("a range is 'lo:hi'")
    if not all(0 <= n <= entire.MAX_TERMS for n in ints):
        raise ValueError(f"entries must lie in [0, {entire.MAX_TERMS}]")
    return np.arange(ints[0], ints[1] + 1) if is_range else np.asarray(ints)


def _parse_key(name: str, section, key: str, default: str, parse):
    """Parse one key of a section; bad text, an empty grid or a value that
    is not finite is a ConfigError."""
    text = section.get(key, default)
    try:
        value = parse(text)
    except ValueError as exc:
        raise ConfigError(f"[{name}] bad {key} {text!r}: {exc}")
    if isinstance(value, np.ndarray) and value.size == 0:
        raise ConfigError(f"[{name}] {key} {text!r} is empty")
    if not np.all(np.isfinite(value)):
        raise ConfigError(f"[{name}] {key} {text!r} is not finite")
    return value


class FunctionSpec:
    """One parsed config section: a family plus its analysis requests."""

    def __init__(self, name: str, section, config_dir: str):
        self.name = name
        self.family = section.get("family", "").strip()
        if self.family not in _FAMILIES:
            raise ConfigError(f"[{name}] unknown family {self.family!r}")
        self.analyses = [a.strip() for a in section.get("analyses", "").split(",")
                         if a.strip()]
        if not self.analyses:
            raise ConfigError(f"[{name}] no analyses requested")
        for a in self.analyses:
            if a not in _ANALYSES:
                raise ConfigError(f"[{name}] unknown analysis {a!r}")
        self.params = dict(section)
        self.config_dir = config_dir
        self.n_grid = _parse_key(name, section, "n_grid", "1:200", _parse_ints)
        self.r_grid = _parse_key(name, section, "r_grid",
                                 "2.718281828459045,7.389056098930650,"
                                 "20.085536923187668,54.598150033144236", _parse_floats)
        if np.any(self.r_grid <= 0):
            raise ConfigError(f"[{name}] r_grid entries must be positive")
        self.v_grid = _parse_key(name, section, "v_grid", "0.5:4.0:8", _parse_floats)
        self.eps0 = _parse_key(name, section, "eps0", "0.5", float)
        self.n_min = _parse_key(name, section, "n_min", "100", int)
        self.n_max = _parse_key(name, section, "n_max", "1000", int)
        self.parts = [p.strip() for p in section.get("parts", "").split(",")
                      if p.strip()]
        self._validate()

    def _validate(self) -> None:
        fam, p = self.family, self.params
        need = {"power_order": ["rho"], "log_power_growth": ["m"],
                "double_exp": [], "custom_coeff_csv": ["path"],
                "poisson": ["lam"], "factorized": ["parts"]}.get(fam, [])
        for key in need:
            if key not in p or not p[key].strip():
                raise ConfigError(f"[{self.name}] family {fam} needs key {key!r}")
        if fam == "custom_coeff_csv":
            path = os.path.join(self.config_dir, p["path"])
            try:
                self.table = entire.coefficients_from_csv(path, name=self.name)
            except (OSError, EntireGrowthError) as exc:
                raise ConfigError(f"[{self.name}] coefficient table: {exc}")
        allowed = self._allowed_analyses()
        for a in self.analyses:
            if a not in allowed:
                raise ConfigError(
                    f"[{self.name}] analysis {a!r} unsupported for family {fam}")
        # build the family's models now, so a bad parameter is a config error
        try:
            if fam in ("exp", "power_order", "custom_coeff_csv", "poisson"):
                self.coefficients()
            if fam != "factorized":
                self.growth()
        except (ValueError, EntireGrowthError) as exc:
            raise ConfigError(f"[{self.name}] family {fam}: {exc}")

    def _allowed_analyses(self) -> Tuple[str, ...]:
        common = ("upper_bound", "gamma")
        return {
            "exp": ("coeff_bound", "tauberian", "order_type") + common,
            "power_order": ("coeff_bound", "tauberian", "example_32",
                            "order_type") + common,
            "log_power_growth": ("example_31",) + common,
            "double_exp": ("example_33",) + common,
            "custom_coeff_csv": ("coeff_bound", "order_type") + common,
            "poisson": ("coeff_bound", "tauberian") + common,
            "factorized": ("factorized",),
        }[self.family]

    # --- family model construction -------------------------------------

    def coefficients(self) -> entire.CoefficientSequence:
        fam, p = self.family, self.params
        if fam == "exp":
            return entire.exp_coefficients()
        if fam == "power_order":
            return entire.gamma_order_coefficients(float(p["rho"]),
                                                   float(p.get("c", "1.0")))
        if fam == "custom_coeff_csv":
            return self.table
        if fam == "poisson":
            return probgen.poisson(float(p["lam"])).as_coefficients()
        raise ConfigError(f"[{self.name}] family {fam} has no coefficient model")

    def growth(self) -> bounds.GrowthFunction:
        fam, p = self.family, self.params
        if fam == "exp":
            return bounds.power_of_exp(C=1.0, rho=1.0)
        if fam == "power_order":
            return bounds.power_of_exp(C=float(p.get("c", "1.0")),
                                       rho=float(p["rho"]))
        if fam == "log_power_growth":
            return bounds.power_log(C=float(p.get("c", "1.0")), m=float(p["m"]))
        if fam == "double_exp":
            return bounds.exp_of_exp(C5=float(p.get("c5", "1.0")),
                                     C6=float(p.get("c6", "1.0")))
        if fam == "poisson":
            return probgen.poisson_growth(float(p["lam"]))
        return multivar.growth_of(self.coefficients(), name=self.name)

    def decay(self) -> bounds.GrowthFunction:
        """Decay profile: the convex envelope of Q(n) = -ln|c_n| with its
        discrete conjugate, or the growth conjugate if no coefficient model
        exists."""
        if self.family in ("log_power_growth", "double_exp"):
            return self.growth().conjugate()
        return bounds.index_decay(self.coefficients())


# --- analyses ----------------------------------------------------------


def _run_coeff_bound(spec: FunctionSpec, ctx, label: str = "coeff_bound"
                     ) -> Tuple[List[str], List[List], List[str]]:
    f = spec.coefficients()
    Lam = spec.growth()
    la = f.log_abs_array(spec.n_grid)
    bnd = bounds.coeff_upper_bound_many(Lam, spec.n_grid)
    rows = [[int(n), lav, bv, bv - lav]
            for n, lav, bv in zip(spec.n_grid, la, bnd)]
    worst = float(np.min(bnd - la))
    return (["n", "ln_abs_c", "log_bound", "slack"], rows,
            [f"{label}: min slack {_fmt(worst)} over n in "
             f"[{spec.n_grid[0]}, {spec.n_grid[-1]}]"])


def _run_tauberian(spec: FunctionSpec, ctx) -> Tuple[List[str], List[List], List[str]]:
    Lam = spec.growth()
    if spec.family == "poisson":
        rep = probgen.prob_tauberian_report(
            probgen.poisson(float(spec.params["lam"])), Lam,
            spec.r_grid, spec.n_grid)
    else:
        rep = bounds.tauberian_report(spec.coefficients(), Lam,
                                      spec.r_grid, spec.n_grid)
    rows = [[_fmt(rep.r_grid[i]) if i < rep.r_grid.size else "",
             _fmt(rep.lhs_ratios[i]) if i < rep.r_grid.size else "",
             str(int(rep.n_grid[i])) if i < rep.n_grid.size else "",
             _fmt(rep.rhs_ratios[i]) if i < rep.n_grid.size else ""]
            for i in range(max(rep.r_grid.size, rep.n_grid.size))]
    return (["r", "lhs_ratio", "n", "rhs_ratio"], rows,
            [f"tauberian: terminal lhs {_fmt(rep.terminal_lhs)}, "
             f"terminal rhs {_fmt(rep.terminal_rhs)}, "
             f"gap {_fmt(rep.terminal_gap)}"])


def _run_upper_bound(spec: FunctionSpec, ctx):
    Q = spec.decay()
    rows, notes = [], []
    eps_rows = None
    for v in spec.v_grid:
        b, rep = bounds.max_function_upper_bound(Q, float(v),
                                                 eps_points=ctx.eps_points)
        rows.append([v, b, rep.eps_star, rep.c_eff, rep.S0,
                     1 if rep.qstar_saturated else 0])
        eps_rows = rep
    notes.append(f"upper_bound: bound {_fmt(rows[-1][1])} at "
                 f"v={_fmt(spec.v_grid[-1])}, eps* {_fmt(eps_rows.eps_star)}")
    extra = (["eps", "ln_k", "ln_u", "ln_y"],
             [list(row) for row in zip(eps_rows.eps_grid, eps_rows.ln_k,
                                       eps_rows.ln_u, eps_rows.ln_y)])
    return (["v", "log_bound", "eps_star", "c_eff", "s0", "qstar_saturated"],
            rows, notes, extra)


def _run_gamma(spec: FunctionSpec, ctx):
    rep = bounds.gamma_condition(spec.growth(), spec.eps0, spec.v_grid)
    rows = [[v, r] for v, r in zip(rep.v_grid, rep.ratios)]
    return (["v", "ratio"], rows,
            [f"gamma: estimate {_fmt(rep.gamma_estimate)}, "
             f"holds {str(rep.holds).lower()}"])


def _run_example_31(spec: FunctionSpec, ctx):
    m = float(spec.params["m"])
    c = float(spec.params.get("c", "1.0"))
    rep = scales.example_31_check(m, c, spec.n_grid[spec.n_grid >= 2])
    rows = [[int(n), ls, ce, rep.exponent_fit]
            for n, ls, ce in zip(rep.n_grid, rep.lam_star, rep.constant_estimates)]
    return (["n", "conj_value", "constant_estimate", "exponent_fit"], rows,
            [f"example_31: exponent fit {_fmt(rep.exponent_fit)} "
             f"(conjugate exponent {_fmt(m / (m - 1.0))}), "
             f"constant {_fmt(rep.constant_estimate)}"])


def _run_example_33(spec: FunctionSpec, ctx):
    c5 = float(spec.params.get("c5", "1.0"))
    c6 = float(spec.params.get("c6", "1.0"))
    c7 = float(spec.params.get("c7", "1.0"))
    grid = spec.n_grid[spec.n_grid >= 3]
    rep = scales.example_33_check(c5, c6, c7, grid)
    rows = [[int(n), ls, ld, rt] for n, ls, ld, rt in
            zip(rep.n_grid, rep.lam_star, rep.leading, rep.ratios)]
    return (["n", "conj_value", "leading_term", "ratio"], rows,
            [f"example_33: terminal leading-term ratio {_fmt(rep.ratios[-1])}"])


def _run_order_type(spec: FunctionSpec, ctx):
    f = spec.coefficients()
    order = entire.order_estimate(f, spec.n_min, spec.n_max)
    rows = [["order", order.value]]
    notes = [f"order_type: order estimate {_fmt(order.value)}"]
    rho = spec.params.get("rho")
    rho = float(rho) if rho else 1.0
    typ = entire.type_estimate(f, rho, spec.n_min, spec.n_max)
    rows.append(["type", typ.value])
    notes.append(f"order_type: type estimate {_fmt(typ.value)} (rho={_fmt(rho)})")
    return (["quantity", "value"], rows, notes)


def _run_factorized(spec: FunctionSpec, ctx, others: Dict[str, "FunctionSpec"]):
    s1, s2 = (others[p] for p in spec.parts)  # checked by run() while parsing
    r1, r2 = (spec.r_grid[0], spec.r_grid[min(1, spec.r_grid.size - 1)])
    rep = multivar.factorizable_demo(s1.coefficients(), s2.coefficients(),
                                     float(r1), float(r2),
                                     s1.growth(), s2.growth(),
                                     k_grid=spec.n_grid[:50],
                                     l_grid=spec.n_grid[:50])
    rows = [["log_max_product", rep.log_max_product],
            ["log_max_factor_1", rep.log_max_factors[0]],
            ["log_max_factor_2", rep.log_max_factors[1]],
            ["residual", rep.residual],
            ["bound_holds", 1 if rep.bound_holds else 0]]
    return (["quantity", "value"], rows,
            [f"factorized: residual {_fmt(rep.residual)}, "
             f"coefficient bounds hold {str(rep.bound_holds).lower()}"])


class _Ctx:
    def __init__(self, eps_points: int):
        self.eps_points = eps_points


def _run_spec(spec: FunctionSpec, specs: Dict[str, FunctionSpec], ctx: _Ctx):
    """Run all analyses of one section.  Returns (artifacts, notes, error).

    artifacts: list of (relative path, header, rows) completed before any
    failure, so partial results can still be flushed.
    """
    artifacts, notes = [], []
    for analysis in spec.analyses:
        try:
            if analysis == "upper_bound":
                header, rows, nts, extra = _run_upper_bound(spec, ctx)
                artifacts.append((f"{spec.name}/epsilon_report.csv",) + extra)
            elif analysis == "factorized":
                header, rows, nts = _run_factorized(spec, ctx, specs)
            else:
                fn = {"coeff_bound": _run_coeff_bound,
                      "tauberian": _run_tauberian,
                      "gamma": _run_gamma,
                      "example_31": _run_example_31,
                      "example_32": lambda s, c: _run_coeff_bound(s, c, "example_32"),
                      "example_33": _run_example_33,
                      "order_type": _run_order_type}[analysis]
                header, rows, nts = fn(spec, ctx)
        except EntireGrowthError as exc:
            return artifacts, notes, f"[{spec.name}] {analysis}: {exc}"
        artifacts.append((f"{spec.name}/{analysis}.csv", header, rows))
        notes.extend(nts)
    return artifacts, notes, None


def run(config_path: str, output_dir: str, quiet: bool = False,
        eps_points: int = bounds.DEFAULT_EPS_POINTS) -> int:
    """Execute a config; returns the process exit status (0, 2 or 3)."""
    if eps_points < 1:
        print(f"config error: eps_points {eps_points} must be >= 1", file=sys.stderr)
        return 2
    parser = configparser.ConfigParser()
    try:
        with open(config_path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except configparser.Error as exc:
        line = getattr(exc, "lineno", None)
        loc = f" line {line}" if line else ""
        print(f"config error{loc}: {exc.message}", file=sys.stderr)
        return 2

    config_dir = os.path.dirname(os.path.abspath(config_path))
    try:
        specs = {name: FunctionSpec(name, parser[name], config_dir)
                 for name in parser.sections()}
        if not specs:
            raise ConfigError("config defines no sections")
        for spec in specs.values():
            if spec.family == "factorized":
                if len(spec.parts) != 2:
                    raise ConfigError(
                        f"[{spec.name}] factorized needs exactly two parts")
                for part in spec.parts:
                    if part not in specs:
                        raise ConfigError(
                            f"[{spec.name}] unknown part section {part!r}")
    except ConfigError as exc:
        loc = f" line {exc.line}" if exc.line else ""
        print(f"config error{loc}: {exc}", file=sys.stderr)
        return 2

    ctx = _Ctx(eps_points)
    results = [(name, _run_spec(spec, specs, ctx)) for name, spec in specs.items()]

    os.makedirs(output_dir, exist_ok=True)
    manifest, summary, errors = [], [], []
    for name, (artifacts, notes, error) in results:
        for relpath, header, rows in artifacts:
            count, digest = _write_csv(os.path.join(output_dir, relpath), header, rows)
            manifest.append((relpath, digest, count))
        summary.extend(f"[{name}] {note}" for note in notes)
        if error:
            errors.append(error)

    with open(os.path.join(output_dir, "summary.txt"), "w", newline="\n") as fh:
        for line in summary:
            fh.write(line + "\n")
        for err in errors:
            fh.write(f"ERROR {err}\n")
    with open(os.path.join(output_dir, "MANIFEST"), "w", newline="\n") as fh:
        for relpath, digest, count in manifest:
            fh.write(f"{relpath},{digest},{count}\n")

    if not quiet:
        for line in summary:
            print(line)
    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    return 3 if errors else 0


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="entire-growth",
        description="Bilateral growth/decay estimates for entire functions.")
    ap.add_argument("--config", required=True, metavar="PATH",
                    help="INI-style config, one section per function spec")
    ap.add_argument("--out", required=True, metavar="DIR",
                    help="output directory for CSV reports")
    ap.add_argument("--quiet", action="store_true",
                    help="suppress the summary on stdout")
    ap.add_argument("--eps-points", type=int, default=bounds.DEFAULT_EPS_POINTS,
                    metavar="N", help="epsilon grid resolution for bounds")
    args = ap.parse_args(argv)
    return run(args.config, args.out, quiet=args.quiet, eps_points=args.eps_points)


if __name__ == "__main__":
    sys.exit(main())

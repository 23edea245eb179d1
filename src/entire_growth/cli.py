"""Command-line front end: config-driven analyses with CSV reports.

The config is INI-style text, one section per function spec:

    [exp_demo]
    family = exp
    analyses = coeff_bound, tauberian
    n_grid = 1:200
    r_grid = 2.718281828459045, 7.389056098930650

Each family is one row of `_FAMILIES`: its keys, its analyses and the
builder of its models.  Each analysis writes CSVs under <out>/<section>/;
a MANIFEST at the output root lists every file with its sha-256 and row
count, and summary.txt carries the headline numbers.  Identical configs
produce byte-identical trees: floats are printed with 17 significant
digits and files use '\n' line endings.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import itertools
import os
import sys
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from . import bounds, entire, multivar, probgen, scales
from .errors import ConfigError, EntireGrowthError


def _fmt(x) -> str:
    """Fixed float formatting: 17 significant digits, '.' separator."""
    return format(float(x), ".17g")  # also "inf", "-inf", and "nan" for either sign


def _write_csv(path: str, table: dict) -> Tuple[int, str]:
    """Write a table {header: column} with '\n' endings: a float column with
    _fmt, any other with str, a short column padded with empty cells.
    Returns the data row count and the sha-256 of the bytes written."""
    cols = [[h] + list(map(_fmt if c.dtype.kind == "f" else str, c.tolist()))
            for h, c in ((h, np.asarray(c)) for h, c in table.items())]
    data = "".join(",".join(row) + "\n"
                   for row in itertools.zip_longest(*cols, fillvalue="")).encode()
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(data)
    return max(map(len, cols)) - 1, hashlib.sha256(data).hexdigest()


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


# --- families ------------------------------------------------------------


class _Family(NamedTuple):
    keys: Tuple[str, ...]      # keys a section of this family must set
    analyses: Tuple[str, ...]  # allowed besides _COMMON, which needs a model
    build: Optional[Callable]  # spec -> (coefficient sequence or None, growth profile)


_COMMON = ("upper_bound", "gamma")
_FAMILIES = {
    "exp": _Family((), ("coeff_bound", "tauberian", "order_type"), lambda s: (
        entire.exp_coefficients(), bounds.power_of_exp(C=1.0, rho=1.0))),
    "power_order": _Family(
        ("rho",), ("coeff_bound", "tauberian", "example_32", "order_type"), lambda s: (
            entire.gamma_order_coefficients(s.rho, s.num("c")),
            bounds.power_of_exp(C=s.num("c"), rho=s.rho))),
    "log_power_growth": _Family(("m",), ("example_31",), lambda s: (
        None, bounds.power_log(C=s.num("c"), m=s.num("m")))),
    "double_exp": _Family((), ("example_33",), lambda s: (
        None, bounds.exp_of_exp(C5=s.num("c5"), C6=s.num("c6")))),
    "custom_coeff_csv": _Family(("path",), ("coeff_bound", "order_type"), lambda s: (
        t := entire.coefficients_from_csv(os.path.join(s.config_dir, s.params["path"]),
                                          name=s.name),
        multivar.growth_of(t, name=s.name))),
    "poisson": _Family(("lam",), ("coeff_bound", "tauberian"), lambda s: (
        probgen.poisson(s.num("lam")), probgen.poisson_growth(s.num("lam")))),
    "factorized": _Family(("parts",), ("factorized",), None),
}


class FunctionSpec:
    """One parsed config section: a family, its models and its analysis
    requests.  The models are built here, once, so a bad parameter is a
    config error, and every analysis of the section reuses them."""

    def __init__(self, name: str, section, config_dir: str):
        self.name, self.params, self.config_dir = name, dict(section), config_dir
        # the name is the section's directory under the output root
        if name in (".", "..", "MANIFEST", "summary.txt") or any(c in name for c in "/\\\0"):
            raise ConfigError(f"[{name}] section name must be one plain path component "
                              "other than MANIFEST and summary.txt")
        self.family = section.get("family", "").strip()
        row = _FAMILIES.get(self.family)
        if row is None:
            raise ConfigError(f"[{name}] unknown family {self.family!r}")
        self.analyses = [a.strip() for a in section.get("analyses", "").split(",")
                         if a.strip()]
        if not self.analyses:
            raise ConfigError(f"[{name}] no analyses requested")
        allowed = row.analyses + (_COMMON if row.build else ())
        for a in self.analyses:
            if a not in _ANALYSES:
                raise ConfigError(f"[{name}] unknown analysis {a!r}")
            if a not in allowed:
                raise ConfigError(
                    f"[{name}] analysis {a!r} unsupported for family {self.family}")
        self.n_grid = _parse_key(name, section, "n_grid", "1:200", _parse_ints)
        self.r_grid = _parse_key(name, section, "r_grid",
                                 "2.718281828459045,7.389056098930650,"
                                 "20.085536923187668,54.598150033144236", _parse_floats)
        if np.any(self.r_grid <= 0):
            raise ConfigError(f"[{name}] r_grid entries must be positive")
        self.v_grid = _parse_key(name, section, "v_grid", "1.0:4.0:7", _parse_floats)
        self.eps0 = _parse_key(name, section, "eps0", "0.5", float)
        self.n_min = _parse_key(name, section, "n_min", "100", int)
        self.n_max = _parse_key(name, section, "n_max", "1000", int)
        self.rho = _parse_key(name, section, "rho", "1.0", float)
        self.parts = [p.strip() for p in section.get("parts", "").split(",")
                      if p.strip()]
        for key in row.keys:
            if not self.params.get(key, "").strip():
                raise ConfigError(f"[{name}] family {self.family} needs key {key!r}")
        try:
            self.coeffs, self.growth = row.build(self) if row.build else (None, None)
        except ConfigError:
            raise
        except (OSError, ValueError, EntireGrowthError) as exc:
            raise ConfigError(f"[{name}] family {self.family}: {exc}")

    def num(self, key: str) -> float:
        """A finite numeric family parameter, 1.0 when the key is absent."""
        return _parse_key(self.name, self.params, key, "1.0", float)

    def decay(self) -> bounds.GrowthFunction:
        """Decay profile: the convex envelope of Q(n) = -ln|c_n| with its
        discrete conjugate, or the growth conjugate if no coefficient model
        exists.  Built on demand: a table builds all its rows and their
        hull; every rule a family builds has a gamma_form, and reads only
        the rows its queries need."""
        if self.coeffs is None:
            return self.growth.conjugate()
        return bounds.index_decay(self.coeffs)


# --- analyses: each takes the spec and returns ({file: {header: column}}, notes)


def _run_coeff_bound(spec: FunctionSpec, label: str = "coeff_bound"):
    la = spec.coeffs.log_abs_array(spec.n_grid)
    bnd = bounds.coeff_upper_bound_many(spec.growth, spec.n_grid)
    slack = bnd - la
    return ({f"{label}.csv": {"n": spec.n_grid, "ln_abs_c": la, "log_bound": bnd,
                              "slack": slack}},
            [f"{label}: min slack {_fmt(np.min(slack))} over n in "
             f"[{spec.n_grid[0]}, {spec.n_grid[-1]}]"])


def _run_tauberian(spec: FunctionSpec):
    rep = bounds.tauberian_report(spec.coeffs, spec.growth, spec.r_grid, spec.n_grid)
    return ({"tauberian.csv": {"r": rep.r_grid, "lhs_ratio": rep.lhs_ratios,
                               "n": rep.n_grid, "rhs_ratio": rep.rhs_ratios}},
            [f"tauberian: terminal lhs {_fmt(rep.terminal_lhs)}, "
             f"terminal rhs {_fmt(rep.terminal_rhs)}, "
             f"gap {_fmt(rep.terminal_gap)}"])


def _run_upper_bound(spec: FunctionSpec):
    bs, reps = bounds.max_function_upper_bounds(spec.decay(), spec.v_grid)
    rep = reps[-1]
    return ({"epsilon_report.csv": {"eps": rep.eps_grid, "ln_k": rep.ln_k,
                                    "ln_u": rep.ln_u, "ln_y": rep.ln_y},
             "upper_bound.csv": {"v": spec.v_grid, "log_bound": bs,
                                 "eps_star": [r.eps_star for r in reps],
                                 "c_eff": [r.c_eff for r in reps],
                                 "s0": [r.S0 for r in reps]}},
            [f"upper_bound: bound {_fmt(rep.bound)} at v={_fmt(spec.v_grid[-1])}, "
             f"eps* {_fmt(rep.eps_star)}"])


def _run_gamma(spec: FunctionSpec):
    rep = bounds.gamma_condition(spec.growth, spec.eps0, spec.v_grid)
    return ({"gamma.csv": {"v": rep.v_grid, "ratio": rep.ratios}},
            [f"gamma: estimate {_fmt(rep.gamma_estimate)}, "
             f"holds {str(rep.holds).lower()}"])


def _run_example_31(spec: FunctionSpec):
    m = spec.num("m")
    rep = scales.example_31_check(m, spec.num("c"), spec.n_grid[spec.n_grid >= 2])
    return ({"example_31.csv": {"n": rep.n_grid, "conj_value": rep.lam_star,
                                "constant_estimate": rep.constant_estimates,
                                "exponent_fit": np.full(rep.n_grid.size, rep.exponent_fit)}},
            [f"example_31: exponent fit {_fmt(rep.exponent_fit)} "
             f"(conjugate exponent {_fmt(m / (m - 1.0))}), "
             f"constant {_fmt(rep.constant_estimate)}"])


def _run_example_33(spec: FunctionSpec):
    rep = scales.example_33_check(spec.num("c5"), spec.num("c6"),
                                  spec.n_grid[spec.n_grid >= 3])
    return ({"example_33.csv": {"n": rep.n_grid, "conj_value": rep.lam_star,
                                "leading_term": rep.leading, "ratio": rep.ratios}},
            [f"example_33: terminal leading-term ratio {_fmt(rep.ratios[-1])}"])


def _run_order_type(spec: FunctionSpec):
    order = entire.order_estimate(spec.coeffs, spec.n_min, spec.n_max)
    typ = entire.type_estimate(spec.coeffs, spec.rho, spec.n_min, spec.n_max)
    return ({"order_type.csv": {"quantity": ["order", "type"],
                                "value": [order.value, typ.value]}},
            [f"order_type: order estimate {_fmt(order.value)}",
             f"order_type: type estimate {_fmt(typ.value)} (rho={_fmt(spec.rho)})"])


def _run_factorized(spec: FunctionSpec):
    s1, s2 = spec.parts  # resolved to their specs by run()
    r1, r2 = (spec.r_grid[0], spec.r_grid[min(1, spec.r_grid.size - 1)])
    rep = multivar.factorizable_demo(s1.coeffs, s2.coeffs, float(r1), float(r2),
                                     s1.growth, s2.growth,
                                     k_grid=spec.n_grid[:50], l_grid=spec.n_grid[:50])
    return ({"factorized.csv": {
                "quantity": ["log_max_product", "log_max_factor_1", "log_max_factor_2",
                             "bound_holds"],
                "value": [rep.log_max_product, *rep.log_max_factors, rep.bound_holds]}},
            [f"factorized: ln M {_fmt(rep.log_max_product)}, "
             f"coefficient bounds hold {str(rep.bound_holds).lower()}"])


_ANALYSES = {"coeff_bound": _run_coeff_bound, "tauberian": _run_tauberian,
             "upper_bound": _run_upper_bound, "gamma": _run_gamma,
             "example_31": _run_example_31,
             "example_32": lambda spec: _run_coeff_bound(spec, "example_32"),
             "example_33": _run_example_33, "order_type": _run_order_type,
             "factorized": _run_factorized}


def _run_spec(spec: FunctionSpec):
    """Run all analyses of one section.  Returns (artifacts, notes, error).

    artifacts: list of (relative path, table) completed before any
    failure, so partial results can still be flushed.  error: the first
    failing analysis and its exception, named by type unless it is an
    EntireGrowthError.
    """
    artifacts, notes = [], []
    for analysis in spec.analyses:
        try:
            files, nts = _ANALYSES[analysis](spec)
        except EntireGrowthError as exc:
            return artifacts, notes, f"[{spec.name}] {analysis}: {exc}"
        except Exception as exc:  # a fault in the analysis: still no traceback
            return artifacts, notes, f"[{spec.name}] {analysis}: {type(exc).__name__}: {exc}"
        artifacts.extend((f"{spec.name}/{file}", table) for file, table in files.items())
        notes.extend(nts)
    return artifacts, notes, None


def run(config_path: str, output_dir: str, quiet: bool = False) -> int:
    """Execute a config; returns the process exit status (0, 2 or 3)."""
    parser = configparser.ConfigParser()
    try:
        with open(config_path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"config error: {config_path}: {exc}", file=sys.stderr)
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
        for spec in (s for s in specs.values() if s.family == "factorized"):
            if len(spec.parts) != 2:
                raise ConfigError(f"[{spec.name}] factorized needs exactly two parts")
            for part in spec.parts:
                if part not in specs or specs[part].coeffs is None:
                    raise ConfigError(f"[{spec.name}] part {part!r} is no section "
                                      "with a coefficient model")
            spec.parts = [specs[part] for part in spec.parts]
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        os.makedirs(output_dir, exist_ok=True)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    results = [(name, _run_spec(spec)) for name, spec in specs.items()]
    manifest, summary, errors = [], [], []
    try:  # a write that fails (say, a file where a section's directory goes) is exit 3
        for name, (artifacts, notes, error) in results:
            for relpath, table in artifacts:
                count, digest = _write_csv(os.path.join(output_dir, relpath), table)
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
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

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
    args = ap.parse_args(argv)
    return run(args.config, args.out, quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())

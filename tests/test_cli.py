"""CLI plumbing: config parsing, exit codes, CSV contract, determinism."""

import contextlib
import csv
import hashlib
import io
import itertools
import math
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, lambertw, logsumexp

from entire_growth import cli
from entire_growth.cli import main, run

FAST_CFG = """\
[expdemo]
family = exp
analyses = coeff_bound, tauberian
n_grid = 1:50
r_grid = 2.718281828459045, 7.389056098930650

[parab]
family = log_power_growth
m = 2
c = 1
analyses = example_31
n_grid = 2:60
"""


# the keys each family needs, set to valid values; the parts of a
# factorized section are two exp sections
FAMILY_KEYS = {"exp": {}, "power_order": {"rho": "2"}, "log_power_growth": {"m": "2"},
               "double_exp": {}, "custom_coeff_csv": {"path": "c.csv"},
               "poisson": {"lam": "1"}, "factorized": {"parts": "a, b"}}
PART_SECTIONS = "".join(f"[{p}]\nfamily = exp\nanalyses = gamma\n\n" for p in "ab")


def _allowed(family):
    row = cli._FAMILIES[family]
    return row.analyses + (cli._COMMON if row.build else ())


def _section(family, analyses, drop=None):
    keys = "".join(f"{k} = {v}\n" for k, v in FAMILY_KEYS[family].items() if k != drop)
    return ((PART_SECTIONS if family == "factorized" else "")
            + f"[x]\nfamily = {family}\n{keys}analyses = {analyses}\n")


UNSUPPORTED = [(f, a) for f in cli._FAMILIES for a in cli._ANALYSES
               if a not in _allowed(f)]


def tree_digest(root):
    out = {}
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            p = os.path.join(dirpath, name)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out


class TestRunHappyPath:
    def test_exit_zero_and_artifacts(self, tmp_path):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(FAST_CFG)
        out = tmp_path / "out"
        assert run(str(cfg), str(out), quiet=True) == 0
        assert (out / "expdemo" / "coeff_bound.csv").exists()
        assert (out / "expdemo" / "tauberian.csv").exists()
        assert (out / "parab" / "example_31.csv").exists()
        assert (out / "MANIFEST").exists()
        assert (out / "summary.txt").exists()

    def test_csv_contract(self, tmp_path):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(FAST_CFG)
        out = tmp_path / "out"
        run(str(cfg), str(out), quiet=True)
        raw = (out / "expdemo" / "coeff_bound.csv").read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == "n,ln_abs_c,log_bound,slack"
        assert len(lines) == 51
        # every numeric field round-trips through float()
        for line in lines[1:]:
            for field in line.split(","):
                float(field)

    def test_manifest_checksums(self, tmp_path):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(FAST_CFG)
        out = tmp_path / "out"
        run(str(cfg), str(out), quiet=True)
        for line in (out / "MANIFEST").read_text().splitlines():
            rel, digest, rows = line.split(",")
            data = (out / rel).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest
            assert len(data.decode().splitlines()) == int(rows) + 1

    def test_deterministic(self, tmp_path):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(FAST_CFG)
        a, b = tmp_path / "a", tmp_path / "b"
        run(str(cfg), str(a), quiet=True)
        run(str(cfg), str(b), quiet=True)
        assert tree_digest(a) == tree_digest(b)

    def test_example_31_terminal_fit(self, tmp_path):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(FAST_CFG)
        out = tmp_path / "out"
        run(str(cfg), str(out), quiet=True)
        lines = (out / "parab" / "example_31.csv").read_text().splitlines()
        fit = float(lines[-1].split(",")[-1])
        assert fit == pytest.approx(2.0, abs=1e-3)

    def test_factorized_large_radius(self, tmp_path):
        # ln M of e^(z1) e^(z2) at (r1, r2) = (5000, 3) is 5003: every
        # factor series is summed to convergence, not cut at a fixed row
        cfg = tmp_path / "prod.cfg"
        cfg.write_text("".join(f"[{p}]\nfamily = exp\nanalyses = coeff_bound\n\n"
                               for p in "ab")
                       + "[x]\nfamily = factorized\nparts = a, b\n"
                       "analyses = factorized\nr_grid = 5000, 3\n")
        out = tmp_path / "out"
        assert run(str(cfg), str(out), quiet=True) == 0
        with open(out / "x" / "factorized.csv", newline="") as fh:
            got = {row[0]: float(row[1]) for row in list(csv.reader(fh))[1:]}
        assert set(got) == {"log_max_product", "log_max_factor_1", "log_max_factor_2",
                            "bound_holds"}
        assert got["log_max_product"] == pytest.approx(5003.0, rel=1e-9, abs=0)


class TestBatchedConjugates:
    def test_no_scalar_conjugate_calls(self, tmp_path, monkeypatch):
        # every closed-form conjugate goes through one batched call per query
        # set; the one-query helper must not be reached from any analysis
        import entire_growth
        from entire_growth import (bounds, cli, entire, legendre, multivar, probgen,
                                   scales)

        def scalar(*args, **kwargs):
            raise AssertionError("conjugate_point called")

        for mod in (entire_growth, legendre, entire, bounds, scales, multivar,
                    probgen, cli):
            if hasattr(mod, "conjugate_point"):
                monkeypatch.setattr(mod, "conjugate_point", scalar)
        cfg = tmp_path / "batched.cfg"
        cfg.write_text("[exp]\nfamily = exp\nanalyses = coeff_bound, upper_bound\n"
                       "n_grid = 0:20\nv_grid = 1.0, 3.0\n\n"
                       "[order2]\nfamily = power_order\nrho = 2\n"
                       "analyses = coeff_bound\nn_grid = 0:20\n\n"
                       "[dexp]\nfamily = double_exp\nanalyses = example_33\n"
                       "n_grid = 10, 100\n\n"
                       "[prod]\nfamily = factorized\nparts = exp, order2\n"
                       "analyses = factorized\nn_grid = 0:9\nr_grid = 2.0, 3.0\n")
        assert run(str(cfg), str(tmp_path / "out"), quiet=True) == 0
        pair = multivar.MultiGrowthFunction.from_separable(
            [bounds.stirling_decay(), bounds.quadratic_decay(0.5)])
        multivar.multi_max_bound(pair, (1.0, 2.0), eps_points=9)
        multivar.multi_coeff_bound(multivar.MultiGrowthFunction.from_separable(
            [bounds.power_of_exp(), bounds.power_of_exp()]), (3, 4))
        bounds.coeff_upper_bound(bounds.power_of_exp(), 5)

        # every coefficient family takes Q* of its decay in closed form: the
        # adaptive search is not reached from upper_bound
        def search(*args, **kwargs):
            raise AssertionError("conjugate_of_callable called")

        for mod in (entire_growth, legendre, bounds):
            monkeypatch.setattr(mod, "conjugate_of_callable", search)
        (tmp_path / "c.csv").write_text("n,ln_abs_c\n0,0.0\n1,-1.0\n2,-2.5\n3,-6.0\n")
        cfg.write_text("".join(
            f"[{name}]\n{family}\nanalyses = upper_bound\nv_grid = 1.0, 3.0\n\n"
            for name, family in (("exp", "family = exp"),
                                 ("order2", "family = power_order\nrho = 2"),
                                 ("pois", "family = poisson\nlam = 1"),
                                 ("table", "family = custom_coeff_csv\npath = c.csv"))))
        assert run(str(cfg), str(tmp_path / "out2"), quiet=True) == 0


class TestUpperBoundTable:
    @pytest.mark.parametrize("rho, s, zeros", [(1.5, 0.5, 0), (2.0, 0.0, 3)])
    def test_table_bound_dominates_series(self, tmp_path, rho, s, zeros):
        # a log-concave table, ln|c_n| = -(ln Gamma(n/rho + 1) + s n), whose
        # first `zeros` coefficients vanish
        ns = np.arange(300, dtype=float)
        ln_c = -(gammaln(ns / rho + 1.0) + s * ns)
        ln_c[:zeros] = -np.inf
        (tmp_path / "c.csv").write_text("n,ln_abs_c\n" + "".join(
            f"{int(n)},{'ZERO' if v == -np.inf else repr(float(v))}\n"
            for n, v in zip(ns, ln_c)))
        cfg = tmp_path / "t.cfg"
        cfg.write_text("[t]\nfamily = custom_coeff_csv\npath = c.csv\n"
                       "analyses = upper_bound\nv_grid = 1, 2, 4\n")
        out = tmp_path / "out"
        assert run(str(cfg), str(out), quiet=True) == 0
        with open(out / "t" / "upper_bound.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["v", "log_bound", "eps_star", "c_eff", "s0"]
        for row in rows[1:]:
            v, bound = float(row[0]), float(row[1])
            assert bound >= logsumexp(ln_c + ns * v)

    def test_bound_past_the_rows_of_a_rule(self, tmp_path):
        # rho = 10 at v = 2: every y = v/(1-eps) lies past the last hull
        # slope of the rows n <= MAX_TERMS, so the argmax of Q* is past them
        # and the bound is +inf, or at least ln R_Q >= n v - ln Gamma(n/10 + 1)
        cfg = tmp_path / "t.cfg"
        cfg.write_text("[r]\nfamily = power_order\nrho = 10\n"
                       "analyses = upper_bound\nv_grid = 2\n")
        out = tmp_path / "out"
        assert run(str(cfg), str(out), quiet=True) == 0
        with open(out / "r" / "upper_bound.csv", newline="") as fh:
            (row,) = list(csv.reader(fh))[1:]
        n = np.array([1e8, 1e9, 1e10])
        assert float(row[1]) >= np.max(n * 2.0 - gammaln(n / 10.0 + 1.0))
        if row[1] == "inf":  # no eps gives a finite bound: no eps*, c_eff or S0
            assert row[2:5] == ["nan", "nan", "nan"]

    def test_single_row_table_refused(self, tmp_path):
        (tmp_path / "c.csv").write_text("n,ln_abs_c\n0,ZERO\n1,0.0\n")
        cfg = tmp_path / "t.cfg"
        cfg.write_text("[t]\nfamily = custom_coeff_csv\npath = c.csv\n"
                       "analyses = upper_bound\nv_grid = 1\n")
        assert run(str(cfg), str(tmp_path / "out"), quiet=True) == 3


def test_power_order_type_below_one(tmp_path):
    # rho = 2, c = 0.5: Lambda(v) = 0.5 e^(2v) bounds the coefficients
    # c_n = 0.5^(n/2) / Gamma(n/2 + 1) at every n, so every slack is >= 0
    # and every Tauberian rhs ratio |ln|c_n|| / Lambda*(n) is >= 1
    cfg = tmp_path / "t.cfg"
    cfg.write_text("[half]\nfamily = power_order\nrho = 2\nc = 0.5\n"
                   "analyses = coeff_bound, tauberian\nn_grid = 1:200\n")
    out = tmp_path / "out"
    assert run(str(cfg), str(out), quiet=True) == 0
    with open(out / "half" / "coeff_bound.csv", newline="") as fh:
        slack = [float(row[3]) for row in list(csv.reader(fh))[1:]]
    with open(out / "half" / "tauberian.csv", newline="") as fh:
        rhs = [float(row[3]) for row in list(csv.reader(fh))[1:] if row[3]]
    assert len(slack) == 200 and min(slack) >= 0.0
    assert rhs and min(rhs) >= 1.0


SANDWICH_V = np.array([-1.0, 0.0, 1.0, 3.0])
# table: ln|c_n| = -(ln Gamma(n/1.5 + 1) + n/2), a convex decay, so the CLI's
# convex envelope meets every row and R_Q is the sum over the rows
TABLE_LN_C = -(gammaln(np.arange(300) / 1.5 + 1.0) + 0.5 * np.arange(300))


def _double_exp_decay(n):
    """Lambda*(n) of Lambda(v) = e^(e^v), n >= 0."""
    w = np.real(lambertw(np.maximum(n, 1e-300)))
    return np.where(n > 0, n * np.log(w) - n / w, -1.0)


def _ln_r(q, v, n_max=2000):
    ns = np.arange(n_max + 1, dtype=float)
    return float(logsumexp(ns * v - q(ns)))


def _double_exp_ln_r(v):
    # the terms peak near n = e^v e^(e^v): n = 41 at v = 1, 10^10 at v = 3.
    # Past v = 1, n v - Lambda*(n) <= Lambda(v + d) - n d gives the upper
    # estimate ln R_Q(v) <= Lambda(v + d) - ln(1 - e^-d), a stronger reference
    if v <= 1.0:
        return _ln_r(_double_exp_decay, v)
    d = 0.01
    return math.exp(math.exp(v + d)) - math.log(-math.expm1(-d))


SANDWICH = {
    "exp": ("family = exp", lambda v: math.exp(v)),
    "order2": ("family = power_order\nrho = 2",
               lambda v: math.exp(2 * v) + math.log1p(math.erf(math.exp(v)))),
    "pois1": ("family = poisson\nlam = 1", lambda v: math.expm1(v)),
    "pois5": ("family = poisson\nlam = 5", lambda v: 5.0 * math.expm1(v)),
    "table": ("family = custom_coeff_csv\npath = c.csv",
              lambda v: float(logsumexp(TABLE_LN_C + np.arange(300) * v))),
    "logpower": ("family = log_power_growth\nm = 2",
                 lambda v: _ln_r(lambda n: n * n / 4.0, v)),
    "doubleexp": ("family = double_exp", _double_exp_ln_r),
}


@pytest.fixture(scope="module")
def sandwich_out(tmp_path_factory):
    root = tmp_path_factory.mktemp("sandwich")
    (root / "c.csv").write_text("n,ln_abs_c\n" + "".join(
        f"{n},{float(v)!r}\n" for n, v in enumerate(TABLE_LN_C)))
    (root / "s.cfg").write_text("".join(
        f"[{name}]\n{family}\nanalyses = upper_bound\nv_grid = -1, 0, 1, 3\n\n"
        for name, (family, _) in SANDWICH.items()))
    assert run(str(root / "s.cfg"), str(root / "out"), quiet=True) == 0
    return root / "out"


class TestUpperBoundSandwich:
    @pytest.mark.parametrize("name", list(SANDWICH))
    def test_bound_above_series(self, sandwich_out, name):
        # ln R_Q(v) <= log_bound for every family the CLI bounds, at v
        # below, at and above 0
        with open(sandwich_out / name / "upper_bound.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        np.testing.assert_array_equal([float(r[0]) for r in rows], SANDWICH_V)
        ln_r = SANDWICH[name][1]
        for row in rows:
            v, bound = float(row[0]), float(row[1])
            assert ln_r(v) <= bound, (v, bound)
        # epsilon_report.csv holds logs, with ln_y = min(ln_k, ln_u)
        with open(sandwich_out / name / "epsilon_report.csv", newline="") as fh:
            eps_rows = np.array([[float(x) for x in r] for r in list(csv.reader(fh))[1:]])
        np.testing.assert_array_equal(eps_rows[:, 3],
                                      np.minimum(eps_rows[:, 1], eps_rows[:, 2]))
        assert np.all(eps_rows[:, 2] >= 0.0)  # U >= its n = 0 term, 1


def test_zoom_level_leaves_upper_bound_trees_unchanged(tmp_path, monkeypatch):
    # all_cfg.MANIFEST holds upper_bound for exp alone; the zoom's U rows
    # stop at ln K most often for the other families, and every byte of
    # their trees (MANIFEST too) is what full U rows give
    from entire_growth import bounds, entire
    (tmp_path / "c.csv").write_text("n,ln_abs_c\n" + "".join(
        f"{n},{float(v)!r}\n" for n, v in enumerate(TABLE_LN_C)))
    (tmp_path / "z.cfg").write_text("".join(
        f"[{name}]\n{family}\nanalyses = upper_bound\nv_grid = 0.5, 2, 4\n\n"
        for name, (family, _) in SANDWICH.items()))
    assert run(str(tmp_path / "z.cfg"), str(tmp_path / "level"), quiet=True) == 0
    monkeypatch.setattr(bounds, "log_series",
                        lambda *args, level=None, **kw: entire.log_series(*args, **kw))
    assert run(str(tmp_path / "z.cfg"), str(tmp_path / "full"), quiet=True) == 0
    level, full = tree_digest(tmp_path / "level"), tree_digest(tmp_path / "full")
    assert len(level) == 2 * len(SANDWICH) + 2 and level == full


DATA = os.path.join(os.path.dirname(__file__), "data")


def _run_pinned(name, work):
    """Run the config whose output tree tests/data/<name>/ stores and whose
    digests tests/data/<name>.MANIFEST pins, into work/out: all_cfg is
    configs/all.cfg; every_cfg is tests/data/every.cfg, every family with
    every analysis its row allows, next to a c.csv of TABLE_LN_C.  Returns
    the output directory."""
    config = os.path.join(DATA, "..", "..", "configs", "all.cfg")
    if name == "every_cfg":
        config = os.path.join(work, "every.cfg")
        with open(os.path.join(DATA, "every.cfg")) as fh, open(config, "w") as out:
            out.write(fh.read())
        with open(os.path.join(work, "c.csv"), "w") as fh:
            fh.write("n,ln_abs_c\n" + "".join(
                f"{n},{float(v)!r}\n" for n, v in enumerate(TABLE_LN_C)))
    out = os.path.join(work, "out")
    assert run(config, out, quiet=True) == 0
    return out


def _ulps(x, y):
    """", k ulps" between two cells that are finite floats, both zeros
    counting as one float; "" for any other pair."""
    try:
        a, b = float(x), float(y)
    except ValueError:
        return ""
    if not (math.isfinite(a) and math.isfinite(b)):
        return ""
    ia, ib = (int(np.float64(v).view(np.int64)) for v in (a, b))
    ia, ib = (i if i >= 0 else -(i & (2**63 - 1)) for i in (ia, ib))
    return f", {abs(ia - ib)} ulps"


def _moves(name, out, cells=5):
    """Each file of the pinned tree <name> whose MANIFEST line moved, with
    its first moved cells: row, column, old and new value, and the move in
    ulps."""
    def manifest(path):
        with open(path) as fh:
            return {line.split(",")[0]: line.strip() for line in fh}

    old = manifest(os.path.join(DATA, name + ".MANIFEST"))
    new = manifest(os.path.join(out, "MANIFEST"))
    report = []
    for path in sorted(old.keys() | new.keys()):
        if old.get(path) == new.get(path):
            continue
        report.append(f"{path}: {old.get(path)} -> {new.get(path)}")
        if path not in old or path not in new:
            continue
        with open(os.path.join(DATA, name, path), newline="") as a, \
                open(os.path.join(out, path), newline="") as b:
            rows = list(itertools.zip_longest(csv.reader(a), csv.reader(b), fillvalue=[]))
        header = rows[0][0]
        moved = [(r, header[c] if c < len(header) else c, x, y)
                 for r, (ra, rb) in enumerate(rows)
                 for c, (x, y) in enumerate(itertools.zip_longest(ra, rb, fillvalue=""))
                 if x != y]
        report.extend(f"  row {r}, column {col}: {x} -> {y}{_ulps(x, y)}"
                      for r, col, x, y in moved[:cells])
    return "\n".join(report)


def _check_pinned(name, tmp_path):
    """The pass/fail check is the byte comparison of the MANIFESTs; a
    mismatch names the files and cells that moved against the stored tree.

    After a change that moves bits on purpose, regenerate the stored trees
    and both MANIFESTs from the repository root with
        PYTHONPATH=src python -c "import sys; sys.path[:0] = ['tests']; \\
            import test_cli; test_cli._store_pinned()"
    and say in the change which files moved and why."""
    out = _run_pinned(name, str(tmp_path))
    with open(os.path.join(DATA, name + ".MANIFEST"), "rb") as fh:
        want = fh.read()
    with open(os.path.join(out, "MANIFEST"), "rb") as fh:
        assert fh.read() == want, _moves(name, out)


def _store_pinned():
    """Rewrite tests/data/<name>/ and <name>.MANIFEST for both pinned trees."""
    for name in ("all_cfg", "every_cfg"):
        with tempfile.TemporaryDirectory() as work:
            out = _run_pinned(name, work)
            shutil.rmtree(os.path.join(DATA, name), ignore_errors=True)
            os.remove(os.path.join(out, "summary.txt"))
            shutil.move(os.path.join(out, "MANIFEST"), os.path.join(DATA, name + ".MANIFEST"))
            shutil.copytree(out, os.path.join(DATA, name))


def test_all_cfg_manifest_pinned(tmp_path):
    # a change that only makes the CLI faster leaves every digest as it was
    _check_pinned("all_cfg", tmp_path)


def test_every_cfg_manifest_pinned(tmp_path):
    # every family with every analysis its row allows, upper_bound and gamma
    # of poisson and power_order and the custom_coeff_csv trees included
    _check_pinned("every_cfg", tmp_path)


@pytest.mark.parametrize("name", ["all_cfg", "every_cfg"])
def test_stored_trees_match_manifests(name):
    # each stored file is the one its MANIFEST line pins, so a moved digest
    # can be traced to its cells
    with open(os.path.join(DATA, name + ".MANIFEST")) as fh:
        pins = [line.strip().split(",") for line in fh]
    stored = sorted(os.path.relpath(os.path.join(d, f), os.path.join(DATA, name))
                    for d, _, files in os.walk(os.path.join(DATA, name)) for f in files)
    assert stored == sorted(path for path, _, _ in pins)
    for path, digest, count in pins:
        with open(os.path.join(DATA, name, path), "rb") as fh:
            data = fh.read()
        assert hashlib.sha256(data).hexdigest() == digest, path
        assert data.count(b"\n") == int(count) + 1, path


@pytest.mark.parametrize("x, text", [
    (math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan"),
    (math.copysign(math.nan, -1.0), "nan"), (-0.0, "-0"),
    (5e-324, "4.9406564584124654e-324"), (1e22, "1e+22"), (0.1, "0.10000000000000001"),
    (7, "7"), (np.int64(7), "7"), (True, "1")])
def test_fmt_strings(x, text):
    assert cli._fmt(x) == text


@pytest.mark.parametrize("section", [
    "family = poisson\nlam = 1000",
    # Lambda*(n) = n ln(n/1000) - n is positive only past n = 1000 e
    "family = power_order\nrho = 1\nc = 1000\nn_grid = 3000:3200"])
def test_gamma_form_tauberian_not_refused(tmp_path, capsys, section):
    # both series are entire; the entirety probe alone once refused them
    cfg = tmp_path / "t.cfg"
    cfg.write_text(f"[s]\n{section}\nanalyses = tauberian\n")
    assert run(str(cfg), str(tmp_path / "out"), quiet=True) == 0
    assert capsys.readouterr().err == ""


def test_double_exp_gamma_overflow_silent(tmp_path, capsys):
    # Lambda overflows on both sides of the ratio from v = 7: NaN rows, the
    # verdict inf/false, nothing on stderr
    cfg = tmp_path / "t.cfg"
    cfg.write_text("[d]\nfamily = double_exp\nanalyses = gamma\nv_grid = 1:8:8\n")
    out = tmp_path / "out"
    assert run(str(cfg), str(out), quiet=True) == 0
    assert capsys.readouterr().err == ""
    assert hashlib.sha256((out / "d" / "gamma.csv").read_bytes()).hexdigest() == \
        "584e10401d3fa969ab24ca4eee86ab94206934078af246dd64ed54d1b3ceea59"
    assert (out / "summary.txt").read_text() == "[d] gamma: estimate inf, holds false\n"


def test_default_v_grid_serves_gamma(tmp_path):
    # gamma needs v >= 1; the default grid is 1.0:4.0:7
    cfg = tmp_path / "t.cfg"
    cfg.write_text("[a]\nfamily = exp\nanalyses = gamma\n")
    out = tmp_path / "out"
    assert run(str(cfg), str(out), quiet=True) == 0
    with open(out / "a" / "gamma.csv", newline="") as fh:
        assert [float(row[0]) for row in list(csv.reader(fh))[1:]] == [
            1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]


class TestErrorPaths:
    def test_malformed_config_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not an ini file\n")
        out = tmp_path / "out"
        assert run(str(cfg), str(out), quiet=True) == 2
        # no partial CSVs on a parse error
        assert not out.exists() or not any(out.iterdir())
        assert "config error" in capsys.readouterr().err

    def test_unknown_family_exit_two(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[x]\nfamily = nope\nanalyses = coeff_bound\n")
        assert run(str(cfg), str(tmp_path / "out"), quiet=True) == 2

    def test_unknown_analysis_exit_two(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[x]\nfamily = exp\nanalyses = frobnicate\n")
        assert run(str(cfg), str(tmp_path / "out"), quiet=True) == 2

    def test_missing_file_exit_two(self, tmp_path):
        assert run(str(tmp_path / "absent.cfg"), str(tmp_path / "out"),
                   quiet=True) == 2

    @pytest.mark.parametrize("table", ["n,ln_abs_c\n", "n,ln_abs_c\n0,ZERO\n1,ZERO\n"],
                             ids=["empty", "all_zero"])
    def test_table_without_nonzero_coefficient_exit_two(self, tmp_path, capsys, table):
        # a table of zeros once printed a NaN coefficient bound and exited 0
        (tmp_path / "c.csv").write_text(table)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[x]\nfamily = custom_coeff_csv\npath = c.csv\n"
                       "analyses = coeff_bound\n")
        out = tmp_path / "out"
        assert run(str(cfg), str(out), quiet=True) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("config error: [x] ") and "no nonzero coefficient" in err

    def test_unsupported_analysis_for_family(self, tmp_path, capsys):
        # its two first configs, then every (family, analysis) pair outside
        # the family's row of the table
        (tmp_path / "c.csv").write_text("n,ln_abs_c\n0,0.0\n1,-1.0\n")
        cfg = tmp_path / "bad.cfg"
        out = tmp_path / "out"
        for text in (["[x]\nfamily = log_power_growth\nm = 2\n"
                      "analyses = coeff_bound\n",
                      # every coefficient table is a polynomial: no tauberian
                      "[x]\nfamily = custom_coeff_csv\npath = c.csv\n"
                      "analyses = coeff_bound, tauberian, order_type\n"]
                     + [_section(family, analysis) for family, analysis in UNSUPPORTED]):
            cfg.write_text(text)
            assert run(str(cfg), str(out), quiet=True) == 2, text
            assert not out.exists()
            assert "unsupported for family" in capsys.readouterr().err

    def test_family_keys_match_the_table(self):
        assert {f: tuple(keys) for f, keys in FAMILY_KEYS.items()} == {
            f: row.keys for f, row in cli._FAMILIES.items()}

    @pytest.mark.parametrize("family, key", [(f, k) for f, row in cli._FAMILIES.items()
                                             for k in row.keys])
    def test_missing_family_key_exit_two(self, tmp_path, capsys, family, key):
        (tmp_path / "c.csv").write_text("n,ln_abs_c\n0,0.0\n1,-1.0\n")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(_section(family, _allowed(family)[0], drop=key))
        out = tmp_path / "out"
        assert run(str(cfg), str(out), quiet=True) == 2
        assert not out.exists()
        assert f"family {family} needs key {key!r}" in capsys.readouterr().err

    def test_malformed_table_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[x]\nfamily = custom_coeff_csv\npath = c.csv\n"
                       "analyses = coeff_bound\nn_grid = 0:1\n")
        out = tmp_path / "out"
        for bad_row in ("1,np.float64(-0.0)", "1"):
            (tmp_path / "c.csv").write_text(f"n,ln_abs_c\n0,0.0\n{bad_row}\n")
            assert run(str(cfg), str(out), quiet=True) == 2
            assert not out.exists()
            err = capsys.readouterr().err
            assert "config error" in err and "c.csv line 3" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("line", ["n_grid = 1:abc", "n_grid = 5:1", "v_grid = 1:2:x",
                                      "eps0 = abc", "rho = -1", "v_grid = 1, nan",
                                      "r_grid = -1, 2", "n_grid = -3:5",
                                      "n_grid = 1:3000000"])
    def test_hostile_key_exit_two(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        rho = "" if line.startswith("rho") else "rho = 2\n"
        cfg.write_text(f"[x]\nfamily = power_order\n{rho}"
                       f"analyses = coeff_bound, gamma, tauberian\n{line}\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err

    def test_unknown_flag_exit_two(self, tmp_path, capsys):
        # argparse refuses a flag the CLI does not know, before any config
        # is read
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("[x]\nfamily = exp\nanalyses = coeff_bound\n")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_:
            main(["--config", str(cfg), "--out", str(out), "--eps-points", "19"])
        assert exit_.value.code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "unrecognized arguments: --eps-points 19" in err and "Traceback" not in err

    @pytest.mark.parametrize("name", ["../escaped", "a/b", "a\\b", ".", "..", "MANIFEST",
                                      "summary.txt", "a\0b"],
                             ids=["dotdot", "slash", "backslash", "dot", "two-dots",
                                  "MANIFEST", "summary", "nul"])
    def test_section_name_not_a_path_component_exit_two(self, tmp_path, capsys, name):
        # a section's CSVs go under <out>/<name>/: any other name could write
        # outside --out or onto a root file
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[{name}]\nfamily = exp\nanalyses = gamma\n")
        assert run(str(cfg), str(tmp_path / "out"), quiet=True) == 2
        assert os.listdir(tmp_path) == ["bad.cfg"]
        err = capsys.readouterr().err
        assert "one plain path component" in err and "Traceback" not in err

    def test_config_not_utf8_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"[x]\nfamily = exp\nanalyses = coeff_bound\n# \xff\xfe\n")
        assert run(str(cfg), str(tmp_path / "out"), quiet=True) == 2
        assert os.listdir(tmp_path) == ["bad.cfg"]
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {cfg}: ") and "Traceback" not in err

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_out_not_a_directory_exit_two(self, tmp_path, capsys, monkeypatch, under):
        # the output directory is made before any analysis runs
        def no_analysis(spec):
            raise AssertionError("an analysis ran")

        monkeypatch.setattr(cli, "_run_spec", no_analysis)
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("[x]\nfamily = exp\nanalyses = coeff_bound\n")
        blocker = tmp_path / "blocker"
        blocker.write_text("keep\n")
        assert run(str(cfg), str(blocker / "out" if under else blocker), quiet=True) == 2
        assert blocker.read_text() == "keep\n"
        assert sorted(os.listdir(tmp_path)) == ["blocker", "ok.cfg"]
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("case", ["dotdot", "MANIFEST", "out-file", "not-utf8"])
    def test_refusals_through_the_module(self, tmp_path, case):
        # python -m entire_growth.cli: exit 2, no traceback, nothing written
        head = {"dotdot": b"[../escaped]\n", "MANIFEST": b"[MANIFEST]\n"}.get(case, b"[x]\n")
        tail = b"# \xff\n" if case == "not-utf8" else b""
        (tmp_path / "c.cfg").write_bytes(head + b"family = exp\nanalyses = coeff_bound\n" + tail)
        out = tmp_path / "out"
        if case == "out-file":
            out.write_text("keep\n")
        before = sorted(os.listdir(tmp_path))
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "entire_growth.cli", "--config", str(tmp_path / "c.cfg"),
             "--out", str(out)], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr and proc.stdout == ""
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize("blocked", ["x", "MANIFEST"])
    def test_write_error_exit_three(self, tmp_path, blocked):
        # a file where a section's directory goes (out/x), or a directory
        # where MANIFEST goes: exit 3 with `error: ...`, no traceback
        (tmp_path / "c.cfg").write_text("[x]\nfamily = exp\nanalyses = coeff_bound\n"
                                        "n_grid = 1:5\n")
        out = tmp_path / "out"
        out.mkdir()
        if blocked == "x":
            (out / "x").write_text("keep\n")
        else:
            (out / "MANIFEST").mkdir()
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "entire_growth.cli", "--config", str(tmp_path / "c.cfg"),
             "--out", str(out), "--quiet"], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
        if blocked == "x":
            assert (out / "x").read_text() == "keep\n"

    @pytest.mark.parametrize("text", [
        "[x]\nfamily = exp\nanalyses = order_type\nrho = abc\n",
        "[x]\nfamily = poisson\nlam = 2\nanalyses = coeff_bound\nrho = abc\n",
        "[x]\nfamily = custom_coeff_csv\npath = c.csv\nanalyses = order_type\nrho = abc\n",
        "[x]\nfamily = power_order\nrho = 2\nc = nan\nanalyses = coeff_bound\n",
        "[a]\nfamily = log_power_growth\nm = 2\nanalyses = gamma\n\n"
        "[x]\nfamily = factorized\nparts = a, a\nanalyses = factorized\n"],
        ids=["exp-rho", "poisson-rho", "table-rho", "power_order-c", "factorized-part"])
    def test_checked_while_parsing_exit_two(self, tmp_path, capsys, text):
        # keys that analyses read are parsed, and factorized parts resolved,
        # before any analysis runs
        (tmp_path / "c.csv").write_text("n,ln_abs_c\n0,0.0\n1,-1.0\n")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert run(str(cfg), str(out), quiet=True) == 2
        assert not out.exists()
        assert "config error" in capsys.readouterr().err

    def test_module_error_exit_three_with_partial_flush(self, tmp_path):
        # gamma requires v >= 1; coeff_bound before it still lands on disk
        cfg = tmp_path / "half.cfg"
        cfg.write_text("[x]\nfamily = exp\nanalyses = coeff_bound, gamma\n"
                       "n_grid = 1:20\nv_grid = 0.0:3.0:4\n")
        out = tmp_path / "out"
        assert run(str(cfg), str(out), quiet=True) == 3
        assert (out / "x" / "coeff_bound.csv").exists()
        assert not (out / "x" / "gamma.csv").exists()
        manifest = (out / "MANIFEST").read_text()
        assert "x/coeff_bound.csv" in manifest
        assert "gamma" not in manifest

    def test_unexpected_exception_exit_three_named(self, tmp_path, capsys, monkeypatch):
        # a fault inside one analysis is that section's error, not a traceback
        from entire_growth import bounds

        def broken(*args, **kwargs):
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setattr(bounds, "gamma_condition", broken)
        cfg = tmp_path / "fault.cfg"
        cfg.write_text("[x]\nfamily = exp\nanalyses = coeff_bound, gamma\n"
                       "n_grid = 1:20\nv_grid = 1.0:3.0:4\n\n"
                       "[y]\nfamily = exp\nanalyses = coeff_bound\nn_grid = 1:5\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "[x] gamma: ZeroDivisionError: float division by zero" in err
        manifest = (out / "MANIFEST").read_text().splitlines()
        assert [line.split(",")[0] for line in manifest] == ["x/coeff_bound.csv",
                                                             "y/coeff_bound.csv"]
        assert (out / "y" / "coeff_bound.csv").exists()
        assert "ZeroDivisionError" in (out / "summary.txt").read_text()

    def test_rule_past_its_rows_exit_three(self, tmp_path, capsys):
        # rho = 50, c = 0.1 at r = 1.5: the terms still rise at n = 10^6, so
        # tauberian fails at once, and coeff_bound before it is flushed
        cfg = tmp_path / "t.cfg"
        cfg.write_text("[x]\nfamily = power_order\nrho = 50\nc = 0.1\n"
                       "analyses = coeff_bound, tauberian\nr_grid = 1.5\nn_grid = 1:20\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert "[x] tauberian: series for gamma_order(rho=50) at r=1.5" in err
        assert "Traceback" not in err
        assert (out / "MANIFEST").read_text().startswith("x/coeff_bound.csv,")

    @pytest.mark.parametrize("text, flushed", [
        # every n of 1:2 lies below example_33's n >= 3
        ("family = double_exp\nanalyses = gamma, example_33\nv_grid = 1, 2\n"
         "n_grid = 1:2\n", "x/gamma.csv"),
        # Lambda*(0) = 0: no n gives a Tauberian rhs ratio
        ("family = exp\nanalyses = tauberian\nn_grid = 0\n", None)],
        ids=["example_33", "tauberian"])
    def test_empty_grid_exit_three(self, tmp_path, capsys, text, flushed):
        cfg = tmp_path / "t.cfg"
        cfg.write_text(f"[x]\n{text}")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 3
        assert "Traceback" not in capsys.readouterr().err
        manifest = (out / "MANIFEST").read_text().splitlines()
        assert [line.split(",")[0] for line in manifest] == ([flushed] if flushed else [])


# --- generated configs --------------------------------------------------

def _floats(lo, hi, size=3):
    return st.lists(st.floats(lo, hi), min_size=1, max_size=size).map(
        lambda xs: ", ".join(repr(x) for x in xs))


# double_exp's upper_bound costs most where c6 and v are large: its decay
# n ln(W(n/c5)/c6) - n/W is negative until the Lambert W passes about c6,
# so its K rows run long, and c6 = 10 takes 12-25 s per v at c5 = 1.
# c5 <= 2, c6 <= 3 keeps the slowest draw (three v near 6 at c5 = 2,
# c6 = 3) under 2 s
PARAMS = {"rho": st.floats(0.1, 50.0), "c": st.floats(0.1, 10.0),
          "lam": st.floats(0.1, 50.0), "m": st.floats(1.1, 5.0),
          "c5": st.floats(0.1, 2.0), "c6": st.floats(0.1, 3.0)}
FAMILY_PARAMS = {"power_order": ("rho", "c"), "log_power_growth": ("m", "c"),
                 "poisson": ("lam",), "double_exp": ("c5", "c6")}
GRIDS = {
    "n_grid": st.one_of(
        st.tuples(st.integers(0, 300), st.integers(0, 300)).map(
            lambda t: f"{min(t)}:{max(t)}"),
        st.lists(st.integers(0, 5000), min_size=1, max_size=5).map(
            lambda ns: ", ".join(map(str, ns)))),
    "v_grid": _floats(-3.0, 6.0),
    "r_grid": _floats(0.5, 1e4),
}
# one section in six gets a key that does not parse, so exit 2 is drawn too
HOSTILE = st.sampled_from([("n_grid", "1:abc"), ("n_grid", "5:1"), ("n_grid", "-3:5"),
                           ("v_grid", "1, nan"), ("r_grid", "-1, 2"), ("rho", "abc")])
TABLE_ROWS = st.lists(st.one_of(st.floats(-60.0, 5.0), st.just("ZERO")),
                      min_size=1, max_size=40)


@st.composite
def _generated_section(draw, family, analyses=None):
    keys = {"family": family, "analyses": ", ".join(analyses or draw(
        st.lists(st.sampled_from(_allowed(family)), min_size=1, max_size=3, unique=True)))}
    keys.update(FAMILY_KEYS[family])
    keys.update({k: draw(PARAMS[k]) for k in FAMILY_PARAMS.get(family, ())})
    keys.update({k: draw(g) for k, g in GRIDS.items() if draw(st.booleans())})
    return keys


@st.composite
def _generated_config(draw):
    family = draw(st.sampled_from(sorted(cli._FAMILIES)))
    sections = {}
    if family == "factorized":
        for part in ("a", "b"):
            sections[part] = draw(_generated_section(
                draw(st.sampled_from(["exp", "power_order", "poisson"])), ["coeff_bound"]))
    sections["x"] = draw(_generated_section(family))
    if draw(st.integers(0, 5)) == 5:
        key, text = draw(HOSTILE)
        sections["x"][key] = text
    return sections, draw(TABLE_ROWS)


def _ln_abs_c(keys, ns):
    """ln|c_n| of a family whose ln M_f the test sums, else None."""
    family = keys["family"]
    if family == "exp":
        return -gammaln(ns + 1.0)
    if family == "power_order":
        k = ns / keys["rho"]
        return k * math.log(keys.get("c", 1.0)) - gammaln(k + 1.0)
    if family == "poisson":
        return -keys["lam"] + ns * math.log(keys["lam"]) - gammaln(ns + 1.0)
    return None


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_generated_config())
def test_generated_configs(config):
    # exit 0, 2 or 3 with no traceback and nothing written on exit 2;
    # every printed coefficient bound holds (slack >= 0), and every finite
    # upper_bound row lies above ln M_f(e^v) summed over n <= 20000 (a
    # lower estimate of ln M_f, as every c_n > 0); a factorized ln M is the
    # sum of its factors' and lies above their n <= 20000 estimates (to
    # rounding)
    sections, table = config
    with tempfile.TemporaryDirectory() as root:
        with open(os.path.join(root, "c.csv"), "w") as fh:
            fh.write("n,ln_abs_c\n" + "".join(f"{n},{v}\n" for n, v in enumerate(table)))
        with open(os.path.join(root, "g.cfg"), "w") as fh:
            fh.write("".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                             + "\n" for name, keys in sections.items()))
        out = os.path.join(root, "out")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(os.path.join(root, "g.cfg"), out, quiet=True)
        event(f"{sections['x']['family']}: exit {code}")
        assert code in (0, 2, 3)
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert not os.path.exists(out)
            return
        ns = np.arange(20001, dtype=float)
        path = os.path.join(out, "x", "factorized.csv")
        if os.path.exists(path):
            with open(path, newline="") as fh:
                got = {row[0]: float(row[1]) for row in list(csv.reader(fh))[1:]}
            assert got["log_max_product"] == got["log_max_factor_1"] + got["log_max_factor_2"]
            r_grid = cli.FunctionSpec("x", sections["x"], root).r_grid
            lower = sum(logsumexp(_ln_abs_c(sections[part], ns) + ns * math.log(r))
                        for part, r in zip("ab", (r_grid[0], r_grid[min(1, r_grid.size - 1)])))
            assert got["log_max_product"] >= lower - 1e-12 * abs(lower), (sections, lower)
        for name, keys in sections.items():
            path = os.path.join(out, name, "coeff_bound.csv")
            if os.path.exists(path):
                with open(path, newline="") as fh:
                    assert all(float(row[3]) >= 0.0 for row in list(csv.reader(fh))[1:])
            path = os.path.join(out, name, "upper_bound.csv")
            ln_c = _ln_abs_c(keys, ns)
            if ln_c is None or not os.path.exists(path):
                continue
            with open(path, newline="") as fh:
                for row in list(csv.reader(fh))[1:]:
                    v, bound = float(row[0]), float(row[1])
                    if math.isfinite(bound):
                        assert bound >= logsumexp(ln_c + ns * v), (keys, v, bound)


class TestMain:
    def test_argparse_wiring(self, tmp_path):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(FAST_CFG)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 0

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit):
            main(["--out", "/tmp/x"])

"""CLI plumbing: config parsing, exit codes, CSV contract, determinism."""

import csv
import hashlib
import math
import os

import numpy as np
import pytest
from scipy.special import gammaln, lambertw, logsumexp

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
        assert run(str(cfg), str(tmp_path / "out"), quiet=True, eps_points=19) == 0
        pair = multivar.MultiGrowthFunction.from_separable(
            [bounds.stirling_decay(), bounds.quadratic_decay(0.5)])
        multivar.multi_max_bound(pair, (1.0, 2.0), eps_points=9)
        multivar.multi_coeff_bound(multivar.MultiGrowthFunction.from_separable(
            [bounds.power_of_exp(), bounds.power_of_exp()]), (3, 4))
        bounds.coeff_upper_bound(bounds.power_of_exp(), 5)
        scales.conjugate_numeric(scales.psi_scale(2.0, 1.0), 10.0)

        # every coefficient family takes Q* of its decay in closed form: the
        # adaptive search is not reached from upper_bound
        def search(*args, **kwargs):
            raise AssertionError("conjugate_of_callable called")

        for mod in (entire_growth, legendre, bounds, scales):
            monkeypatch.setattr(mod, "conjugate_of_callable", search)
        (tmp_path / "c.csv").write_text("n,ln_abs_c\n0,0.0\n1,-1.0\n2,-2.5\n3,-6.0\n")
        cfg.write_text("".join(
            f"[{name}]\n{family}\nanalyses = upper_bound\nv_grid = 1.0, 3.0\n\n"
            for name, family in (("exp", "family = exp"),
                                 ("order2", "family = power_order\nrho = 2"),
                                 ("pois", "family = poisson\nlam = 1"),
                                 ("table", "family = custom_coeff_csv\npath = c.csv"))))
        assert run(str(cfg), str(tmp_path / "out2"), quiet=True, eps_points=19) == 0


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
        assert rows[0] == ["v", "log_bound", "eps_star", "c_eff", "s0", "qstar_saturated"]
        for row in rows[1:]:
            v, bound = float(row[0]), float(row[1])
            assert bound >= logsumexp(ln_c + ns * v)
            assert row[5] in ("0", "1")

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

    def test_unsupported_analysis_for_family(self, tmp_path):
        # every coefficient table is a polynomial: tauberian cannot run on it
        (tmp_path / "c.csv").write_text("n,ln_abs_c\n0,0.0\n1,-1.0\n")
        cfg = tmp_path / "bad.cfg"
        for text in ("[x]\nfamily = log_power_growth\nm = 2\n"
                     "analyses = coeff_bound\n",
                     "[x]\nfamily = custom_coeff_csv\npath = c.csv\n"
                     "analyses = coeff_bound, tauberian, order_type\n"):
            cfg.write_text(text)
            assert run(str(cfg), str(tmp_path / "out"), quiet=True) == 2

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
                                      "n_grid = 1:3000000", "--eps-points 0"])
    def test_hostile_key_exit_two(self, tmp_path, capsys, line):
        # a config line, or a command-line flag after the valid config
        flag = line.startswith("--")
        cfg = tmp_path / "bad.cfg"
        rho = "" if line.startswith("rho") else "rho = 2\n"
        cfg.write_text(f"[x]\nfamily = power_order\n{rho}"
                       f"analyses = coeff_bound, gamma, tauberian\n"
                       f"{'' if flag else line}\n")
        out = tmp_path / "out"
        argv = ["--config", str(cfg), "--out", str(out), "--quiet"]
        assert main(argv + (line.split() if flag else [])) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err

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


class TestMain:
    def test_argparse_wiring(self, tmp_path):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(FAST_CFG)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 0

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit):
            main(["--out", "/tmp/x"])

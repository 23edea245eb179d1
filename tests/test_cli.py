"""CLI plumbing: config parsing, exit codes, CSV contract, determinism."""

import csv
import hashlib
import os

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

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
            out[os.path.relpath(p, root)] = hashlib.sha256(
                open(p, "rb").read()).hexdigest()
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

    def test_single_row_table_refused(self, tmp_path):
        (tmp_path / "c.csv").write_text("n,ln_abs_c\n0,ZERO\n1,0.0\n")
        cfg = tmp_path / "t.cfg"
        cfg.write_text("[t]\nfamily = custom_coeff_csv\npath = c.csv\n"
                       "analyses = upper_bound\nv_grid = 1\n")
        assert run(str(cfg), str(tmp_path / "out"), quiet=True) == 3


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
                                      "eps0 = abc", "rho = -1", "v_grid = 1, nan"])
    def test_hostile_key_exit_two(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        rho = "" if line.startswith("rho") else "rho = 2\n"
        cfg.write_text(f"[x]\nfamily = power_order\n{rho}"
                       f"analyses = coeff_bound, gamma\n{line}\n")
        out = tmp_path / "out"
        assert run(str(cfg), str(out), quiet=True) == 2
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

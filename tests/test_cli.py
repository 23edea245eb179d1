"""CLI plumbing: config parsing, exit codes, CSV contract, determinism."""

import hashlib
import os

import pytest

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

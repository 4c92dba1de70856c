"""Tests of the experiment runner and its exit-code contract."""

import math
import os
import pathlib

import pytest

from kdense.cli import main

SHIPPED = str(pathlib.Path(__file__).resolve().parent.parent /
              "configs" / "verify.cfg")


def _read_all(out_dir):
    out = {}
    for p in sorted(pathlib.Path(out_dir).iterdir()):
        out[p.name] = p.read_bytes()
    return out


BAD_BODY = """
[body good]
kind = ball
radius = 1.0

[experiment run]
kind = petty
body = foo
"""

REULEAUX_REPORT = """
[body wheel]
kind = reuleaux
width = 1.0

[experiment vertex]
kind = report
body = wheel
x_direction = 0 1
qmc_points = 4096
replicates = 2
seed = 0
{extra}
"""

REULEAUX_IDENTITIES = """
[body wheel]
kind = reuleaux
width = 1.0

[experiment ids]
kind = identities
body = wheel
directions = 16
{extra}
"""

SMALL = """
[output]
directory = {out}

[body disk]
kind = ball
radius = 1.0

[body probe]
kind = ball
radius = 2.0

[experiment decay]
kind = asymptotic
body = disk
k = probe
x_direction = 1 0
eps0 = 0.01
rungs = 6
seed = 0

[experiment ratios]
kind = petty
body = disk
directions = 32
"""


class TestVerify:
    def test_shipped_config_passes(self, tmp_path):
        out = tmp_path / "run"
        assert main(["verify", SHIPPED, "--out", str(out)]) == 0
        files = _read_all(out)
        csvs = [f for f in files if f.endswith(".csv")]
        assert len(csvs) == 6
        assert "summary.csv" in files
        summary = files["summary.csv"].decode()
        assert "fail" not in summary and "not_constant" not in summary

    def test_summary_schema(self, tmp_path):
        out = tmp_path / "run"
        main(["verify", SHIPPED, "--out", str(out)])
        head = (out / "summary.csv").read_text().splitlines()[0]
        assert head == "experiment,check,body,value,verdict"

    def test_pinned_csv_headers(self, tmp_path):
        out = tmp_path / "run"
        main(["verify", SHIPPED, "--out", str(out)])
        heads = {p.name: p.read_text().splitlines()[0]
                 for p in out.iterdir() if p.suffix == ".csv"}
        assert heads["overlap_spread.csv"] == "body,r,u_index,volume,stderr"
        assert heads["deficit_decay.csv"] == \
            "body,x_index,eps,deficit,stderr,fit_exponent,fit_coeff,closed_coeff"
        assert heads["curvature_support_ratio.csv"] == "body,u_index,kappa,h,ratio"
        assert heads["shape_operator_identities.csv"] == \
            "check,body,u_index,residual,verdict"

    def test_plot_data_emitted(self, tmp_path):
        out = tmp_path / "run"
        main(["verify", SHIPPED, "--out", str(out)])
        lines = (out / "deficit_decay.dat").read_text().splitlines()
        assert len(lines) == 10
        for line in lines:
            eps, f = map(float, line.split())
            assert eps > 0 and f > 0

    def test_byte_identical_rerun(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["verify", SHIPPED, "--out", str(a)]) == 0
        assert main(["verify", SHIPPED, "--out", str(b)]) == 0
        assert _read_all(a) == _read_all(b)


class TestExitCodes:
    def test_unknown_body(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(BAD_BODY)
        assert main(["verify", str(cfg)]) == 1
        assert "foo" in capsys.readouterr().err

    def test_unreadable_config(self, capsys):
        assert main(["verify", "/no/such/file.cfg"]) == 1

    def test_missing_kind(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[body b]\nradius = 1\n")
        assert main(["verify", str(cfg)]) == 1
        assert "kind" in capsys.readouterr().err

    def test_undeclared_vertex_contact(self, tmp_path):
        cfg = tmp_path / "vertex.cfg"
        cfg.write_text(REULEAUX_REPORT.format(extra=""))
        assert main(["verify", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_declared_vertex_contact(self, tmp_path):
        cfg = tmp_path / "vertex.cfg"
        cfg.write_text(REULEAUX_REPORT.format(extra="expect = non_unique_contact"))
        out = tmp_path / "o"
        assert main(["verify", str(cfg), "--out", str(out)]) == 0
        assert "non_unique_contact" in (out / "summary.csv").read_text()


    def test_identities_never_run_are_not_passed(self, tmp_path):
        # every direction is singular for kp1 and symmetry, which need
        # curvature at both u and -u; krantz_parks runs on the arcs
        cfg = tmp_path / "ids.cfg"
        cfg.write_text(REULEAUX_IDENTITIES.format(extra=""))
        out = tmp_path / "o"
        assert main(["identities", str(cfg), "--out", str(out)]) == 2
        rows = [line.split(",") for line in
                (out / "summary.csv").read_text().splitlines()[1:]]
        summary = {check: (value, verdict)
                   for _, check, _, value, verdict in rows}
        for check in ("kp1", "symmetry"):
            value, verdict = summary[check]
            assert math.isnan(float(value))
            assert verdict == "singular"
        assert summary["krantz_parks"][1] == "pass"
        ids = (out / "ids.csv").read_text().splitlines()
        assert sum(line.startswith("singular,") for line in ids) == 16

    def test_declared_singular_identities(self, tmp_path):
        cfg = tmp_path / "ids.cfg"
        cfg.write_text(REULEAUX_IDENTITIES.format(extra="expect = singular"))
        assert main(["identities", str(cfg), "--out", str(tmp_path / "o")]) == 0


class TestSubcommandsAndOverrides:
    def test_subcommand_filters_experiments(self, tmp_path):
        cfg = tmp_path / "small.cfg"
        cfg.write_text(SMALL.format(out=tmp_path / "unused"))
        out = tmp_path / "o"
        assert main(["petty", str(cfg), "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert "ratios.csv" in names
        assert "decay.csv" not in names

    def test_output_directory_from_config(self, tmp_path):
        out = tmp_path / "cfg_out"
        cfg = tmp_path / "small.cfg"
        cfg.write_text(SMALL.format(out=out))
        assert main(["asymptotic", str(cfg)]) == 0
        assert (out / "decay.csv").exists()

    def test_seed_override_changes_qmc_output(self, tmp_path):
        cfg = tmp_path / "k.cfg"
        cfg.write_text("""
[body e]
kind = ellipsoid
semiaxes = 2.0 1.0

[experiment spread]
kind = kdense
body = e
r = 0.5
points = 8
qmc_points = 4096
replicates = 2
seed = 0
""")
        a, b, c = (tmp_path / x for x in "abc")
        main(["kdense", str(cfg), "--out", str(a)])
        main(["kdense", str(cfg), "--out", str(b), "--seed", "1"])
        main(["kdense", str(cfg), "--out", str(c), "--seed", "0"])
        ra = (a / "spread.csv").read_bytes()
        assert ra != (b / "spread.csv").read_bytes()
        assert ra == (c / "spread.csv").read_bytes()

    def test_worker_count_does_not_change_output(self, tmp_path):
        cfg = tmp_path / "small.cfg"
        cfg.write_text(SMALL.format(out=tmp_path / "unused"))
        a, b = tmp_path / "wa", tmp_path / "wb"
        old = os.environ.get("KDENSE_WORKERS")
        try:
            os.environ["KDENSE_WORKERS"] = "1"
            main(["verify", str(cfg), "--out", str(a)])
            os.environ["KDENSE_WORKERS"] = "4"
            main(["verify", str(cfg), "--out", str(b)])
        finally:
            if old is None:
                os.environ.pop("KDENSE_WORKERS", None)
            else:
                os.environ["KDENSE_WORKERS"] = old
        assert _read_all(a) == _read_all(b)

    def test_bad_sample_count_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("""
[body d]
kind = ball
radius = 1.0

[experiment p]
kind = petty
body = d
directions = -5
""")
        assert main(["verify", str(cfg)]) == 1
        assert "directions" in capsys.readouterr().err

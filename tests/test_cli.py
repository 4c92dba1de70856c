"""Tests of the experiment runner and its exit-code contract."""

import math
import os
import pathlib
import subprocess
import sys

import pytest

from kdense.analysis import kp1_check, krantz_parks_check
from kdense.bodies import (Ball, ConvexBody, Dilate, FourierBody2D,
                           ReuleauxTriangle2D, curvature, difference_body,
                           sphere_directions)
from kdense.cli import main, run
from kdense.config import load_config
from kdense.errors import SingularCurvature

ROOT = pathlib.Path(__file__).resolve().parent.parent
SHIPPED = str(ROOT / "configs" / "verify.cfg")


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

IDENTITIES = """
[body b]
{body}

[experiment ids]
kind = identities
body = b
directions = 16
{extra}
"""
REULEAUX = "kind = reuleaux\nwidth = 1.0"
FOURIER = "kind = fourier\ncos = 1 0 0 0.1"

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

[experiment contact]
kind = report
body = disk
points = 4
halfvolume_points = 8
qmc_points = 4096
replicates = 4
seed = 0

[experiment spread]
kind = kdense
body = disk
r = 0.5
points = 8
qmc_points = 4096
replicates = 4
seed = 0
"""



def _bad_experiment_key(line):
    """A good body g and an experiment x on it whose last key is line."""
    return ("kind = ellipsoid\nsemiaxes = 2.0 1.0\n\n[experiment x]\n"
            "kind = asymptotic\nbody = g\nrungs = 3\nqmc_points = 1024\n"
            f"replicates = 2\n{line}")


def _identity_rows(G, m, tol=1e-8):
    """The rows of ``run_identities`` against the default other body, from
    per-direction checks and ``curvature`` at u and -u."""
    K, other = difference_body(G), Ball(1.0)
    rows = []
    for i, u in enumerate(sphere_directions(G.dim, m)):
        checks = (("krantz_parks", lambda: krantz_parks_check(G, other, u)),
                  ("kp1", lambda: kp1_check(G, u, K=K)),
                  ("symmetry", lambda: abs(curvature(G, u).kappa
                                           - curvature(G, -u).kappa)))
        try:
            for check, residual in checks:
                res = float(residual())
                verdict = "pass" if res < tol else "fail"
                rows.append(f"{check},b,{i},{res!r},{verdict}")
        except SingularCurvature:
            rows.append(f"singular,b,{i},nan,skipped")
    return rows


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

    def test_matches_committed_out(self, tmp_path):
        """A fresh run reproduces the committed ``out/``: the same files,
        rows, names and verdicts, and every number within 1e-9 relative.
        Values below 1e-12 are residuals at the rounding level, which
        move with the floating-point environment."""
        out = tmp_path / "run"
        assert main(["verify", SHIPPED, "--out", str(out)]) == 0
        fresh, golden = _read_all(out), _read_all(ROOT / "out")
        assert sorted(fresh) == sorted(golden)
        for name, data in golden.items():
            sep = "," if name.endswith(".csv") else None
            want, got = ([line.split(sep) for line in d.decode().splitlines()]
                         for d in (data, fresh[name]))
            assert [len(r) for r in got] == [len(r) for r in want], name
            for row_got, row_want in zip(got, want):
                for a, b in zip(row_got, row_want):
                    try:
                        x, y = float(a), float(b)
                    except ValueError:
                        assert a == b, (name, row_want)
                        continue
                    assert (math.isnan(x) and math.isnan(y)) or math.isclose(
                        x, y, rel_tol=1e-9, abs_tol=1e-12), (name, row_want)


class TestReport:
    def test_one_k_search_per_touch_point(self, tmp_path, monkeypatch):
        # K's normal at xbar - x comes from the gauge search that checks
        # the touch point: on the shipped ellipse, one sphere search of
        # K = G - G per point, and the closed-form G searches nothing
        calls = []

        def spy(body, pts, _orig=ConvexBody._gauge_exact):
            calls.append((body.kind, len(pts)))
            return _orig(body, pts)

        monkeypatch.setattr(ConvexBody, "_gauge_exact", spy)
        cfg = load_config(SHIPPED)
        assert run(cfg, kinds=("report",), out_dir=str(tmp_path)) == 0
        spec, = (s for s in cfg.experiment_specs if s.kind == "report")
        assert spec.get("body") == "ellipse"
        assert calls == [("minkowski_sum", 1)] * spec.get_int("points", 16)


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
        cfg.write_text(IDENTITIES.format(body=REULEAUX, extra=""))
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

    @pytest.mark.parametrize("body, G", [
        (REULEAUX, ReuleauxTriangle2D(1.0)),
        (FOURIER, FourierBody2D([1.0, 0.0, 0.0, 0.1]))],
        ids=["reuleaux", "fourier"])
    def test_identity_rows_match_curvature(self, tmp_path, body, G):
        # per direction: krantz_parks, kp1, then symmetry or singular; the
        # symmetry residual is |kappa(u) - kappa(-u)| of ``curvature``
        cfg = tmp_path / "ids.cfg"
        cfg.write_text(IDENTITIES.format(body=body, extra="expect = singular"))
        out = tmp_path / "o"
        assert main(["identities", str(cfg), "--out", str(out)]) == 0
        lines = (out / "ids.csv").read_text().splitlines()[1:]
        assert lines == _identity_rows(G, 16)
        summary = {row.split(",")[1]: row.split(",")[3:] for row in
                   (out / "summary.csv").read_text().splitlines()[1:]}
        if isinstance(G, FourierBody2D):
            value, verdict = summary["symmetry"]
            # not centrally symmetric: kappa(u) and kappa(-u) differ by ~4
            assert float(value) > 4.0 and verdict == "fail"

    def test_declared_singular_identities(self, tmp_path):
        cfg = tmp_path / "ids.cfg"
        cfg.write_text(IDENTITIES.format(body=REULEAUX,
                                        extra="expect = singular"))
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
        # the report's half-volume battery and the overlap spread draw
        # Sobol points, so 4 workers run their replicates in the pool
        assert {"contact.csv", "spread.csv"} <= {p.name for p in a.iterdir()}
        assert _read_all(a) == _read_all(b)

    @pytest.mark.parametrize("factor", ["nan", "inf", "0"])
    def test_bad_dilation_factor_rejected(self, tmp_path, capsys, factor):
        # a NaN factor used to build a NaN body and exit 0 with an inf spread
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"""
[body d]
kind = ball
radius = 1.0

[body k]
kind = dilate
of = d
factor = {factor}

[experiment s]
kind = kdense
body = d
k = k
r = 0.5
points = 8
qmc_points = 1024
replicates = 2
""")
        assert main(["verify", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "factor" in err

    @pytest.mark.parametrize("body", [
        "kind = ball\nradius = nan", "kind = ball\nradius = inf",
        "kind = ball\nradius = 1.0\ncenter = inf 0",
        "kind = ball\nradius = 1.0\ncenter = 1.00001 0",
        "kind = ellipsoid\nsemiaxes = inf 1.0",
        "kind = ellipsoid\nsemiaxes = 2.0 1.0\ncenter = nan 0",
        "kind = ellipsoid\nsemiaxes = 2.0 1.0\ncenter = 2.0 0",
        # the translate of a thin ellipse whose support is -1e-5 at (0, -1)
        pytest.param("kind = translate\nof = thin\nvector = 0 0.00101\n\n"
                     "[body thin]\nkind = ellipsoid\nsemiaxes = 2.0 0.001",
                     id="translate off a thin ellipse"),
        pytest.param(_bad_experiment_key("x_direction = 0 0"),
                     id="x_direction = 0 0"),
        pytest.param(_bad_experiment_key("x_direction = nan 0"),
                     id="x_direction = nan 0"),
        pytest.param(_bad_experiment_key("x_direction = 1 x"),
                     id="x_direction = 1 x"),
        pytest.param(_bad_experiment_key("seed = -1"), id="seed = -1"),
        # an infinite r read as a constant spread, a NaN eps0 as a NaN
        # power law; the others raised a traceback
        *[pytest.param(_bad_experiment_key(line), id=line) for line in (
            "r = 0.5 inf", "r = nan", "r = 0", "r = -0.5",
            "eps0 = nan", "eps0 = inf", "eps0 = -0.1", "eps0 = 0", "eps0 = 1",
            "budget = nan", "budget = inf", "budget = 0",
            "tol = nan", "tol = -1e-8")]])
    def test_bad_quadric_rejected(self, tmp_path, capsys, body):
        # non-finite data, or an origin outside or on the boundary; or a
        # bad key of an experiment x on a good body
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"""
[body g]
{body}

[experiment p]
kind = petty
body = g
""")
        assert main(["verify", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        where = "experiment x" if "[experiment x]" in body else "body g"
        assert "config error" in err and where in err

    @pytest.mark.parametrize("kind, line", [
        ("kdense", "replicates = 1"), ("kdense", "points = 7"),
        ("report", "replicates = 1"), ("asymptotic", "replicates = 1")])
    def test_too_few_replicates_or_points_rejected(self, tmp_path, capsys,
                                                   kind, line):
        # one replicate has a NaN standard error, so every budgeted verdict
        # failed with exit 0; fewer than 8 points raised a traceback
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"""
[body d]
kind = ellipsoid
semiaxes = 2.0 1.0

[experiment x]
kind = {kind}
body = d
qmc_points = 1024
{line}
""")
        out = tmp_path / "o"
        assert main(["verify", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and line.split()[0] in err
        assert not out.exists()

    def test_shipped_config_with_one_replicate_rejected(self, tmp_path,
                                                        capsys):
        text = pathlib.Path(SHIPPED).read_text()
        assert "replicates = 4" in text
        cfg = tmp_path / "one.cfg"
        cfg.write_text(text.replace("replicates = 4", "replicates = 1"))
        out = tmp_path / "o"
        assert main(["verify", str(cfg), "--out", str(out)]) == 1
        assert "replicates" in capsys.readouterr().err
        assert not out.exists()

    def test_python_m_kdense(self, tmp_path):
        # a checkout runs the command line without an installed script
        cfg = tmp_path / "small.cfg"
        cfg.write_text(SMALL.format(out=tmp_path / "unused"))
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        out = subprocess.run([sys.executable, "-m", "kdense", "verify",
                              str(cfg), "--out", str(tmp_path / "o")],
                             env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert (tmp_path / "o" / "summary.csv").exists()

    def test_reflect_kind_is_dilate_by_minus_one(self, tmp_path):
        # configs keep the kind 'reflect'; it builds Dilate(of, -1)
        path = tmp_path / "r.cfg"
        path.write_text("""
[body d]
kind = ball
radius = 1.0
center = 0.3 0.0

[body r]
kind = reflect
of = d
""")
        cfg = load_config(str(path))
        R = cfg.body("r")
        assert isinstance(R, Dilate) and R.factor == -1.0
        assert R.support([1.0, 0.0]) == cfg.body("d").support([-1.0, 0.0])

    @pytest.mark.parametrize("flag, value", [
        ("--seed", "-1"), ("--samples", "-5"), ("--samples", "0")])
    def test_bad_seed_or_sample_flag_rejected(self, tmp_path, capsys, flag,
                                              value):
        # argparse's usage error, before any run and with no traceback
        cfg = tmp_path / "small.cfg"
        cfg.write_text(SMALL.format(out=tmp_path / "unused"))
        with pytest.raises(SystemExit) as exit_:
            main(["kdense", str(cfg), "--out", str(tmp_path / "o"), flag,
                  value])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and flag in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("workers", ["abc", "0", "-2"])
    def test_bad_worker_count_rejected(self, tmp_path, capsys, monkeypatch,
                                       workers):
        # a usage error naming the variable, before any run; it used to
        # surface as a traceback from inside the first QMC pass
        cfg = tmp_path / "small.cfg"
        cfg.write_text(SMALL.format(out=tmp_path / "unused"))
        monkeypatch.setenv("KDENSE_WORKERS", workers)
        monkeypatch.setattr("kdense.cli.load_config",
                            lambda *a: pytest.fail("the config was read"))
        with pytest.raises(SystemExit) as exit_:
            main(["verify", str(cfg), "--out", str(tmp_path / "o")])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "KDENSE_WORKERS" in err
        assert repr(workers) in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()
        assert not (tmp_path / "unused").exists()

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

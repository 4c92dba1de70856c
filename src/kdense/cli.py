"""Experiment runner: executes configured checks and writes CSV tables.

Exit codes: 0 on success (including failures declared expected in the
config), 1 for configuration errors, 2 when an undeclared degenerate fit,
non-unique contact, or identity check singular at every direction
occurred; argparse's usage error for a bad command line is 2 as well.
"""

import argparse
import os
import sys

import numpy as np

from . import analysis, asymptotics, measure
from .bodies import (Ball, boundary_points, curvature_many, difference_body,
                     sphere_directions)
from .config import MIN_QMC_POINTS, ConfigError, direction_from, load_config
from .errors import (DegenerateFit, FlatContact, NonUniqueContact,
                     SingularCurvature)
from .oracles import ball_lens_volume, disk_lens_area


def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


class RunState:
    def __init__(self):
        self.summary = []
        self.undeclared_failure = False

    def record(self, experiment, check, body, value, verdict):
        self.summary.append((experiment, check, body, value, verdict))


def _qmc_opts(spec, overrides):
    n = overrides.get("samples")
    if n is None:
        n = spec.get_int("qmc_points", measure.DEFAULT_QMC_POINTS)
    reps = spec.get_int("replicates", measure.DEFAULT_REPLICATES)
    seed = overrides.get("seed")
    if seed is None:
        seed = spec.get_int("seed", 0)
    return n, reps, seed


def _expected(spec):
    return set((spec.get("expect") or "").split())


def _ball_pair_oracle(G, K, x):
    """Exact deficit ladder for ball/ball pairs, None otherwise."""
    if not (isinstance(G, Ball) and isinstance(K, Ball)):
        return None
    vol_g = (np.pi * G.radius ** 2 if G.dim == 2
             else 4.0 * np.pi * G.radius ** 3 / 3.0)
    lens = disk_lens_area if G.dim == 2 else ball_lens_volume

    def oracle(eps):
        r = 1.0 - eps
        d = float(np.linalg.norm(G.center - x - r * K.center))
        return vol_g - lens(G.radius, r * K.radius, d)

    return oracle


def run_kdense(spec, cfg, state, overrides):
    G = cfg.body(spec.get("body"))
    K = cfg.resolve_k(spec, G)
    n, reps, seed = _qmc_opts(spec, overrides)
    m = spec.get_int("points", 64)
    rows = []
    for r in spec.get_floats("r", [0.5]):
        rep = analysis.kdense_spread(G, K, r, m=m, n=n, replicates=reps,
                                     seed=seed)
        for i, (v, s) in enumerate(zip(rep.values, rep.extra["stderr"])):
            rows.append((spec.get("body"), r, i, float(v), float(s)))
        verdict = "constant" if rep.constant else "not_constant"
        state.record(spec.name, f"kdense_spread(r={r})", spec.get("body"),
                     rep.relative_spread, verdict)
    return ["body", "r", "u_index", "volume", "stderr"], rows, None


def run_asymptotic(spec, cfg, state, overrides):
    G = cfg.body(spec.get("body"))
    K = cfg.resolve_k(spec, G)
    n, reps, seed = _qmc_opts(spec, overrides)
    eps0 = spec.get_float("eps0", 0.1)
    rungs = spec.get_int("rungs", 8)
    xdir = direction_from(spec, G.dim)
    if xdir is None:
        dirs = sphere_directions(G.dim, spec.get_int("points", 1))
    else:
        dirs = xdir[None, :]
    expected = _expected(spec)
    rows, plot = [], []
    for xi, u in enumerate(dirs):
        x = boundary_points(G, u[None, :])[0]
        oracle = _ball_pair_oracle(G, K, x)
        closed = float("nan")
        try:
            fit = asymptotics.large_r_coefficient_numeric(
                G, K, x, eps0=eps0, rungs=rungs, oracle=oracle,
                n=n, replicates=reps, seed=seed)
            verdict = "power_law"
        except FlatContact as e:
            fit = e.fit
            verdict = "flat_contact"
        except DegenerateFit:
            state.record(spec.name, "large_r_fit", spec.get("body"),
                         float("nan"), "degenerate_fit")
            if "degenerate_fit" not in expected:
                state.undeclared_failure = True
            continue
        if verdict == "power_law":
            try:
                closed = asymptotics.large_r_limit_closed(G, K, x)
            except (SingularCurvature, ValueError, NonUniqueContact):
                closed = float("nan")
        for eps, f, s in fit.ladder:
            rows.append((spec.get("body"), xi, float(eps), float(f), float(s),
                         fit.exponent, fit.coefficient, closed))
            plot.append((float(eps), float(f)))
        state.record(spec.name, "large_r_exponent", spec.get("body"),
                     fit.exponent, verdict)
        if verdict == "power_law" and np.isfinite(closed):
            agree = abs(fit.coefficient - closed) / closed
            state.record(spec.name, "closed_vs_numeric", spec.get("body"),
                         agree, "pass" if agree < 0.03 else "fail")
    header = ["body", "x_index", "eps", "deficit", "stderr",
              "fit_exponent", "fit_coeff", "closed_coeff"]
    return header, rows, plot


def run_petty(spec, cfg, state, overrides):
    G = cfg.body(spec.get("body"))
    rep = analysis.petty_check(G, m=spec.get_int("directions", 256))
    e = rep.extra
    rows = [(spec.get("body"), i, kappa, h, ratio) for i, kappa, h, ratio in
            zip(e["u_index"].tolist(), e["kappa"].tolist(), e["h"].tolist(),
                rep.values.tolist())]
    budget = spec.get_float("budget", 1e-6)
    spread = rep.relative_spread
    state.record(spec.name, "petty_ratio_spread", spec.get("body"), spread,
                 "constant" if spread <= budget else "not_constant")
    return ["body", "u_index", "kappa", "h", "ratio"], rows, None


def run_identities(spec, cfg, state, overrides):
    G = cfg.body(spec.get("body"))
    other = cfg.body(spec.get("other")) if spec.get("other") else \
        Ball(1.0, dim=G.dim)
    m = spec.get_int("directions", 32)
    tol = spec.get_float("tol", 1e-8)
    expected = _expected(spec)
    U = sphere_directions(G.dim, m)
    rows = []
    residuals = {"krantz_parks": [], "kp1": [], "symmetry": []}
    K = difference_body(G)
    plus, singular_plus = curvature_many(G, U)
    minus, singular_minus = curvature_many(G, -U)
    symmetry = np.abs(plus.kappa - minus.kappa).tolist()
    for i, u in enumerate(U):
        try:
            res = analysis.krantz_parks_check(G, other, u)
            rows.append(("krantz_parks", spec.get("body"), i, res,
                         "pass" if res < tol else "fail"))
            residuals["krantz_parks"].append(res)
            res = analysis.kp1_check(G, u, K=K)
            rows.append(("kp1", spec.get("body"), i, res,
                         "pass" if res < tol else "fail"))
            residuals["kp1"].append(res)
            if singular_plus[i] or singular_minus[i]:
                raise SingularCurvature("degenerate curvature at u or -u")
            sym = symmetry[i]
            rows.append(("symmetry", spec.get("body"), i, sym,
                         "pass" if sym < tol else "fail"))
            residuals["symmetry"].append(sym)
        except SingularCurvature:
            rows.append(("singular", spec.get("body"), i, float("nan"),
                         "skipped"))
    for check, vals in residuals.items():
        if not vals:
            # singular at every direction: the check never ran
            state.record(spec.name, check, spec.get("body"), float("nan"),
                         "singular")
            if "singular" not in expected:
                state.undeclared_failure = True
            continue
        worst = max(vals)
        state.record(spec.name, check, spec.get("body"), worst,
                     "pass" if worst < tol else "fail")
    return ["check", "body", "u_index", "residual", "verdict"], rows, None


def run_report(spec, cfg, state, overrides):
    """Touch-point, half-volume and difference-body checks on one body."""
    G = cfg.body(spec.get("body"))
    K = cfg.resolve_k(spec, G)
    n, reps, seed = _qmc_opts(spec, overrides)
    expected = _expected(spec)
    xdir = direction_from(spec, G.dim)
    m = spec.get_int("points", 16)
    dirs = xdir[None, :] if xdir is not None else sphere_directions(G.dim, m)
    rows = []
    # every point's touch gauge and K's normal at xbar - x from one stacked
    # search of K; the normal of G at x is -ubar
    touches = analysis.touch_points(G, K, boundary_points(G, dirs))
    for i, touch in enumerate(touches):
        if isinstance(touch, NonUniqueContact):
            rows.append(("touch_contact", spec.get("body"), i, float("nan"),
                         "non_unique_contact"))
            state.record(spec.name, "touch_point", spec.get("body"),
                         float("nan"), "non_unique_contact")
            if "non_unique_contact" not in expected:
                state.undeclared_failure = True
            continue
        _, ubar, g, nu_k = touch
        rows.append(("touch_gauge", spec.get("body"), i, abs(g - 1.0),
                     "pass" if abs(g - 1.0) < 1e-6 else "fail"))
        mis = float(np.linalg.norm(nu_k - ubar))
        rows.append(("touch_normal", spec.get("body"), i, mis,
                     "pass" if mis < 1e-4 else "fail"))
    if xdir is None:
        hv = analysis.halfvolume_condition_check(
            G, K, m=spec.get_int("halfvolume_points", 8), n=n,
            replicates=reps, seed=seed)
        dev = max(abs(hv.max - 0.5), abs(hv.min - 0.5))
        rows.append(("halfvolume", spec.get("body"), -1, dev,
                     "pass" if dev <= hv.error_budget else "fail"))
        state.record(spec.name, "halfvolume", spec.get("body"), dev,
                     "pass" if dev <= hv.error_budget else "fail")
        k2g = analysis.k_equals_2g_check(G)
        rows.append(("k_equals_2g", spec.get("body"), -1, k2g.relative_spread,
                     "pass" if k2g.constant else "fail"))
        state.record(spec.name, "k_equals_2g", spec.get("body"),
                     k2g.relative_spread, "pass" if k2g.constant else "fail")
    return ["check", "body", "u_index", "residual", "verdict"], rows, None


RUNNERS = {
    "kdense": run_kdense,
    "asymptotic": run_asymptotic,
    "petty": run_petty,
    "identities": run_identities,
    "report": run_report,
}


def run(cfg, kinds=None, overrides=None, out_dir=None):
    """Execute the experiments of a config; returns the process exit code."""
    overrides = overrides or {}
    state = RunState()
    out = out_dir or cfg.output_dir
    os.makedirs(out, exist_ok=True)
    for spec in cfg.experiment_specs:
        if kinds is not None and spec.kind not in kinds:
            continue
        header, rows, plot = RUNNERS[spec.kind](spec, cfg, state, overrides)
        _write_csv(os.path.join(out, f"{spec.name}.csv"), header, rows)
        if plot:
            with open(os.path.join(out, f"{spec.name}.dat"), "w") as f:
                for eps, f_val in plot:
                    f.write(f"{eps!r} {f_val!r}\n")
    _write_csv(os.path.join(out, "summary.csv"),
               ["experiment", "check", "body", "value", "verdict"],
               state.summary)
    return 2 if state.undeclared_failure else 0


def _int_at_least(low):
    """An argparse type: an integer no smaller than low."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {low}, got {text!r}")
        return value
    return parse


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="kdense",
        description="Run numerical checks of the density characterization "
                    "of convex bodies.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "verify": None,
        "asymptotic": ("asymptotic",),
        "petty": ("petty",),
        "kdense": ("kdense",),
        "identities": ("identities", "report"),
    }
    for name in commands:
        p = sub.add_parser(name)
        p.add_argument("config")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--seed", type=_int_at_least(0), default=None,
                       help="seed override")
        p.add_argument("--samples", type=_int_at_least(MIN_QMC_POINTS),
                       default=None, help="qmc point-count override")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    overrides = {"seed": args.seed, "samples": args.samples}
    try:
        code = run(cfg, kinds=commands[args.command], overrides=overrides,
                   out_dir=args.out)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())

"""The four benchmark workloads.

A workload is a class.  Its constructor builds the bodies and inputs from
the seed (part of ``setup_s``), ``run(parts)`` makes every kdense call of
one pass through ``parts.call`` and returns the raw outcomes, and
``check()`` compares those outcomes with oracles and closed forms outside
the timed region.  Expected values never come from the code under test.
``parts`` (``worker.Parts``) times each call on its own.

Importing this module imports kdense, so the worker imports it inside the
set-up timer.
"""

import math
import os

import numpy as np

from kdense import analysis, asymptotics, bodies, errors, measure, oracles


class Outcome:
    """Result of one kdense call: its value, or the exception it raised."""

    def __init__(self, fn, *args, **kwargs):
        self.error = None
        try:
            self._value = fn(*args, **kwargs)
        except Exception as e:  # a failed call is judged by the checks
            self.error = e

    @property
    def value(self):
        if self.error is not None:
            raise self.error
        return self._value


class Checks:
    """Verdicts compared with oracles; an exception counts as a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def add(self, name, fn):
        """Record the check(s) ``fn()`` decides: a bool or a bool array."""
        try:
            ok = np.asarray(fn(), dtype=bool)
        except Exception as e:
            ok, name = np.zeros(1, dtype=bool), f"{name}: {e!r}"
        self.attempted += max(ok.size, 1)
        bad = ok.size - int(np.count_nonzero(ok))
        if bad:
            self.failed += bad
            self.failures.append(f"{name} ({bad} of {ok.size})")


# ---------------------------------------------------------------------------

class OverlapQMC:
    """QMC overlap verdicts through the generic gauge of K = G - G."""

    sizes = {
        "full": dict(radii=(0.1, 0.5, 0.9), m=16, n=2 ** 14, replicates=4,
                     rungs=6, ladder_n=2 ** 15),
        "smoke": dict(radii=(0.5,), m=16, n=2 ** 10, replicates=2,
                      rungs=4, ladder_n=2 ** 11),
    }

    def __init__(self, seed, size):
        self.seed = seed
        self.p = self.sizes[size]
        self.G = bodies.Ellipsoid.from_semiaxes(2.0, 1.0)
        self.K = bodies.difference_body(self.G)
        self.Gs = bodies.Superellipse2D(4.0)
        self.Ks = bodies.difference_body(self.Gs)

    def run(self, parts):
        p, qmc = self.p, dict(n=self.p["n"], replicates=self.p["replicates"],
                              seed=self.seed)
        out = {r: parts.call(analysis.kdense_spread, self.G, self.K, r,
                             m=p["m"], **qmc)
               for r in p["radii"]}
        out["superellipse"] = parts.call(analysis.kdense_spread, self.Gs,
                                         self.Ks, 0.5, m=p["m"], **qmc)
        out["flat"] = parts.call(asymptotics.large_r_coefficient_numeric,
                                 self.Gs, self.Ks, np.array([1.0, 0.0]),
                                 eps0=0.1, rungs=p["rungs"], n=p["ladder_n"],
                                 replicates=p["replicates"], seed=self.seed)
        return out

    def check(self, out, checks):
        for r in self.p["radii"]:
            # affine invariance: the ellipse (2, 1) with K = 2G maps to the
            # unit disk with a radius-2 probe, scaled by the area factor 2
            oracle = 2.0 * oracles.disk_lens_area(1.0, 2.0 * r, 1.0)
            rep = out[r]
            checks.add(f"ellipse r={r} constant", lambda: rep.value.constant)
            checks.add(f"ellipse r={r} vs lens oracle",
                       lambda: np.abs(rep.value.values - oracle) / oracle
                       <= rep.value.error_budget)
        sup = out["superellipse"]
        checks.add("superellipse not constant",
                   lambda: not sup.value.constant
                   and sup.value.relative_spread > 1e-2)
        flat = out["flat"]
        checks.add("superellipse axis raises FlatContact",
                   lambda: isinstance(flat.error, errors.FlatContact)
                   and abs(flat.error.fit.exponent - 1.25) < 0.05)


class CurvatureBatch:
    """Per-direction curvature loops: identities, Petty ratio, quadrature."""

    sizes = {
        "full": dict(pairs=100, directions=100, petty=256, symmetry=1024,
                     quadrature=None),
        "smoke": dict(pairs=2, directions=4, petty=32, symmetry=16,
                      quadrature=None),
    }

    def __init__(self, seed, size):
        self.p = p = self.sizes[size]
        self.sweeps = []
        for dim in (2, 3):
            rng = np.random.default_rng([seed, dim])
            U = bodies.sphere_directions(dim, p["directions"])
            pairs = []
            for _ in range(p["pairs"]):
                M = rng.normal(size=(dim, dim))
                A = bodies.Ellipsoid(M @ M.T + 0.3 * np.eye(dim))
                M = rng.normal(size=(dim, dim))
                B = bodies.Ellipsoid(M @ M.T + 0.3 * np.eye(dim))
                pairs.append((A, B, bodies.difference_body(A)))
            self.sweeps.append((U, pairs))
        self.ellipse = bodies.Ellipsoid.from_semiaxes(2.0, 1.0)
        self.superellipse = bodies.Superellipse2D(4.0)
        self.ellipsoid = bodies.Ellipsoid.from_semiaxes(1.5, 1.0, 0.8)
        self.fourier = bodies.FourierBody2D([1.0, 0.0, 0.0, 0.1])
        self.quadrature_bodies = {
            "ellipsoid": (self.ellipsoid, 4.0 * math.pi * 1.2 / 3.0),
            # G - G = 2G for a centred body: eight times the volume
            "difference body": (bodies.difference_body(self.ellipsoid),
                                8.0 * 4.0 * math.pi * 1.2 / 3.0),
            # pi a0^2 + (pi/2) sum (1 - k^2)(a_k^2 + b_k^2) = 0.96 pi
            "fourier": (self.fourier, 0.96 * math.pi),
        }

    def run(self, parts):
        residuals = [[parts.call(_pair_residuals, A, B, K, U)
                      for A, B, K in pairs] for U, pairs in self.sweeps]
        p = self.p
        return {
            "residuals": residuals,
            "petty_ellipse": parts.call(analysis.petty_check, self.ellipse,
                                        m=p["petty"]),
            "petty_superellipse": parts.call(analysis.petty_check,
                                             self.superellipse, m=p["petty"]),
            "symmetry": parts.call(analysis.curvature_symmetry_check,
                                   self.ellipsoid, m=p["symmetry"]),
            "quadrature": {name: parts.call(measure.volume_quadrature, body,
                                            n=p["quadrature"])
                           for name, (body, _) in
                           self.quadrature_bodies.items()},
        }

    def check(self, out, checks):
        for dim, rows in zip((2, 3), out["residuals"]):
            checks.add(f"{dim}D shape operator residuals < 1e-8",
                       lambda: np.stack([r.value for r in rows]) < 1e-8)
        pe, ps = out["petty_ellipse"], out["petty_superellipse"]
        # kappa / h^3 = 1 / (a b)^2 on the ellipse (2, 1)
        checks.add("ellipse Petty mean 1/4",
                   lambda: abs(pe.value.mean - 0.25) < 1e-9)
        checks.add("ellipse Petty spread",
                   lambda: pe.value.relative_spread < 1e-6)
        checks.add("superellipse Petty spread",
                   lambda: ps.value.relative_spread > 0.10)
        sym = out["symmetry"]
        # a centred ellipsoid is symmetric: kappa(u) = kappa(-u) everywhere
        checks.add("ellipsoid antipodal curvature",
                   lambda: sym.value[0] < 1e-9 and sym.value[1] == 0)
        for name, (_, exact) in self.quadrature_bodies.items():
            res = out["quadrature"][name]
            checks.add(f"{name} quadrature volume",
                       lambda: abs(res.value.value - exact) < 1e-5 * exact)


def _pair_residuals(A, B, K, U):
    """Both shape-operator residuals of one ellipsoid pair at each u in U."""
    res = np.full((len(U), 2), np.nan)
    try:
        for j, u in enumerate(U):
            res[j, 0] = analysis.krantz_parks_check(A, B, u)
            res[j, 1] = analysis.kp1_check(A, u, K=K)
    except Exception:  # the NaN left behind fails the check
        pass
    return res


def _quadric_gauge(p, Q, c):
    """Closed-form gauge about the origin of {y : (y-c)' Q^-1 (y-c) <= 1}."""
    Qinv = np.linalg.inv(Q)
    a = 1.0 - c @ Qinv @ c
    b = p @ Qinv @ c
    q = p @ Qinv @ p
    return (-b + math.sqrt(b * b + a * q)) / a


def _fourier_point(a, u):
    """Boundary point with normal u of h(t) = sum a_k cos(k t)."""
    t = math.atan2(u[1], u[0])
    k = np.arange(len(a))
    h = float(np.cos(k * t) @ a)
    dh = float(-np.sin(k * t) @ (k * a))
    return h * np.array([math.cos(t), math.sin(t)]) + \
        dh * np.array([-math.sin(t), math.cos(t)])


class ContactSearch:
    """Touch points, normals and circumscribed ratios (sphere searches)."""

    sizes = {
        "full": dict(points=16, samples_3d=1024, ratio_2d=4, ratio_3d=2),
        "smoke": dict(points=2, samples_3d=64, ratio_2d=1, ratio_3d=2),
    }

    def __init__(self, seed, size):
        self.p = p = self.sizes[size]
        fourier = [1.0, 0.0, 0.0, 0.1]
        # each body with an independent boundary oracle: the closed-form
        # gauge of xbar, or (Fourier) the closed-form boundary point
        zoo = [
            ("disk", bodies.Ball(1.0), ("quadric", np.eye(2), np.zeros(2))),
            ("off-centre disk", bodies.Ball(1.0, center=[0.3, 0.0]),
             ("quadric", np.eye(2), np.array([0.3, 0.0]))),
            ("ellipse", bodies.Ellipsoid.from_semiaxes(2.0, 1.0),
             ("quadric", np.diag([4.0, 1.0]), np.zeros(2))),
            ("superellipse", bodies.Superellipse2D(4.0), ("pnorm", 4.0)),
            ("fourier", bodies.FourierBody2D(fourier),
             ("fourier", np.array(fourier))),
            ("ellipsoid", bodies.Ellipsoid.from_semiaxes(1.5, 1.0, 0.8),
             ("quadric", np.diag([2.25, 1.0, 0.64]), np.zeros(3))),
        ]
        self.zoo = []
        for name, G, oracle in zoo:
            U = bodies.sphere_directions(G.dim, p["points"])
            self.zoo.append((name, G, bodies.difference_body(G), U,
                             bodies.boundary_points(G, U), oracle))
        self.wheel = bodies.ReuleauxTriangle2D(1.0)
        self.wheel_k = bodies.difference_body(self.wheel)
        self.ratio_cases = []
        for G, k in ((bodies.Ellipsoid.from_semiaxes(2.0, 1.0), p["ratio_2d"]),
                     (bodies.Ellipsoid.from_semiaxes(1.5, 1.0, 0.8),
                      p["ratio_3d"])):
            K = bodies.difference_body(G)
            X = bodies.boundary_points(G, bodies.sphere_directions(G.dim, k))
            self.ratio_cases.append((G, K, X))

    def run(self, parts):
        touches = []
        for name, G, K, U, X, _ in self.zoo:
            samples = self.p["samples_3d"] if G.dim == 3 else None
            touches.append([(parts.call(analysis.touch_point, G, K, x,
                                        samples=samples),
                             parts.call(bodies.normal_at, G, x)) for x in X])
        wheel = parts.call(analysis.touch_point, self.wheel, self.wheel_k,
                           self.wheel.vertices[0])
        ratios = [parts.call(measure.circumscribed_ratio, G, K, x,
                             samples=self.p["samples_3d"] if G.dim == 3
                             else None)
                  for G, K, X in self.ratio_cases for x in X]
        return {"touches": touches, "wheel": wheel, "ratios": ratios}

    def check(self, out, checks):
        for (name, G, K, U, X, oracle), row in zip(self.zoo, out["touches"]):
            for u_true, (touch, nu) in zip(U, row):
                # x was generated with outward normal u_true, so the touch
                # direction must be -u_true and xbar must lie on the boundary
                checks.add(f"{name} touch point on boundary",
                           lambda: _on_boundary(oracle, *touch.value))
                checks.add(f"{name} touch direction",
                           lambda: abs(touch.value[1] @ u_true + 1.0) < 1e-6)
                checks.add(f"{name} normal_at",
                           lambda: abs(nu.value @ u_true - 1.0) < 1e-6)
        wheel = out["wheel"]
        checks.add("Reuleaux vertex raises NonUniqueContact",
                   lambda: isinstance(wheel.error, errors.NonUniqueContact))
        for ratio in out["ratios"]:
            # G - G = 2G for a centred ellipsoid: the antipode is at gauge 1
            checks.add("circumscribed ratio of G - G is 1",
                       lambda: abs(ratio.value - 1.0) < 1e-6)


def _on_boundary(oracle, xbar, u):
    kind = oracle[0]
    if kind == "quadric":
        return abs(_quadric_gauge(xbar, oracle[1], oracle[2]) - 1.0) < 1e-6
    if kind == "pnorm":
        p = oracle[1]
        return abs(float(np.sum(np.abs(xbar) ** p)) ** (1.0 / p) - 1.0) < 1e-6
    return float(np.linalg.norm(xbar - _fourier_point(oracle[1], u))) < 1e-6


class VerifyCLI:
    """``kdense verify configs/verify.cfg`` into a scratch directory."""

    # verdicts the theory fixes for the shipped config's bodies (ellipse
    # (2, 1), unit disk in a radius-2 ball): K-dense, strictly convex,
    # symmetric
    expected = {
        ("overlap_spread", "kdense_spread(r=0.3)"): "constant",
        ("overlap_spread", "kdense_spread(r=0.6)"): "constant",
        ("deficit_decay", "large_r_exponent"): "power_law",
        ("deficit_decay", "closed_vs_numeric"): "pass",
        ("curvature_support_ratio", "petty_ratio_spread"): "constant",
        ("shape_operator_identities", "krantz_parks"): "pass",
        ("shape_operator_identities", "kp1"): "pass",
        ("shape_operator_identities", "symmetry"): "pass",
        ("contact_and_cuts", "halfvolume"): "pass",
        ("contact_and_cuts", "k_equals_2g"): "pass",
    }
    sizes = {"full": [], "smoke": ["--samples", "1024"]}

    def __init__(self, seed, size, config, out_dir):
        from kdense import cli
        self.main = cli.main
        self.out_dir = out_dir
        self.argv = ["verify", config, "--out", out_dir,
                     "--seed", str(seed)] + self.sizes[size]

    def run(self, parts):
        return parts.call(self.main, self.argv)

    def check(self, out, checks):
        checks.add("verify exits with 0", lambda: out.value == 0)
        rows = {}
        try:
            with open(os.path.join(self.out_dir, "summary.csv")) as f:
                next(f)
                for line in f:
                    experiment, check, _body, _value, verdict = \
                        line.rstrip("\n").split(",")
                    rows[(experiment, check)] = verdict
        except OSError:
            pass  # every expected verdict below then fails
        for key in sorted(set(rows) | set(self.expected)):
            checks.add(f"{key[0]} {key[1]} is {self.expected.get(key)}",
                       lambda: rows.get(key) == self.expected.get(key))


WORKLOADS = {
    "overlap_qmc": OverlapQMC,
    "curvature_batch": CurvatureBatch,
    "contact_search": ContactSearch,
    "verify_cli": VerifyCLI,
}

"""Experiment configuration: a diff-friendly INI schema, no code execution.

One ``[body <name>]`` section per body, one ``[experiment <name>]`` section
per experiment, and an optional ``[output]`` section.  All sample counts
and seeds are explicit in the file so runs are reproducible.
"""

import configparser

import numpy as np

from . import bodies
from .errors import ConfigError

BODY_KINDS = ("ball", "ellipsoid", "superellipse", "fourier", "reuleaux",
              "difference", "dilate", "translate", "reflect", "minkowski_sum")
EXPERIMENT_KINDS = ("kdense", "asymptotic", "petty", "identities", "report")
MIN_QMC_POINTS = 256  # below it a QMC error budget outgrows any spread


class BodySpec:
    def __init__(self, name, kind, options):
        self.name = name
        self.kind = kind
        self.options = options


class ExperimentSpec:
    def __init__(self, name, kind, options):
        self.name = name
        self.kind = kind
        self.options = options

    def get(self, key, default=None):
        return self.options.get(key, default)

    def get_float(self, key, default):
        try:
            return float(self.options.get(key, default))
        except ValueError as e:
            raise ConfigError(f"experiment {self.name}: bad value for "
                              f"key '{key}'") from e

    def get_int(self, key, default):
        try:
            return int(self.options.get(key, default))
        except ValueError as e:
            raise ConfigError(f"experiment {self.name}: bad value for "
                              f"key '{key}'") from e

    def get_floats(self, key, default):
        raw = self.options.get(key)
        if raw is None:
            return list(default)
        try:
            return [float(tok) for tok in raw.split()]
        except ValueError as e:
            raise ConfigError(f"experiment {self.name}: bad value for "
                              f"key '{key}'") from e


class ExperimentConfig:
    def __init__(self, body_specs, experiment_specs, output_dir):
        self.body_specs = body_specs
        self.experiment_specs = experiment_specs
        self.output_dir = output_dir
        self._built = {}

    def body(self, name):
        if name not in self.body_specs:
            raise ConfigError(f"unknown body '{name}'")
        if name not in self._built:
            self._built[name] = _build_body(self.body_specs[name], self)
        return self._built[name]

    def resolve_k(self, spec, G):
        """The probe body of an experiment: a named body or 'difference'."""
        kname = spec.get("k", "difference")
        if kname == "difference":
            return bodies.difference_body(G)
        return self.body(kname)


def load_config(path):
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
        sections = [(s, dict(parser.items(s))) for s in parser.sections()]
    except configparser.Error as e:
        # a repeated key, a key before any section, a stray '%'
        raise ConfigError(f"cannot parse config file '{path}': {e}") from e
    if not read:
        raise ConfigError(f"cannot read config file '{path}'")
    body_specs = {}
    experiment_specs = []
    output_dir = "out"
    for section, opts in sections:
        if section == "output":
            output_dir = opts.get("directory", output_dir)
            continue
        parts = section.split(None, 1)
        if len(parts) != 2 or parts[0] not in ("body", "experiment"):
            raise ConfigError(f"unrecognized section '[{section}]'")
        label, name = parts
        kind = opts.pop("kind", None)
        if kind is None:
            raise ConfigError(f"section '[{section}]' is missing the key 'kind'")
        if label == "body":
            if kind not in BODY_KINDS:
                raise ConfigError(f"body {name}: unknown kind '{kind}'")
            body_specs[name] = BodySpec(name, kind, opts)
        else:
            if kind not in EXPERIMENT_KINDS:
                raise ConfigError(f"experiment {name}: unknown kind '{kind}'")
            spec = ExperimentSpec(name, kind, opts)
            _validate_experiment(spec)
            experiment_specs.append(spec)
    cfg = ExperimentConfig(body_specs, experiment_specs, output_dir)
    # fail fast on dangling body references and bad directions
    for spec in experiment_specs:
        direction_from(spec, cfg.body(spec.get("body")).dim)
        k = spec.get("k", "difference")
        if k != "difference":
            cfg.body(k)
    return cfg


def _validate_experiment(spec):
    if spec.get("body") is None:
        raise ConfigError(f"experiment {spec.name}: missing key 'body'")
    # error budgets need two replicates and MIN_QMC_POINTS points, a spread
    # 8 boundary points and a power-law fit 4 ladder rungs
    least = {"replicates": 2, "points": 8 if spec.kind == "kdense" else 1,
             "rungs": 4, "qmc_points": MIN_QMC_POINTS}
    for key in ("points", "qmc_points", "replicates", "directions", "rungs",
                "halfvolume_points"):
        if key in spec.options and spec.get_int(key, 0) < least.get(key, 1):
            raise ConfigError(f"experiment {spec.name}: key '{key}' must be "
                              f"at least {least.get(key, 1)}")
    if "seed" in spec.options and spec.get_int("seed", 0) < 0:
        raise ConfigError(f"experiment {spec.name}: key 'seed' must be "
                          "non-negative")
    # NaN fails every comparison, so each check asks for the good range
    if not all(np.isfinite(r) and r > 0.0 for r in spec.get_floats("r", ())):
        raise ConfigError(f"experiment {spec.name}: key 'r' must hold finite "
                          "positive radii")
    if "eps0" in spec.options and not 0.0 < spec.get_float("eps0", 0.1) < 1.0:
        raise ConfigError(f"experiment {spec.name}: key 'eps0' must lie "
                          "strictly between 0 and 1")
    for key in ("budget", "tol"):
        v = spec.get_float(key, 1.0)
        if not (np.isfinite(v) and v > 0.0):
            raise ConfigError(f"experiment {spec.name}: key '{key}' must be "
                              "finite and positive")


def _floats(text, name, key):
    try:
        return [float(tok) for tok in text.split()]
    except ValueError as e:
        raise ConfigError(f"body {name}: bad value for key '{key}'") from e


def _build_body(spec, cfg):
    name, kind, o = spec.name, spec.kind, spec.options
    try:
        if kind == "ball":
            center = _floats(o["center"], name, "center") if "center" in o else None
            dim = int(o.get("dimension", 2))
            return bodies.Ball(float(o.get("radius", 1.0)), center=center, dim=dim)
        if kind == "ellipsoid":
            if "semiaxes" not in o:
                raise ConfigError(f"body {name}: missing key 'semiaxes'")
            axes = _floats(o["semiaxes"], name, "semiaxes")
            center = _floats(o["center"], name, "center") if "center" in o else None
            return bodies.Ellipsoid.from_semiaxes(*axes, center=center)
        if kind == "superellipse":
            return bodies.Superellipse2D(float(o.get("exponent", 4.0)))
        if kind == "fourier":
            if "cos" not in o:
                raise ConfigError(f"body {name}: missing key 'cos'")
            cos = _floats(o["cos"], name, "cos")
            sin = _floats(o["sin"], name, "sin") if "sin" in o else None
            return bodies.FourierBody2D(cos, sin)
        if kind == "reuleaux":
            return bodies.ReuleauxTriangle2D(float(o.get("width", 1.0)))
        if kind == "difference":
            return bodies.difference_body(cfg.body(o["of"]))
        if kind == "dilate":
            return bodies.Dilate(cfg.body(o["of"]), float(o["factor"]))
        if kind == "translate":
            return bodies.Translate(cfg.body(o["of"]),
                                    _floats(o["vector"], name, "vector"))
        if kind == "reflect":
            return bodies.Dilate(cfg.body(o["of"]), -1.0)
        if kind == "minkowski_sum":
            return bodies.MinkowskiSum(cfg.body(o["left"]), cfg.body(o["right"]))
    except KeyError as e:
        raise ConfigError(f"body {name}: missing key '{e.args[0]}'") from e
    except ValueError as e:
        raise ConfigError(f"body {name}: {e}") from e
    raise ConfigError(f"body {name}: unknown kind '{kind}'")


def direction_from(spec, dim, key="x_direction"):
    """The unit vector of a direction key, or None when the key is absent."""
    if spec.get(key) is None:
        return None
    vals = np.array(spec.get_floats(key, ()))
    if vals.shape[0] != dim:
        raise ConfigError(f"experiment {spec.name}: key '{key}' has wrong "
                          "dimension")
    norm = np.linalg.norm(vals)
    if not (np.isfinite(vals).all() and norm > 0.0):
        raise ConfigError(f"experiment {spec.name}: key '{key}' must be a "
                          "finite nonzero vector")
    return vals / norm

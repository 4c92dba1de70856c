"""Outside-in tracer: wraps kdense's public functions and methods in spans.

Nothing inside the package is edited.  ``Tracer.install()`` replaces every
public function of the traced modules (and every reference other kdense
modules or dispatch tables hold to it) with a wrapper that records a span,
and ``Tracer.uninstall()`` puts the originals back.

Each span has a name, a start, an end and the span that caused it.  Spans
of the coarse layers (analysis, asymptotics, cli, config, measure) are kept
one by one; the hot leaf calls of ``bodies`` and ``oracles`` (hundreds of
thousands per pass) are aggregated per (function, parent).  A layer's self
time is its span's duration minus the time covered by its child spans.
Everything stays in memory until ``dump``.
"""

import functools
import importlib
import inspect
import time

import numpy as np

MODULES = ("bodies", "measure", "analysis", "asymptotics", "cli", "config",
           "oracles")
# layers whose calls are aggregated per (function, parent) instead of kept
AGGREGATED = ("bodies", "oracles")
# ConvexBody methods that count as the body layer's public interface
BODY_METHODS = ("support_hom", "support", "gradient_hom", "hessian_hom",
                "gauge_many", "gauge_argmax", "contains")
# subclasses whose gauge_many only forwards to the wrapped body
DELEGATING_GAUGES = ("Dilate", "Reflect")
# QMC volume routes, reported together as measure.qmc
QMC_FUNCTIONS = ("intersection_volume", "deficit_volume",
                 "halfspace_cut_volume", "volume_qmc")


def _rows(a):
    """Row count of an array-like argument (1 for a single vector)."""
    shape = getattr(a, "shape", None)
    if shape is None:
        shape = np.shape(a)
    return shape[0] if len(shape) == 2 else 1


class Tracer:
    def __init__(self):
        self.stack = []     # open spans: [name, child_s, kept span id]
        # (name, parent name) -> [calls, total_s, self_s, rows]
        self.edges = {}
        self.spans = []     # kept spans: (id, parent id, name, start, end)
        self.raised = {}    # (name, exception class) -> count
        self.replicates = 0  # Sobol stream lookups made by the QMC routes
        self._next_id = 1
        self._undo = []

    # -- recording ----------------------------------------------------------

    def wrap(self, name, fn, rows_arg=None, keep=True, on_result=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``rows_arg`` is the positional index of the argument whose row
        count is the work count; ``on_result(args, kwargs, result)`` may
        return a work count instead.
        """
        stack, edges, clock = self.stack, self.edges, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if keep:
                span_id = self._next_id
                self._next_id += 1
            else:
                # aggregated spans pass their kept ancestor down
                span_id = parent[2] if parent is not None else 0
            frame = [name, 0.0, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                key = (name, type(exc).__name__)
                self.raised[key] = self.raised.get(key, 0) + 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                pname = None
                if parent is not None:
                    parent[1] += dur
                    pname = parent[0]
                if keep:
                    self.spans.append((span_id, parent[2] if parent else 0,
                                       name, t0, t1))
                e = edges.get((name, pname))
                if e is None:
                    e = edges[(name, pname)] = [0, 0.0, 0.0, 0]
                e[0] += 1
                e[1] += dur
                e[2] += dur - frame[1]
            if on_result is not None:
                e[3] += on_result(args, kwargs, result)
            elif rows_arg is not None:
                e[3] += _rows(args[rows_arg])
            return result

        return traced

    # -- installing ---------------------------------------------------------

    def install(self):
        mods = {m: importlib.import_module(f"kdense.{m}") for m in MODULES}
        pkg = importlib.import_module("kdense")
        replaced = {}
        for short, mod in mods.items():
            keep = short not in AGGREGATED
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                replaced[id(fn)] = self.wrap(
                    f"{short}.{attr}", fn, keep=keep,
                    on_result=self._result_counter(short, attr, fn))
        self._wrap_body_methods(mods["bodies"])
        self._wrap_sobol(mods["measure"])
        # rebind every reference kdense holds to a wrapped function,
        # including dispatch tables such as cli.RUNNERS
        for mod in (pkg, *mods.values()):
            for attr, val in list(vars(mod).items()):
                if id(val) in replaced:
                    self._set(mod, attr, replaced[id(val)])
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if id(v) in replaced:
                            self._set_item(val, k, replaced[id(v)])
        return self

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    def _set(self, obj, attr, value):
        # a class attribute is read raw, so a function is not bound
        old = vars(obj)[attr] if isinstance(obj, type) else getattr(obj, attr)
        setattr(obj, attr, value)
        self._undo.append(lambda: setattr(obj, attr, old))

    def _set_item(self, d, key, value):
        old = d[key]
        d[key] = value
        self._undo.append(lambda: d.__setitem__(key, old))

    def _result_counter(self, short, attr, fn):
        if short == "measure" and attr in QMC_FUNCTIONS:
            sig = inspect.signature(fn)

            def count(args, kwargs, result):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.replicates += int(bound.arguments["replicates"])
                return result.sample_count
            return count
        if short == "measure" and attr == "volume_quadrature":
            return lambda args, kwargs, result: result.sample_count
        return None

    def _wrap_body_methods(self, bodies):
        base = bodies.ConvexBody
        classes = [c for c in vars(bodies).values()
                   if isinstance(c, type) and issubclass(c, base)]
        for cls in classes:
            for meth in BODY_METHODS:
                fn = cls.__dict__.get(meth)
                if fn is None:
                    continue
                if meth == "gauge_many" and cls is not base:
                    if cls.__name__ in DELEGATING_GAUGES:
                        continue
                    name = "bodies.gauge_many_closed"
                elif meth == "gauge_many":
                    name = "bodies.gauge_many_generic"
                else:
                    name = f"bodies.{meth}"
                rows = 1 if meth in ("support_hom", "gradient_hom",
                                     "gauge_many", "contains") else None
                self._set(cls, meth, self.wrap(name, fn, rows_arg=rows,
                                               keep=False))

    def _wrap_sobol(self, measure):
        """Count Sobol engines and the points they draw.

        ``measure`` reaches scipy through its module attribute ``qmc``; a
        stand-in namespace replaces that attribute only, so scipy itself
        is left as it is.
        """
        real = measure.qmc
        tracer = self
        draw_rows = lambda args, kwargs, result: _rows(result)

        class TracedQMC:
            def __getattr__(self, attr):
                return getattr(real, attr)

        def sobol(*args, **kwargs):
            eng = real.Sobol(*args, **kwargs)
            for meth in ("random_base2", "random"):
                setattr(eng, meth, tracer.wrap("measure.sobol.draw",
                                               getattr(eng, meth),
                                               on_result=draw_rows))
            return eng

        proxy = TracedQMC()
        proxy.Sobol = self.wrap("measure.sobol.init", sobol)
        self._set(measure, "qmc", proxy)

    # -- reading ------------------------------------------------------------

    def totals(self, name):
        """(calls, total_s, self_s, rows) of one span name over all parents."""
        out = [0, 0.0, 0.0, 0]
        for (n, _), e in self.edges.items():
            if n == name:
                for i in range(4):
                    out[i] += e[i]
        return out

    def dump(self):
        return {
            "spans": [{"id": i, "parent": p, "name": n, "start": a, "end": b}
                      for i, p, n, a, b in self.spans],
            "edges": [{"name": n, "parent": p, "calls": e[0], "total_s": e[1],
                       "self_s": e[2], "rows": e[3]}
                      for (n, p), e in sorted(self.edges.items(),
                                              key=lambda kv: -kv[1][2])],
            "raised": [{"name": n, "exception": x, "count": c}
                       for (n, x), c in sorted(self.raised.items())],
        }


# ---------------------------------------------------------------------------
# per-layer metrics: (name, unit, better)

def _stats(prefix, stats):
    units = {"calls": ("count", "lower"), "rows": ("count", "lower"),
             "self_s": ("s", "lower")}
    return [(f"{prefix}.{s}",) + units[s] for s in stats]


LAYER_METRICS = (
    _stats("bodies.gauge_many_generic", ("calls", "rows", "self_s"))
    + _stats("bodies.gauge_many_closed", ("calls", "rows", "self_s"))
    + [m for f in ("support_hom", "gradient_hom", "contains")
       for m in _stats(f"bodies.{f}", ("calls", "rows", "self_s"))]
    + [m for f in ("bodies.hessian_hom", "bodies.curvature",
                   "bodies.gauge_argmax", "measure.circumscribed_ratio",
                   "measure.gauge", "analysis.touch_point")
       for m in _stats(f, ("calls", "self_s"))]
    + [("bodies.curvature.singular", "ratio", "lower"),
       ("measure.qmc.calls", "count", "lower"),
       ("measure.qmc.points", "count", "lower"),
       ("measure.qmc.self_s", "s", "lower"),
       ("measure.qmc.points_per_s", "1/s", "higher"),
       ("measure.sobol.generated", "count", "lower"),
       ("measure.sobol.self_s", "s", "lower"),
       ("measure.sobol.cache_hit_frac", "ratio", "higher"),
       ("measure.volume_quadrature.calls", "count", "lower"),
       ("measure.volume_quadrature.nodes", "count", "lower"),
       ("measure.volume_quadrature.self_s", "s", "lower")]
    + [m for f in ("kdense_spread", "petty_check", "krantz_parks_check",
                   "kp1_check", "curvature_symmetry_check",
                   "halfvolume_condition_check", "k_equals_2g_check")
       for m in _stats(f"analysis.{f}", ("calls", "self_s"))]
    + [m for f in ("large_r_coefficient_numeric", "deficit_ladder",
                   "fit_power_law", "large_r_limit_closed")
       for m in _stats(f"asymptotics.{f}", ("calls", "self_s"))]
    + [(f"cli.{f}.self_s", "s", "lower")
       for f in ("run", "run_kdense", "run_asymptotic", "run_petty",
                 "run_identities", "run_report")]
    + [("config.load_config.self_s", "s", "lower"),
       ("oracles.calls", "count", "lower"),
       ("oracles.self_s", "s", "lower"),
       ("process.cpu_s", "s", "lower"),
       ("trace.overhead_s", "s", "lower")]
)


def layer_metrics(tracer, cpu_s):
    """Per-layer metric values of one traced pass, except trace.overhead_s."""
    out = {"process.cpu_s": cpu_s}
    for name, _, _ in LAYER_METRICS:
        prefix, stat = name.rsplit(".", 1)
        if stat in ("calls", "rows", "self_s") and prefix.count(".") == 1 \
                and not prefix.startswith(("measure.qmc", "measure.sobol")):
            calls, _, self_s, rows = tracer.totals(prefix)
            out[name] = {"calls": calls, "rows": rows, "self_s": self_s}[stat]
    calls = tracer.totals("bodies.curvature")[0]
    singular = tracer.raised.get(("bodies.curvature", "SingularCurvature"), 0)
    out["bodies.curvature.singular"] = singular / calls if calls else 0.0
    qmc = [tracer.totals(f"measure.{f}") for f in QMC_FUNCTIONS]
    total_s = sum(q[1] for q in qmc)
    out["measure.qmc.calls"] = sum(q[0] for q in qmc)
    out["measure.qmc.points"] = sum(q[3] for q in qmc)
    out["measure.qmc.self_s"] = sum(q[2] for q in qmc)
    out["measure.qmc.points_per_s"] = (out["measure.qmc.points"] / total_s
                                       if total_s else 0.0)
    init = tracer.totals("measure.sobol.init")
    draw = tracer.totals("measure.sobol.draw")
    out["measure.sobol.generated"] = draw[3]
    out["measure.sobol.self_s"] = init[2] + draw[2]
    out["measure.sobol.cache_hit_frac"] = (1.0 - init[0] / tracer.replicates
                                           if tracer.replicates else 0.0)
    out["measure.volume_quadrature.nodes"] = \
        tracer.totals("measure.volume_quadrature")[3]
    oracle = [e for (n, _), e in tracer.edges.items()
              if n.startswith("oracles.")]
    out["oracles.calls"] = sum(e[0] for e in oracle)
    out["oracles.self_s"] = sum(e[2] for e in oracle)
    return out

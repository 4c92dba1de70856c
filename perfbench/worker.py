"""One cold pass of a workload in a fresh interpreter.

Started by ``run.py`` with kdense's source tree first on PYTHONPATH.  Prints
one JSON line: set-up time, pass time, the time of each part of the pass,
the host's speed around each of them (``reference_s``), peak memory, check
counts and, when traced, the per-layer metrics.  Each pass runs in its own
process, so Sobol streams, gauge grids and every other cache start empty,
as they do for a ``kdense verify`` invocation.
"""

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time


def reference_s():
    """Median of three timings of a fixed pure-Python loop, in seconds.

    Taken between the timed parts of a pass, it tracks how fast the host
    runs this process at that moment: on a shared host, contention from
    other tenants slows the loop and the kdense calls alike.
    """
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        x = 0
        for i in range(5000):
            x += i * i
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


class Parts:
    """Times the kdense calls of one pass, one by one, in pass order.

    ``ref_s`` holds one ``reference_s()`` before the first part and one
    after each part, so part i lies between ``ref_s[i]`` and ``ref_s[i+1]``.
    ``cpu_s`` is the CPU time of the parts alone.
    """

    def __init__(self, outcome):
        self.outcome = outcome
        self.seconds = []
        self.cpu_s = 0.0
        self.ref_s = [reference_s()]

    def call(self, fn, *args, **kwargs):
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        out = self.outcome(fn, *args, **kwargs)
        self.seconds.append(time.perf_counter() - t0)
        self.cpu_s += _cpu_s() - cpu0
        self.ref_s.append(reference_s())
        return out


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _versions():
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    scratch = os.path.join(args.root, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    # verify_cli writes its CSVs here, never into the repository's out/
    out_dir = tempfile.mkdtemp(prefix="verify_", dir=scratch)
    try:
        ref0 = reference_s()
        t0 = time.perf_counter()
        import kdense
        from workloads import WORKLOADS, Checks, Outcome
        cls = WORKLOADS[args.workload]
        if args.workload == "verify_cli":
            wl = cls(args.seed, args.size,
                     os.path.join(args.root, "configs", "verify.cfg"), out_dir)
        else:
            wl = cls(args.seed, args.size)
        setup_s = time.perf_counter() - t0
        setup_ref_s = [ref0, reference_s()]
        src = os.path.realpath(os.path.join(args.root, "src"))
        if not os.path.realpath(kdense.__file__).startswith(src + os.sep):
            print(f"kdense imported from {kdense.__file__}, not {src}",
                  file=sys.stderr)
            return 3
        result = {"setup_s": setup_s, "setup_ref_s": setup_ref_s,
                  "versions": _versions()}
        if args.setup_only:
            print(json.dumps(result))
            return 0
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer().install()
        parts = Parts(Outcome)
        t1 = time.perf_counter()
        out = wl.run(parts)
        wall_s = time.perf_counter() - t1
        cpu_s = parts.cpu_s
        if tracer is not None:
            tracer.uninstall()
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        checks = Checks()
        wl.check(out, checks)
        result.update(wall_s=wall_s, part_s=parts.seconds, ref_s=parts.ref_s,
                      cpu_s=cpu_s, peak_rss_mb=peak_kb / 1024.0,
                      attempted=checks.attempted, failed=checks.failed,
                      failures=checks.failures[:20])
        if tracer is not None:
            from tracer import layer_metrics
            result["layers"] = layer_metrics(tracer, cpu_s)
            path = os.path.join(scratch, f"trace_{args.workload}_"
                                         f"seed{args.seed}.json")
            with open(path, "w") as f:
                json.dump(dict(workload=args.workload, seed=args.seed,
                               wall_s=wall_s, **tracer.dump()), f)
            result["trace_file"] = os.path.relpath(path, args.root)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

"""kdense benchmark: time to a verdict on four verification workloads.

Run from the root of a kdense checkout:

    python3 perfbench/run.py --workload overlap_qmc --seed 0 --seconds 32 \
        --trace 0
    python3 perfbench/run.py --all --seed 0 --seconds 32

Each pass runs in a fresh worker process (``worker.py``), one at a time,
with KDENSE_WORKERS unset and one BLAS thread.  A run repeats cold passes
until the next one would end more than half a pass after ``--seconds`` (at
least one pass), and reports medians.  Times are rescaled to a quiet host
by a reference loop timed between the kdense calls (see ``REFERENCE_S``).
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced passes and reports the per-layer
metrics, including the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The run manifest is printed on the line before it.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import LAYER_METRICS  # noqa: E402

WORKLOADS = ("overlap_qmc", "curvature_batch", "contact_search", "verify_cli")
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
MIN_SETUPS = 3
# Times are reported for a host on which ``worker.reference_s()`` takes
# this long: a 2-CPU Xeon VM when none of its neighbours is busy.  On a
# shared host, other tenants' load slows this process by up to 2x, in
# bursts of a fraction of a second and in spells of minutes; dividing by
# the reference loop removes most of that, so runs of the same code agree.
REFERENCE_S = 0.0003
# a run must end within 180 s; stop starting work after this
HARD_LIMIT_S = 160.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def _preflight(root):
    for rel in ("src/kdense/__init__.py", "configs/verify.cfg"):
        if not os.path.isfile(os.path.join(root, rel)):
            raise BenchError(f"{rel} not found under {root}: run from the "
                             "root of a kdense checkout")


def _worker_env(root):
    env = dict(os.environ)
    env.pop("KDENSE_WORKERS", None)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _pass(root, workload, seed, size, trace=0, setup_only=False, timeout=170):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", root,
           "--workload", workload, "--seed", str(seed), "--size", size,
           "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=_worker_env(root), cwd=root,
                              capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload} pass exceeded {timeout:.0f} s") from e
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["elapsed_s"] = time.perf_counter() - t0
    for failure in res.get("failures", ()):
        print(f"# check failed: {failure}", file=sys.stderr)
    return res


def pass_time(passes):
    """Median pass time, rescaled to a quiet host (see ``REFERENCE_S``).

    Each part's time is divided by the reference loop timed around it (the
    mean of the one before and the one after), and a pass is the sum of
    its parts in reference-loop units.  Work added to kdense shows in
    full; most of the host's load cancels.
    """
    return REFERENCE_S * statistics.median(
        sum(t / (0.5 * (r0 + r1)) for t, r0, r1 in
            zip(p["part_s"], p["ref_s"], p["ref_s"][1:]))
        for p in passes)


def setup_time(passes):
    """Median set-up time, rescaled like ``pass_time``."""
    return REFERENCE_S * statistics.median(
        p["setup_s"] / statistics.fmean(p["setup_ref_s"]) for p in passes)


def _git_revision(root):
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _manifest(root, seed, versions):
    with open(os.path.join(root, "configs", "verify.cfg"), "rb") as f:
        cfg_sha = hashlib.sha256(f.read()).hexdigest()
    return dict(
        nproc=len(os.sched_getaffinity(0)), **versions,
        blas_threads={v: "1" for v in BLAS_THREAD_VARS},
        kdense_workers=("unset in workers (parent: "
                        f"{os.environ.get('KDENSE_WORKERS', 'unset')})"),
        git_revision=_git_revision(root), seed=seed,
        verify_cfg_sha256=cfg_sha)


def run_workload(root, workload, seed, seconds, trace, size="full"):
    """Measure one workload for about ``seconds``.

    Returns the result object and the run manifest.
    """
    start = time.perf_counter()
    plain, traced = [], []

    def time_left():
        return HARD_LIMIT_S - (time.perf_counter() - start)

    while True:
        want_traced = trace and len(traced) < len(plain)
        (traced if want_traced else plain).append(
            _pass(root, workload, seed, size, trace=int(want_traced),
                  timeout=time_left()))
        passes = plain + traced
        typical = statistics.median(p["elapsed_s"] for p in passes)
        elapsed = time.perf_counter() - start
        # another pass may end up to half a pass after ``seconds``: runs
        # then last ``seconds`` on average and make more passes
        enough = not trace or traced
        if enough and (elapsed + typical / 2 > seconds
                       or elapsed + 2 * typical > HARD_LIMIT_S):
            break
    setups = list(plain)
    while not trace and len(setups) < MIN_SETUPS and time_left() > 20:
        setups.append(_pass(root, workload, seed, size, setup_only=True,
                            timeout=time_left()))
    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    wall = pass_time(plain)
    if trace:
        layers = {name: statistics.median(p["layers"][name] for p in traced)
                  for name, _, _ in LAYER_METRICS
                  if name != "trace.overhead_s"}
        layers["trace.overhead_s"] = pass_time(traced) - wall
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _ in LAYER_METRICS}
    else:
        values = {"wall_s": wall, "setup_s": setup_time(setups),
                  "peak_rss_mb": statistics.median(p["peak_rss_mb"]
                                                   for p in plain)}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    info = _manifest(root, seed, passes[0]["versions"])
    info.update(workload=workload, size=size, setups=len(setups),
                reference_median_s=statistics.median(
                    r for p in setups + traced
                    for r in p["setup_ref_s"] + p.get("ref_s", [])),
                pass_wall_s=[round(p["wall_s"], 4) for p in plain],
                traced_wall_s=[round(p["wall_s"], 4) for p in traced])
    if traced:
        info["trace_file"] = traced[-1]["trace_file"]
    return result, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true",
                    help="run every workload and print a table")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=32.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: minimal sizes for the harness check")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not args.all and args.workload is None:
        ap.error("give --workload or --all")
    try:
        _preflight(ROOT)
        if not args.all:
            result, info = run_workload(ROOT, args.workload, args.seed,
                                        args.seconds, args.trace, args.size)
            print("# manifest " + json.dumps(info))
            print(json.dumps(result))
            return 0
        results = {}
        for w in WORKLOADS:
            result, info = run_workload(ROOT, w, args.seed, args.seconds,
                                        args.trace, args.size)
            results[w] = result
            print("# manifest " + json.dumps(info))
            frac = result["failed"] / result["attempted"]
            print(f"{w:16s} failed_frac {frac:.4g} ratio "
                  f"({result['failed']} of {result['attempted']} checks)")
            for name, m in result["metrics"].items():
                print(f"{w:16s} {name} {m['value']:.6g} {m['unit']}")
        print(json.dumps(results))
        return 0
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

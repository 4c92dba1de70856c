"""Harness smoke check: every named metric is emitted, with its unit.

Runs each workload at minimal sizes (``--size smoke``), untraced and
traced, and checks the last output line against BENCHMARK.json: exactly
the keys correct/attempted/failed/metrics, exactly the declared end-to-end
(trace 0) or per-layer (trace 1) metric names, each with its declared unit
and a finite value.  It also checks that the run left the repository's
out/ directory as it was.  Takes about a minute; run from the root of a
checkout:

    python3 perfbench/smoke.py
"""

import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import WORKLOADS  # noqa: E402


def _tree_digest(path):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(path)):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            h.update(os.path.relpath(full, path).encode())
            with open(full, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def _problems(result, declared):
    out = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        out.append(f"result keys {sorted(result)}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        out.append(f"attempted = {result.get('attempted')!r}")
    if not isinstance(result.get("failed"), int):
        out.append(f"failed = {result.get('failed')!r}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        out.append(f"missing {sorted(set(declared) - set(metrics))}, "
                   f"undeclared {sorted(set(metrics) - set(declared))}")
    for name, m in metrics.items():
        if name in declared and m.get("unit") != declared[name]:
            out.append(f"{name}: unit {m.get('unit')!r}, "
                       f"declared {declared[name]!r}")
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            out.append(f"{name}: value {v!r}")
    return out


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    declared = {t: {m["name"]: m["unit"] for m in bench[key]}
                for t, key in ((0, "end_to_end"), (1, "per_layer"))}
    out_before = _tree_digest(os.path.join(ROOT, "out"))
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", "0", "--seconds", "1",
                   "--trace", str(trace), "--size", "smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=180)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems = [f"exit {proc.returncode}: {proc.stderr[-500:]}"]
            else:
                problems = _problems(json.loads(lines[-1]), declared[trace])
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{workload:16s} trace={trace} {status}")
            failures += bool(problems)
    if _tree_digest(os.path.join(ROOT, "out")) != out_before:
        print("out/ changed during the benchmark")
        failures += 1
    leftovers = [n for n in os.listdir(os.path.join(ROOT, ".perfbench"))
                 if n.startswith("verify_")]
    if leftovers:
        print(f"temporary verify output left behind: {leftovers}")
        failures += 1
    print("smoke check passed" if not failures else
          f"smoke check FAILED ({failures})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

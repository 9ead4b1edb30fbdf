"""Run every workload over seeds 1..N and summarize each metric.

    python3 perfbench/collect.py --runs 10 --out perfbench/baseline.json

For every workload and end-to-end metric this prints the median, the
quartiles (``statistics.quantiles(values, n=4)``), the sample count and the
spread (interquartile range over median) against the metric's bound in
BENCHMARK.json.  Each run lasts ``run_seconds`` from BENCHMARK.json.  One
traced run per workload gives the per-layer values and the tracing overhead,
the ratio of traced to untraced ``ops_per_s``.  Runs go one after another,
never in parallel, so they do not compete for the processor.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import ROOT, run_workload


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    lines, result = run_workload(workload, seed, seconds, trace)
    if not result["correct"]:
        print("\n".join(lines), file=sys.stderr)
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} wrong answers")
    return result


def summarize(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median}


def machine() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "machine": platform.machine(), "git_rev": rev,
            "date": time.strftime("%Y-%m-%d", time.gmtime())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(1, args.runs + 1))
    report = {"machine": machine(), "run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run(workload, seed, seconds, 0) for seed in seeds]
        entry = {"seeds": seeds, "attempted": [r["attempted"] for r in results],
                 "error_rate": sum(r["failed"] for r in results)
                 / sum(r["attempted"] for r in results), "end_to_end": {}}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            s = entry["end_to_end"][metric] = {**summarize(values), "values": values}
            flag = "" if s["spread"] <= bound / 3 else (
                " above a third of its bound" if s["spread"] <= bound else " ABOVE ITS BOUND")
            print(f"{workload:<8} {metric:<16} median {s['median']:12.4f}  "
                  f"q1 {s['q1']:12.4f}  q3 {s['q3']:12.4f}  n={s['n']}  "
                  f"spread {s['spread']:.3f} (bound {bound}){flag}", flush=True)
        layers = run(workload, seeds[0], seconds, 1)["metrics"]
        overhead = layers["trace.ops_per_s"]["value"] / entry["end_to_end"]["ops_per_s"]["median"]
        entry["trace_overhead_ops_per_s_ratio"] = overhead
        entry["per_layer"] = {name: m["value"] for name, m in layers.items()}
        print(f"{workload:<8} tracing overhead: traced/untraced ops_per_s = "
              f"{overhead:.3f}", flush=True)
        report["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

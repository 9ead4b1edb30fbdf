"""gentotient benchmark: one seeded workload per run, every answer checked.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Run from anywhere inside a checkout; the library is imported from its
``src/`` directory.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines
before it give each metric with its unit and sample count, the error rate,
and the input manifest.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import harness

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
NAMES = ("sweep", "eval", "aut", "catalog")
MAX_ELEMENTS_ENV = "GENTOTIENT_MAX_ELEMENTS"

# Per-layer metrics of the traced run.  Busy times are self times.  Busy
# times and work counts are per timed round: a round has a fixed mix, so a
# per-round figure does not depend on how many rounds fit in the run.  The
# M11 closure runs once per run, when the workload is set up.
LAYER_METRICS = {
    "cli.parse.busy_s": "s/round", "cli.import.busy_s": "s/round",
    "cli.registry_load.busy_s": "s/round",
    "families.construct.calls": "count/round", "families.construct.busy_s": "s/round",
    "core.enum.calls": "count/round", "core.enum.busy_s": "s/round",
    "core.enum.elements": "count/round",
    "core.enum.elements_per_s": "1/s",
    "core.vectorized.busy_s": "s/round", "core.vectorized.elements": "count/round",
    "core.convolution.busy_s": "s/round", "core.convolution.pairs": "count/round",
    "core.closure.busy_s": "s",
    "core.cayley_validate.busy_s": "s/round",
    "core.report.busy_s": "s/round", "core.witness.busy_s": "s/round",
    "closedforms.cycle_type.busy_s": "s/round",
    "closedforms.cycle_type.partitions": "count/round",
    "closedforms.formula.busy_s": "s/round",
    "closedforms.generator.busy_s": "s/round", "closedforms.generator.yielded": "count/round",
    "classc.scan_cold.busy_s": "s/round", "classc.scan_warm.busy_s": "s/round",
    "classc.scan.cache_hit_ratio": "ratio", "classc.scan.kept_ratio": "ratio",
    "classc.predicates.busy_s": "s/round",
    "authom.materialize.busy_s": "s/round", "authom.materialize.multiplies": "count/round",
    "authom.search.busy_s": "s/round",
    "trace.ops_per_s": "1/s",
}
# Counts that must equal what the inputs fix; the correctness gate checks
# them, so they are printed but are not per-layer metrics.
GATE_COUNTS = ("cli.exit.0", "cli.exit.2", "cli.exit.3", "cli.exit.unexpected",
               "authom.refused", "authom.refused_expected")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def layer_metrics(tracer, workload, stats) -> dict:
    busy = tracer.busy()
    counts = tracer.counts
    rounds = len(stats.rounds)
    values = {}
    for name, unit in LAYER_METRICS.items():
        if name.endswith(".busy_s"):
            values[name] = max(busy[name[:-len(".busy_s")]], 0.0)
        else:
            values[name] = counts[name]
        if unit.endswith("/round"):
            values[name] /= rounds
    values["core.enum.elements_per_s"] = (
        counts["core.enum.elements"] / busy["core.enum"] if busy["core.enum"] else 0.0)
    values["classc.scan.cache_hit_ratio"] = values["classc.scan.kept_ratio"] = 0.0
    if hasattr(workload, "layer_counts"):
        values.update(workload.layer_counts())
    values["trace.ops_per_s"] = harness.latency_summary(stats.rounds)["ops_per_s"]
    return values


def run_one(args) -> int:
    os.environ.pop(MAX_ELEMENTS_ENV, None)   # measure at the library's default caps
    sys.path.insert(0, str(SRC))
    import inputs
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    setup = [] if args.trace else harness.setup_seconds(SRC, cls.setup_code)
    tracer = harness.Tracer() if args.trace else harness.NullTracer()
    rng = random.Random(f"{args.workload}:{args.seed}")
    manifest = inputs.Manifest()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        workload = cls(rng, workdir, tracer)
        stats = harness.measure(workload.rounds(rng), args.seconds, tracer, manifest,
                                cls.WARMUP_ROUNDS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rss = harness.peak_rss_mib()
    lat = harness.latency_summary(stats.rounds)
    manifest.extra.update(workload.extra)
    manifest.extra["rounds"] = lat["rounds"]
    manifest.extra["warmup_rounds"] = cls.WARMUP_ROUNDS

    n, failed = lat["n"], stats.failed
    attempted = n + stats.warmup_ops
    head = f"{args.workload:<8}"
    print(f"{head} seed {args.seed}, closed loop: 1 client, 1 process, no threads")
    if setup:
        print(f"{head} setup_s          {statistics.median(setup):10.4f} s     "
              f"median of {len(setup)} fresh interpreters")
    print(f"{head} ops_per_s        {lat['ops_per_s']:10.2f} 1/s   median over "
          f"{lat['rounds']} rounds ({min(lat['round_ops_per_s']):.2f}-"
          f"{max(lat['round_ops_per_s']):.2f}); {n} operations in {lat['busy_s']:.2f} s "
          f"of timed calls")
    print(f"{head} latency_p50_ms   {lat['p50_ms']:10.4f} ms    median over "
          f"{lat['rounds']} rounds of the round's median, n={n}")
    if lat["tail_q"] is None:
        print(f"{head} latency_tail_ms  omitted: {n} operations leave no percentile "
              f"with 10 samples beyond it")
    else:
        print(f"{head} latency_tail_ms  {lat['tail_ms']:10.4f} ms    "
              f"p{lat['tail_q']:g}, n={n}")
    print(f"{head} peak_rss_mib     {rss:10.2f} MiB   n=1 process")
    print(f"{head} error_rate       {failed / attempted:10.4f}       {failed} of {attempted} "
          f"attempted, {stats.warmup_ops} of them in untimed warm-up rounds")
    for message in stats.errors:
        print(f"{head} FAILED {message}")
    print(f"{head} manifest {json.dumps(manifest.as_dict(), sort_keys=True)}")

    if args.trace:
        values = layer_metrics(tracer, workload, stats)
        for name, value in values.items():
            print(f"{head} {name:<36} {value:14.6g} {LAYER_METRICS[name]}")
        tables = tracer.counts["core.cayley_validate.tables"]
        gate = {name: tracer.counts[name] for name in GATE_COUNTS}
        gate["core.cayley_validate.side"] = (
            tracer.counts["core.cayley_validate.side_total"] / tables if tables else 0)
        print(f"{head} gate and input counts per run (must match the inputs): "
              f"{json.dumps(gate)}")
        WORK.mkdir(exist_ok=True)
        spans = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans)
        print(f"{head} {len(tracer.spans)} spans written to {spans.relative_to(ROOT)}")
        baseline = HERE / "baseline.json"
        if baseline.is_file():
            untraced = json.loads(baseline.read_text())["workloads"][args.workload]
            print(f"{head} tracing overhead: trace.ops_per_s over the untraced median "
                  f"ops_per_s in baseline.json = "
                  f"{values['trace.ops_per_s'] / untraced['end_to_end']['ops_per_s']['median']:.3f}")
        metrics = {name: {"value": value, "unit": LAYER_METRICS[name]}
                   for name, value in values.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "ops_per_s": {"value": lat["ops_per_s"], "unit": "1/s"},
            "latency_p50_ms": {"value": lat["p50_ms"], "unit": "ms"},
            "peak_rss_mib": {"value": rss, "unit": "MiB"},
        }
        if "tail_ms" in lat:
            metrics["latency_tail_ms"] = {"value": lat["tail_ms"], "unit": "ms"}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_workload(name: str, seed: int, seconds: float, trace: int):
    """One workload in a fresh process: its printed lines and its result."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: workload {name} seed {seed} exited with {proc.returncode}")
    return lines[:-1], json.loads(lines[-1])


def run_all(args) -> int:
    """Each workload in its own process, so each has its own peak memory."""
    results = {}
    for name in NAMES:
        lines, results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        print("\n".join(lines), flush=True)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gentotient" / "__init__.py").is_file():
        print(f"error: no gentotient sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

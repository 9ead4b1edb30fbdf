"""Closed-loop run loop, span tracing and statistics shared by the workloads."""

from __future__ import annotations

import gc
import itertools
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

# Tail percentiles tried from the top; the first with at least ten samples
# beyond it is reported.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0)
TAIL_MIN_BEYOND = 10
SETUP_PROBES = 9
# A run times at least this many rounds.  The tail percentile is chosen from
# the operations of this many rounds, so it is the same in every run of a
# workload however many rounds fit in the time.
MIN_ROUNDS = 4
# Operations and spans are timed in CPU time of this process (user plus
# system), which leaves out the time other tenants of a shared machine take
# the processor away; the workloads are single-threaded and compute-bound.
CLOCK = time.process_time
# A round that ends after this many seconds ends the run whatever --seconds
# says, so that every run exits well inside its time limit.
DEADLINE_S = 150.0


@dataclass
class Op:
    """One operation: a timed call into the library and an untimed check."""

    label: str          # operation type, e.g. "aut_count"
    kind: str           # realization kind of the input
    key: object         # inputs with equal keys repeat each other
    order: int          # |G| for the order histogram, 0 when there is no one group
    run: Callable       # run(tracer) -> answer
    check: Callable     # check(answer or exception) -> None, or a failure message


class NullTracer:
    """Tracing off: every hook is a no-op."""

    enabled = False
    op_id = -1
    _null = nullcontext()

    def span(self, name):
        return self._null

    def count(self, name, n=1):
        pass

    def adjust(self, name, seconds):
        pass


class Tracer:
    """Spans around the benchmark's calls into each module, kept in memory.

    A span is [name, start, end, parent index, operation id].  Its self time
    is its duration minus the time its child spans cover.  ``adjust`` records
    a documented correction to a layer's busy time, for work that a traced
    run repeats outside the call it belongs to.
    """

    enabled = True

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.adjustments: Counter = Counter()
        self.op_id = -1
        self._stack: list = []

    @contextmanager
    def span(self, name):
        record = [name, CLOCK(), None,
                  self._stack[-1] if self._stack else -1, self.op_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[2] = CLOCK()
            self._stack.pop()

    def count(self, name, n=1):
        self.counts[name] += n

    def adjust(self, name, seconds):
        self.adjustments[name] += seconds

    def busy(self) -> Counter:
        """Self time per span name, plus the recorded adjustments."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - covered[i]
        for name, seconds in self.adjustments.items():
            out[name] += seconds
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


@dataclass
class RunStats:
    rounds: list        # the latencies of each timed round
    failed: int
    errors: list
    warmup_ops: int = 0


def measure(rounds: Iterable[list], seconds: float, tracer, manifest,
            warmup: int = 0) -> RunStats:
    """Run whole rounds of operations, one at a time, until `seconds` pass.

    Each operation is timed on its own; its answer is checked after the
    clock stops.  An exception counts as a failed operation unless the
    check expected it.  The first `warmup` rounds are run and checked but
    neither timed nor traced, so that one-off interpreter and allocator
    costs do not weigh on the measured rounds.  Each round starts from a
    collected heap, as a fresh session would, so that garbage left by
    earlier rounds does not change what the collector costs later ones.
    At least MIN_ROUNDS rounds are timed.
    """
    stats = RunStats([], 0, [])
    rounds = iter(rounds)
    quiet, warm = NullTracer(), []
    for ops in itertools.islice(rounds, warmup):
        gc.collect()
        for op in ops:
            _run_op(op, quiet, stats, warm)
    stats.warmup_ops = len(warm)
    done = 0
    start = time.perf_counter()
    for ops in rounds:
        gc.collect()
        latencies = []
        for op in ops:
            manifest.add(op)
            tracer.op_id = done
            done += 1
            _run_op(op, tracer, stats, latencies)
        stats.rounds.append(latencies)
        elapsed = time.perf_counter() - start
        if elapsed >= DEADLINE_S or (elapsed >= seconds and len(stats.rounds) >= MIN_ROUNDS):
            break
    return stats


def _run_op(op, tracer, stats, latencies) -> None:
    t0 = CLOCK()
    try:
        with tracer.span("op." + op.label):
            answer = op.run(tracer)
    except Exception as exc:  # the check decides whether it was expected
        answer = exc
    latencies.append(CLOCK() - t0)
    try:
        error = op.check(answer)
    except Exception as exc:  # a malformed answer the check tripped over
        error = f"check raised {type(exc).__name__}: {exc}"
    if error:
        stats.failed += 1
        if len(stats.errors) < 20:
            stats.errors.append(f"{op.label} {op.key}: {error}")


def nearest_rank(sorted_values: list, q: float) -> float:
    k = max(math.ceil(q / 100 * len(sorted_values)), 1)
    return sorted_values[k - 1]


def tail_percentile(n: int) -> Optional[float]:
    """Highest ladder percentile with at least ten samples beyond it."""
    for q in TAIL_LADDER:
        if n - math.ceil(q / 100 * n) >= TAIL_MIN_BEYOND:
            return q
    return None


def setup_seconds(src, code: str) -> list:
    """Wall time of fresh interpreters that import and set up a workload."""
    command = [sys.executable, "-c",
               f"import sys; sys.path.insert(0, {str(src)!r}); {code}"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def latency_summary(rounds: list) -> dict:
    """Throughput and median per round, then their medians over the rounds.

    Rounds have a fixed mix, so each is one sample of the same work; the
    median over them sets aside a round that a burst of load on the machine
    slowed.  The tail is taken over all the run's operations.
    """
    ordered = sorted(x for r in rounds for x in r)
    n = len(ordered)
    out = {
        "n": n,
        "rounds": len(rounds),
        "busy_s": sum(ordered),
        "round_ops_per_s": [len(r) / sum(r) for r in rounds],
        "p50_ms": statistics.median(statistics.median(r) for r in rounds) * 1000,
        "tail_q": tail_percentile(min(n, MIN_ROUNDS * len(rounds[0]))),
    }
    out["ops_per_s"] = statistics.median(out["round_ops_per_s"])
    if out["tail_q"] is not None:
        out["tail_ms"] = nearest_rank(ordered, out["tail_q"]) * 1000
    return out

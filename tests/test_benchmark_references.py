"""Every library name the benchmark reads exists, and its traced runs work.

perfbench reaches some names only on traced runs (``authom.MaterializedGroup``,
``authom.greedy_generators``), so a deleted name or a changed signature would
otherwise surface only when the benchmark runs.
"""

import ast
import importlib
import itertools
import random
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_gentotient_name_perfbench_reads_exists():
    references = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {}  # local name -> gentotient submodule
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "gentotient":
                for alias in node.names:
                    modules[alias.asname or alias.name] = importlib.import_module(
                        f"gentotient.{alias.name}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gentotient."):
                references += [(path.name, node.module, alias.name) for alias in node.names]
        references += [(path.name, modules[node.value.id].__name__, node.attr)
                       for node in ast.walk(tree)
                       if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                       and node.value.id in modules]
    assert len(references) > 100
    missing = [ref for ref in references if not hasattr(importlib.import_module(ref[1]), ref[2])]
    assert missing == []


@pytest.mark.parametrize("name", ["aut", "sweep"])
def test_one_traced_round_passes_its_checks(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delenv("GENTOTIENT_MAX_ELEMENTS", raising=False)
    harness = importlib.import_module("harness")
    inputs = importlib.import_module("inputs")
    workloads = importlib.import_module("workloads")
    rng = random.Random(f"{name}:1")
    tracer = harness.Tracer()
    workload = workloads.WORKLOADS[name](rng, tmp_path, tracer)
    stats = harness.measure(itertools.islice(workload.rounds(rng), 1), 0, tracer,
                            inputs.Manifest())
    assert (stats.failed, stats.errors) == (0, [])
    assert len(stats.rounds) == 1 and stats.rounds[0]
    # aut's round includes groups its counters must refuse; sweep's has none
    assert tracer.counts["authom.refused"] == tracer.counts["authom.refused_expected"]
    assert (tracer.counts["authom.refused_expected"] > 0) == (name == "aut")

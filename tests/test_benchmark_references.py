"""Every library name the benchmark reads exists.

perfbench reaches some names only on traced runs (``authom.MaterializedGroup``,
``authom.greedy_generators``), so a deleted name would otherwise surface only
when the benchmark runs.
"""

import ast
import importlib
from pathlib import Path

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

"""The benchmark patches qmeanlab functions by name; every name must resolve.

``perfbench/spans.py`` wraps each function its ``SPANS`` table names in
``qmeanlab.<layer>``, and ``perfbench/workloads.py`` times each estimator in
``TRIAL_ENTRY_POINTS`` where ``qmeanlab.harness`` binds it.  Both look the
names up with ``getattr``, so a renamed or deleted function would otherwise
only show up when a traced benchmark run fails.  The tables are read with
``ast`` so the benchmark modules are not imported.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _constant(filename: str, name: str):
    tree = ast.parse((PERFBENCH / filename).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{filename} has no top-level {name}")


def test_traced_span_names_resolve():
    spans = _constant("spans.py", "SPANS")
    missing = [
        f"{layer}.{fn}"
        for layer, fns in spans.items()
        for fn in fns
        # the evaluate callback of each PhaseFunction, wrapped on the way out
        if fn != "phase_evaluate"
        and not callable(getattr(importlib.import_module(f"qmeanlab.{layer}"), fn, None))
    ]
    assert spans and missing == []


def test_trial_entry_points_are_bound_in_harness():
    harness = importlib.import_module("qmeanlab.harness")
    names = _constant("workloads.py", "TRIAL_ENTRY_POINTS")
    assert names
    assert [name for name in names if not callable(getattr(harness, name, None))] == []

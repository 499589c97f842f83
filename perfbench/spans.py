"""Span tracing of qmeanlab from outside the package.

The tracer replaces every binding of a traced public function, in every loaded
``qmeanlab`` module, with a wrapper that records a span: name, start, end,
parent span and trial id.  Spans stay in memory until :meth:`Tracer.write`.
Per span name it keeps the call count and the self time (span duration minus
the part covered by child spans).  Counters are computed at the same
boundaries from the arguments and return values, so they repeat exactly for a
repeated seed.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import math
import sys
import time

# Layer (module) -> traced public functions.  ``phase_evaluate`` is not a
# binding: it is the ``evaluate`` callback of each PhaseFunction an oracles
# function returns, wrapped on the way out.
SPANS = {
    "probspace": ("moments", "truncate_normalized", "exact_quantile", "mean"),
    "gridqft": (
        "uniform_superposition",
        "apply_phase_function",
        "inverse_qft",
        "measurement_distribution",
    ),
    "oracles": (
        "directional_phases_binary",
        "directional_phases_phase_model",
        "perturb",
        "quantile_oracle",
        "phase_evaluate",
    ),
    "classical": ("sample", "subgaussian_estimate", "median_of_means", "coordinate_median"),
    "quantum": (
        "bounded_estimator",
        "near_optimal_estimator",
        "qphase_estimator",
        "qlowprec_estimator",
        "phase_model_dispatch",
        "empirical_rv",
    ),
    "harness": ("run_trials", "error_bound", "export", "load_rows"),
    "hardness": ("fractional_phase_rv",),
    "cli": ("main",),
}

LEDGER_FIELDS = ("experiments", "binary_queries", "phase_queries", "classical_samples", "quantile_calls")

# Counters that must repeat exactly between two traced passes over the same
# seeds; their (name, unit) pairs are also the emitted counter metrics.
COUNTERS = (
    ("gridqft.amplitudes", "count"),
    ("gridqft.fft_flops_computed", "flop"),
    ("gridqft.bytes_computed", "bytes"),
    ("gridqft.max_m", "count"),
    ("gridqft.full_tensor_transforms", "count"),
    ("oracles.perturb_table_entries", "count"),
    *((f"oracles.ledger.{f}", "units") for f in LEDGER_FIELDS),
    ("quantum.reps", "count"),
    ("quantum.shells_run", "count"),
    ("quantum.early_exits", "count"),
    ("quantum.clamp_events", "count"),
    ("quantum.clamp_warnings", "count"),
    ("harness.trials_raised", "count"),
)


def span_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in SPANS.items() for fn in fns]


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer (metric name, unit) a traced run emits, in order."""
    out = []
    for name in span_names():
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [(f"{mod}.errors", "count") for mod in SPANS]
    out += [(name, unit) for name, unit in COUNTERS if name != "gridqft.full_tensor_transforms"]
    out.append(("gridqft.full_tensor_share", "ratio"))
    # added by the worker (tracing overhead) and by run.py (failed trials)
    for name in ("trials_per_s", "untraced_trials_per_s", "overhead_trials_per_s"):
        out.append((f"trace.{name}", "trials/s"))
    out.append(("failed_share", "ratio"))
    return out


class Tracer:
    """In-memory span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self) -> None:
        self.trial_id: int | None = None
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple] = []
        self._next_id = 0
        self._stack: list[list] = []  # [span id, name, start, child time]
        self.calls = dict.fromkeys(span_names(), 0)
        self.self_s = dict.fromkeys(span_names(), 0.0)
        self.errors = dict.fromkeys(SPANS, 0)
        self.counters = {name: 0 for name, _ in COUNTERS}

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        module = name.split(".", 1)[0]
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            tracer._next_id += 1
            frame = [tracer._next_id, name, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if parent is None or parent[1].split(".", 1)[0] != module:
                    tracer.errors[module] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - frame[2]
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - frame[3]
                if parent is not None:
                    parent[3] += dur
                tracer.spans.append(
                    (frame[0], name, frame[2], end, None if parent is None else parent[0], tracer.trial_id)
                )
            if after is not None:
                result = after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_phase(self, args, kwargs, phase):
        if getattr(phase.evaluate, "__wrapped__", None) is not None:
            return phase  # perturb under ideal noise returns its (already traced) input
        return dataclasses.replace(phase, evaluate=self._wrap("oracles.phase_evaluate", phase.evaluate))

    # -- counters computed at the boundaries ----------------------------------

    def _count_transform(self, args, kwargs, result):
        spec = args[0].spec
        full = not args[0].is_product
        amplitudes = spec.m**spec.d if full else spec.m * spec.d
        per_pass = spec.m**spec.d if full else spec.m
        c = self.counters
        c["gridqft.amplitudes"] += amplitudes
        c["gridqft.fft_flops_computed"] += 5 * per_pass * int(math.log2(spec.m)) * spec.d
        c["gridqft.bytes_computed"] += 32 * amplitudes  # complex128 in and out
        c["gridqft.max_m"] = max(c["gridqft.max_m"], spec.m)
        c["gridqft.full_tensor_transforms"] += int(full)
        return result

    def _count_perturb(self, args, kwargs, phase):
        noise, spec = args[1], args[2]
        if noise.mode == "perturbed":
            self.counters["oracles.perturb_table_entries"] += spec.points
        return self._wrap_phase(args, kwargs, phase)

    def _count_report(self, args, kwargs, report):
        diag, c = report.diagnostics, self.counters
        if report.estimator_id == "bounded":
            c["quantum.early_exits"] += int(diag["early_exit"])
            c["quantum.reps"] += diag.get("reps", 0)
        elif report.estimator_id == "qphase":
            c["quantum.reps"] += diag["reps"]
        elif report.estimator_id == "qlowprec":
            c["quantum.reps"] += diag["outer"]
        elif report.estimator_id == "near_optimal":
            c["quantum.shells_run"] += sum(not s["skipped"] for s in diag["shells"])
            c["quantum.clamp_events"] += diag["clamp_events"]
        return report

    def _count_battery(self, args, kwargs, battery):
        self.counters["harness.trials_raised"] += sum(e is not None for e in battery.errors)
        return battery

    def count_ledger(self, ledger) -> None:
        for f in LEDGER_FIELDS:
            self.counters[f"oracles.ledger.{f}"] += getattr(ledger, f)

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every traced function in loaded qmeanlab modules."""
        after = {
            "gridqft.inverse_qft": self._count_transform,
            "oracles.perturb": self._count_perturb,
            "harness.run_trials": self._count_battery,
        }
        for fn in ("directional_phases_binary", "directional_phases_phase_model"):
            after[f"oracles.{fn}"] = self._wrap_phase
        for fn in SPANS["quantum"]:
            if fn.endswith(("_estimator", "_dispatch")):
                after[f"quantum.{fn}"] = self._count_report
        modules = [m for k, m in sys.modules.items() if k == "qmeanlab" or k.startswith("qmeanlab.")]
        for layer, fns in SPANS.items():
            home = importlib.import_module(f"qmeanlab.{layer}")
            for fn_name in fns:
                if fn_name == "phase_evaluate":
                    continue
                original = getattr(home, fn_name)
                wrapped = self._wrap(f"{layer}.{fn_name}", original, after.get(f"{layer}.{fn_name}"))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- output ------------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in span_names():
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for mod, count in self.errors.items():
            out[f"{mod}.errors"] = count
        transforms = self.calls["gridqft.inverse_qft"]
        for name, _ in COUNTERS:
            if name != "gridqft.full_tensor_transforms":
                out[name] = self.counters[name]
        out["gridqft.full_tensor_share"] = (
            self.counters["gridqft.full_tensor_transforms"] / transforms if transforms else 0.0
        )
        return out

    def write(self, path) -> None:
        """One JSON line per span: id, name, start, end, parent, trial."""
        keys = ("id", "name", "start", "end", "parent", "trial")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

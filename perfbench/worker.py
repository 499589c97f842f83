"""One benchmark process: set up one workload, run it, print one JSON line.

Started by ``run.py`` with BLAS/OpenMP pinned to one thread.  With
``--setup-only`` it stops once the first trial could start and reports that
moment; otherwise it runs the timed loop (``--trace 0``) or the traced
passes (``--trace 1``) and reports raw results for ``run.py`` to turn
into metrics.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import resource
import sys
import time


class CountingHandler(logging.Handler):
    """Counts qmeanlab log records instead of printing them during timing."""

    def __init__(self) -> None:
        super().__init__(logging.DEBUG)
        self.clamp_warnings = 0
        self.other = 0

    def emit(self, record: logging.LogRecord) -> None:
        if record.getMessage().startswith("quantile sequence non-monotone"):
            self.clamp_warnings += 1
        else:
            self.other += 1


def _run_passes(workload, passes: int | None, seconds: float, min_trials: int):
    """Passes back to back, until both ``seconds`` and ``min_trials`` are met
    (or exactly ``passes`` of them).  Returns (elapsed s, trials, failed ids)."""
    rec = workload.rec
    first = len(rec.trials)
    failed: set[int] = set()
    t0 = time.perf_counter()
    p = 0
    while True:
        failed |= workload.run_pass(p)
        p += 1
        elapsed = time.perf_counter() - t0
        workload.pass_ends.append(elapsed)
        if passes is not None:
            if p == passes:
                break
        elif elapsed >= seconds and len(rec.trials) - first >= min_trials:
            break
    return elapsed, len(rec.trials) - first, failed


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import numpy as np

    import qmeanlab
    from workloads import MIN_TRIALS, WORKLOADS, TrialRecorder

    rec = TrialRecorder()
    workload = WORKLOADS[args.workload](args.seed, args.out, rec, args.smoke)
    workload.setup()
    ready = time.monotonic()
    result: dict = {"ready": ready}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    handler = CountingHandler()
    logger = logging.getLogger("qmeanlab")
    logger.addHandler(handler)
    logger.propagate = False
    result.update(
        qmeanlab_file=qmeanlab.__file__,
        numpy=np.__version__,
        python=sys.version.split()[0],
    )

    if args.trace == 0:
        rec.install()
        elapsed, trials, failed = _run_passes(workload, 1 if args.smoke else None, args.seconds, MIN_TRIALS)
        result.update(elapsed_s=elapsed, latency_s=rec.latency_s)
    else:
        from spans import Tracer

        # One pass four times over, with the same seeds: a warm-up pass (the
        # first pass in a process pays one-time costs such as first-touch
        # page faults), an untraced pass, and two traced passes.
        rec.install()
        runs = [_run_passes(workload, 1, 0, 0) for _ in range(2)]
        rec.uninstall()
        tracer = Tracer()
        tracer.install()
        rec.install(tracer)
        counters = []
        for i in range(2):
            tracer.reset()
            warnings_before = handler.clamp_warnings
            runs.append(_run_passes(workload, 1, 0, 0))
            tracer.counters["quantum.clamp_warnings"] = handler.clamp_warnings - warnings_before
            counters.append(dict(tracer.counters))
            if i == 0:
                metrics = tracer.metrics()
                tracer.write(os.path.join(args.out, f"{args.workload}-seed{args.seed}-spans.jsonl"))
        tracer.uninstall()
        trials = sum(n for _, n, _ in runs)
        failed = set().union(*(f for _, _, f in runs))
        (elapsed_u, n, _), (elapsed_t, _, _) = runs[1], runs[2]
        metrics.update(
            {
                "trace.trials_per_s": n / elapsed_t,
                "trace.untraced_trials_per_s": n / elapsed_u,
                "trace.overhead_trials_per_s": n / elapsed_t - n / elapsed_u,
            }
        )
        mismatched = sorted(k for k in counters[0] if counters[0][k] != counters[1][k])
        if mismatched:
            workload.messages.append(f"counters differ between two traced passes: {mismatched}")
        result.update(metrics=metrics, counters_repeat=not mismatched, trace_trials=n)

    result.update(
        attempted=trials,
        failed=len(failed),
        messages=workload.messages,
        battery_seeds=workload.battery_seeds,
        pass_ends_s=workload.pass_ends,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        clamp_warnings=handler.clamp_warnings,
        other_log_records=handler.other,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""qmeanlab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload shell_d2 --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``).  Each run starts fresh worker processes with BLAS/OpenMP pinned to
one thread:

- ``--trace 0``: six set-up-only processes and one timed process.  Prints the
  end-to-end metrics: ``setup_s`` (median over the seven processes of process
  start -> first trial could start), ``trials_per_s``, ``trial_p50_ms``,
  ``trial_p90_ms`` (trials timed at the harness -> estimator boundary) and
  ``peak_rss_mb`` (``ru_maxrss`` of the timed process).
- ``--trace 1``: one process that runs the first pass of the cell mix four
  times: to warm up, untraced, and traced twice.  Prints the per-layer
  metrics of the first traced pass, the tracing overhead, and
  ``failed_share``; the run is incorrect unless every counter repeats
  exactly in the second traced pass.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record with the
environment (numpy version, nproc, CPU model, git commit) goes to
``perfbench/out/``.  Exit code 0 when every output passed the correctness
gate, 1 when a result was printed but something failed, 2 when no result
could be produced.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

WORKLOADS = ("phase_d16", "shell_d2", "noisy_d2")
SETUP_PROBES = 6
DEADLINE_S = 170.0  # the whole run, processes included
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "trials_per_s": "trials/s",
    "trial_p50_ms": "ms",
    "trial_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _environment() -> dict:
    env = {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(), "cpu_model": "unknown"}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        env["git_commit"] = proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        env["git_commit"] = "unknown (git unavailable)"
    return env


def _worker(args, deadline: float, *extra: str) -> tuple[float, dict]:
    """Start one worker; return (monotonic start time, its JSON result)."""
    env = {**os.environ, **PINNED_THREADS, "PYTHONPATH": str(ROOT / "src")}
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--out", str(OUT), *extra,
    ]
    if args.smoke:
        cmd.append("--smoke")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return start, json.loads(lines[-1])


def _percentile_ms(values: list[float], q: int) -> float:
    """q-th percentile (linear interpolation between order statistics), in ms."""
    cut = statistics.quantiles(values, n=100, method="inclusive")
    return 1000.0 * cut[q - 1]


def run(args) -> tuple[dict, dict]:
    if not (ROOT / "src" / "qmeanlab" / "__init__.py").is_file():
        raise BenchError(f"no qmeanlab sources under {ROOT / 'src'}; run from a source checkout")
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    if args.trace == 0:
        for _ in range(1 if args.smoke else SETUP_PROBES):
            start, probe = _worker(args, deadline, "--setup-only")
            setups.append(probe["ready"] - start)
    start, res = _worker(args, deadline)
    setups.append(res["ready"] - start)
    if not Path(res["qmeanlab_file"]).resolve().is_relative_to((ROOT / "src").resolve()):
        raise BenchError(f"qmeanlab was imported from {res['qmeanlab_file']}, not from this checkout")

    attempted, failed = res["attempted"], res["failed"]
    if args.trace == 0:
        latency = res["latency_s"]
        if len(latency) < 2:
            raise BenchError("fewer than two trials timed")
        values = {
            "setup_s": statistics.median(setups),
            "trials_per_s": len(latency) / res["elapsed_s"],
            "trial_p50_ms": 1000.0 * statistics.median(latency),
            "trial_p90_ms": _percentile_ms(latency, 90),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        from spans import per_layer_names

        values = {**res["metrics"], "failed_share": failed / attempted}
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in per_layer_names()}
    correct = failed == 0 and not res["messages"] and res.get("counters_repeat", True)
    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": {
            **_environment(),
            "numpy": res["numpy"],
            "python": res["python"],
            "threads": PINNED_THREADS,
        },
        "setup_samples_s": setups,
        "trial_samples": len(res.get("latency_s", ())) or res.get("trace_trials"),
        "messages": res["messages"],
        "battery_seeds": res["battery_seeds"],
        "pass_ends_s": res["pass_ends_s"],
        "clamp_warnings_total": res["clamp_warnings"],
        "other_log_records": res["other_log_records"],
        **summary,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return summary, record


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="one trial per cell, one pass")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    try:
        summary, record = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for message in record["messages"]:
        print(f"FAILED: {message}", file=sys.stderr)
    env = record["environment"]
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {summary['attempted']} trials, "
        f"{summary['failed']} failed; numpy {env['numpy']}, nproc {env['nproc']}, "
        f"{env['cpu_model']}, commit {env['git_commit']}"
    )
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

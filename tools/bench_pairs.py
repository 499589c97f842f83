"""Run the benchmark on two source trees in alternating pairs and record the result.

    python3 tools/bench_pairs.py --label mine --parent ../parent-tree \\
        --workload noisy_d2:10:8101 --workload shell_d2:5:8201 \\
        --claim noisy_d2:trials_per_s --trace noisy_d2:901

Every pair runs ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once in the parent tree and once in the tree this tool sits in
(the change), with the same seed and T = ``run_seconds`` of the change's
``BENCHMARK.json``, one run after the other;
the side that runs first alternates (pair 0 runs the parent first).  A
``--workload NAME:PAIRS:FIRST_SEED`` spec runs PAIRS pairs on the seeds
FIRST_SEED, FIRST_SEED+1, ....  A ``--trace NAME:SEED`` spec adds one traced
pass per side (``--trace 1``, 10 s) and records every span either side
called.  Nothing here times or imports the program: each tree's own
``perfbench/run.py`` does the measuring.

The record goes to ``BENCH_<label>.json`` in the change tree, with the
machine as the change tree's first run recorded it.  Per workload it
holds every pair's end-to-end metrics and, per metric of the change tree's
``BENCHMARK.json``: both sides' quartiles (numpy linear percentiles), the
ratio of the medians, how many pairs the change won (ties count for
neither), the parent's interquartile range and whether the change's median
is within the metric's bound.  A claimed metric is met when the change wins
at least nine tenths of the pairs and its median beats the parent's by more
than the parent's interquartile range.

After writing the record the tool prints to stderr one line per workload
and metric: the ratio of the medians, the change's wins, ``within_bound`` and
``claim_met`` (``unclaimed`` for a metric no ``--claim`` names).

A run that fails its correctness gate (``correct: false``, failed trials)
still yields metrics, so each workload also records, per side, the share of
failed trials over all its paired runs (failed / attempted) and an
``all_correct`` flag over its paired and traced runs.  The tool exits 1,
after writing the record, when any run was incorrect.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TRACE_SECONDS = 10


def _spec(text: str, parts: int) -> list[str]:
    fields = text.split(":")
    if len(fields) != parts or not all(fields):
        raise argparse.ArgumentTypeError(f"expected {parts} ':'-separated fields, got {text!r}")
    return fields


def _run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in ``tree``; its summary line (``correct``, ``failed``, ``metrics``)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 2 or not lines:
        raise SystemExit(f"error: {' '.join(cmd)} in {tree} produced no result")
    summary = json.loads(lines[-1])
    print(f"  {tree.name or tree}: {workload} seed={seed} trace={trace} "
          f"correct={summary['correct']} failed={summary['failed']}", file=sys.stderr)
    return summary


def _quartiles(values: list[float]) -> list[float]:
    return [round(float(q), 4) for q in np.percentile(values, [25, 50, 75])]


def _summarize(pairs: list[dict], metrics: list[dict], claimed: set[str]) -> dict:
    out = {}
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        p_q, c_q = _quartiles(parent), _quartiles(change)
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        iqr = p_q[2] - p_q[0]
        gain = (p_q[1] - c_q[1]) if lower else (c_q[1] - p_q[1])
        limit = p_q[1] * (1 + spec["bound"]) if lower else p_q[1] * (1 - spec["bound"])
        row = {
            "better": spec["better"],
            "bound": spec["bound"],
            "parent_q25_median_q75": p_q,
            "change_q25_median_q75": c_q,
            "median_change_ratio": round(c_q[1] / p_q[1], 4),
            "change_wins": f"{wins}/{len(pairs)}",
            "parent_iqr": round(iqr, 4),
            "within_bound": bool(c_q[1] <= limit if lower else c_q[1] >= limit),
        }
        if name in claimed:
            row["claim_met"] = bool(wins >= 0.9 * len(pairs) and gain > iqr)
        out[name] = row
    return out


def _verdicts(workloads: dict) -> list[str]:
    """One line per workload and metric: median ratio, wins, bound and claim verdicts."""
    lines = []
    for name, entry in workloads.items():
        for metric, row in entry.get("metrics", {}).items():
            claim = row.get("claim_met", "unclaimed")
            lines.append(
                f"{name} {metric}: median ratio {row['median_change_ratio']}, "
                f"wins {row['change_wins']}, within_bound {row['within_bound']}, "
                f"claim_met {claim}"
            )
    return lines


def _failed_share(pairs: list[dict]) -> dict:
    """Per side, failed trials over attempted trials, summed over the pairs."""
    out = {}
    for side in ("parent", "change"):
        attempted = sum(p[side]["attempted"] for p in pairs)
        failed = sum(p[side]["failed"] for p in pairs)
        out[side] = round(failed / attempted, 4) if attempted else 0.0
    return out


def _trace(parent: Path, change: Path, workload: str, seed: int) -> dict:
    sides = {"parent": _run(parent, workload, seed, TRACE_SECONDS, 1),
             "change": _run(change, workload, seed, TRACE_SECONDS, 1)}
    values = {side: {k: v["value"] for k, v in s["metrics"].items()} for side, s in sides.items()}
    spans = {}
    for key in sorted(values["change"]):
        if not key.endswith(".calls"):
            continue
        span = key[: -len(".calls")]
        if not (values["parent"].get(key) or values["change"][key]):
            continue
        spans[span] = {
            f"{side}_{field}": round(values[side].get(f"{span}.{field}", 0.0), 4)
            for field in ("calls", "self_s") for side in ("parent", "change")
        }
    return {
        "command": f"python3 perfbench/run.py --workload {workload} --seed {seed} "
                   f"--seconds {TRACE_SECONDS} --trace 1",
        "correct": {side: s["correct"] for side, s in sides.items()},
        "spans": spans,
        "total_self_s": {
            side: round(sum(v for k, v in values[side].items() if k.endswith(".self_s")), 4)
            for side in sides
        },
        "trace_trials_per_s": {
            side: round(values[side]["trace.trials_per_s"], 3) for side in sides
        },
    }


def _machine(tree: Path, workload: str, seed: int) -> dict:
    """The ``environment`` block of one run's record, less its commit."""
    record = tree / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json"
    env = json.loads(record.read_text(encoding="utf-8"))["environment"]
    return {k: v for k, v in env.items() if k != "git_commit"}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="the record is written to BENCH_<label>.json")
    ap.add_argument("--parent", type=Path, required=True, help="source tree of the parent commit")
    ap.add_argument("--workload", type=lambda t: _spec(t, 3), action="append", required=True,
                    metavar="NAME:PAIRS:FIRST_SEED")
    ap.add_argument("--claim", type=lambda t: _spec(t, 2), action="append", default=[],
                    metavar="NAME:METRIC")
    ap.add_argument("--trace", type=lambda t: _spec(t, 2), action="append", default=[],
                    metavar="NAME:SEED")
    ap.add_argument("--note", default="", help="what the change does, stored as 'change'")
    args = ap.parse_args(argv)

    parent, change = args.parent.resolve(), ROOT
    bench = json.loads((change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    claims: dict[str, set[str]] = {}
    for name, metric in args.claim:
        claims.setdefault(name, set()).add(metric)

    workloads = {}
    for name, count, first in args.workload:
        pairs = []
        for i in range(int(count)):
            seed = int(first) + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            print(f"{name} pair {i} seed {seed}, {order[0]} first", file=sys.stderr)
            runs = {side: _run(parent if side == "parent" else change, name, seed, seconds, 0)
                    for side in order}
            pairs.append({
                "pair": i, "seed": seed, "ran_first": order[0],
                **{side: {"attempted": runs[side]["attempted"], "failed": runs[side]["failed"],
                          "correct": runs[side]["correct"],
                          **{k: round(v["value"], 4) for k, v in runs[side]["metrics"].items()}}
                   for side in ("parent", "change")},
            })
        workloads[name] = {
            "claimed": sorted(claims.get(name, ())),
            "failed_share": _failed_share(pairs),
            "all_correct": all(p[side]["correct"] for p in pairs for side in ("parent", "change")),
            "pairs": pairs,
            "metrics": _summarize(pairs, bench["end_to_end"], claims.get(name, set())),
        }
    for name, seed in args.trace:
        entry = workloads.setdefault(name, {})
        entry["trace"] = _trace(parent, change, name, int(seed))
        entry["all_correct"] = entry.get("all_correct", True) and all(
            entry["trace"]["correct"].values()
        )

    record = {
        "label": args.label,
        "change": args.note,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
                   "--trace 0",
        "method": "alternating parent/change pairs on the same machine, one after the other; "
                  "the side that runs first alternates by pair (pair 0: parent); "
                  "quartiles are numpy linear percentiles; a win is a strictly better value",
        "machine": _machine(change, args.workload[0][0], int(args.workload[0][2])),
        "workloads": workloads,
    }
    out = change / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    for line in _verdicts(workloads):
        print(line, file=sys.stderr)
    incorrect = sorted(name for name, w in workloads.items() if not w["all_correct"])
    if incorrect:
        print(f"error: incorrect runs on {', '.join(incorrect)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

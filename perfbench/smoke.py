"""Self-test of the benchmark at one trial per cell and one pass.

    python3 perfbench/smoke.py

For every workload, gated in ``BENCHMARK.json`` or not, it checks that

- an untraced and a traced run each end correct, and print every metric
  ``BENCHMARK.json`` names for that mode, with its unit and nothing else;
- a run with another ``--seed`` uses other trial seeds but prints the same
  set of metrics;

and, once, that the benchmark exits non-zero without printing a result in a
directory that holds only ``BENCHMARK.json`` and the benchmark's files.
Takes about two minutes.  Exit code 0 when everything holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(cwd: Path, workload: str, seed: int, trace: int, smoke: bool = True):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def _record(workload: str, seed: int, trace: int) -> dict:
    path = HERE / "out" / f"{workload}-seed{seed}-trace{trace}-smoke.json"
    return json.loads(path.read_text(encoding="utf-8"))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        for seed, trace in ((1, 0), (1, 1), (2, 0)):
            code, lines = _run(ROOT, workload, seed, trace)
            tag = f"{workload} seed={seed} trace={trace}"
            if code != 0 or not lines:
                problems.append(f"{tag}: exit code {code}")
                continue
            result = json.loads(lines[-1])
            if set(result) != RESULT_KEYS or not result["correct"] or result["attempted"] < 1:
                problems.append(f"{tag}: bad result {sorted(result)} correct={result.get('correct')}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                problems.append(f"{tag}: metrics differ; missing {missing}, extra {extra}, or units")
            print(f"{tag}: {len(got)} metrics, {result['attempted']} trials")
        seeds_1 = _record(workload, 1, 0)["battery_seeds"]
        seeds_2 = _record(workload, 2, 0)["battery_seeds"]
        if set(seeds_1) & set(seeds_2):
            problems.append(f"{workload}: seeds 1 and 2 share trial seeds")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, lines = _run(bare, bench["workloads"][0]["name"], 1, 0, smoke=False)
    shutil.rmtree(bare)
    if code == 0 or any(line.startswith("{") for line in lines):
        problems.append(f"without the program: exit code {code}, output {lines[-1:]}")
    else:
        print(f"without the program: exit code {code}, no result")

    for problem in problems:
        print(f"PROBLEM: {problem}")
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

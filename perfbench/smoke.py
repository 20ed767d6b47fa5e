"""Self-test of the benchmark at tiny size (about a minute).

    python3 perfbench/smoke.py

For each workload: two untraced runs and one traced run with the same
seed.  Checks that every run is correct, that the metric names are
exactly the ``end_to_end`` (untraced) or ``per_layer`` (traced) lists
of ``BENCHMARK.json``, and that all three runs released byte-identical
outputs (same digest) — tracing included.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SECONDS = "2"


def run(workload: str, trace: int, record: str):
    """One tiny run; returns (result object, run record)."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", SECONDS, "--trace", str(trace),
         "--size", "tiny", "--record", record],
        capture_output=True, text=True, timeout=300,
    )
    if out.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} failed:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    with open(record, encoding="utf-8") as f:
        return result, json.load(f)


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    expected = {
        0: sorted(m["name"] for m in spec["end_to_end"]),
        1: sorted(m["name"] for m in spec["per_layer"]),
    }
    work = os.path.join(os.getcwd(), ".perfbench-work", "smoke")
    os.makedirs(work, exist_ok=True)
    problems = []
    try:
        for workload in [w["name"] for w in spec["workloads"]]:
            digests = []
            for i, trace in enumerate((0, 0, 1)):
                record_path = os.path.join(work, f"{workload}-{i}.json")
                result, record = run(workload, trace, record_path)
                digests.append(record["digest"])
                if not result["correct"] or result["failed"]:
                    problems.append(f"{workload} run {i}: incorrect {result}")
                names = sorted(result["metrics"])
                if names != expected[trace]:
                    missing = set(expected[trace]) - set(names)
                    extra = set(names) - set(expected[trace])
                    problems.append(
                        f"{workload} trace={trace}: missing {sorted(missing)}"
                        f" extra {sorted(extra)}"
                    )
            if len(set(digests)) != 1:
                problems.append(f"{workload}: digests differ {digests}")
            print(f"{workload}: digest {digests[0][:16]} x3", flush=True)
    finally:
        shutil.rmtree(os.path.dirname(work), ignore_errors=True)
    for problem in problems:
        print("FAIL", problem)
    print("smoke ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

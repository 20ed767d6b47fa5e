"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py --workload sweep --runs 10 --seconds 30

Runs ``run.py --trace 0`` once per seed (1..runs) and prints, per
metric, the median and the interquartile range as a share of the
median (``statistics.quantiles(values, n=4)``), next to the metric's
bound from ``BENCHMARK.json`` when that file is present.  A metric is
steady when its spread is below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)

    bounds = {}
    if os.path.exists("BENCHMARK.json"):
        with open("BENCHMARK.json", encoding="utf-8") as f:
            metrics = json.load(f)["end_to_end"]
        bounds = {m["name"]: m["bound"] for m in metrics}
    values = {}
    for seed in range(1, args.runs + 1):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=True,
        ).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect run {result}", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()
        ), flush=True)
    for name, series in values.items():
        bound = bounds.get(name)
        share = spread(series)
        verdict = "" if bound is None else (
            "steady" if share < bound / 3 else
            "within bound" if share <= bound else "TOO WIDE"
        )
        print(f"{name:20s} median {statistics.median(series):12.5g}  "
              f"spread {share:6.3f}  bound {bound}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

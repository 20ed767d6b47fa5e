"""Shared-pass engine throughput — cells/sec vs per-cell execution.

A sweep grid over one simulator-backed dataset pays for a full stream
pass per cell when executed naively; the shared-pass engine
(:func:`repro.experiments.parallel.run_shared_pass`) generates the
stream once and fans each timestamp out to every (cell, repeat) session.
This bench measures two modes on the same grid:

``per-cell``   one solo pass per cell (no sharing)
``soa``        the shared pass under the structure-of-arrays scheduler
               (:mod:`repro.engine.soa`)

verifies both return bit-identical results, prints the cells/sec
table, and (as a script) writes a JSON record CI uploads so the perf
trajectory is tracked per PR.

Run as a script::

    python benchmarks/bench_shared_pass.py --size smoke --out shared_pass.json

or under pytest (sizes via BENCH_SIZE, like every other bench)::

    pytest benchmarks/bench_shared_pass.py -s
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
if REPO_SRC not in sys.path:  # script mode without an installed package
    sys.path.insert(0, REPO_SRC)

from repro.experiments import DatasetSpec, execute_cells, grid_specs  # noqa: E402

#: Grid per size tier: (n_users, horizon, mechanisms, epsilons, windows).
#: Taxi is generative (per-user Markov chains), so stream generation is
#: O(n_users) per timestamp, and per-cell execution repeats it for every
#: cell — the work the shared pass amortises.  Within one shared pass it
#: is not the dominant layer: ``perfbench/PROFILE.md`` measured Taxi
#: generation at 8 % of a sweep pass and the LPD/LPA sessions at 62 %.
_GRIDS = {
    "smoke": (
        20_000,
        40,
        ("LBU", "LSP", "LBD", "LBA", "LPU", "LPD", "LPA"),
        (0.5, 1.0, 1.5, 2.0),
        (10,),
    ),
    "default": (
        50_000,
        200,
        ("LBU", "LSP", "LBD", "LBA", "LPU", "LPD", "LPA"),
        (0.5, 1.0, 1.5, 2.0),
        (10, 20),
    ),
    "paper": (
        100_000,
        886,
        ("LBU", "LSP", "LBD", "LBA", "LPU", "LPD", "LPA"),
        (0.5, 1.0, 1.5, 2.0, 2.5),
        (10, 20, 30, 40, 50),
    ),
}

_SEED = 17


def _grid(size: str):
    n_users, horizon, mechanisms, epsilons, windows = _GRIDS[size]
    dataset = DatasetSpec.of("Taxi", n_users=n_users, horizon=horizon, seed=_SEED)
    return grid_specs(
        mechanisms,
        dataset,
        epsilons=epsilons,
        windows=windows,
        tag="bench-shared-pass",
    )


def _assert_identical(a, b):
    fields = ("mre", "mae", "mse", "cfpu", "publication_rate", "auc", "repeats")
    for left, right in zip(a, b):
        for field in fields:
            x, y = getattr(left, field), getattr(right, field)
            identical = (x == y) or (
                isinstance(x, float) and math.isnan(x) and math.isnan(y)
            )
            assert identical, f"shared pass diverged on {field}: {x} != {y}"


def _timed(specs, jobs: int, coalesce: bool):
    started = time.perf_counter()
    results = execute_cells(
        specs, base_seed=_SEED, jobs=jobs, coalesce=coalesce
    )
    return results, time.perf_counter() - started


def measure(size: str, jobs: int = 1) -> dict:
    """Run the grid per-cell and SoA-shared; return the throughput
    record (both modes verified bit-identical)."""
    from repro.engine.kernels_fast import backend

    specs = _grid(size)
    # Warm the per-process dataset cache so every mode measures
    # execution, not the first materialisation.
    execute_cells(specs[:1], base_seed=_SEED, jobs=1, coalesce=False)

    per_cell, per_cell_seconds = _timed(specs, jobs, coalesce=False)
    soa, soa_seconds = _timed(specs, jobs, coalesce=True)
    _assert_identical(per_cell, soa)
    cells = len(specs)
    return {
        "bench": "shared_pass",
        "size": size,
        "jobs": jobs,
        "cells": cells,
        "kernels_backend": backend(),
        "per_cell_seconds": per_cell_seconds,
        # "shared": the shared pass, i.e. the SoA scheduler.
        "shared_seconds": soa_seconds,
        "per_cell_cells_per_sec": cells / per_cell_seconds,
        "shared_cells_per_sec": cells / soa_seconds,
        "speedup": per_cell_seconds / soa_seconds,
    }


def _report(record: dict) -> str:
    return (
        f"shared-pass throughput — {record['cells']} cells, "
        f"size={record['size']}, jobs={record['jobs']}, "
        f"kernels={record['kernels_backend']}\n"
        f"{'mode':>12}{'seconds':>10}{'cells/s':>10}\n"
        f"{'per-cell':>12}{record['per_cell_seconds']:>10.2f}"
        f"{record['per_cell_cells_per_sec']:>10.1f}\n"
        f"{'soa':>12}{record['shared_seconds']:>10.2f}"
        f"{record['shared_cells_per_sec']:>10.1f}\n"
        f"speedup: {record['speedup']:.2f}x vs per-cell "
        f"(results bit-identical)"
    )


def test_shared_pass_speedup(size):
    """Pytest entry: shared pass must beat per-cell on generative data."""
    record = measure(size)
    print()
    print(_report(record))
    # The acceptance bar is 2x on an idle machine; assert a conservative
    # floor so a time-shared CI runner cannot flake the suite.
    assert record["speedup"] > 1.5, (
        f"expected the shared pass to amortise stream generation, "
        f"measured {record['speedup']:.2f}x"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", default="smoke", choices=sorted(_GRIDS))
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument(
        "--out", metavar="PATH", default=None, help="write the JSON record here"
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="exit non-zero if the SoA-vs-per-cell speedup falls below this",
    )
    args = parser.parse_args(argv)
    record = measure(args.size, jobs=args.jobs)
    print(_report(record))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.out}")
    if args.min_speedup is not None and record["speedup"] < args.min_speedup:
        print(
            f"FAIL: speedup {record['speedup']:.2f}x < {args.min_speedup}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

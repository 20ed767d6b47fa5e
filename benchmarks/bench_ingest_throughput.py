"""Bulk-ingestion throughput — steps/sec, looped vs chunked sessions.

A trace-free "unbounded" :class:`~repro.engine.StreamSession` advanced
one :meth:`observe` at a time pays Python-level overhead at every
timestamp: context objects, per-step accounting, one oracle draw per
round.  :meth:`observe_many` ingests a whole chunk per call — mechanism
chunk kernels batch their collection rounds through the oracles'
order-preserving run samplers, the accountant charges spans in one
scalar loop, and truth histograms amortise — while staying bit-identical
to the loop (verified here per configuration before timing).

This bench measures steps/sec for the looped and chunked paths over a
small (mechanism × oracle) matrix, trace-free and traced, prints the
table, and (as a script) writes a JSON record CI uploads so the perf
trajectory is tracked per PR.  The headline ``speedup`` is the
worst chunk>=64 trace-free speedup across the *vectorized* rows —
mechanisms with a chunk kernel on oracles whose run sampler is a single
batched draw (OUE/SUE/OLH/HR).  GRR rows are reported too but excluded
from the floor: GRR's per-round binomial→multinomial interleaving
cannot be reordered into one draw without breaking bit-identity, so its
chunked path only sheds the engine overhead around the draws.

The *adaptive* mechanisms get their own section: each row times the
per-step loop, the chunked kernel (a streamlined round loop for every
adaptive mechanism) and the generic per-step
fallback the same chunk sizes used to hit before these kernels existed
(forced by binding the base ``StreamMechanism.step_many`` loop on the
mechanism instance).  Two
workload regimes are measured, because the speedup physically depends
on the publication cadence:

* ``drift`` — the shared noisy workload, where the dissimilarity signal
  is noise-dominated and publications land every few steps.
* ``stable`` — a static stream with a small window and a larger domain,
  which pushes the publication error several sigmas above the
  dissimilarity noise, so LBD never publishes and every round is an M1
  round.

Either way the wins come from hoisted oracle setup, cached error terms
and the amortised engine overhead around the draws.
``adaptive_speedup`` is the worst kernel-vs-fallback ratio across both
regimes and carries a no-regression CI floor (``ADAPTIVE_FLOOR``);
``adaptive_gap_ratio`` publishes each drift row's throughput as a
fraction of its uniform peer's (LBD/LBA vs LBU, LPD/LPA vs LPU) so the
cost of adaptivity is tracked per PR.  The record also carries
``kernels_backend`` (:func:`repro.engine.kernels_fast.backend`, always
``numpy``).

Run as a script::

    python benchmarks/bench_ingest_throughput.py --size smoke --out bench_ingest.json

or under pytest (sizes via BENCH_SIZE, like every other bench)::

    pytest benchmarks/bench_ingest_throughput.py -s
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import types

import numpy as np

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
if REPO_SRC not in sys.path:  # script mode without an installed package
    sys.path.insert(0, REPO_SRC)

from repro.engine import StreamSession  # noqa: E402
from repro.mechanisms.base import StreamMechanism  # noqa: E402
from repro.streams import MaterializedStream  # noqa: E402

#: Workload per size tier: (horizon, n_users, domain_size).
_SIZES = {
    "smoke": (1_500, 2_048, 32),
    "default": (6_000, 8_192, 32),
    "paper": (20_000, 50_000, 32),
}

#: (mechanism, oracle, vectorized) rows; ``vectorized`` rows carry the
#: speedup floor (chunk kernel + single-draw run sampler).
_CONFIGS = (
    ("LBU", "oue", True),
    ("LBU", "olh", True),
    ("LPU", "olh", True),
    ("LBU", "grr", False),
)

#: Adaptive rows: (mechanism, oracle, uniform peer for the gap ratio,
#: regime).  Oracles match the peers' so the gap ratio isolates the cost
#: of adaptivity; stable rows have no peer (different workload).
_ADAPTIVE_CONFIGS = (
    ("LBD", "oue", ("LBU", "oue"), "drift"),
    ("LBA", "oue", ("LBU", "oue"), "drift"),
    ("LPD", "olh", ("LPU", "olh"), "drift"),
    ("LPA", "olh", ("LPU", "olh"), "drift"),
    ("LBD", "oue", None, "stable"),
)

_CHUNKS = (64, 256)
_SEED = 23
_WINDOW = 10
_EPSILON = 1.0

#: Stable-regime workload: a static stream with a small window and a
#: larger domain keeps the publication error ~6 sigmas above the
#: dissimilarity noise, so LBD never publishes.
_STABLE_WINDOW = 2
_STABLE_DOMAIN = 64

#: CI rail for the adaptive kernels (vs the generic per-step fallback),
#: conservative so a time-shared CI runner cannot flake the suite.  The
#: kernels issue one round at a time, and the draws bound the achievable
#: win to ~1.1-2x, so the rail only guards against regressing below
#: fallback speed, in both regimes.
ADAPTIVE_FLOOR = 1.0


def _dataset(size: str, stable: bool = False) -> MaterializedStream:
    horizon, n_users, domain = _SIZES[size]
    rng = np.random.default_rng(_SEED)
    if stable:
        base = rng.integers(0, _STABLE_DOMAIN, size=n_users)
        values = np.tile(base, (horizon, 1))
        return MaterializedStream(values, domain_size=_STABLE_DOMAIN)
    values = rng.integers(0, domain, size=(horizon, n_users))
    return MaterializedStream(values, domain_size=domain)


def _session(
    dataset,
    mechanism,
    oracle,
    record_trace,
    force_fallback=False,
    window=_WINDOW,
):
    session = StreamSession(
        mechanism,
        dataset,
        _EPSILON,
        window,
        oracle=oracle,
        seed=_SEED,
        record_trace=record_trace,
    )
    if force_fallback:
        # Shadow the kernel on this instance with the base per-step
        # loop, which is what every adaptive mechanism ran before it
        # grew a chunk kernel.
        session.mechanism.step_many = types.MethodType(
            StreamMechanism.step_many, session.mechanism
        )
    return session.start()


def _drive(session, horizon: int, chunk: int) -> float:
    """Advance ``session`` over the horizon; return elapsed seconds."""
    started = time.perf_counter()
    if chunk == 1:
        for t in range(horizon):
            session.observe(t)
    else:
        t = 0
        while t < horizon:
            t += len(session.observe_many(t, min(chunk, horizon - t)))
    return time.perf_counter() - started


def _assert_identical(dataset, mechanism, oracle, horizon, window=_WINDOW):
    """Chunked releases must equal the looped ones bit for bit."""
    looped = _session(
        dataset, mechanism, oracle, record_trace=True, window=window
    )
    _drive(looped, horizon, 1)
    chunked = _session(
        dataset, mechanism, oracle, record_trace=True, window=window
    )
    _drive(chunked, horizon, 97)  # deliberately window-misaligned
    a, b = looped.finalize(), chunked.finalize()
    assert np.array_equal(a.releases, b.releases), (
        f"chunked ingestion diverged for {mechanism}/{oracle}"
    )
    assert a.total_reports == b.total_reports
    assert a.max_window_spend == b.max_window_spend


def measure(size: str) -> dict:
    """Time every configuration; return the throughput record."""
    from repro.engine.kernels_fast import backend

    horizon, n_users, domain = _SIZES[size]
    dataset = _dataset(size)
    check_span = min(horizon, 400)
    rows = []
    for mechanism, oracle, vectorized in _CONFIGS:
        _assert_identical(dataset, mechanism, oracle, check_span)
        row = {
            "mechanism": mechanism,
            "oracle": oracle,
            "vectorized": vectorized,
        }
        for record_trace in (False, True):
            label = "traced" if record_trace else "trace_free"
            looped = _drive(
                _session(dataset, mechanism, oracle, record_trace),
                horizon,
                1,
            )
            row[f"{label}_looped_steps_per_sec"] = horizon / looped
            for chunk in _CHUNKS:
                chunked = _drive(
                    _session(dataset, mechanism, oracle, record_trace),
                    horizon,
                    chunk,
                )
                row[f"{label}_chunk{chunk}_steps_per_sec"] = horizon / chunked
                row[f"{label}_chunk{chunk}_speedup"] = looped / chunked
        rows.append(row)
    floor_rows = [row for row in rows if row["vectorized"]]
    speedup = min(
        max(row[f"trace_free_chunk{chunk}_speedup"] for chunk in _CHUNKS)
        for row in floor_rows
    )
    peer_best = {
        (row["mechanism"], row["oracle"]): max(
            row[f"trace_free_chunk{chunk}_steps_per_sec"] for chunk in _CHUNKS
        )
        for row in rows
    }
    adaptive_rows = []
    stable_dataset = None
    for mechanism, oracle, peer, regime in _ADAPTIVE_CONFIGS:
        stable = regime == "stable"
        if stable and stable_dataset is None:
            stable_dataset = _dataset(size, stable=True)
        data = stable_dataset if stable else dataset
        window = _STABLE_WINDOW if stable else _WINDOW
        _assert_identical(data, mechanism, oracle, check_span, window=window)
        row = {"mechanism": mechanism, "oracle": oracle, "regime": regime}
        looped = _drive(
            _session(data, mechanism, oracle, False, window=window),
            horizon,
            1,
        )
        row["trace_free_looped_steps_per_sec"] = horizon / looped
        fallback = _drive(
            _session(
                data,
                mechanism,
                oracle,
                False,
                force_fallback=True,
                window=window,
            ),
            horizon,
            max(_CHUNKS),
        )
        row["trace_free_fallback_steps_per_sec"] = horizon / fallback
        best = 0.0
        for chunk in _CHUNKS:
            chunked = _drive(
                _session(data, mechanism, oracle, False, window=window),
                horizon,
                chunk,
            )
            row[f"trace_free_chunk{chunk}_steps_per_sec"] = horizon / chunked
            row[f"trace_free_chunk{chunk}_speedup"] = looped / chunked
            best = max(best, horizon / chunked)
        row["kernel_speedup"] = best / (horizon / fallback)
        if peer is not None:
            row["uniform_peer"] = f"{peer[0]}/{peer[1]}"
            row["gap_ratio"] = best / peer_best[peer]
        adaptive_rows.append(row)
    adaptive_speedup = min(row["kernel_speedup"] for row in adaptive_rows)
    return {
        "bench": "ingest_throughput",
        "size": size,
        "kernels_backend": backend(),
        "horizon": horizon,
        "n_users": n_users,
        "domain_size": domain,
        "chunks": list(_CHUNKS),
        "rows": rows,
        # Headline floor: every vectorized (chunk kernel + batched run
        # sampler) row's best trace-free speedup at chunk >= 64; the
        # minimum across rows is what the CI rail guards.
        "speedup": speedup,
        "adaptive_rows": adaptive_rows,
        # Worst kernel-vs-per-step-fallback ratio over every adaptive row
        # (trace-free, best chunk); its CI rail keeps the kernels from
        # regressing to fallback speed in either regime.
        "adaptive_speedup": adaptive_speedup,
        # Worst drift-row throughput as a fraction of its uniform peer's —
        # the tracked "cost of adaptivity" under chunked ingestion.
        "adaptive_gap_ratio": min(
            row["gap_ratio"] for row in adaptive_rows if "gap_ratio" in row
        ),
    }


def _report(record: dict) -> str:
    lines = [
        f"bulk-ingestion throughput — size={record['size']} "
        f"(T={record['horizon']}, N={record['n_users']}, "
        f"d={record['domain_size']}), steps/sec",
        f"{'config':>10} {'mode':>11} {'looped':>9} "
        + "".join(f"{f'chunk {c}':>10}{'':>8}" for c in record["chunks"]),
    ]
    for row in record["rows"]:
        config = f"{row['mechanism']}/{row['oracle']}"
        for label, title in (("trace_free", "trace-free"), ("traced", "traced")):
            cells = "".join(
                f"{row[f'{label}_chunk{c}_steps_per_sec']:>10.0f}"
                f"{row[f'{label}_chunk{c}_speedup']:>7.2f}x"
                for c in record["chunks"]
            )
            lines.append(
                f"{config:>10} {title:>11} "
                f"{row[f'{label}_looped_steps_per_sec']:>9.0f}{cells}"
            )
    lines.append(
        f"floor speedup (vectorized rows, trace-free, chunk >= 64): "
        f"{record['speedup']:.2f}x (results bit-identical)"
    )
    lines.append("adaptive kernels (trace-free, steps/sec):")
    for row in record["adaptive_rows"]:
        config = f"{row['mechanism']}/{row['oracle']}"
        cells = "".join(
            f"{row[f'trace_free_chunk{c}_steps_per_sec']:>10.0f}"
            f"{row[f'trace_free_chunk{c}_speedup']:>7.2f}x"
            for c in record["chunks"]
        )
        gap = (
            f", {row['gap_ratio']:.0%} of {row['uniform_peer']}"
            if "gap_ratio" in row
            else ""
        )
        lines.append(
            f"{config:>10} {row['regime']:>11} "
            f"{row['trace_free_looped_steps_per_sec']:>9.0f}{cells}"
            f"  | fallback {row['trace_free_fallback_steps_per_sec']:>7.0f}"
            f" -> {row['kernel_speedup']:.2f}x{gap}"
        )
    lines.append(
        f"adaptive floor: worst kernel {record['adaptive_speedup']:.2f}x "
        f"over per-step fallback; "
        f"worst uniform-gap ratio {record['adaptive_gap_ratio']:.0%}"
    )
    return "\n".join(lines)


def test_chunked_ingest_speedup(size):
    """Pytest entry: chunked ingestion must beat the per-step loop."""
    record = measure(size)
    print()
    print(_report(record))
    # The acceptance bar is 2x on an idle machine; assert a conservative
    # floor so a time-shared CI runner cannot flake the suite.
    assert record["speedup"] > 1.6, (
        f"expected chunked ingestion to amortise per-step overhead, "
        f"measured {record['speedup']:.2f}x"
    )
    assert record["adaptive_speedup"] > ADAPTIVE_FLOOR, (
        f"expected the adaptive chunk kernels to beat the per-step "
        f"fallback, measured {record['adaptive_speedup']:.2f}x"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", default="smoke", choices=sorted(_SIZES))
    parser.add_argument(
        "--out", metavar="PATH", default=None, help="write the JSON record here"
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="exit non-zero if the floor speedup falls below this",
    )
    parser.add_argument(
        "--min-adaptive-speedup",
        type=float,
        default=None,
        help="exit non-zero if the worst adaptive "
        "kernel-vs-fallback ratio falls below this",
    )
    args = parser.parse_args(argv)
    record = measure(args.size)
    print(_report(record))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.out}")
    failed = False
    if args.min_speedup is not None and record["speedup"] < args.min_speedup:
        print(
            f"FAIL: speedup {record['speedup']:.2f}x < {args.min_speedup}x",
            file=sys.stderr,
        )
        failed = True
    if (
        args.min_adaptive_speedup is not None
        and record["adaptive_speedup"] < args.min_adaptive_speedup
    ):
        print(
            f"FAIL: adaptive speedup {record['adaptive_speedup']:.2f}x "
            f"< {args.min_adaptive_speedup}x",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

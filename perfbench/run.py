"""LDP-IDS benchmark: one command, three workloads, every metric by name.

Run from the repository root::

    python3 perfbench/run.py --workload sweep  --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload stream --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload serve  --seed 1 --seconds 30 --trace 0

The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones (see
``perfbench/README.md`` for what each means and which workload moves
it).  A human-readable table and the full run record (git SHA, host,
CPU count, numpy version, kernel backend, digest) go to stderr;
``--record PATH`` also writes the record as JSON.

The program under test runs from ``src/`` of the current directory,
in child processes started with ``PYTHONPATH=src``; the benchmark
builds nothing.

Set-up, ``sweep``/``stream`` round and chunk times and the ``serve``
burst rate are reported on the scale of the host-speed reference
(``perfbench/calibrate.py``), timed next to every sample; the record
keeps the raw times and the reference times.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import serve_load  # noqa: E402
import tracer as tracing  # noqa: E402

WORKLOADS = ("sweep", "stream", "serve")
#: Set-up is measured this many times per run; the median is reported.
SETUP_SAMPLES = 11
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
}
CHILD_TIMEOUT_S = 170.0


def _env(root: str, trace_dir: str = "") -> dict:
    """Child environment: ``src`` on the path; with ``trace_dir``, also
    the tracing ``sitecustomize`` (every child process traces itself)."""
    env = dict(os.environ)
    env.pop("PERFBENCH_TRACE_DIR", None)
    # Set-up times start from cached bytecode, as an installed package
    # would, whether or not the caller's environment writes bytecode.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(
        root, ".perfbench-work", "pycache"
    )
    paths = [os.path.join(root, "src")]
    if trace_dir:
        paths.insert(0, os.path.join(HERE, "site"))
        env["PERFBENCH_TRACE_DIR"] = trace_dir
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env.setdefault("OMP_NUM_THREADS", "1")
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    return env


def _git_sha(root: str) -> str:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(root, ".git", ref[5:])
            with open(ref_path, encoding="ascii") as f:
                return f.read().strip()
        return ref
    except OSError:
        return "unknown"


def _environment(root: str, env: dict) -> dict:
    probe = subprocess.run(
        [sys.executable, "-c",
         "import numpy, repro.engine.kernels_fast as k;"
         "print(numpy.__version__, k.backend())"],
        cwd=root, env=env, capture_output=True, text=True, timeout=60,
    )
    numpy_version, backend = (probe.stdout.split() + ["?", "?"])[:2]
    return {
        "sha": _git_sha(root),
        "host": platform.node(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "backend": backend,
    }


# --------------------------------------------------------------------------
# sweep / stream: a child process per measurement
def _child(root, env, args, ready_only=False):
    """Start ``workloads.py``; return (set-up s, parsed result or None)."""
    command = [
        sys.executable, os.path.join(HERE, "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--size", args.size,
    ]
    if ready_only:
        command.append("--setup-only")
    started = time.perf_counter()
    process = subprocess.Popen(
        command, cwd=root, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
    )
    try:
        first = process.stdout.readline()
        setup_s = time.perf_counter() - started
        out, err = process.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    if first.strip() != "READY" or process.returncode != 0:
        raise RuntimeError(f"{args.workload} child failed:\n{err[-2000:]}")
    if ready_only:
        return setup_s, None
    return setup_s, json.loads(out.strip().splitlines()[-1])


def _percentile_ms(values, q):
    return 1000.0 * serve_load.percentile(values, q)


def _normalised(times, references):
    """``times[i]`` on the reference scale, bracketed by ``references``."""
    return [t * s for t, s in zip(times, calibrate.scales(references))]


def setup_samples(start, record):
    """Median normalised set-up over ``SETUP_SAMPLES`` calls of
    ``start()`` (each returns raw set-up s), each between two timings
    of the reference; the raw samples go to ``record``."""
    calibrate.reference()  # warm-up: first-call numpy costs
    references = [calibrate.reference()]
    raw = []
    for _ in range(SETUP_SAMPLES):
        raw.append(start())
        references.append(calibrate.reference())
    record["setup_samples_s"] = raw
    record["setup_reference_s"] = references
    return statistics.median(_normalised(raw, references))


def run_engine_workload(root, env, args):
    record = {}
    if not args.trace:
        setup_s = setup_samples(
            lambda: _child(root, env, args, ready_only=True)[0], record
        )
    _, result = _child(root, env, args)
    ops = result["ops_per_round"]
    attempted = ops * (len(result["round_s"]) + 1)
    failed = ops * result["bad_rounds"]
    scales = calibrate.scales(result["reference_s"])
    rounds = [t * s for t, s in zip(result["round_s"], scales)]
    record.update(
        digest=result["digest"],
        rounds=len(rounds),
        warmup_s=result["warmup_s"],
        round_s=result["round_s"],
        reference_s=result["reference_s"],
    )
    if not args.trace:
        latencies = [
            t * s
            for lat, s in zip(result["latencies_s"], scales)
            for t in lat
        ]
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": result["peak_rss_mb"],
            "throughput_per_s": statistics.median(ops / r for r in rounds),
            "latency_p50_ms": _percentile_ms(latencies, 50),
            "latency_p99_ms": _percentile_ms(latencies, 99),
        }
        return attempted, failed, metrics, record
    traced = _normalised(
        result["traced_round_s"], result["traced_reference_s"]
    )
    attempted += ops * len(traced)
    if not (result["traced_digests_match"] and result["traced_private"]):
        failed += ops * len(traced)
    record["traced_round_s"] = result["traced_round_s"]
    record["traced_reference_s"] = result["traced_reference_s"]
    record["traced_digests_match"] = result["traced_digests_match"]
    record["layers_detail"] = result["trace"]
    metrics = tracing.layer_metrics(result["trace"], len(traced))
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(rounds) - 1.0
    )
    metrics["loadgen.lag_p99_ms"] = 0.0
    metrics["loadgen.query_p50_ms"] = 0.0
    metrics["loadgen.query_p99_ms"] = 0.0
    return attempted, failed, metrics, record


# --------------------------------------------------------------------------
# serve
def run_serve(root, env, args, work):
    size = args.size
    n_users = serve_load.SIZES[size][0]
    plain = serve_load.run_once(root, work, args.seed, args.seconds, size, env)
    attempted, failed = plain["attempted"], plain["failed"]
    record = {"untraced": plain, "digest": plain["digest"]}
    if not args.trace:
        setup_s = setup_samples(
            lambda: serve_load.setup_probe(root, work, args.seed, n_users, env),
            record,
        )
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": plain["peak_rss_mb"],
            "throughput_per_s": plain["burst_rate_per_s"],
            "latency_p50_ms": plain["ingest_p50_ms"],
            "latency_p99_ms": plain["ingest_p99_ms"],
        }
        return attempted, failed, metrics, record
    trace_dir = os.path.join(work, "trace")
    os.makedirs(trace_dir, exist_ok=True)
    traced_env = _env(root, trace_dir=trace_dir)
    traced = serve_load.run_once(
        root, work, args.seed, args.seconds, size, traced_env
    )
    attempted += traced["attempted"]
    failed += traced["failed"]
    dumps = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "trace-*.json"))):
        with open(path, encoding="utf-8") as f:
            dumps.append(json.load(f))
    if len(dumps) < 2 or traced["digest"] != plain["digest"]:
        # Front and shard worker must both report, and observing must
        # not change a single output byte.
        failed += traced["attempted"]
    merged = tracing.merge(dumps)
    record.update(traced=traced, trace_processes=len(dumps),
                  layers_detail=merged)
    metrics = tracing.layer_metrics(merged, 1)
    metrics["trace.overhead_ratio"] = (
        plain["burst_rate_per_s"] / traced["burst_rate_per_s"] - 1.0
    )
    metrics["loadgen.lag_p99_ms"] = plain["lag_p99_ms"]
    metrics["loadgen.query_p50_ms"] = plain["query_p50_ms"]
    metrics["loadgen.query_p99_ms"] = plain["query_p99_ms"]
    return attempted, failed, metrics, record


def _unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("self_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("default", "tiny"),
        default="default",
        help="'tiny' is the self-test size (perfbench/smoke.py)",
    )
    parser.add_argument("--record", metavar="PATH",
                        help="also write the full run record as JSON")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("error: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2
    env = _env(root)
    work = os.path.join(root, ".perfbench-work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        started = time.perf_counter()
        if args.workload == "serve":
            outcome = run_serve(root, env, args, work)
        else:
            outcome = run_engine_workload(root, env, args)
        attempted, failed, metrics, record = outcome
        record.update(
            workload=args.workload, seed=args.seed, seconds=args.seconds,
            trace=args.trace, size=args.size,
            wall_s=time.perf_counter() - started,
            environment=_environment(root, env),
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    result = {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": _unit(name)}
            for name, value in metrics.items()
        },
    }
    record["result"] = result
    for name, value in metrics.items():
        print(f"{name:48s} {value:14.6g} {_unit(name)}", file=sys.stderr)
    print(f"digest {record['digest']}", file=sys.stderr)
    if args.record:
        with open(args.record, "w", encoding="utf-8") as f:
            json.dump(record, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

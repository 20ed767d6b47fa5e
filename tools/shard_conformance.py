"""Black-box conformance checker for the sharded serving tier.

Replays one seeded stream through every requested shard count and
enforces the two-tier contract of ``docs/SERVING.md``:

1. **Count exactness** — for every frequency oracle and every shard
   count, aggregating each shard's LDP reports separately and merging
   the support counts reproduces the single-process aggregation of the
   whole population *bit for bit* (frequencies, variance, supports).
2. **Solo exactness** — a 1-shard :class:`repro.serving.ShardedSession`
   is bit-identical to a plain :class:`repro.engine.StreamSession`
   (releases, variances, strategies at every timestamp).
3. **Statistical conformance** — at K > 1 the merged releases match the
   solo run within the propagated deviation ``z * sqrt(var_merged +
   var_solo)`` cell by cell (independent unbiased estimates of the same
   stream).
4. **Server exactness** (``--mode server`` / ``both``) — a live
   ``repro serve --shards K`` subprocess, fed the same stream over its
   socket, answers every ingest ack and every point/topk/range/sliding/
   summary query bit-identically to the serial reference session.  The
   feed cycles JSON ``values``, b64 ``u1`` and b64 ``u2`` lines (those
   that fit the domain), so the packed wire forms face the same check.
   Its first part is closed-loop (one ingest, one ack); its last
   ``3 * chunk + 1`` ingests, with a pinned query in their middle, are
   written before any reply is read, so two flushes are in flight while
   the front parses the next batch.

Writes a JSON report and exits non-zero on any violation::

    python tools/shard_conformance.py --shards 1 2 4 8 --mode both \
        --out shard_conformance.json
"""

from __future__ import annotations

import argparse
import base64
import json
import os
import signal
import socket
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
REPO_SRC = REPO_ROOT / "src"
if str(REPO_SRC) not in sys.path:
    sys.path.insert(0, str(REPO_SRC))

from repro.engine.session import StreamSession  # noqa: E402
from repro.freq_oracles import get_oracle  # noqa: E402
from repro.query import ReleaseStore  # noqa: E402
from repro.serving import ShardedSession  # noqa: E402
from repro.streams.online import OnlineStream  # noqa: E402

ORACLES = ["grr", "oue", "sue", "olh", "hr"]


def make_feed(steps: int, n_users: int, domain: int, seed: int):
    rng = np.random.default_rng(seed)
    return rng.integers(0, domain, size=(steps, n_users), dtype=np.int64)


# ----------------------------------------------------------------------
# Check 1: shard-merged collection counts are exact for all oracles.
# ----------------------------------------------------------------------
def check_count_exactness(shards: List[int], seed: int) -> dict:
    from repro.engine.collector import Collector

    rng = np.random.default_rng(seed)
    failures = []
    trials = 0
    for oracle_name in ORACLES:
        oracle = get_oracle(oracle_name)
        for k in [s for s in shards if s > 1] or [2]:
            d = int(rng.integers(4, 32))
            n = max(8 * k, int(rng.integers(100, 400)))
            epsilon = float(rng.choice([0.5, 1.0, 2.0]))
            values = rng.integers(0, d, size=n)
            reports = oracle.perturb(values, d, epsilon, rng)
            whole = oracle.aggregate(reports, d, epsilon)
            perm = rng.permutation(n)
            parts = [
                oracle.aggregate(reports[idx], d, epsilon)
                for idx in np.array_split(perm, k)
            ]
            merged = Collector.merge(parts, oracle_name)
            trials += 1
            exact = (
                merged.n_reports == whole.n_reports
                and np.array_equal(merged.frequencies, whole.frequencies)
                and merged.variance == whole.variance
                and np.array_equal(merged.supports, whole.supports)
            )
            if not exact:
                failures.append(
                    {"oracle": oracle_name, "k": k, "d": d, "n": n}
                )
    return {
        "check": "count_exactness",
        "trials": trials,
        "failures": failures,
        "ok": not failures,
    }


# ----------------------------------------------------------------------
# Checks 2+3: serial sharded sessions vs the solo session.
# ----------------------------------------------------------------------
def _solo_store(args, block) -> ReleaseStore:
    stream = OnlineStream(
        n_users=args.n_users,
        domain_size=args.domain_size,
        retain=max(4, args.chunk),
    )
    store = ReleaseStore(args.domain_size, capacity=None)
    session = StreamSession(
        args.method,
        stream,
        epsilon=args.epsilon,
        window=args.window,
        oracle=args.oracle,
        seed=args.seed,
        record_trace=False,
        store=store,
    ).start()
    for i in range(0, block.shape[0], args.chunk):
        part = block[i : i + args.chunk]
        for row in part:
            stream.push(row)
        session.observe_many(i, part.shape[0])
    return store


def _serial_session(args, block, k: int) -> ShardedSession:
    session = ShardedSession(
        args.method,
        n_users=args.n_users,
        domain_size=args.domain_size,
        epsilon=args.epsilon,
        window=args.window,
        num_shards=k,
        oracle=args.oracle,
        seed=args.seed,
        capacity=None,
        retain=max(4, args.chunk),
    ).start()
    for i in range(0, block.shape[0], args.chunk):
        session.ingest_many(block[i : i + args.chunk])
    return session


def check_serial(args, block, solo: ReleaseStore, k: int) -> dict:
    merged = _serial_session(args, block, k).merged
    steps = block.shape[0]
    if k == 1:
        mismatches = [
            t
            for t in range(steps)
            if not np.array_equal(merged.release_at(t), solo.release_at(t))
            or merged.variance_at(t) != solo.variance_at(t)
            or merged.strategy_at(t) != solo.strategy_at(t)
        ]
        return {
            "check": "solo_exactness",
            "shards": 1,
            "steps": steps,
            "mismatched_timestamps": mismatches,
            "ok": not mismatches,
        }
    worst = 0.0
    violations = []
    for t in range(steps):
        tolerance = args.z * float(
            np.sqrt(
                max(merged.variance_at(t), 0.0)
                + max(solo.variance_at(t), 0.0)
            )
        )
        gap = float(
            np.abs(merged.release_at(t) - solo.release_at(t)).max()
        )
        ratio = gap / tolerance if tolerance > 0 else float("inf")
        worst = max(worst, ratio)
        if gap > tolerance:
            violations.append({"t": t, "gap": gap, "tolerance": tolerance})
    return {
        "check": "statistical_conformance",
        "shards": k,
        "steps": steps,
        "z": args.z,
        "worst_gap_over_tolerance": worst,
        "violations": violations,
        "ok": not violations,
    }


# ----------------------------------------------------------------------
# Check 4: the live socket server vs the serial reference.
# ----------------------------------------------------------------------
class _Client:
    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        self.rfile = self.sock.makefile("r", encoding="utf-8")
        self.wfile = self.sock.makefile("w", encoding="utf-8")

    def send(self, request: dict) -> None:
        self.wfile.write(json.dumps(request) + "\n")
        self.wfile.flush()

    def recv(self) -> dict:
        line = self.rfile.readline()
        if not line:
            raise RuntimeError("server closed the connection")
        return json.loads(line)

    def ask(self, request: dict) -> dict:
        self.send(request)
        return self.recv()

    def close(self):
        self.sock.close()


def _queries(args) -> List[dict]:
    steps, d = args.steps, args.domain_size
    requests = [{"op": "point", "item": item} for item in range(d)]
    requests += [
        {"op": "point", "item": 0, "t": steps // 2},
        {"op": "topk", "k": min(5, d)},
        {"op": "range", "lo": 0, "hi": d // 2},
        {
            "op": "sliding",
            "t0": max(0, steps - 6),
            "t1": steps - 1,
            "agg": "sum",
            "item": 1,
        },
    ]
    return requests


#: The packed ingest encodings the live feed cycles through.
_PACKED = {"u1": np.uint8, "u2": np.uint16}


def _wire_tags(domain_size: int) -> List[str]:
    """The ingest encodings that can carry every value of the domain."""
    return ["values"] + [
        tag
        for tag, dtype in _PACKED.items()
        if domain_size - 1 <= np.iinfo(dtype).max
    ]


def _ingest_request(row: np.ndarray, tag: str) -> dict:
    if tag == "values":
        return {"op": "ingest", "values": row.tolist()}
    packed = row.astype(_PACKED[tag]).tobytes()
    return {
        "op": "ingest",
        "b64": base64.b64encode(packed).decode("ascii"),
        "dtype": tag,
    }


def _serial_answer(serial: ShardedSession, request: dict) -> dict:
    engine = serial.engine
    op = request["op"]
    t = request.get("t")
    if op == "point":
        return {
            "op": op,
            "item": request["item"],
            **engine.point(request["item"], t=t).as_dict(),
        }
    if op == "topk":
        return {
            "op": op,
            "items": [e.as_dict() for e in engine.topk(request["k"], t=t)],
        }
    if op == "range":
        return {
            "op": op,
            "lo": request["lo"],
            "hi": request["hi"],
            **engine.range_count(request["lo"], request["hi"], t=t).as_dict(),
        }
    if op == "sliding":
        return {
            "op": op,
            "item": request["item"],
            **engine.sliding(
                request["t0"], request["t1"], request["agg"],
                item=request["item"],
            ).as_dict(),
        }
    raise ValueError(op)


def _pipelined_requests(args, block, tags, first: int) -> List[dict]:
    """Ingests ``first..steps`` with two queries pinned at the timestamp
    acked just before them, halfway through."""
    requests = [
        _ingest_request(block[t], tags[t % len(tags)])
        for t in range(first, args.steps)
    ]
    half = max(1, (args.steps - first) // 2)
    t_mid = first + half - 1
    queries = [
        {"op": "point", "item": 0, "t": t_mid},
        {"op": "topk", "k": min(3, args.domain_size), "t": t_mid},
    ]
    return requests[:half] + queries + requests[half:]


def check_server(args, block, k: int) -> dict:
    serial = _serial_session(args, block, k)
    first_pipelined = max(0, args.steps - (3 * args.chunk + 1))
    cmd = [
        sys.executable, "-m", "repro", "serve",
        "--shards", str(k), "--n-users", str(args.n_users),
        "--method", args.method, "--oracle", args.oracle,
        "--domain-size", str(args.domain_size),
        "--epsilon", str(args.epsilon), "--window", str(args.window),
        "--seed", str(args.seed), "--chunk", str(args.chunk),
        "--capacity", "0",
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC)
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    mismatches: List[dict] = []
    tags = _wire_tags(args.domain_size)
    try:
        hello = json.loads(proc.stdout.readline() or "{}")
        if hello.get("event") != "listening":
            raise RuntimeError(
                f"server failed to start: {proc.stderr.read()}"
            )
        client = _Client(int(hello["port"]))
        try:
            for t in range(first_pipelined):
                tag = tags[t % len(tags)]
                got = client.ask(_ingest_request(block[t], tag))
                _check_ack(serial, t, got, mismatches)
            burst = _pipelined_requests(args, block, tags, first_pipelined)
            for request in burst:
                client.send(request)
            t = first_pipelined
            for request in burst:
                got = client.recv()
                if request["op"] == "ingest":
                    _check_ack(serial, t, got, mismatches)
                    t += 1
                    continue
                as_of = got.pop("as_of", None)
                if as_of != t - 1:
                    mismatches.append(
                        {"query": request, "as_of": as_of, "want": t - 1}
                    )
                want = _serial_answer(serial, request)
                if got != want:
                    mismatches.append(
                        {"query": request, "got": got, "want": want}
                    )
            for request in _queries(args):
                got = client.ask(request)
                got.pop("as_of", None)
                want = _serial_answer(serial, request)
                if got != want:
                    mismatches.append(
                        {"query": request, "got": got, "want": want}
                    )
            client.ask({"op": "shutdown"})
        finally:
            client.close()
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
    return {
        "check": "server_exactness",
        "shards": k,
        "steps": args.steps,
        "queries": args.steps + len(_queries(args)) + 2,
        "pipelined_ingests": args.steps - first_pipelined,
        "encodings": tags,
        "mismatches": mismatches,
        "ok": not mismatches,
    }


def _check_ack(serial: ShardedSession, t: int, got: dict, mismatches) -> None:
    want = serial.merged.strategy_at(t)
    if got.get("t") != t or got.get("strategy") != want:
        mismatches.append({"query": {"op": "ingest", "t": t}, "got": got})


# ----------------------------------------------------------------------
def run_conformance(args) -> dict:
    block = make_feed(
        args.steps, args.n_users, args.domain_size, args.feed_seed
    )
    checks = [check_count_exactness(args.shards, args.feed_seed)]
    if args.mode in ("serial", "both"):
        solo = _solo_store(args, block)
        for k in args.shards:
            checks.append(check_serial(args, block, solo, k))
    if args.mode in ("server", "both"):
        for k in args.shards:
            checks.append(check_server(args, block, k))
    report = {
        "config": {
            "method": args.method,
            "oracle": args.oracle,
            "n_users": args.n_users,
            "domain_size": args.domain_size,
            "epsilon": args.epsilon,
            "window": args.window,
            "steps": args.steps,
            "chunk": args.chunk,
            "seed": args.seed,
            "feed_seed": args.feed_seed,
            "shards": args.shards,
            "mode": args.mode,
            "z": args.z,
        },
        "checks": checks,
        "ok": all(c["ok"] for c in checks),
    }
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shards", type=int, nargs="+",
                        default=[1, 2, 4, 8])
    parser.add_argument("--mode", choices=["serial", "server", "both"],
                        default="both")
    parser.add_argument("--method", default="LBD")
    parser.add_argument("--oracle", default="grr")
    parser.add_argument("--n-users", type=int, default=96)
    parser.add_argument("--domain-size", type=int, default=8)
    parser.add_argument("--epsilon", type=float, default=1.0)
    parser.add_argument("--window", type=int, default=6)
    parser.add_argument("--steps", type=int, default=24)
    parser.add_argument("--chunk", type=int, default=4)
    parser.add_argument("--seed", type=int, default=7,
                        help="session master seed")
    parser.add_argument("--feed-seed", type=int, default=51,
                        help="seed of the replayed stream")
    parser.add_argument("--z", type=float, default=8.0,
                        help="statistical tolerance in propagated sigmas")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    report = run_conformance(args)
    for check in report["checks"]:
        label = check["check"]
        shard = check.get("shards", "-")
        status = "ok" if check["ok"] else "FAIL"
        print(f"  {label:<26} shards={shard:<3} {status}")
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"report written to {args.out}")
    if not report["ok"]:
        print("conformance FAILED", file=sys.stderr)
        return 1
    print("conformance passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Crash-injection harness for durable ``repro serve`` sessions.

The exactly-once resume contract of ``repro serve --state-dir`` is a
strong claim: SIGKILL the server at *any* point — between chunks, mid
``observe_many`` chunk, even mid WAL write — restart it with the
replayed feed, and the union of what it released before and after the
crash is **byte-for-byte** what an uninterrupted server would have
released.  This harness proves the claim empirically:

1. generate a deterministic ingest feed (pure function of ``--seed``)
   followed by a fixed tail of queries;
2. run one uninterrupted durable server — the reference: its final
   query answers, summary and committed WAL rows;
3. for each of ``--kills`` trials, start a fresh durable server, feed a
   seeded random prefix of the ingest lines, SIGKILL it after a seeded
   random number of acks (so the kill lands at arbitrary internal
   points, including mid-chunk and mid-fsync), then restart it with the
   *full* feed and let it run to EOF;
4. assert the trial's final answers, summary (accountant spend, report
   counts) and complete WAL equal the reference's exactly.

Mid-chunk coverage comes for free: with ``--chunk N > 1`` the killed
prefix usually ends inside a buffered chunk, and the ack-triggered kill
races the server's flush loop, so across 25 trials the process dies in
every phase of chunk ingestion.

Run standalone (CI does) or import :func:`run_crashtest` from tests::

    python tools/crashtest.py --kills 25 --seed 0 --out report.json
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
REPO_SRC = REPO_ROOT / "src"


def make_feed(
    seed: int,
    steps: int,
    n_users: int,
    domain_size: int,
) -> List[str]:
    """Deterministic ingest feed + fixed query tail (one line each)."""
    rng = np.random.default_rng(seed)
    lines = [
        json.dumps(
            {
                "op": "ingest",
                "values": rng.integers(0, domain_size, size=n_users).tolist(),
            }
        )
        for _ in range(steps)
    ]
    lines += [
        json.dumps({"op": "topk", "k": 3}),
        json.dumps({"op": "point", "item": 0}),
        json.dumps({"op": "sliding", "t0": steps - 10, "t1": steps - 1,
                    "agg": "sum", "item": 1}),
        json.dumps({"op": "summary"}),
    ]
    return lines


def serve_command(args: argparse.Namespace, state_dir: Path) -> List[str]:
    return [
        sys.executable,
        "-m",
        "repro",
        "serve",
        "--method",
        args.method,
        "--oracle",
        args.oracle,
        "--domain-size",
        str(args.domain_size),
        "--epsilon",
        str(args.epsilon),
        "--window",
        str(args.window),
        "--seed",
        str(args.session_seed),
        "--chunk",
        str(args.chunk),
        "--capacity",
        "0",
        "--state-dir",
        str(state_dir),
        "--checkpoint-every",
        str(args.checkpoint_every),
    ]


def _env() -> dict:
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC)
    return env


def run_to_completion(cmd: Sequence[str], feed: Sequence[str]) -> List[str]:
    """Run the server over the whole feed; return its stdout lines."""
    proc = subprocess.run(
        list(cmd),
        input="\n".join(feed) + "\n",
        capture_output=True,
        text=True,
        env=_env(),
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"serve exited {proc.returncode}: {proc.stderr.strip()}"
        )
    return proc.stdout.strip().split("\n") if proc.stdout.strip() else []


def kill_after(
    cmd: Sequence[str],
    feed: Sequence[str],
    feed_lines: int,
    ack_trigger: int,
    timeout: float = 30.0,
) -> int:
    """Feed ``feed_lines`` lines, SIGKILL after ``ack_trigger`` acks.

    The ack counter runs in a reader thread racing the server's flush
    loop, so the kill lands at an arbitrary point of chunk processing —
    possibly mid ``observe_many``, possibly between WAL append and
    commit.  An ``ack_trigger`` of 0 kills right after the last fed
    line, racing the buffered (not yet flushed) chunk.  Returns the
    number of acks observed before the kill.
    """
    proc = subprocess.Popen(
        list(cmd),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=_env(),
    )
    acks = 0
    fired = threading.Event()

    def reap() -> None:
        nonlocal acks
        assert proc.stdout is not None
        for _ in proc.stdout:
            acks += 1
            if ack_trigger > 0 and acks >= ack_trigger:
                proc.kill()
                fired.set()
                return
        fired.set()

    reader = threading.Thread(target=reap, daemon=True)
    reader.start()
    try:
        assert proc.stdin is not None
        for line in feed[:feed_lines]:
            proc.stdin.write(line + "\n")
            proc.stdin.flush()
    except (BrokenPipeError, OSError):
        pass  # killed while we were still feeding — that's the point
    # Do NOT close stdin on the un-killed path: EOF would let the server
    # finish cleanly.  Wait for the trigger, then make sure it is dead.
    if ack_trigger <= 0:
        time.sleep(0.05)  # let the fed lines land mid-processing
        proc.kill()
    elif not fired.wait(timeout):
        proc.kill()
    deadline = time.monotonic() + timeout
    while proc.poll() is None and time.monotonic() < deadline:
        time.sleep(0.01)
    if proc.poll() is None:  # pragma: no cover - defensive
        proc.terminate()
        proc.wait(timeout=10)
    if proc.stdin is not None:
        try:
            proc.stdin.close()
        except OSError:
            pass
    reader.join(timeout=10)
    return acks


def read_wal_rows(state_dir: Path) -> List[dict]:
    """Committed release rows of the serve state dir's (one) shard WAL."""
    sys.path.insert(0, str(REPO_SRC))
    try:
        from repro.persist import replay_wal
        from repro.persist.statedir import WAL_FILE
        from repro.serving import shard_state_dir
    finally:
        sys.path.pop(0)
    rows, _ = replay_wal(shard_state_dir(state_dir, 0) / WAL_FILE)
    return rows


def tail_answers(output: List[str], n_queries: int) -> List[str]:
    """The last ``n_queries`` output lines — the query-tail answers."""
    return output[-n_queries:] if n_queries else []


def run_crashtest(
    kills: int = 25,
    seed: int = 0,
    steps: int = 60,
    n_users: int = 60,
    domain_size: int = 4,
    method: str = "LBD",
    oracle: str = "grr",
    epsilon: float = 1.0,
    window: int = 6,
    session_seed: int = 7,
    chunk: int = 4,
    checkpoint_every: int = 2,
    workdir: Optional[Path] = None,
) -> dict:
    """Run the full harness; return a JSON-able report.

    The report's ``trials`` list carries one entry per kill with the
    randomized kill coordinates and a boolean per assertion; ``passed``
    is the conjunction over all trials.
    """
    import tempfile

    args = argparse.Namespace(
        method=method,
        oracle=oracle,
        domain_size=domain_size,
        epsilon=epsilon,
        window=window,
        session_seed=session_seed,
        chunk=chunk,
        checkpoint_every=checkpoint_every,
    )
    feed = make_feed(seed, steps, n_users, domain_size)
    n_queries = 4
    rng = np.random.default_rng(seed + 1)

    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        tmp_path = Path(tmp)
        ref_state = tmp_path / "ref"
        ref_out = run_to_completion(serve_command(args, ref_state), feed)
        ref_answers = tail_answers(ref_out, n_queries)
        ref_wal = read_wal_rows(ref_state)
        if len(ref_wal) != steps:
            raise RuntimeError(
                f"reference WAL has {len(ref_wal)} rows for {steps} steps"
            )

        trials = []
        for trial in range(kills):
            # Kill coordinates: how many ingest lines the first process
            # is fed, and after how many acks the SIGKILL fires.  Both
            # seeded — the CI matrix is reproducible.  Acks only arrive
            # on full-chunk flushes; when none can, the kill races the
            # buffered chunk instead of a trigger that never fires.
            feed_lines = int(rng.integers(1, steps + 1))
            max_acks = (feed_lines // chunk) * chunk
            ack_trigger = (
                int(rng.integers(1, max_acks + 1)) if max_acks else 0
            )
            state = tmp_path / f"trial{trial}"
            acks = kill_after(
                serve_command(args, state), feed, feed_lines, ack_trigger
            )
            resumed_out = run_to_completion(serve_command(args, state), feed)
            answers = tail_answers(resumed_out, n_queries)
            wal = read_wal_rows(state)
            skipped = sum(1 for line in resumed_out if '"skipped": true' in line)
            duplicates = len(wal) - len({row["t"] for row in wal})
            entry = {
                "trial": trial,
                "feed_lines": feed_lines,
                "ack_trigger": ack_trigger,
                "acks_before_kill": acks,
                "skipped_on_resume": skipped,
                "answers_match": answers == ref_answers,
                "wal_matches": wal == ref_wal,
                "no_duplicate_ingests": duplicates == 0,
            }
            entry["passed"] = (
                entry["answers_match"]
                and entry["wal_matches"]
                and entry["no_duplicate_ingests"]
            )
            trials.append(entry)

    return {
        "config": {
            "kills": kills,
            "seed": seed,
            "steps": steps,
            "n_users": n_users,
            "domain_size": domain_size,
            "method": method,
            "oracle": oracle,
            "epsilon": epsilon,
            "window": window,
            "session_seed": session_seed,
            "chunk": chunk,
            "checkpoint_every": checkpoint_every,
        },
        "reference_answers": ref_answers,
        "trials": trials,
        "passed": all(t["passed"] for t in trials),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kills", type=int, default=25)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--steps", type=int, default=60)
    parser.add_argument("--n-users", type=int, default=60)
    parser.add_argument("--domain-size", type=int, default=4)
    parser.add_argument("--method", default="LBD")
    parser.add_argument("--oracle", default="grr")
    parser.add_argument("--epsilon", type=float, default=1.0)
    parser.add_argument("--window", type=int, default=6)
    parser.add_argument("--session-seed", type=int, default=7)
    parser.add_argument("--chunk", type=int, default=4)
    parser.add_argument("--checkpoint-every", type=int, default=2)
    parser.add_argument("--out", metavar="PATH", default=None)
    args = parser.parse_args(argv)

    report = run_crashtest(
        kills=args.kills,
        seed=args.seed,
        steps=args.steps,
        n_users=args.n_users,
        domain_size=args.domain_size,
        method=args.method,
        oracle=args.oracle,
        epsilon=args.epsilon,
        window=args.window,
        session_seed=args.session_seed,
        chunk=args.chunk,
        checkpoint_every=args.checkpoint_every,
    )
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2))
    failed = [t for t in report["trials"] if not t["passed"]]
    for t in report["trials"]:
        status = "ok" if t["passed"] else "FAIL"
        print(
            f"trial {t['trial']:3d}: fed {t['feed_lines']:3d} lines, "
            f"killed after {t['acks_before_kill']:3d} acks, "
            f"skipped {t['skipped_on_resume']:3d} on resume -> {status}"
        )
    print(
        f"{len(report['trials']) - len(failed)}/{len(report['trials'])} "
        f"kill/restore trials bit-identical to the uninterrupted run"
    )
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

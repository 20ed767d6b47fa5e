"""The ``serve`` workload: an open-loop load generator against the socket tier.

The server under test is::

    python -m repro serve --shards 1 --n-users 10000 --method LBD \\
        --oracle oue --domain-size 32 --chunk 16 \\
        --state-dir <fresh dir> --checkpoint-every 64

The generator is one process with one asyncio event-loop thread and two
connections:

* the **ingest** connection sends a b64 ``u1`` snapshot every ``1/rate``
  seconds on a fixed schedule, whether or not the server keeps up;
* the **query** connection holds one standing ``threshold(...)``
  registration (so alerts flow) and sends a fixed
  ``point``/``topk``/``range``/``mean``/``filter`` mix at a lower rate.

Every request is timed from when it was *due*, not from when it was
sent, so a stall is charged to every request it delays; how late the
generator itself ran is reported as ``lag``.  Queries name explicit
timestamps ``QUERY_MARGIN_S`` behind the ingest schedule, so their
answers are a function of the seed alone and enter the digest
(``as_of`` is dropped: it depends on arrival interleaving).

After the fixed-rate phase, ``BURSTS`` pipelined bursts of ``burst``
ingests each measure the saturation rate: acknowledged ingests per
second with the offered load far above capacity (median over bursts).
Each burst lies between two timings of the host-speed reference
(:mod:`calibrate`), taken in this process while the server is idle,
and its rate is reported on the reference scale.  The fixed-rate
latencies stay raw: at a third of saturation they do not scale with
CPU speed, and normalising them widened their run-to-run spread.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import deque

import numpy as np

import calibrate

DOMAIN = 32
EPSILON = 1.0
WINDOW = 20
CHUNK = 16
CHECKPOINT_EVERY = 64
#: Queries target timestamps this far behind the ingest schedule.
QUERY_MARGIN_S = 0.25
#: Snapshots in the generated feed; the schedule cycles through them.
FEED_STEPS = 512
STANDING = "threshold(point(0) > 0.2, sigmas=2)"
HELLO_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 30.0

#: Saturation bursts per run; the median burst rate is reported.
BURSTS = 8

#: size -> (n_users, ingest rate /s, query rate /s, ingests per burst).
#: The default ingest rate is about a third of the saturation rate
#: measured on a 2-CPU host (1.4-1.7k acked ingests/s pipelined).
SIZES = {
    "default": (10_000, 500.0, 25.0, 1_500),
    "tiny": (1_000, 100.0, 10.0, 50),
}

_clock = time.perf_counter


def percentile(values, q):
    """Linear-interpolated percentile (``q`` in [0, 100])."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def windowed_p99(values, window: int) -> float:
    """Median over consecutive ``window``-sample windows of their p99.

    A 2.5 s window at the fixed rate holds 1 250 ingests, so each p99
    has 12 samples beyond it; the median keeps one stalled window (a
    host hiccup) from setting the run's tail.
    """
    chunks = [
        values[i : i + window]
        for i in range(0, len(values) - window + 1, window)
    ] or [values]
    return statistics.median(percentile(chunk, 99) for chunk in chunks)


def feed(seed: int, n_users: int, steps: int = FEED_STEPS):
    """Encoded ingest lines from the same sparse process as ``stream``."""
    from workloads import sparse_stream

    block = sparse_stream(seed, n_users, DOMAIN, steps)
    return [
        (
            json.dumps(
                {
                    "op": "ingest",
                    "b64": base64.b64encode(row.tobytes()).decode("ascii"),
                    "dtype": "u1",
                }
            )
            + "\n"
        ).encode("ascii")
        for row in block
    ]


def query_plan(seed: int, count: int, rate: float, query_rate: float):
    """``count`` queries: (due offset s, request line), fixed by the seed."""
    rng = np.random.default_rng([seed, 11])
    margin = int(rate * QUERY_MARGIN_S)
    plan = []
    for j in range(count):
        due = QUERY_MARGIN_S * 2 + j / query_rate
        t = int(rate * due) - margin
        item = int(rng.integers(DOMAIN))
        kind = j % 5
        if kind == 0:
            request = {"op": "point", "item": item, "t": t}
        elif kind == 1:
            request = {"op": "topk", "k": 3, "t": t}
        elif kind == 2:
            lo = int(rng.integers(DOMAIN - 4))
            request = {"op": "range", "lo": lo, "hi": lo + 4, "t": t}
        elif kind == 3:
            request = {"op": "query", "expr": f"mean({item}) @ {t - 16}..{t}"}
        else:
            lo = int(rng.integers(DOMAIN - 8))
            request = {
                "op": "query",
                "expr": f"topk(3) where item in {{{lo}..{lo + 7}}} @ t={t}",
            }
        plan.append((due, (json.dumps(request) + "\n").encode("ascii")))
    return plan


class Server:
    """One ``repro serve`` process, started and stopped by the benchmark."""

    def __init__(self, root, work, seed, n_users, env):
        self.state_dir = os.path.join(work, f"state-{os.getpid()}-{_clock()}")
        self.stderr_path = self.state_dir + ".stderr"
        command = [
            sys.executable, "-m", "repro", "serve",
            "--shards", "1", "--n-users", str(n_users),
            "--method", "LBD", "--oracle", "oue",
            "--domain-size", str(DOMAIN), "--epsilon", str(EPSILON),
            "--window", str(WINDOW), "--seed", str(seed),
            "--chunk", str(CHUNK), "--state-dir", self.state_dir,
            "--checkpoint-every", str(CHECKPOINT_EVERY),
        ]
        self._stderr = open(self.stderr_path, "w", encoding="utf-8")
        started = _clock()
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=self._stderr,
        )
        ready, _, _ = select.select(
            [self.process.stdout], [], [], HELLO_TIMEOUT_S
        )
        line = self.process.stdout.readline() if ready else b""
        self.setup_s = _clock() - started
        try:
            hello = json.loads(line or b"{}")
        except json.JSONDecodeError:
            hello = {}
        if hello.get("event") != "listening":
            self.stop()
            raise RuntimeError(f"server did not start: {self.errors()}")
        self.port = int(hello["port"])

    def peak_rss_mb(self) -> float:
        """VmHWM of the front plus its shard worker(s)."""
        pids = [self.process.pid]
        task_dir = f"/proc/{self.process.pid}/task"
        for tid in os.listdir(task_dir):
            with open(f"{task_dir}/{tid}/children", encoding="ascii") as f:
                pids += [int(pid) for pid in f.read().split()]
        total_kb = 0
        for pid in pids:
            with open(f"/proc/{pid}/status", encoding="ascii") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def errors(self) -> str:
        with open(self.stderr_path, encoding="utf-8") as f:
            return f.read()

    def wait(self, timeout=30.0) -> int:
        try:
            return self.process.wait(timeout=timeout)
        finally:
            self.stop()

    def stop(self) -> None:
        """Stop the server if it still runs; drop its state dir."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if not self.process.stdout.closed:
            self.process.stdout.close()
            self._stderr.close()
        shutil.rmtree(self.state_dir, ignore_errors=True)


async def _shutdown(port: int) -> None:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(b'{"op": "shutdown"}\n')
    await writer.drain()
    await reader.readline()
    writer.close()


def setup_probe(root, work, seed, n_users, env) -> float:
    """Start a server, read its hello line, shut it down; return set-up s."""
    server = Server(root, work, seed, n_users, env)
    try:
        asyncio.run(_shutdown(server.port))
        server.wait()
    finally:
        server.stop()
    return server.setup_s


class Load:
    """Open-loop generator state for one server run."""

    def __init__(self, server, lines, queries, rate, seconds, burst):
        self.server = server
        self.lines = lines
        self.queries = queries
        self.rate = rate
        self.n_fixed = int(rate * seconds)
        self.burst = burst
        self.total = self.n_fixed + BURSTS * burst
        self.failed = 0
        self.errors = []
        self.ingest_lat = []
        self.query_lat = []
        self.lag = []
        self.backlog = []
        self.acks = hashlib.sha256()
        self.answers = []
        self.alerts = []
        self.burst_rates = []
        self.burst_refs = []
        self._last_ack = 0.0
        self.summary = {}
        self.peak_rss_mb = 0.0

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(why)

    async def run(self) -> None:
        port = self.server.port
        ingest_r, ingest_w = await asyncio.open_connection("127.0.0.1", port)
        query_r, query_w = await asyncio.open_connection("127.0.0.1", port)
        register = {"op": "standing", "action": "register", "id": "hot",
                    "expr": STANDING}
        query_w.write((json.dumps(register) + "\n").encode("ascii"))
        reply = json.loads(await query_r.readline())
        if reply.get("op") != "standing":
            self.fail(f"standing register: {reply}")

        # Phase 1: fixed rates on both connections.
        pending = deque()  # due times of unacknowledged ingests
        waiting = deque()  # due times of unanswered queries
        start = _clock() + 0.05
        ack_task = asyncio.ensure_future(
            self._acks(ingest_r, pending, self.total)
        )
        answer_task = asyncio.ensure_future(
            self._answers(query_r, waiting, len(self.queries))
        )
        sender = asyncio.ensure_future(
            self._send_ingests(ingest_w, pending, start)
        )
        querier = asyncio.ensure_future(
            self._send_queries(query_w, waiting, start)
        )
        sampler = asyncio.ensure_future(self._sample_backlog(pending, start))
        await asyncio.gather(sender, querier)
        sampler.cancel()
        await self._wait(answer_task, "queries")

        # Phase 2: saturation bursts, each offered all at once.
        await self._drained(pending, ack_task)
        # Peak memory under the fixed-rate load; a burst queues its
        # whole backlog in the front, which would dominate the figure.
        self.peak_rss_mb = self.server.peak_rss_mb()
        sent = self.n_fixed
        # Host-speed reference around each burst, with the server idle.
        self.burst_refs.append(calibrate.reference())
        for _ in range(BURSTS):
            burst_start = _clock()
            for i in range(sent, sent + self.burst):
                pending.append(_clock())
                ingest_w.write(self.lines[i % len(self.lines)])
                if i % 64 == 63:
                    await ingest_w.drain()
            sent += self.burst
            await self._drained(pending, ack_task)
            elapsed = max(1e-9, self._last_ack - burst_start)
            self.burst_rates.append(self.burst / elapsed)
            self.burst_refs.append(calibrate.reference())
        await self._wait(ack_task, "ingest acks")
        # Burst latencies measure queueing at saturation, not the fixed
        # rate; keep only the fixed-rate phase's.
        self.ingest_lat = self.ingest_lat[: self.n_fixed]

        query_w.write(b'{"op": "summary"}\n')
        while True:
            message = json.loads(await query_r.readline())
            if message.get("event") == "alert":
                self._alert(message)
                continue
            self.summary = message
            break
        query_w.write(b'{"op": "shutdown"}\n')
        await query_r.readline()
        for writer in (ingest_w, query_w):
            writer.close()

    async def _drained(self, pending, ack_task) -> None:
        """Until every sent ingest is acknowledged (or acks stopped)."""
        while pending and not ack_task.done():
            await asyncio.sleep(0.005)

    async def _wait(self, task, what) -> None:
        try:
            await asyncio.wait_for(task, DRAIN_TIMEOUT_S)
        except asyncio.TimeoutError:
            self.fail(f"timed out waiting for {what}")

    async def _send_ingests(self, writer, pending, start) -> None:
        for i in range(self.n_fixed):
            due = start + i / self.rate
            delay = due - _clock()
            if delay > 0:
                await asyncio.sleep(delay)
            self.lag.append(_clock() - due)
            pending.append(due)
            writer.write(self.lines[i % len(self.lines)])

    async def _send_queries(self, writer, waiting, start) -> None:
        for offset, line in self.queries:
            due = start + offset
            delay = due - _clock()
            if delay > 0:
                await asyncio.sleep(delay)
            self.lag.append(_clock() - due)
            waiting.append(due)
            writer.write(line)

    async def _sample_backlog(self, pending, start) -> None:
        while True:
            await asyncio.sleep(0.05)
            self.backlog.append((_clock() - start, len(pending)))

    async def _acks(self, reader, pending, total) -> None:
        for expect in range(total):
            line = await reader.readline()
            now = _clock()
            if not line:
                self.fail("ingest connection closed")
                return
            message = json.loads(line)
            if (
                message.get("op") != "ingest"
                or message.get("t") != expect
                or message.get("skipped")
            ):
                self.fail(f"bad ack for t={expect}: {message}")
            due = pending.popleft()
            self.ingest_lat.append(now - due)
            self._last_ack = now
            self.acks.update(line)

    async def _answers(self, reader, waiting, total) -> None:
        answered = 0
        while answered < total:
            line = await reader.readline()
            now = _clock()
            if not line:
                self.fail("query connection closed")
                return
            message = json.loads(line)
            if message.get("event") == "alert":
                self._alert(message)
                continue
            due = waiting.popleft()
            answered += 1
            self.query_lat.append(now - due)
            if "error" in message:
                self.fail(f"query error: {message['error']}")
            message.pop("as_of", None)
            self.answers.append(json.dumps(message, sort_keys=True))

    def _alert(self, message) -> None:
        line = json.dumps(message, sort_keys=True)
        self.alerts.append((message.get("t"), line))

    def digest(self) -> str:
        digest = hashlib.sha256(self.acks.digest())
        for answer in self.answers:
            digest.update(answer.encode())
        for _, alert in sorted(self.alerts):
            digest.update(alert.encode())
        digest.update(json.dumps(self.summary, sort_keys=True).encode())
        return digest.hexdigest()

    def backlog_growth(self) -> float:
        """Mean backlog over the last quarter minus the first quarter."""
        if len(self.backlog) < 8:
            return 0.0
        quarter = len(self.backlog) // 4
        first = statistics.fmean(n for _, n in self.backlog[:quarter])
        last = statistics.fmean(n for _, n in self.backlog[-quarter:])
        return last - first


def run_once(root, work, seed, seconds, size, env) -> dict:
    """One server lifetime under the full load; returns the measurements."""
    n_users, rate, query_rate, burst = SIZES[size]
    lines = feed(seed, n_users)
    n_queries = max(1, int((seconds - 2 * QUERY_MARGIN_S) * query_rate))
    queries = query_plan(seed, n_queries, rate, query_rate)
    server = Server(root, work, seed, n_users, env)
    try:
        load = Load(server, lines, queries, rate, seconds, burst)
        # A stuck server must not hang the benchmark past its deadline.
        deadline = seconds + 2 * DRAIN_TIMEOUT_S
        asyncio.run(asyncio.wait_for(load.run(), deadline))
        code = server.wait()
        if code != 0:
            load.fail(f"server exited with {code}")
        stderr = server.errors()
        if "Traceback" in stderr or "error" in stderr.lower():
            load.fail(f"server stderr: {stderr[-500:]}")
    finally:
        server.stop()
    spend = load.summary.get("max_window_spend", float("inf"))
    if not spend <= EPSILON * (1 + 1e-9):
        load.fail(f"privacy: max_window_spend {spend}")
    if load.summary.get("steps") != load.total:
        load.fail(f"summary steps {load.summary.get('steps')}")
    return {
        "setup_s": server.setup_s,
        "peak_rss_mb": load.peak_rss_mb,
        "attempted": load.total + len(queries),
        "failed": load.failed,
        "errors": load.errors,
        "ingest_p50_ms": 1000 * percentile(load.ingest_lat, 50),
        "ingest_p99_ms": 1000 * windowed_p99(load.ingest_lat, int(rate * 2.5)),
        "query_p50_ms": 1000 * percentile(load.query_lat or [0], 50),
        "query_p99_ms": 1000 * percentile(load.query_lat or [0], 99),
        "lag_p99_ms": 1000 * percentile(load.lag, 99),
        "backlog_growth": load.backlog_growth(),
        "burst_rate_per_s": statistics.median(
            rate / scale
            for rate, scale in zip(
                load.burst_rates, calibrate.scales(load.burst_refs)
            )
        ),
        "burst_rates_per_s": load.burst_rates,
        "burst_reference_s": load.burst_refs,
        "alerts": len(load.alerts),
        "publications": load.summary.get("publications"),
        "digest": load.digest(),
    }

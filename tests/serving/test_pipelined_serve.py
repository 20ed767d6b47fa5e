"""The socket tier with two flushes in flight, and its request-line limit.

Each shard worker already holds batch k+1 while the front merges and
acks batch k.  These tests drive the socket transport (a real ``repro
serve --shards K`` subprocess, or the same server on a thread of the
test) the way a pipelining client does: many lines written before any
reply is read.  They pin the rules that keep that exact:

* a partial batch is acked with no further line to push it out;
* a burst with a query in the middle answers bit for bit like the serial
  reference, even with ``--capacity`` equal to ``--chunk`` (a batch
  larger than ``--chunk`` would fail the shards' read-back), while each
  worker holds two ingests at once and never three;
* commands and replies larger than the pipe's buffer do not deadlock
  the front and a worker that both wait to write;
* a worker lost while a flush is in flight answers one fatal line and
  the server exits 2;
* lines a client writes after ``shutdown`` do not reset its connection:
  it reads its answers, then EOF;
* a flush writes each connection's acks, then its standing alerts, in
  one write, and a client gone mid-flush does not stop the others' acks;
* a request line is limited by the longest valid ingest for the
  population, not by asyncio's 64 KiB default, and a longer line earns
  an error line without ending its connection.
"""

import asyncio
import base64
import json
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.serving.server import (
    LINE_LIMIT_USERS,
    ShardServer,
    _WorkerHandle,
    line_limit,
)
from shard_serve_util import (
    DEFAULTS,
    InProcessServer,
    ShardServerProc,
    assert_same_answer,
    feed_block,
    serial_reference,
    serve_config,
    sharded_cmd,
    worker_pids,
)

N_USERS = 64


def _ingest(row):
    return {"op": "ingest", "values": row.tolist()}


def _b64_ingest(row):
    return {
        "op": "ingest",
        "b64": base64.b64encode(row.astype(np.uint8).tobytes()).decode(),
        "dtype": "u1",
    }


def test_a_partial_batch_is_acked_without_another_line():
    """At ``--chunk 16`` one ingest, then 17 (a full batch in flight
    plus one buffered), are all acked with no line after them."""
    block = feed_block(18, N_USERS, DEFAULTS["domain"], seed=61)
    with ShardServerProc(
        sharded_cmd(shards=1, n_users=N_USERS, chunk=16)
    ) as server:
        with server.client(timeout=30) as client:
            assert client.ask(_ingest(block[0]))["t"] == 0
            for row in block[1:]:
                client.send(_ingest(row))
            assert [client.recv()["t"] for _ in block[1:]] == list(
                range(1, 18)
            )
        _, rc = server.shutdown()
        assert rc == 0


@pytest.mark.parametrize("shards", [1, 2])
def test_a_pipelined_burst_matches_the_serial_reference(shards, monkeypatch):
    """22 ingests (5.5 chunks) with a query after the 10th, all written
    in one write before any reply is read, at ``--capacity`` =
    ``--chunk``: acks, the mid-burst answer and the final answers equal
    the serial reference's bit for bit, in request order.  Meanwhile
    each worker holds two ingest commands at once (sent, not yet
    answered) and never three."""
    held = []
    original = _WorkerHandle.request

    def counting_request(handle, *message):
        future = original(handle, *message)
        held.append(sum(op == "ingest" for _, op in handle._pending))
        return future

    monkeypatch.setattr(_WorkerHandle, "request", counting_request)
    chunk = DEFAULTS["chunk"]
    steps, mid = 22, 10
    block = feed_block(steps, N_USERS, DEFAULTS["domain"], seed=63)
    full = serial_reference(block, shards=shards)
    at_mid = serial_reference(block[:mid], shards=shards, capacity=chunk)
    at_end = serial_reference(block, shards=shards, capacity=chunk)
    finals = [
        {"op": "topk", "k": 3},
        {"op": "range", "lo": 1, "hi": 5},
        {
            "op": "sliding",
            "t0": steps - chunk,
            "t1": steps - 1,
            "agg": "mean",
            "item": 2,
        },
    ]
    with InProcessServer(
        serve_config(shards=shards, n_users=N_USERS, capacity=chunk)
    ) as server:
        with server.client(timeout=60) as client:
            burst = [
                *(_ingest(row) for row in block[:mid]),
                {"op": "point", "item": 3},
                *(_ingest(row) for row in block[mid:]),
                *finals,
            ]
            client.send_raw("\n".join(json.dumps(r) for r in burst))

            acks = [client.recv() for _ in range(mid)]
            middle = client.recv()
            acks += [client.recv() for _ in range(mid, steps)]
            answers = [client.recv() for _ in finals]
        reply, rc = server.shutdown()
    assert rc == 0
    assert reply["watermark"] == steps
    assert max(held) == 2, held
    for t, ack in enumerate(acks):
        assert ack == {
            "op": "ingest",
            "t": t,
            "strategy": full.merged.strategy_at(t),
        }
    assert middle["as_of"] == mid - 1
    assert_same_answer(
        middle,
        {"op": "point", "item": 3, **at_mid.engine.point(3).as_dict()},
    )
    engine = at_end.engine
    want = [
        {"op": "topk", "items": [e.as_dict() for e in engine.topk(3)]},
        {"op": "range", "lo": 1, "hi": 5, **engine.range_count(1, 5).as_dict()},
        {
            "op": "sliding",
            "item": 2,
            **engine.sliding(
                steps - chunk, steps - 1, "mean", item=2
            ).as_dict(),
        },
    ]
    for got, expected in zip(answers, want):
        assert got["as_of"] == steps - 1
        assert_same_answer(got, expected)


def test_a_worker_killed_mid_flight_answers_one_fatal_line():
    """SIGKILL the socket tier's worker right after the first ack of 12
    pipelined ingests, while the next batch is in its hands (the
    per-user ``--no-fast`` protocol over 10 000 users and 256 items
    takes about 25 ms a timestamp on a 2-vCPU host, so the remaining
    batches keep a flush in flight for ~250 ms): the client gets its
    acks so far, then exactly one ``fatal`` error line, and the server
    exits 2.

    No line follows the kill: the loss must surface from the in-flight
    replies alone, and unread bytes at the server's close would reset
    the connection before the client reads the fatal line."""
    n_users, domain = 10_000, 256
    block = feed_block(12, n_users, domain, seed=65)
    with ShardServerProc(
        sharded_cmd(
            shards=1,
            n_users=n_users,
            oracle="oue",
            domain=domain,
            extra=("--no-fast",),
        )
    ) as server:
        with server.client(timeout=60) as client:
            for row in block:
                client.send(_b64_ingest(row))
            lines = [client.recv()]
            assert lines[0]["t"] == 0, lines
            (worker,) = worker_pids(server.proc.pid)
            os.kill(worker, signal.SIGKILL)
            while True:
                raw = client.rfile.readline()
                if not raw:
                    break
                lines.append(json.loads(raw))
        rc = server.proc.wait(timeout=60)
        stderr = server.proc.stderr.read()
        server.proc.stdout.close()
        server.proc.stderr.close()
    fatal = [line for line in lines if line.get("fatal")]
    assert len(fatal) == 1, lines
    assert lines[-1] is fatal[0]
    assert "worker died" in fatal[0]["error"]
    acks = lines[:-1]
    assert [ack["t"] for ack in acks] == list(range(len(acks)))
    assert rc == 2
    assert "worker died" in stderr
    assert "Traceback" not in stderr


def test_commands_and_replies_larger_than_the_pipe_are_acked():
    """With one batch in a worker's hands, the next batch (8 x 40 000
    ``u2`` values, 640 KB) and the worker's reply (8 releases over
    8 192 items, 512 KB) are each larger than a socketpair's default
    buffer (208 KiB).  A front that blocked sending the second batch
    would never read the first reply the worker is blocked writing;
    all 32 pipelined ingests must be acked instead."""
    n_users, domain, steps = 40_000, 8192, 32
    block = feed_block(steps, n_users, domain, seed=71)
    burst = [
        {
            "op": "ingest",
            "b64": base64.b64encode(row.astype(np.uint16).tobytes()).decode(),
            "dtype": "u2",
        }
        for row in block
    ]
    with ShardServerProc(
        sharded_cmd(
            shards=1, n_users=n_users, oracle="oue", domain=domain, chunk=8
        )
    ) as server:
        with server.client(timeout=60) as client:
            client.send_raw("\n".join(json.dumps(r) for r in burst))
            assert [client.recv()["t"] for _ in block] == list(range(steps))
        reply, rc = server.shutdown()
    assert reply["watermark"] == steps
    assert rc == 0


def test_lines_after_shutdown_do_not_reset_the_connection():
    """A client writes an ingest, ``shutdown`` and 300 more ingests
    (N = 10 000), waits, then reads: in each trial it gets the ack, the
    shutdown line and a clean EOF.  Closing a socket with those 300
    lines unread would reset the connection instead, and the client's
    read would raise ``ConnectionResetError``."""
    n_users = 10_000
    block = feed_block(2, n_users, DEFAULTS["domain"], seed=73)
    tail = "\n".join([json.dumps(_b64_ingest(block[1]))] * 300)
    for _ in range(4):
        with ShardServerProc(
            sharded_cmd(shards=1, n_users=n_users, chunk=1)
        ) as server:
            with server.client(timeout=30) as client:
                client.send(_b64_ingest(block[0]))
                client.send({"op": "shutdown"})
                client.send_raw(tail)
                time.sleep(1)
                lines = [json.loads(raw) for raw in client.rfile]
            assert server.proc.wait(timeout=30) == 0
            server.proc.stdout.close()
            server.proc.stderr.close()
        assert lines == [
            {"op": "ingest", "t": 0, "strategy": lines[0]["strategy"]},
            {"op": "shutdown", "watermark": 1},
        ]


class _HeldQuery:
    """Holds the dispatcher inside the answer to one query until
    :meth:`release`, so that lines from several clients queue up behind
    it and then form one batch."""

    def __init__(self, monkeypatch):
        self.fronts = []
        self._released = threading.Event()
        original = ShardServer._answer

        async def held(front, request):
            self.fronts.append(front)
            while not self._released.is_set():
                await asyncio.sleep(0.005)
            return await original(front, request)

        monkeypatch.setattr(ShardServer, "_answer", held)

    def wait(self, predicate, timeout=30):
        deadline = time.monotonic() + timeout
        while not predicate():
            assert time.monotonic() < deadline, "the server never got there"
            time.sleep(0.005)

    def queued(self, n):
        """Until the held dispatcher has ``n`` lines queued behind it."""
        self.wait(lambda: self.fronts and self.fronts[0]._queue.qsize() == n)

    def release(self):
        self._released.set()


def test_clients_sharing_a_batch_each_get_their_own_acks(monkeypatch):
    """Client A registers a standing query that alerts on every
    timestamp; then A's two ingests and B's two queue up behind a held
    query and go out as one batch of four.  Each client reads exactly
    its own acks, in order, and A's alerts follow its acks."""
    held = _HeldQuery(monkeypatch)
    block = feed_block(5, N_USERS, DEFAULTS["domain"], seed=73)
    with InProcessServer(serve_config(shards=1, n_users=N_USERS)) as server:
        with server.client(timeout=30) as a, server.client(timeout=30) as b:
            assert a.ask(_ingest(block[0]))["t"] == 0
            a.ask(
                {
                    "op": "standing",
                    "action": "register",
                    "id": "every",
                    "expr": "threshold(point(0) > -1000000)",
                }
            )
            a.send({"op": "point", "item": 0})
            held.wait(lambda: held.fronts)
            for row in block[1:3]:
                a.send(_ingest(row))
            held.queued(2)
            for row in block[3:]:
                b.send(_ingest(row))
            held.queued(4)
            held.release()
            assert a.recv()["as_of"] == 0
            a_lines = [a.recv() for _ in range(2 + 4)]
            b_lines = [b.recv() for _ in range(2)]
        _, rc = server.shutdown()
    assert rc == 0
    assert [(line["op"], line["t"]) for line in a_lines[:2]] == [
        ("ingest", 1),
        ("ingest", 2),
    ]
    assert [(line["event"], line["t"]) for line in a_lines[2:]] == [
        ("alert", t) for t in range(1, 5)
    ]
    assert [(line["op"], line["t"]) for line in b_lines] == [
        ("ingest", 3),
        ("ingest", 4),
    ]


def test_a_client_gone_mid_flush_does_not_stop_the_others(monkeypatch):
    """B's two ingests share a batch with A's two, and B hangs up
    before the batch is acked: A still reads both its acks, and the
    server goes on serving it."""
    held = _HeldQuery(monkeypatch)
    block = feed_block(6, N_USERS, DEFAULTS["domain"], seed=75)
    with InProcessServer(serve_config(shards=1, n_users=N_USERS)) as server:
        with server.client(timeout=30) as a:
            assert a.ask(_ingest(block[0]))["t"] == 0
            a.send({"op": "point", "item": 0})
            held.wait(lambda: held.fronts)
            for row in block[1:3]:
                a.send(_ingest(row))
            held.queued(2)
            with server.client(timeout=30) as b:
                for row in block[3:5]:
                    b.send(_ingest(row))
                held.queued(4)
            held.wait(lambda: len(held.fronts[0]._clients) == 1)
            held.release()
            assert a.recv()["as_of"] == 0
            assert [a.recv()["t"] for _ in range(2)] == [1, 2]
            assert a.ask(_ingest(block[5]))["t"] == 5
        reply, rc = server.shutdown()
    assert (reply["watermark"], rc) == (6, 0)


def test_a_full_batch_is_acked_in_one_write(monkeypatch):
    """16 ingests from one connection, queued behind a held query, go
    out as one batch at ``--chunk 16``, and their 16 acks reach the
    transport in a single ``write``."""
    held = _HeldQuery(monkeypatch)
    writes = []
    original = asyncio.StreamWriter.write

    def recording_write(writer, data):
        writes.append(data)
        return original(writer, data)

    monkeypatch.setattr(asyncio.StreamWriter, "write", recording_write)
    block = feed_block(17, N_USERS, DEFAULTS["domain"], seed=77)
    with InProcessServer(
        serve_config(shards=1, n_users=N_USERS, chunk=16)
    ) as server:
        with server.client(timeout=30) as client:
            assert client.ask(_b64_ingest(block[0]))["t"] == 0
            client.send({"op": "point", "item": 0})
            held.wait(lambda: held.fronts)
            client.send_raw(
                "\n".join(
                    json.dumps(_b64_ingest(row)) for row in block[1:]
                )
            )
            held.queued(16)
            held.release()
            assert client.recv()["as_of"] == 0
            assert [client.recv()["t"] for _ in range(16)] == list(
                range(1, 17)
            )
        _, rc = server.shutdown()
    assert rc == 0
    acks = [data for data in writes if b'"op": "ingest"' in data]
    assert [data.count(b"\n") for data in acks] == [1, 16]


@pytest.mark.parametrize("n_users", [60_000, None])
def test_an_ingest_longer_than_64_kib_is_acked(n_users):
    """N = 60 000 makes an 80 KB b64 ``u1`` line and a 180 KB JSON
    ``values`` line, both past asyncio's 64 KiB default; both are acked
    with ``--n-users`` and without it (under the ``LINE_LIMIT_USERS`` ceiling)."""
    block = feed_block(2, 60_000, DEFAULTS["domain"], seed=67)
    requests = [_b64_ingest(block[0]), _ingest(block[1])]
    assert min(len(json.dumps(r)) for r in requests) > 64 * 1024
    with ShardServerProc(
        sharded_cmd(shards=1, n_users=n_users, chunk=1)
    ) as server:
        with server.client() as client:
            assert [client.ask(r)["t"] for r in requests] == [0, 1]
        reply, rc = server.shutdown()
    assert reply["watermark"] == 2
    assert rc == 0


def test_a_line_over_the_limit_answers_an_error_and_keeps_serving():
    """Lines just past the limit and far past it (2 MB, more than the
    reader buffers before it gives up on finding the newline) each get
    one ``InvalidParameterError`` line; the same connection then
    ingests and queries normally."""
    limit = line_limit(N_USERS, DEFAULTS["domain"])
    block = feed_block(2, N_USERS, DEFAULTS["domain"], seed=69)
    with ShardServerProc(
        sharded_cmd(shards=1, n_users=N_USERS, chunk=1)
    ) as server:
        with server.client() as client:
            for size in (limit + 100, 2_000_000):
                pad = "x" * (size - 30)
                client.send_raw(json.dumps({"op": "ingest", "pad": pad}))
                reply = client.recv()
                assert set(reply) == {"error"}, reply
                assert reply["error"].startswith(
                    f"InvalidParameterError: request line longer than "
                    f"{limit} bytes"
                )
            assert [client.ask(_ingest(row))["t"] for row in block] == [0, 1]
            assert client.ask({"op": "point", "item": 0})["as_of"] == 1
        reply, rc = server.shutdown()
    assert reply["watermark"] == 2
    assert rc == 0


def test_the_line_limit_covers_the_longest_valid_ingest():
    """Both wire forms of the widest snapshot fit, for small and large
    domains; an unknown N takes the documented ceiling."""
    for n_users, domain in ((10, 2), (1000, 10**6), (5000, 2**32)):
        values = json.dumps({"op": "ingest", "values": [domain - 1] * n_users})
        u4 = json.dumps(
            _b64_ingest(np.zeros(4 * n_users, dtype=np.uint8))
            | {"dtype": "u4"}
        )
        assert max(len(values), len(u4)) < line_limit(n_users, domain)
    assert line_limit(None, 8) == line_limit(LINE_LIMIT_USERS, 8)

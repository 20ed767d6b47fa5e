"""The socket tier with one flush in flight, and its request-line limit.

The front parses and stacks the next batch while the previous one is in
the shard workers.  These tests drive a real ``repro serve --shards K``
subprocess the way a pipelining client does: many lines written before
any reply is read.  They pin the rules that keep that exact:

* a partial batch is acked with no further line to push it out;
* a burst with a query in the middle answers bit for bit like the serial
  reference, even with ``--capacity`` equal to ``--chunk`` (a batch
  larger than ``--chunk`` would fail the shards' read-back);
* a worker lost while a flush is in flight answers one fatal line and
  the server exits 2;
* a request line is limited by the longest valid ingest for the
  population, not by asyncio's 64 KiB default, and a longer line earns
  an error line without ending its connection.
"""

import base64
import json
import os
import signal

import numpy as np
import pytest

from repro.serving.server import LINE_LIMIT_USERS, line_limit
from shard_serve_util import (
    DEFAULTS,
    ShardServerProc,
    assert_same_answer,
    feed_block,
    serial_reference,
    sharded_cmd,
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


def _worker_pids(pid):
    """The shard workers among the child processes of ``pid`` (the
    spawn context also starts a resource tracker)."""
    workers = []
    for tid in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{tid}/children") as handle:
            for child in handle.read().split():
                with open(f"/proc/{child}/cmdline", "rb") as cmdline:
                    if b"--multiprocessing-fork" in cmdline.read():
                        workers.append(int(child))
    return workers


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
def test_a_pipelined_burst_matches_the_serial_reference(shards):
    """22 ingests (5.5 chunks) with a query after the 10th, all written
    before any reply is read, at ``--capacity`` = ``--chunk``: acks,
    the mid-burst answer and the final answers equal the serial
    reference's bit for bit, in request order."""
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
    with ShardServerProc(
        sharded_cmd(
            shards=shards,
            n_users=N_USERS,
            extra=("--capacity", str(chunk)),
        )
    ) as server:
        with server.client(timeout=60) as client:
            for t in range(mid):
                client.send(_ingest(block[t]))
            client.send({"op": "point", "item": 3})
            for t in range(mid, steps):
                client.send(_ingest(block[t]))
            for request in finals:
                client.send(request)

            acks = [client.recv() for _ in range(mid)]
            middle = client.recv()
            acks += [client.recv() for _ in range(mid, steps)]
            answers = [client.recv() for _ in finals]
        reply, rc = server.shutdown()
    assert rc == 0
    assert reply["watermark"] == steps
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
            (worker,) = _worker_pids(server.proc.pid)
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

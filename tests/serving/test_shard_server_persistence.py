"""Durable sharded serving: crash, resume, reshard — end to end.

Real SIGKILLs against a real server: each shard keeps its own
write-ahead release log + checkpoints (the solo ``--state-dir``
machinery, one directory per shard) and the front coordinates a
``front.json`` that never runs ahead of any shard.  A killed tier must
resume to a consistent watermark and, replaying the same feed, produce
**exactly** the answers of a run that never crashed.
"""

import base64
import json
import subprocess

import numpy as np

from shard_serve_util import (
    DEFAULTS,
    ShardServerProc,
    assert_same_answer,
    feed_block,
    serve_env,
    sharded_cmd,
    wait_exited,
    worker_pids,
)

N_USERS = 48
STEPS = 20

QUERIES = [
    {"op": "point", "item": 2},
    {"op": "point", "item": 5, "t": 9},
    {"op": "topk", "k": 4},
    {"op": "range", "lo": 0, "hi": 3},
    {"op": "sliding", "t0": 3, "t1": STEPS - 1, "agg": "sum", "item": 1},
]


def _durable_cmd(state_dir, *, shards=2, extra=()):
    return sharded_cmd(
        shards=shards,
        n_users=N_USERS,
        chunk=3,
        extra=(
            "--state-dir", str(state_dir),
            "--checkpoint-every", "2",
            *extra,
        ),
    )


def _feed(client, block, start=0):
    """Lockstep-feed rows ``start:`` of the block; return the acks."""
    acks = []
    for t in range(start, block.shape[0]):
        acks.append(
            client.ask({"op": "ingest", "values": block[t].tolist()})
        )
    return acks


def _answers(client):
    return [client.ask(query) for query in QUERIES]


class TestCrashResume:
    def test_resumed_answers_equal_an_uninterrupted_run(self, tmp_path):
        """SIGKILL mid-stream, resume, replay the full feed: the skipped
        prefix matches the resume watermark and every query answer is
        bit-identical to a run that never crashed."""
        block = feed_block(STEPS, N_USERS, DEFAULTS["domain"], seed=61)

        # Run 1: ingest 14 rows in chunk-sized batches, then kill -9.
        with ShardServerProc(_durable_cmd(tmp_path / "crashed")) as server:
            with server.client() as client:
                for i in range(0, 12, 3):
                    for t in range(i, i + 3):
                        client.send(
                            {"op": "ingest", "values": block[t].tolist()}
                        )
                    for _ in range(3):
                        client.recv()
                for t in (12, 13):
                    client.ask(
                        {"op": "ingest", "values": block[t].tolist()}
                    )
            server.kill()

        # Run 2: resume, replay the whole feed, query, shut down.
        with ShardServerProc(_durable_cmd(tmp_path / "crashed")) as server:
            resumed_from = server.hello["watermark"]
            assert 0 < resumed_from <= 14
            with server.client() as client:
                acks = _feed(client, block)
                skipped = [a for a in acks if a.get("skipped")]
                fresh = [a for a in acks if not a.get("skipped")]
                assert len(skipped) == resumed_from
                assert [a["t"] for a in skipped] == list(
                    range(resumed_from)
                )
                assert [a["t"] for a in fresh] == list(
                    range(resumed_from, STEPS)
                )
                resumed_answers = _answers(client)
                assert client.ask({"op": "summary"})["steps"] == STEPS
            reply, rc = server.shutdown()
            assert reply["watermark"] == STEPS
            assert rc == 0

        # Run 3: the control that never crashed, same feed and queries.
        with ShardServerProc(_durable_cmd(tmp_path / "control")) as server:
            with server.client() as client:
                _feed(client, block)
                control_answers = _answers(client)
            server.shutdown()

        for got, want in zip(resumed_answers, control_answers):
            assert_same_answer(got, want)

    def test_graceful_shutdown_checkpoints_everything(self, tmp_path):
        """A clean shutdown leaves no replay gap: the restarted tier
        skips the whole old feed and continues at the next timestamp."""
        block = feed_block(7, N_USERS, DEFAULTS["domain"], seed=67)
        with ShardServerProc(_durable_cmd(tmp_path / "state")) as server:
            with server.client() as client:
                _feed(client, block[:6])
            reply, _ = server.shutdown()
            assert reply["watermark"] == 6

        with ShardServerProc(_durable_cmd(tmp_path / "state")) as server:
            assert server.hello["watermark"] == 6
            with server.client() as client:
                acks = _feed(client, block[:6])
                assert all(a.get("skipped") for a in acks)
                fresh = client.ask(
                    {"op": "ingest", "values": block[6].tolist()}
                )
                assert fresh == {
                    "op": "ingest",
                    "t": 6,
                    "strategy": fresh["strategy"],
                }
            reply, rc = server.shutdown()
            assert reply["watermark"] == 7
            assert rc == 0


class TestReshardRefusal:
    def test_resume_under_a_different_shard_count_is_refused(
        self, tmp_path
    ):
        """The hash partition is keyed by num_shards, so per-shard state
        cannot be reinterpreted: resuming 2-shard state as 4 shards must
        fail loudly, not silently reshuffle users."""
        block = feed_block(4, N_USERS, DEFAULTS["domain"], seed=71)
        state = tmp_path / "state"
        with ShardServerProc(_durable_cmd(state, shards=2)) as server:
            with server.client() as client:
                _feed(client, block)
            server.shutdown()

        proc = subprocess.run(
            _durable_cmd(state, shards=4),
            input="",
            capture_output=True,
            text=True,
            env=serve_env(),
            timeout=120,
        )
        assert proc.returncode != 0
        assert "num_shards is 2 in the checkpoint but 4 now" in proc.stderr
        # No hello line was printed: the tier refused before listening.
        assert "listening" not in proc.stdout

    def test_config_drift_is_refused(self, tmp_path):
        """Any recorded-config mismatch (not just shard count) refuses
        resume — here the privacy budget."""
        block = feed_block(4, N_USERS, DEFAULTS["domain"], seed=73)
        state = tmp_path / "state"
        with ShardServerProc(_durable_cmd(state)) as server:
            with server.client() as client:
                _feed(client, block)
            server.shutdown()

        cmd = [
            arg if arg != str(DEFAULTS["epsilon"]) else "2.0"
            for arg in _durable_cmd(state)
        ]
        assert "2.0" in cmd  # the epsilon flag value was rewritten
        proc = subprocess.run(
            cmd,
            input="",
            capture_output=True,
            text=True,
            env=serve_env(),
            timeout=120,
        )
        assert proc.returncode != 0
        assert "epsilon" in proc.stderr


def test_front_never_runs_ahead_of_the_shards(tmp_path):
    """The documented durability invariant W_front <= W_shard, read
    straight off the state directory after a kill."""
    block = feed_block(10, N_USERS, DEFAULTS["domain"], seed=79)
    state = tmp_path / "state"
    with ShardServerProc(_durable_cmd(state)) as server:
        with server.client() as client:
            _feed(client, block)
        server.kill()

    from repro.persist import replay_wal

    front = json.loads((state / "front.json").read_text())
    w_front = front["watermark"]
    assert front["format"] == "repro-front"
    assert front["config"]["num_shards"] == 2
    shard_dirs = sorted(state.glob("shard-*"))
    assert len(shard_dirs) == 2
    for shard_dir in shard_dirs:
        _, shard_watermark = replay_wal(shard_dir / "releases.wal")
        assert w_front <= shard_watermark


def test_a_kill_with_two_flushes_in_flight_resumes_exactly(tmp_path):
    """SIGKILL the front right after the first ack of 24 pipelined
    ingests (chunk 4, a checkpoint every flush, the per-user
    ``--no-fast`` protocol at about 25 ms a timestamp, so the worker
    holds the next batch when flush 0 checkpoints).  On disk the front
    watermark never exceeds the shard's WAL watermark, and the shard
    checkpointed past ``front.json``: flush 0's checkpoint command
    reached the worker behind the second batch.  The resumed tier skips
    exactly the hello watermark's prefix of the replayed feed and
    answers bit for bit like a run never killed."""
    from repro.persist import StateDir, replay_wal

    n_users, domain, steps = 10_000, 256, 24

    def cmd(state_dir):
        return sharded_cmd(
            shards=1,
            n_users=n_users,
            oracle="oue",
            domain=domain,
            extra=(
                "--state-dir", str(state_dir),
                "--checkpoint-every", "1",
                "--no-fast",
            ),
        )

    block = feed_block(steps, n_users, domain, seed=83)
    lines = [
        json.dumps(
            {
                "op": "ingest",
                "b64": base64.b64encode(row.astype(np.uint8)).decode(),
                "dtype": "u1",
            }
        )
        for row in block
    ]
    queries = [
        {"op": "topk", "k": 4},
        {"op": "range", "lo": 10, "hi": 90},
        {"op": "point", "item": 7, "t": 5},
        {"op": "sliding", "t0": 2, "t1": steps - 1, "agg": "sum", "item": 3},
    ]

    def replay(server):
        with server.client() as client:
            acks = [client.ask(json.loads(line)) for line in lines]
            answers = [client.ask(query) for query in queries]
        reply, rc = server.shutdown()
        assert (reply["watermark"], rc) == (steps, 0)
        return acks, answers

    state = tmp_path / "crashed"
    with ShardServerProc(cmd(state)) as server:
        (worker,) = worker_pids(server.proc.pid)
        with server.client(timeout=60) as client:
            client.send_raw("\n".join(lines))
            assert client.recv()["t"] == 0
            server.kill()
    # The orphaned worker serves what is left in its pipe, then exits.
    wait_exited(worker)

    w_front = json.loads((state / "front.json").read_text())["watermark"]
    shard = StateDir(state / "shard-00")
    _, w_shard = replay_wal(shard.wal_path)
    w_checkpoint = shard.load_checkpoint().watermark
    assert 0 < w_front < w_checkpoint <= w_shard, (
        w_front,
        w_checkpoint,
        w_shard,
    )

    with ShardServerProc(cmd(state)) as server:
        resumed_from = server.hello["watermark"]
        acks, resumed_answers = replay(server)
    assert resumed_from >= w_front
    assert [a["t"] for a in acks if a.get("skipped")] == list(
        range(resumed_from)
    )
    assert [a["t"] for a in acks if not a.get("skipped")] == list(
        range(resumed_from, steps)
    )

    with ShardServerProc(cmd(tmp_path / "control")) as server:
        _, control_answers = replay(server)
    for got, want in zip(resumed_answers, control_answers):
        assert_same_answer(got, want)

"""Failure paths of durable ``repro serve --state-dir``, end to end.

Real subprocesses, real SIGKILLs, real fsync'd WALs: these tests drive
the served process the way an operator's supervisor would and assert the
state directory stays consistent through every failure mode — malformed
input lines, hand-corrupted WALs, EOF mid-chunk, kill -9 mid-chunk, and
a state dir in the single-session layout ``serve`` no longer writes.
"""

import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.exceptions import CheckpointError, WALError
from repro.persist import replay_wal
from repro.persist.statedir import WAL_FILE
from repro.serving import ServeConfig, ShardServer, shard_state_dir

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return env


def _serve_cmd(state_dir, *, chunk=3, extra=()):
    return [
        sys.executable, "-m", "repro", "serve",
        "--method", "LBD", "--oracle", "grr",
        "--domain-size", "4", "--epsilon", "1", "--window", "4",
        "--seed", "11", "--chunk", str(chunk), "--capacity", "0",
        "--state-dir", str(state_dir), "--checkpoint-every", "1",
        *extra,
    ]


def _ingests(n, seed=5, n_users=40, domain=4):
    rng = np.random.default_rng(seed)
    return [
        json.dumps(
            {"op": "ingest",
             "values": rng.integers(0, domain, n_users).tolist()}
        )
        for _ in range(n)
    ]


def _run(cmd, lines):
    return subprocess.run(
        cmd,
        input="\n".join(lines) + "\n",
        capture_output=True,
        text=True,
        env=_env(),
        check=False,
    )


def _wal_path(state_dir):
    """The WAL of the stdin transport's one shard."""
    return shard_state_dir(state_dir, 0) / WAL_FILE


class TestMalformedInput:
    def test_malformed_lines_leave_wal_consistent(self, tmp_path):
        """Garbage request lines produce error responses but never a
        hole in the WAL: every ingested timestamp is logged exactly
        once and the log replays cleanly."""
        state = tmp_path / "state"
        feed = _ingests(4)
        feed.insert(2, "{not json}")
        feed.insert(4, json.dumps({"op": "mystery"}))
        proc = _run(_serve_cmd(state), feed)
        assert proc.returncode == 0, proc.stderr
        out = [json.loads(line) for line in proc.stdout.splitlines()]
        assert sum("error" in obj for obj in out) == 2
        rows, watermark = replay_wal(_wal_path(state))
        assert watermark == 4
        assert [row["t"] for row in rows] == [0, 1, 2, 3]

    def test_bad_ingest_values_do_not_advance_wal(self, tmp_path):
        """An ingest whose values fail validation is rejected without
        being logged; subsequent good ingests land at the right t."""
        state = tmp_path / "state"
        feed = _ingests(3)
        feed.insert(1, json.dumps({"op": "ingest", "values": [999, -1]}))
        proc = _run(_serve_cmd(state), feed)
        assert proc.returncode == 0, proc.stderr
        rows, watermark = replay_wal(_wal_path(state))
        assert watermark == 3
        assert [row["t"] for row in rows] == [0, 1, 2]


class TestCorruptStateDir:
    def _seed_state(self, state):
        proc = _run(_serve_cmd(state), _ingests(6))
        assert proc.returncode == 0, proc.stderr

    def test_out_of_order_wal_fails_resume_with_clear_error(self, tmp_path):
        state = tmp_path / "state"
        self._seed_state(state)
        wal = _wal_path(state)
        lines = wal.read_text().splitlines()
        rows = [json.loads(line) for line in lines
                if json.loads(line)["op"] == "release"]
        rows[0], rows[1] = rows[1], rows[0]
        wal.write_text(
            "".join(json.dumps(row) + "\n" for row in rows)
            + json.dumps({"op": "commit", "watermark": 6}) + "\n"
        )
        proc = _run(_serve_cmd(state), _ingests(6))
        assert proc.returncode == 2
        assert "out-of-order" in proc.stderr

    def test_garbage_in_committed_prefix_fails_resume(self, tmp_path):
        state = tmp_path / "state"
        self._seed_state(state)
        wal = _wal_path(state)
        wal.write_text("garbage\n" + json.dumps(
            {"op": "commit", "watermark": 1}) + "\n")
        proc = _run(_serve_cmd(state), _ingests(6))
        assert proc.returncode == 2
        assert "undecodable" in proc.stderr

    def test_wal_behind_checkpoint_fails_resume(self, tmp_path):
        state = tmp_path / "state"
        self._seed_state(state)
        _wal_path(state).write_text(
            json.dumps({"op": "commit", "watermark": 1}) + "\n"
        )
        proc = _run(_serve_cmd(state), _ingests(6))
        assert proc.returncode == 2
        assert "behind the checkpoint" in proc.stderr


class TestMidChunkEOF:
    def test_eof_mid_chunk_flushes_and_resumes(self, tmp_path):
        """EOF with a partially filled chunk (7 ingests, chunk 3) still
        commits every ingested timestamp; a restart picks up at t=7."""
        state = tmp_path / "state"
        feed = _ingests(7)
        proc = _run(_serve_cmd(state), feed)
        assert proc.returncode == 0, proc.stderr
        rows, watermark = replay_wal(_wal_path(state))
        assert watermark == 7
        assert [row["t"] for row in rows] == list(range(7))

        # Restart with the same 7 lines plus 2 new ones: the replayed 7
        # are acked as skipped, the new ones ingest at t=7, t=8.
        proc = _run(_serve_cmd(state), feed + _ingests(2, seed=99))
        assert proc.returncode == 0, proc.stderr
        out = [json.loads(line) for line in proc.stdout.splitlines()]
        skipped = [obj for obj in out if obj.get("skipped")]
        assert [obj["t"] for obj in skipped] == list(range(7))
        fresh = [obj for obj in out
                 if obj.get("op") == "ingest" and not obj.get("skipped")]
        assert [obj["t"] for obj in fresh] == [7, 8]
        rows, watermark = replay_wal(_wal_path(state))
        assert watermark == 9
        assert [row["t"] for row in rows] == list(range(9))


class TestListFormWAL:
    def test_a_list_form_wal_rebuilds_the_front_exactly(
        self, tmp_path, to_list_form
    ):
        """A shard WAL whose rows hold JSON float lists (the form
        written before releases were tagged base64) resumes exactly
        once.  The state dir is the one a crash between the shard's
        checkpoint and ``front.json`` leaves: the front at 6, the shard
        at 9, so the front rebuilds t = 6..8 from those list rows."""
        state = tmp_path / "state"
        queries = [
            json.dumps({"op": "sliding", "t0": 0, "t1": 11, "agg": "sum",
                        "item": 1}),
            json.dumps({"op": "topk", "k": 2}),
        ]
        assert _run(_serve_cmd(state), _ingests(6)).returncode == 0
        front = (state / "front.json").read_bytes()
        assert _run(_serve_cmd(state), _ingests(9)).returncode == 0
        (state / "front.json").write_bytes(front)
        wal = _wal_path(state)
        to_list_form(wal)

        proc = _run(_serve_cmd(state), _ingests(12) + queries)
        assert proc.returncode == 0, proc.stderr
        out = [json.loads(line) for line in proc.stdout.splitlines()]
        assert [obj["t"] for obj in out if obj.get("skipped")] == list(
            range(9)
        )
        control = tmp_path / "control"
        want = _run(_serve_cmd(control), _ingests(12) + queries)
        assert want.returncode == 0, want.stderr
        assert out[9:] == [json.loads(line)
                           for line in want.stdout.splitlines()][9:]
        assert replay_wal(wal) == replay_wal(_wal_path(control))


class TestAckAfterDurable:
    def test_every_ack_follows_its_wal_commit(self, tmp_path, monkeypatch):
        """When an ack line is written, the shard WAL already holds a
        committed watermark past its timestamp: an acked ingest
        survives any crash right after the ack."""
        state = tmp_path / "state"
        audited = []

        class AckAuditor(io.StringIO):
            def write(self, text):
                for raw in text.splitlines():
                    ack = json.loads(raw)
                    if ack.get("op") == "ingest":
                        _, watermark = replay_wal(_wal_path(state))
                        assert watermark > ack["t"], (ack, watermark)
                        audited.append(ack["t"])
                return super().write(text)

        feed = "\n".join(_ingests(8)) + "\n"
        monkeypatch.setattr(sys, "stdin", io.StringIO(feed))
        monkeypatch.setattr(sys, "stdout", AckAuditor())
        assert main(_serve_cmd(state, chunk=3)[3:]) == 0
        assert audited == list(range(8))


class TestSingleSessionLayoutRefused:
    def test_root_checkpoint_and_wal_fail_fast(self, tmp_path, monkeypatch):
        """A state dir with ``checkpoint.json``/``releases.wal`` at its
        root (the old stdin serve loop's layout, also ``repro stream``'s)
        is refused with a CheckpointError naming the layout — never
        silently restarted at t=0, which would re-release timestamps."""
        state = tmp_path / "state"
        lines = "".join(
            " ".join(str(v) for v in json.loads(line)["values"]) + "\n"
            for line in _ingests(5)
        )
        monkeypatch.setattr(sys, "stdin", io.StringIO(lines))
        assert main([
            "stream", "--method", "LBD", "--domain-size", "4",
            "--emit", "none", "--state-dir", str(state),
        ]) == 0
        config = ServeConfig(
            "LBD", None, 4, 1.0, 4, state_dir=str(state)
        )
        server = ShardServer(config)
        try:
            with pytest.raises(
                CheckpointError, match="single-session state-dir layout"
            ):
                server.start()
        finally:
            server.close()
        proc = _run(_serve_cmd(state), _ingests(5))
        assert proc.returncode == 2
        assert "single-session state-dir layout" in proc.stderr
        assert proc.stdout == ""
        assert not (state / "front.json").exists()
        assert not shard_state_dir(state, 0).exists()


class TestSigkillMidChunk:
    def test_sigkill_mid_chunk_no_duplicate_ingests(self, tmp_path):
        """kill -9 while a chunk is buffered: the WAL keeps only
        committed work, and the restarted server re-ingests the lost
        span exactly once (unique timestamps, full coverage)."""
        state = tmp_path / "state"
        feed = _ingests(11)
        proc = subprocess.Popen(
            _serve_cmd(state),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=_env(),
        )
        assert proc.stdin is not None and proc.stdout is not None
        # Feed 8 lines (two full chunks of 3, two buffered), wait for
        # the acks of the committed chunks, then SIGKILL mid-buffer.
        for line in feed[:8]:
            proc.stdin.write(line + "\n")
            proc.stdin.flush()
        acked = 0
        deadline = time.monotonic() + 20
        while acked < 6 and time.monotonic() < deadline:
            if proc.stdout.readline():
                acked += 1
        assert acked == 6, "server never acked the two full chunks"
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)

        # Acks print after their chunk's WAL commit, so both acked
        # chunks are durable and the buffered third chunk is not.
        rows, watermark = replay_wal(_wal_path(state))
        assert watermark in (3, 6)
        assert [row["t"] for row in rows] == list(range(watermark))

        resumed = _run(_serve_cmd(state), feed)
        assert resumed.returncode == 0, resumed.stderr
        rows, watermark = replay_wal(_wal_path(state))
        assert watermark == 11
        ts = [row["t"] for row in rows]
        assert ts == sorted(set(ts)) == list(range(11))

    def test_wal_never_torn_beyond_replay(self, tmp_path):
        """Whatever a crash leaves behind, replay_wal either reads it or
        raises WALError — it never returns rows past the last commit."""
        state = tmp_path / "state"
        _run(_serve_cmd(state), _ingests(5))
        wal = _wal_path(state)
        # Simulate a torn final write.
        with wal.open("a") as handle:
            handle.write('{"op": "release", "t": 5, "strategy"')
        rows, watermark = replay_wal(wal)
        assert watermark == 5
        assert [row["t"] for row in rows] == list(range(5))
        # ... and a fresh server resumes over the torn tail.
        proc = _run(_serve_cmd(state), _ingests(5) + _ingests(1, seed=42))
        assert proc.returncode == 0, proc.stderr
        rows, watermark = replay_wal(wal)
        assert watermark == 6


def test_walerror_is_checkpoint_error():
    """Supervisors can catch one exception type for all resume failures."""
    from repro.exceptions import CheckpointError

    assert issubclass(WALError, CheckpointError)

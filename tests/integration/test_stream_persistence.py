"""Crash-resume of durable ``repro stream --state-dir``, end to end.

Exactly-once is checked from the observed history alone: the lines each
run printed and the committed rows of the write-ahead log, compared with
an uninterrupted run over the same feed.  A resumed run may re-print
timestamps the WAL truncation cut, but each such line must be the
uninterrupted run's line byte for byte.
"""

import io
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cli import _build_parser, _cmd_stream
from repro.exceptions import CheckpointError
from repro.persist import replay_wal
from repro.persist.statedir import CHECKPOINT_FILE, WAL_FILE

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    # Release lines must reach the pipe as they are printed.
    env["PYTHONUNBUFFERED"] = "1"
    return env


def _stream_args(state_dir, extra=()):
    return [
        "stream", "--method", "LBD", "--domain-size", "4",
        "--epsilon", "1", "--window", "4", "--seed", "3",
        "--chunk", "2", "--checkpoint-every", "2",
        "--state-dir", str(state_dir), *extra,
    ]


def _stream_cmd(state_dir):
    return [sys.executable, "-m", "repro", *_stream_args(state_dir)]


def _feed(n, seed=9, n_users=50, domain=4):
    rng = np.random.default_rng(seed)
    return [
        " ".join(str(v) for v in rng.integers(0, domain, n_users))
        for _ in range(n)
    ]


def _run(state_dir, lines):
    proc = subprocess.run(
        _stream_cmd(state_dir),
        input="\n".join(lines) + "\n",
        capture_output=True,
        text=True,
        env=_env(),
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def _by_t(stdout):
    """Printed release lines keyed by their timestamp."""
    return [
        (int(line.split(",", 1)[0]), line) for line in stdout.splitlines()
    ]


class TestSigkillResume:
    def test_resumed_history_equals_uninterrupted_run(self, tmp_path):
        feed = _feed(15)
        reference = _run(tmp_path / "reference", feed)
        expected = dict(_by_t(reference.stdout))
        assert sorted(expected) == list(range(15))

        state = tmp_path / "state"
        proc = subprocess.Popen(
            _stream_cmd(state),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=_env(),
        )
        assert proc.stdin is not None and proc.stdout is not None
        # Three full chunks of 2 plus one buffered line.  The third
        # chunk's WAL commit is not followed by a checkpoint (every 2
        # chunks), so the WAL runs ahead of the checkpoint at the kill.
        for line in feed[:7]:
            proc.stdin.write(line + "\n")
            proc.stdin.flush()
        printed = []
        deadline = time.monotonic() + 20
        while len(printed) < 6 and time.monotonic() < deadline:
            line = proc.stdout.readline()
            if line:
                printed.append(line.rstrip("\n"))
        assert len(printed) == 6, "stream never printed three chunks"
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
        proc.stdout.close()
        proc.stdin.close()

        # Lines print only after their chunk's WAL commit.
        rows, watermark = replay_wal(state / WAL_FILE)
        assert watermark == 6
        assert [row["t"] for row in rows] == list(range(6))

        resumed = _run(state, feed)
        history = _by_t("\n".join(printed)) + _by_t(resumed.stdout)
        for t, line in history:
            assert line == expected[t], t
        assert {t for t, _ in history} == set(range(15))
        # The checkpoint was at t=4: the resumed run re-emits t=4 and
        # t=5, which the truncated WAL had cut.
        assert [t for t, _ in _by_t(resumed.stdout)][:2] == [4, 5]

        assert replay_wal(state / WAL_FILE) == replay_wal(
            tmp_path / "reference" / WAL_FILE
        )
        assert resumed.stderr == reference.stderr
        assert (state / CHECKPOINT_FILE).read_bytes() == (
            tmp_path / "reference" / CHECKPOINT_FILE
        ).read_bytes()


class TestResumeConfigCheck:
    def test_other_epsilon_is_refused(self, tmp_path, monkeypatch):
        state = tmp_path / "state"
        feed = _feed(6)
        _run(state, feed)
        checkpoint = (state / CHECKPOINT_FILE).read_bytes()
        stdin = io.StringIO("\n".join(feed) + "\n")
        monkeypatch.setattr(sys, "stdin", stdin)
        args = _build_parser().parse_args(
            _stream_args(state, ("--epsilon", "2"))
        )
        with pytest.raises(
            CheckpointError,
            match=r"epsilon is 1\.0 in the checkpoint but 2\.0 now",
        ):
            _cmd_stream(args)
        assert (state / CHECKPOINT_FILE).read_bytes() == checkpoint

"""Write-ahead release log and state-directory semantics.

The WAL's durability contract: a crash can only produce a torn
*uncommitted* tail, which replay silently drops; anything malformed
inside the committed prefix is real corruption and raises.  The state
directory keeps the checkpoint/WAL pair consistent on resume by
truncating the WAL to the checkpoint watermark.
"""

import json
import string

import numpy as np
import pytest

from repro.exceptions import CheckpointError, WALError
from repro.persist import ReleaseWAL, StateDir, replay_wal, truncate_wal


def _wal(tmp_path, name="log.wal"):
    return tmp_path / name


class TestCommitReplay:
    def test_missing_file_is_empty(self, tmp_path):
        rows, watermark = replay_wal(_wal(tmp_path))
        assert rows == []
        assert watermark == 0

    def test_commit_then_replay(self, tmp_path):
        path = _wal(tmp_path)
        with ReleaseWAL(path) as wal:
            wal.append(0, [0.5, 0.5], "publish", variance=0.01)
            wal.append(1, [0.4, 0.6], "approximate")
            wal.commit(2)
        rows, watermark = replay_wal(path)
        assert watermark == 2
        assert [row["t"] for row in rows] == [0, 1]
        assert rows[0]["strategy"] == "publish"
        assert rows[0]["release"] == [0.5, 0.5]
        assert rows[0]["variance"] == 0.01
        assert "variance" not in rows[1]

    @pytest.mark.parametrize("as_list", [False, True])
    def test_release_row_text_is_pinned(self, tmp_path, as_list):
        """A release is written as the float64 row in the checkpoint
        codec's tagged base64 form, whether it came in as a list or a
        ``(1, n)`` array, and edge floats replay bit for bit."""
        values = [-0.0, 5e-324, 1e308, np.nan, np.inf, -np.inf, 1 / 3]
        release = values if as_list else np.array(values).reshape(1, -1)
        path = _wal(tmp_path)
        with ReleaseWAL(path) as wal:
            wal.append(0, release, "publish")
            wal.commit(1)
        row = path.read_text().splitlines()[0]
        assert row == (
            '{"op": "release", "t": 0, "strategy": "publish", '
            '"release": {"__nd__": "AAAAAAAAAIABAAAAAAAAAKDI64XzzOF/'
            'AAAAAAAA+H8AAAAAAADwfwAAAAAAAPD/VVVVVVVV1T8=", '
            '"dtype": "<f8", "shape": [7]}}'
        )
        rows, _ = replay_wal(path)
        replayed = np.array(rows[0]["release"], dtype=np.float64)
        assert replayed.tobytes() == np.array(values).tobytes()

    def test_commits_accumulate(self, tmp_path):
        path = _wal(tmp_path)
        with ReleaseWAL(path) as wal:
            wal.append(0, [1.0], "publish")
            wal.commit(1)
        # A second writer (post-restart) appends to the same log.
        with ReleaseWAL(path) as wal:
            wal.append(1, [0.0], "publish")
            wal.commit(2)
        rows, watermark = replay_wal(path)
        assert [row["t"] for row in rows] == [0, 1]
        assert watermark == 2

    def test_commit_without_rows_advances_watermark(self, tmp_path):
        """Skipped timestamps (no release row) still move the watermark."""
        path = _wal(tmp_path)
        with ReleaseWAL(path) as wal:
            wal.commit(5)
        rows, watermark = replay_wal(path)
        assert rows == []
        assert watermark == 5

    def test_uncommitted_rows_lost_on_close(self, tmp_path):
        path = _wal(tmp_path)
        with ReleaseWAL(path) as wal:
            wal.append(0, [1.0], "publish")
            wal.commit(1)
            wal.append(1, [0.5], "publish")  # never committed
        rows, watermark = replay_wal(path)
        assert [row["t"] for row in rows] == [0]
        assert watermark == 1


class TestTornTail:
    def _committed(self, path):
        with ReleaseWAL(path) as wal:
            wal.append(0, [1.0], "publish")
            wal.commit(1)

    def test_torn_partial_line_dropped(self, tmp_path):
        path = _wal(tmp_path)
        self._committed(path)
        with path.open("a") as handle:
            handle.write('{"op": "release", "t": 1, "rele')  # crash mid-write
        rows, watermark = replay_wal(path)
        assert [row["t"] for row in rows] == [0]
        assert watermark == 1

    def test_uncommitted_complete_rows_dropped(self, tmp_path):
        path = _wal(tmp_path)
        self._committed(path)
        with path.open("a") as handle:
            handle.write(json.dumps({"op": "release", "t": 1,
                                     "strategy": "publish",
                                     "release": [0.5]}) + "\n")
        rows, watermark = replay_wal(path)
        assert [row["t"] for row in rows] == [0]
        assert watermark == 1

    def test_malformed_line_inside_committed_prefix_raises(self, tmp_path):
        path = _wal(tmp_path)
        with path.open("w") as handle:
            handle.write('{"op": "release", "t": 0, "strategy": "p", '
                         '"release": [1.0]}\n')
            handle.write("!!garbage!!\n")
            handle.write('{"op": "commit", "watermark": 2}\n')
        with pytest.raises(WALError, match="undecodable"):
            replay_wal(path)

    def test_unknown_op_inside_committed_prefix_raises(self, tmp_path):
        path = _wal(tmp_path)
        with path.open("w") as handle:
            handle.write('{"op": "mystery"}\n')
            handle.write('{"op": "commit", "watermark": 1}\n')
        with pytest.raises(WALError, match="unknown op"):
            replay_wal(path)


class TestValidation:
    def test_out_of_order_timestamps_raise(self, tmp_path):
        path = _wal(tmp_path)
        with path.open("w") as handle:
            for t in (0, 2, 1):
                handle.write(json.dumps({"op": "release", "t": t,
                                         "strategy": "p",
                                         "release": [1.0]}) + "\n")
            handle.write('{"op": "commit", "watermark": 3}\n')
        with pytest.raises(WALError, match="out-of-order"):
            replay_wal(path)

    def test_duplicate_timestamp_raises(self, tmp_path):
        path = _wal(tmp_path)
        with path.open("w") as handle:
            for _ in range(2):
                handle.write(json.dumps({"op": "release", "t": 0,
                                         "strategy": "p",
                                         "release": [1.0]}) + "\n")
            handle.write('{"op": "commit", "watermark": 1}\n')
        with pytest.raises(WALError, match="out-of-order"):
            replay_wal(path)

    def test_backwards_watermark_raises(self, tmp_path):
        path = _wal(tmp_path)
        with path.open("w") as handle:
            handle.write('{"op": "commit", "watermark": 5}\n')
            handle.write('{"op": "commit", "watermark": 3}\n')
        with pytest.raises(WALError, match="backwards"):
            replay_wal(path)

    def test_row_beyond_its_watermark_raises(self, tmp_path):
        path = _wal(tmp_path)
        with path.open("w") as handle:
            handle.write(json.dumps({"op": "release", "t": 7,
                                     "strategy": "p",
                                     "release": [1.0]}) + "\n")
            handle.write('{"op": "commit", "watermark": 3}\n')
        with pytest.raises(WALError, match="not\\s+covered"):
            replay_wal(path)

    def test_commit_without_watermark_raises(self, tmp_path):
        path = _wal(tmp_path)
        path.write_text('{"op": "commit"}\n')
        with pytest.raises(WALError, match="watermark"):
            replay_wal(path)


class TestTruncate:
    def test_truncate_drops_rows_at_or_beyond_watermark(self, tmp_path):
        path = _wal(tmp_path)
        with ReleaseWAL(path) as wal:
            for t in range(6):
                wal.append(t, [float(t)], "publish")
            wal.commit(6)
        kept = truncate_wal(path, 4)
        assert kept == 4
        rows, watermark = replay_wal(path)
        assert [row["t"] for row in rows] == [0, 1, 2, 3]
        assert watermark == 4

    def test_truncate_to_zero_empties_log(self, tmp_path):
        path = _wal(tmp_path)
        with ReleaseWAL(path) as wal:
            wal.append(0, [1.0], "publish")
            wal.commit(1)
        assert truncate_wal(path, 0) == 0
        rows, watermark = replay_wal(path)
        assert rows == []
        assert watermark == 0

    def test_truncate_missing_log_creates_commit_marker(self, tmp_path):
        path = _wal(tmp_path)
        assert truncate_wal(path, 0) == 0
        assert path.exists()
        assert replay_wal(path) == ([], 0)


def _write_rows(path, releases, *, start=0):
    with ReleaseWAL(path) as wal:
        for t, release in enumerate(releases, start=start):
            wal.append(t, release, "publish", variance=0.5 * t)
            wal.commit(t + 1)


RELEASES = [[0.1 * t, 1 / 3, -0.0, 1.0 - t] for t in range(5)]


class TestListFormRows:
    """Logs written before the tagged form still replay, alone or with
    tagged rows appended after them."""

    def test_a_list_form_log_then_tagged_rows_replays_in_order(
        self, tmp_path, to_list_form
    ):
        reference = _wal(tmp_path, "reference.wal")
        _write_rows(reference, RELEASES)
        path = _wal(tmp_path)
        _write_rows(path, RELEASES[:3])
        to_list_form(path)
        _write_rows(path, RELEASES[3:], start=3)
        text = path.read_text()
        assert text.count('"release": [') == 3
        assert text.count('"__nd__"') == 2
        assert replay_wal(path) == replay_wal(reference)
        rows, _ = replay_wal(path)
        assert [row["release"] for row in rows] == RELEASES

    def test_truncate_rewrites_list_rows_in_the_tagged_form(
        self, tmp_path, to_list_form
    ):
        reference = _wal(tmp_path, "reference.wal")
        with ReleaseWAL(reference) as wal:
            for t, release in enumerate(RELEASES[:4]):
                wal.append(t, release, "publish", variance=0.5 * t)
            wal.commit(4)
        path = _wal(tmp_path)
        _write_rows(path, RELEASES)
        to_list_form(path)
        assert truncate_wal(path, 4) == 4
        assert path.read_text() == reference.read_text()


def _outside_base64(payload):
    """Flip one bit of the first character so it leaves the alphabet."""
    alphabet = (string.ascii_letters + string.digits + "+/=").encode()
    for bit in range(7):
        flipped = payload[0] ^ (1 << bit)
        if 0x20 < flipped < 0x7F and flipped not in alphabet + b'"\\':
            return bytes([flipped]) + payload[1:]
    raise AssertionError(f"no such flip of {payload[:1]!r}")


#: Ways a tagged release can be damaged, applied to its row's bytes.
CORRUPTIONS = {
    "bit flipped out of the alphabet": lambda row: _in_payload(
        row, _outside_base64
    ),
    "high bit flipped": lambda row: _in_payload(
        row, lambda p: bytes([p[0] ^ 0x80]) + p[1:]
    ),
    "one character short": lambda row: _in_payload(row, lambda p: p[:-1]),
    "four characters short": lambda row: _in_payload(row, lambda p: p[4:]),
    "tag bit flipped": lambda row: row.replace(b'"__nd__"', b'"^_nd__"'),
    "int64 dtype": lambda row: row.replace(b'"<f8"', b'"<i8"'),
    "two-dimensional shape": lambda row: row.replace(b"[4]", b"[2, 2]"),
}


def _in_payload(row, damage):
    head, rest = row.split(b'"__nd__": "', 1)
    payload, tail = rest.split(b'"', 1)
    return head + b'"__nd__": "' + damage(payload) + b'"' + tail


class TestCorruptTaggedRelease:
    """A damaged tagged release is corruption inside the committed
    prefix and a torn row in the uncommitted tail."""

    def _damaged(self, tmp_path, corruption, *, committed):
        path = _wal(tmp_path)
        _write_rows(path, RELEASES[:2])
        lines = path.read_bytes().splitlines(keepends=True)
        lines[2] = CORRUPTIONS[corruption](lines[2])
        if not committed:
            lines.pop()
        path.write_bytes(b"".join(lines))
        return path

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_inside_the_committed_prefix_raises(self, tmp_path, corruption):
        path = self._damaged(tmp_path, corruption, committed=True)
        with pytest.raises(WALError, match="undecodable line 3"):
            replay_wal(path)

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_in_the_uncommitted_tail_is_dropped(self, tmp_path, corruption):
        path = self._damaged(tmp_path, corruption, committed=False)
        rows, watermark = replay_wal(path)
        assert [row["t"] for row in rows] == [0]
        assert watermark == 1


class TestStateDir:
    def test_fresh_dir_resume(self, tmp_path):
        state = StateDir(tmp_path / "state")
        checkpoint, watermark = state.prepare_resume()
        assert checkpoint is None
        assert watermark == 0
        # prepare_resume leaves a valid (empty) WAL behind.
        assert state.committed_releases() == ([], 0)

    def test_root_is_a_file_raises(self, tmp_path):
        blocker = tmp_path / "state"
        blocker.write_text("not a dir")
        with pytest.raises(CheckpointError, match="not a directory"):
            StateDir(blocker)

    def test_wal_ahead_of_checkpoint_is_truncated(self, tmp_path):
        """Crash between a WAL commit and the next checkpoint write: the
        WAL runs ahead; resume cuts it back to the checkpoint mark."""
        state = StateDir(tmp_path / "state")
        with state.open_wal() as wal:
            for t in range(6):
                wal.append(t, [float(t)], "publish")
            wal.commit(6)
        state.checkpoint_path.write_text(
            json.dumps(_fake_checkpoint_payload(watermark=4))
        )
        checkpoint, watermark = state.prepare_resume()
        assert watermark == 4
        rows, wal_mark = state.committed_releases()
        assert [row["t"] for row in rows] == [0, 1, 2, 3]
        assert wal_mark == 4

    def test_wal_behind_checkpoint_raises(self, tmp_path):
        """The server commits the WAL before the checkpoint, so a WAL
        behind the checkpoint can only mean tampering or mixed runs."""
        state = StateDir(tmp_path / "state")
        with state.open_wal() as wal:
            wal.commit(2)
        state.checkpoint_path.write_text(
            json.dumps(_fake_checkpoint_payload(watermark=9))
        )
        with pytest.raises(CheckpointError, match="behind the checkpoint"):
            state.prepare_resume()

    def test_corrupt_wal_fails_resume(self, tmp_path):
        state = StateDir(tmp_path / "state")
        state.wal_path.write_text(
            "garbage\n" + '{"op": "commit", "watermark": 1}\n'
        )
        with pytest.raises(WALError):
            state.prepare_resume()


def _fake_checkpoint_payload(watermark: int) -> dict:
    """Minimal payload Checkpoint.load accepts whose watermark is read
    from state.next_t (restoring it would fail — resume validation of
    the pair happens before any restore)."""
    return {
        "format": "repro-checkpoint",
        "version": 1,
        "config": {},
        "state": {"next_t": watermark},
    }

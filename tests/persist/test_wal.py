"""Write-ahead release log and state-directory semantics.

The WAL's durability contract: a crash can only produce a torn
*uncommitted* tail, which replay silently drops; anything malformed
inside the committed prefix is real corruption and raises.  The state
directory keeps the checkpoint/WAL pair consistent on resume by
truncating the WAL to the checkpoint watermark.
"""

import json

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
        """Edge floats encode exactly as the per-element ``float(v)``
        form did, so the log's bytes do not depend on how the row was
        converted."""
        values = [-0.0, 5e-324, 1e308, np.nan, np.inf, -np.inf, 1 / 3]
        release = values if as_list else np.array(values).reshape(1, -1)
        path = _wal(tmp_path)
        with ReleaseWAL(path) as wal:
            wal.append(0, release, "publish")
            wal.commit(1)
        old_form = {
            "op": "release",
            "t": 0,
            "strategy": "publish",
            "release": [float(v) for v in np.asarray(release).ravel()],
        }
        row = path.read_text().splitlines()[0]
        assert row == json.dumps(old_form)
        assert row.endswith(
            '"release": [-0.0, 5e-324, 1e+308, NaN, Infinity, '
            '-Infinity, 0.3333333333333333]}'
        )

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

"""The one durable online session: open, resume, ingest, checkpoint.

``DurableSession`` is what ``repro stream --state-dir`` and every serve
shard worker run.  A session checkpointed, closed and reopened over its
state dir must continue exactly like one that never stopped; a resume
under another configuration must be refused, naming the keys.
"""

import numpy as np
import pytest

from repro.exceptions import CheckpointError, InvalidParameterError
from repro.persist import DurableSession, replay_wal
from repro.persist.codec import write_atomic
from repro.persist.statedir import WAL_FILE, check_config
from repro.query.store import ReleaseStore

DOMAIN = 4


def _config(**overrides):
    config = {
        "mechanism": "LBD",
        "oracle": "grr",
        "postprocess": "none",
        "epsilon": 1.0,
        "window": 4,
        "n_users": 40,
        "domain_size": DOMAIN,
        "fast": True,
        "record_trace": False,
        "seed": 5,
        "enforce_privacy": True,
    }
    config.update(overrides)
    return config


def _blocks(n_blocks, size=3, seed=2):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, DOMAIN, (size, 40)) for _ in range(n_blocks)]


def _open(state_dir, *, store=False, **overrides):
    return DurableSession.open(
        state_dir,
        _config(**overrides),
        chunk=3,
        checkpoint_every=2,
        store=ReleaseStore(DOMAIN, capacity=None) if store else None,
    )


def _ingest(durable, blocks, start=0):
    """Ingest ``blocks[start:]`` at their timestamps; return the rows."""
    return [
        row
        for i in range(start, len(blocks))
        for row in durable.ingest(3 * i, blocks[i])
    ]


def _rows_equal(a, b):
    assert len(a) == len(b)
    for (ra, va, sa), (rb, vb, sb) in zip(a, b):
        assert np.array_equal(ra, rb)
        assert (va, sa) == (vb, sb)


@pytest.mark.parametrize("store", [False, True])
def test_reopen_continues_like_an_uninterrupted_session(tmp_path, store):
    blocks = _blocks(5)
    with _open(tmp_path / "reference", store=store) as durable:
        reference = _ingest(durable, blocks)
    # Three blocks, a checkpoint after the second: the reopened session
    # resumes at t=6 and re-ingests the third block the WAL had cut.
    with _open(tmp_path / "state", store=store) as durable:
        _ingest(durable, blocks[:3])
    with _open(tmp_path / "state", store=store) as durable:
        assert durable.watermark == 6
        resumed = _ingest(durable, blocks, start=2)
    _rows_equal(resumed, reference[6:])
    assert replay_wal(tmp_path / "state" / WAL_FILE) == replay_wal(
        tmp_path / "reference" / WAL_FILE
    )


def test_a_wal_in_the_list_form_resumes_exactly_once(tmp_path, to_list_form):
    """A state dir whose WAL rows hold JSON float lists (as written
    before releases were tagged base64) resumes like any other: the
    reopened session continues like an uninterrupted one, and the log
    it leaves replays to the same rows, now all tagged."""
    blocks = _blocks(5)
    with _open(tmp_path / "reference", store=True) as durable:
        reference = _ingest(durable, blocks)
    state = tmp_path / "state"
    with _open(state, store=True) as durable:
        _ingest(durable, blocks[:3])
    wal = state / WAL_FILE
    to_list_form(wal)
    assert '"release": [' in wal.read_text()
    with _open(state, store=True) as durable:
        assert durable.watermark == 6
        resumed = _ingest(durable, blocks, start=2)
    _rows_equal(resumed, reference[6:])
    assert replay_wal(wal) == replay_wal(tmp_path / "reference" / WAL_FILE)
    assert '"release": [' not in wal.read_text()


def test_rows_carry_variance_only_with_a_store(tmp_path):
    for store, has_variance in ((False, False), (True, True)):
        with _open(tmp_path / f"s{store}", store=store) as durable:
            durable.ingest(0, _blocks(1)[0])
        rows, watermark = replay_wal(tmp_path / f"s{store}" / WAL_FILE)
        assert watermark == 3
        assert all(("variance" in row) == has_variance for row in rows)


def test_without_a_state_dir_nothing_is_written(tmp_path):
    with _open(None) as durable:
        rows = durable.ingest(0, _blocks(1)[0])
        assert len(rows) == 3 and durable.wal is None
        with pytest.raises(CheckpointError, match="no state dir"):
            durable.checkpoint()


def test_resume_under_another_config_names_every_key(tmp_path):
    with _open(tmp_path / "state") as durable:
        durable.ingest(0, _blocks(1)[0])
        durable.checkpoint()
    with pytest.raises(CheckpointError) as raised:
        _open(tmp_path / "state", epsilon=2.0, window=5)
    message = str(raised.value)
    assert "epsilon is 1.0 in the checkpoint but 2.0 now" in message
    assert "window is 4 in the checkpoint but 5 now" in message


def test_refused_resume_leaves_the_state_dir_untouched(tmp_path):
    """The config check runs before the WAL is truncated: a refused
    reopen keeps every committed row, byte for byte."""
    state = tmp_path / "state"
    with _open(state) as durable:
        # Three commits, a checkpoint after the second: WAL watermark 9,
        # checkpoint watermark 6.
        _ingest(durable, _blocks(3))
    assert replay_wal(state / WAL_FILE)[1] == 9
    before = {p.name: p.read_bytes() for p in state.iterdir()}
    with pytest.raises(CheckpointError, match="epsilon"):
        _open(state, epsilon=2.0)
    assert {p.name: p.read_bytes() for p in state.iterdir()} == before
    with _open(state) as durable:
        assert durable.watermark == 6
    assert replay_wal(state / WAL_FILE)[1] == 6


def test_invalid_checkpoint_cadence_is_refused(tmp_path):
    with pytest.raises(InvalidParameterError, match="checkpoint_every"):
        DurableSession.open(
            tmp_path / "state", _config(), chunk=1, checkpoint_every=0
        )


def test_check_config_hint_only_on_its_key():
    recorded = {"num_shards": 2, "window": 4}
    hints = {"num_shards": "resharding"}
    with pytest.raises(CheckpointError, match=r"now$"):
        check_config("front", recorded, {"num_shards": 2, "window": 5}, hints)
    with pytest.raises(CheckpointError, match=r"now \(resharding\)$"):
        check_config("front", recorded, {"num_shards": 4, "window": 4}, hints)
    with pytest.raises(CheckpointError, match="no 'config' section"):
        check_config("front", None, {"window": 4})
    check_config("front", recorded, {"window": 4})


def test_write_atomic_keeps_the_old_file_on_failure(tmp_path):
    path = tmp_path / "file.json"
    write_atomic(path, "old")
    with pytest.raises(TypeError):
        write_atomic(path, None)
    assert path.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["file.json"]

"""Property-based checkpoint round trips.

Hypothesis drives the persistence machinery through random coordinates
— mechanism × oracle pair, session seed, split point, window, epsilon —
and asserts the one invariant that matters everywhere: a session
restored from a JSON-round-tripped snapshot continues **bit-identically**
to the uninterrupted run.  The deterministic matrix in
``tests/persist/`` pins every mechanism × oracle pair; these tests walk
the parameter space in between.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import StreamSession, WEventAccountant
from repro.exceptions import WALError
from repro.persist import ReleaseWAL, replay_wal, truncate_wal
from repro.streams import MaterializedStream

MECHANISMS = ["LBU", "LSP", "LBD", "LBA", "LPU", "LPD", "LPA", "LPF"]
ORACLES = ["grr", "oue", "sue", "olh", "hr"]

HORIZON = 18


def _dataset(data_seed):
    values = np.random.default_rng(data_seed).integers(
        0, 4, size=(HORIZON, 300)
    )
    return MaterializedStream(values, domain_size=4)


def _run(mechanism, oracle, seed, window, epsilon, data_seed, split):
    """Run to ``split``, JSON-round-trip a snapshot, restore, finish."""
    session = StreamSession(
        mechanism,
        _dataset(data_seed),
        epsilon=epsilon,
        window=window,
        horizon=HORIZON,
        oracle=oracle,
        seed=seed,
    )
    session.start()
    session.observe_many(0, split)
    payload = json.loads(json.dumps(session.snapshot()))
    resumed = StreamSession.restore(payload, _dataset(data_seed))
    resumed.observe_many(split, HORIZON - split)
    return resumed.finalize()


class TestCheckpointProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(MECHANISMS),
        st.sampled_from(ORACLES),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=2, max_value=8),
        st.floats(min_value=0.2, max_value=4.0, allow_nan=False),
        st.integers(min_value=0, max_value=99),
        st.integers(min_value=0, max_value=HORIZON - 1),
    )
    def test_roundtrip_is_bit_identical(
        self, mechanism, oracle, seed, window, epsilon, data_seed, split
    ):
        reference = StreamSession(
            mechanism,
            _dataset(data_seed),
            epsilon=epsilon,
            window=window,
            horizon=HORIZON,
            oracle=oracle,
            seed=seed,
        )
        reference.start()
        reference.observe_many(0, HORIZON)
        ref = reference.finalize()

        result = _run(
            mechanism, oracle, seed, window, epsilon, data_seed, split
        )
        assert np.array_equal(ref.releases, result.releases)
        assert np.array_equal(ref.true_frequencies, result.true_frequencies)
        assert ref.total_reports == result.total_reports
        assert ref.max_window_spend == result.max_window_spend
        assert [r.strategy for r in ref.records] == [
            r.strategy for r in result.records
        ]

    @settings(max_examples=20, deadline=None)
    @given(
        st.sampled_from(MECHANISMS),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.lists(
            st.integers(min_value=0, max_value=HORIZON - 1),
            min_size=1,
            max_size=4,
        ),
    )
    def test_chained_snapshots_compose(self, mechanism, seed, raw_splits):
        """Checkpointing repeatedly at arbitrary points is the same as
        never checkpointing at all."""
        reference = StreamSession(
            mechanism, _dataset(7), 1.0, 4, horizon=HORIZON,
            oracle="grr", seed=seed,
        )
        reference.start()
        reference.observe_many(0, HORIZON)
        ref = reference.finalize()

        session = StreamSession(
            mechanism, _dataset(7), 1.0, 4, horizon=HORIZON,
            oracle="grr", seed=seed,
        )
        session.start()
        cursor = 0
        for split in sorted(set(raw_splits)):
            session.observe_many(cursor, split - cursor)
            cursor = split
            session = StreamSession.restore(
                json.loads(json.dumps(session.snapshot())), _dataset(7)
            )
        session.observe_many(cursor, HORIZON - cursor)
        result = session.finalize()
        assert np.array_equal(ref.releases, result.releases)
        assert ref.total_reports == result.total_reports


class TestAccountantRestoreProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8),
        st.lists(
            st.floats(min_value=0.0, max_value=0.1, allow_nan=False),
            min_size=1,
            max_size=30,
        ),
        st.integers(min_value=0, max_value=29),
    )
    def test_ledger_roundtrip_preserves_remaining_budget(
        self, window, charges, raw_split
    ):
        """Restoring the accountant at any point leaves the remaining
        window budget — hence future charge decisions — unchanged."""
        split = min(raw_split, len(charges))
        acc = WEventAccountant(n_users=5, epsilon=1.0, window=window)
        twin = None
        for t, eps in enumerate(charges):
            acc.charge(t, None, eps)
            if t + 1 == split:
                twin = WEventAccountant(n_users=5, epsilon=1.0, window=window)
                twin.load_state(
                    json.loads(json.dumps(acc.state_dict()))
                )
        if twin is None:
            twin = WEventAccountant(n_users=5, epsilon=1.0, window=window)
            twin.load_state(json.loads(json.dumps(acc.state_dict())))
        else:
            for t in range(split, len(charges)):
                twin.charge(t, None, charges[t])
        assert twin.max_window_spend == acc.max_window_spend
        assert twin.total_charges == acc.total_charges
        assert twin.window_spend(0) == acc.window_spend(0)
        assert np.array_equal(twin.spend_snapshot(), acc.spend_snapshot())


class TestWALProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=1, max_value=5),
            min_size=1,
            max_size=8,
        ),
        st.integers(min_value=0, max_value=40),
    )
    def test_commit_replay_truncate_roundtrip(
        self, tmp_path_factory, chunk_sizes, raw_mark
    ):
        """Any chunking commits a replayable log; truncating to any
        committed watermark keeps exactly the rows below it."""
        path = tmp_path_factory.mktemp("wal") / "log.wal"
        t = 0
        with ReleaseWAL(path) as wal:
            for size in chunk_sizes:
                for _ in range(size):
                    wal.append(t, [float(t), 1.0 - t], "publish")
                    t += 1
                wal.commit(t)
        rows, watermark = replay_wal(path)
        assert watermark == t
        assert [row["t"] for row in rows] == list(range(t))

        mark = min(raw_mark, t)
        kept = truncate_wal(path, mark)
        assert kept == mark
        rows, watermark = replay_wal(path)
        assert watermark == mark
        assert [row["t"] for row in rows] == list(range(mark))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.lists(st.floats(), min_size=1, max_size=4),
                min_size=0,
                max_size=3,
            ),
            min_size=1,
            max_size=5,
        ),
        st.data(),
    )
    def test_a_log_cut_at_any_byte_replays_a_committed_prefix(
        self, tmp_path_factory, chunks, data
    ):
        """A log cut anywhere (a crash mid-write, a short copy) replays
        the rows of one of its commits, never raises anything but
        ``WALError``; a flipped bit anywhere raises nothing else."""
        path = tmp_path_factory.mktemp("wal") / "log.wal"
        t = 0
        marks = [0]
        with ReleaseWAL(path) as wal:
            for chunk in chunks:
                for release in chunk:
                    wal.append(t, release, "publish")
                    t += 1
                wal.commit(t)
                marks.append(t)
        full, _ = replay_wal(path)
        blob = path.read_bytes()

        cut = data.draw(st.integers(min_value=0, max_value=len(blob)))
        path.write_bytes(blob[:cut])
        try:
            rows, watermark = replay_wal(path)
        except WALError:
            pass
        else:
            assert watermark in marks
            assert len(rows) == watermark
            assert [r["t"] for r in rows] == list(range(watermark))
            assert _bits(rows) == _bits(full[:watermark])

        offset = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        bit = data.draw(st.integers(min_value=0, max_value=7))
        flipped = bytearray(blob)
        flipped[offset] ^= 1 << bit
        path.write_bytes(bytes(flipped))
        try:
            replay_wal(path)
        except WALError:
            pass


def _bits(rows):
    """Rows with each release as its float64 bytes (NaN-safe equality)."""
    return [
        {**row, "release": np.asarray(row["release"], np.float64).tobytes()}
        for row in rows
    ]

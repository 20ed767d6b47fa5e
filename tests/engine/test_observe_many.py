"""Bulk ingestion: ``observe_many`` must be bit-identical to the loop.

The contract under test is the one the whole chunked path rests on: for
every mechanism and oracle, ingesting a span through
:meth:`StreamSession.observe_many` performs the same RNG draws in the
same order as the equivalent :meth:`observe` loop — releases, truth
rows, records, counters, accountant state and any attached store all
end up byte-for-byte equal, for any chunking of the horizon.
"""

import numpy as np
import pytest

from repro.engine import SessionGroup, StreamSession, run_stream
from repro.exceptions import InvalidParameterError
from repro.query import ReleaseStore
from repro.streams import MaterializedStream, OnlineStream, TaxiSimulator

ALL_MECHANISMS = ("LBU", "LSP", "LBD", "LBA", "LPU", "LPD", "LPA")
#: All built-ins now carry a chunk kernel; the adaptive ones get the
#: deeper per-oracle matrix in tests/mechanisms/test_adaptive_kernels.py.
KERNEL_MECHANISMS = ALL_MECHANISMS

HORIZON = 42
WINDOW = 5


def _dataset(seed=5, horizon=HORIZON, n_users=1500, domain=6):
    values = np.random.default_rng(seed).integers(
        0, domain, size=(horizon, n_users)
    )
    return MaterializedStream(values, domain_size=domain)


def _run_looped(mechanism, dataset, **kwargs):
    session = StreamSession(
        mechanism, dataset, 1.0, WINDOW, seed=11, **kwargs
    ).start()
    for t in range(HORIZON):
        session.observe(t)
    return session


def _run_chunked(mechanism, dataset, chunks, **kwargs):
    session = StreamSession(
        mechanism, dataset, 1.0, WINDOW, seed=11, **kwargs
    ).start()
    t = 0
    for chunk in chunks:
        t += len(session.observe_many(t, chunk))
    while t < HORIZON:
        t += len(session.observe_many(t, 7))
    return session


def assert_sessions_identical(a, b):
    assert np.array_equal(a.releases, b.releases)
    assert np.array_equal(a.true_frequencies, b.true_frequencies)
    assert a.total_reports == b.total_reports
    assert a.max_window_spend == b.max_window_spend
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert ra.t == rb.t
        assert ra.strategy == rb.strategy
        assert ra.reports == rb.reports
        assert np.array_equal(ra.release, rb.release)


class TestBitIdentity:
    @pytest.mark.parametrize("mechanism", ALL_MECHANISMS)
    def test_chunked_matches_loop(self, mechanism):
        # Chunks deliberately misaligned with the w=5 window so spans
        # cross publication / re-release / nullification boundaries.
        looped = _run_looped(mechanism, _dataset())
        chunked = _run_chunked(mechanism, _dataset(), chunks=[1, 13, 4, 7])
        assert_sessions_identical(looped.finalize(), chunked.finalize())

    @pytest.mark.parametrize("mechanism", KERNEL_MECHANISMS)
    @pytest.mark.parametrize("oracle", ("grr", "oue", "sue", "olh", "hr"))
    def test_kernel_matches_loop_per_oracle(self, mechanism, oracle):
        looped = _run_looped(mechanism, _dataset(), oracle=oracle)
        chunked = _run_chunked(
            mechanism, _dataset(), chunks=[13], oracle=oracle
        )
        assert_sessions_identical(looped.finalize(), chunked.finalize())

    @pytest.mark.parametrize("mechanism", ("LBU", "LSP", "LPU", "LBA"))
    def test_chunk_of_one_equals_observe(self, mechanism):
        looped = _run_looped(mechanism, _dataset())
        chunked = _run_chunked(
            mechanism, _dataset(), chunks=[1] * HORIZON
        )
        assert_sessions_identical(looped.finalize(), chunked.finalize())

    def test_single_chunk_spans_whole_horizon(self):
        looped = _run_looped("LPU", _dataset())
        chunked = _run_chunked("LPU", _dataset(), chunks=[HORIZON])
        assert_sessions_identical(looped.finalize(), chunked.finalize())

    @pytest.mark.parametrize("mechanism", ("LBU", "LSP", "LPU", "LBD"))
    def test_generative_stream_chunked(self, mechanism):
        looped = _run_looped(
            mechanism, TaxiSimulator(n_users=1200, horizon=HORIZON, seed=3)
        )
        chunked = _run_chunked(
            mechanism,
            TaxiSimulator(n_users=1200, horizon=HORIZON, seed=3),
            chunks=[9, 17],
        )
        assert_sessions_identical(looped.finalize(), chunked.finalize())

    @pytest.mark.parametrize("mechanism", ("LSP", "LBA"))
    def test_attached_store_identical(self, mechanism):
        a = StreamSession(
            mechanism, _dataset(), 1.0, WINDOW, seed=2, store=ReleaseStore(6)
        ).start()
        for t in range(HORIZON):
            a.observe(t)
        b = StreamSession(
            mechanism, _dataset(), 1.0, WINDOW, seed=2, store=ReleaseStore(6)
        ).start()
        b.observe_many(0, HORIZON)
        assert len(a.store) == len(b.store)
        for t in range(HORIZON):
            ra, va = a.store.release_at(t), a.store.variance_at(t)
            rb, vb = b.store.release_at(t), b.store.variance_at(t)
            assert np.array_equal(ra, rb)
            assert va == vb

    def test_trace_free_summaries_identical(self):
        a = StreamSession(
            "LPU", _dataset(), 1.0, WINDOW, seed=2, record_trace=False
        ).start()
        for t in range(HORIZON):
            a.observe(t)
        b = StreamSession(
            "LPU", _dataset(), 1.0, WINDOW, seed=2, record_trace=False
        ).start()
        b.observe_many(0, HORIZON)
        assert a.summary() == b.summary()

    def test_mixing_observe_and_observe_many(self):
        looped = _run_looped("LBU", _dataset())
        mixed = StreamSession("LBU", _dataset(), 1.0, WINDOW, seed=11).start()
        mixed.observe(0)
        mixed.observe_many(1, 20)
        mixed.observe(21)
        mixed.observe_many(22, HORIZON - 22)
        assert_sessions_identical(looped.finalize(), mixed.finalize())

    def test_online_stream_chunked(self):
        rng = np.random.default_rng(7)
        snapshots = rng.integers(0, 4, size=(24, 300))
        a = StreamSession(
            "LBU", OnlineStream(300, 4, retain=8), 1.0, WINDOW, seed=1
        ).start()
        for row in snapshots:
            t = a.dataset.push(row)
            a.observe(t)
        b = StreamSession(
            "LBU", OnlineStream(300, 4, retain=8), 1.0, WINDOW, seed=1
        ).start()
        for start in range(0, 24, 8):
            for row in snapshots[start : start + 8]:
                b.dataset.push(row)
            b.observe_many(start, 8)
        assert_sessions_identical(a.finalize(), b.finalize())


class TestRunStreamChunk:
    def test_default_chunk_matches_chunk_one(self):
        a = run_stream("LPD", _dataset(), 1.0, WINDOW, seed=4)
        b = run_stream("LPD", _dataset(), 1.0, WINDOW, seed=4, chunk=1)
        assert_sessions_identical(a, b)

    def test_explicit_chunk_matches(self):
        a = run_stream("LBU", _dataset(), 1.0, WINDOW, seed=4, chunk=13)
        b = run_stream("LBU", _dataset(), 1.0, WINDOW, seed=4, chunk=1)
        assert_sessions_identical(a, b)

    def test_invalid_chunk_rejected(self):
        with pytest.raises(InvalidParameterError):
            run_stream("LBU", _dataset(), 1.0, WINDOW, seed=4, chunk=0)


class TestEdges:
    def test_chunk_clamped_to_horizon(self):
        session = StreamSession(
            "LBU", _dataset(), 1.0, WINDOW, seed=0, horizon=10
        ).start()
        records = session.observe_many(0, 999)
        assert len(records) == 10
        assert session.steps_observed == 10

    def test_chunk_clamped_to_dataset_horizon(self):
        session = StreamSession("LSP", _dataset(), 1.0, WINDOW, seed=0).start()
        assert len(session.observe_many(0, HORIZON + 50)) == HORIZON

    def test_default_n_fills_horizon(self):
        session = StreamSession(
            "LBU", _dataset(), 1.0, WINDOW, seed=0, horizon=12
        ).start()
        assert len(session.observe_many()) == 12

    def test_at_horizon_raises(self):
        session = StreamSession(
            "LBU", _dataset(), 1.0, WINDOW, seed=0, horizon=10
        ).start()
        session.observe_many(0, 10)
        with pytest.raises(InvalidParameterError):
            session.observe_many(10, 1)

    def test_zero_chunk_is_noop(self):
        session = StreamSession("LBU", _dataset(), 1.0, WINDOW, seed=0).start()
        assert session.observe_many(0, 0) == []
        assert session.steps_observed == 0

    def test_out_of_order_chunk_rejected(self):
        session = StreamSession("LBU", _dataset(), 1.0, WINDOW, seed=0).start()
        session.observe_many(0, 5)
        with pytest.raises(InvalidParameterError):
            session.observe_many(3, 5)

    def test_requires_start(self):
        session = StreamSession("LBU", _dataset(), 1.0, WINDOW, seed=0)
        with pytest.raises(InvalidParameterError):
            session.observe_many(0, 5)

    def test_unbounded_session_requires_n(self):
        session = StreamSession(
            "LBU", OnlineStream(100, 4), 1.0, WINDOW, seed=0
        ).start()
        with pytest.raises(InvalidParameterError):
            session.observe_many()


class TestSessionGroupChunked:
    def test_group_matches_solo_with_mixed_horizons(self):
        # truth_chunk=8 never divides either horizon, so the group's
        # chunked fan-out clips spans per session at block boundaries.
        group = SessionGroup(_dataset(), truth_chunk=8)
        group.add_session("LBU", 1.0, WINDOW, seed=21, horizon=13)
        group.add_session("LPD", 1.5, WINDOW, seed=22)
        short, full = group.run()
        solo_short = StreamSession(
            "LBU", _dataset(), 1.0, WINDOW, seed=21, horizon=13
        ).start()
        solo_short.observe_many(0, 13)
        solo_full = StreamSession(
            "LPD", _dataset(), 1.5, WINDOW, seed=22
        ).start()
        for t in range(HORIZON):
            solo_full.observe(t)
        assert_sessions_identical(short, solo_short.finalize())
        assert_sessions_identical(full, solo_full.finalize())

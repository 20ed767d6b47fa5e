"""Tests for the incremental StreamSession and the SessionGroup engine.

The load-bearing property is *solo equivalence*: a session advanced
incrementally — alone or inside a shared-pass group — must be
bit-identical to the historical monolithic ``run_stream`` loop at the
same seed.
"""

import numpy as np
import pytest

from repro.engine import SessionGroup, StreamSession, run_stream
from repro.exceptions import InvalidParameterError, StreamAccessError
from repro.streams import OnlineStream, TaxiSimulator, make_lns

ALL_MECHANISMS = ("LBU", "LSP", "LBD", "LBA", "LPU", "LPD", "LPA")


def assert_sessions_identical(a, b):
    assert a.mechanism == b.mechanism
    assert np.array_equal(a.releases, b.releases)
    assert np.array_equal(a.true_frequencies, b.true_frequencies)
    assert a.total_reports == b.total_reports
    assert a.max_window_spend == b.max_window_spend
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert ra.strategy == rb.strategy
        assert ra.reports == rb.reports


class TestStreamSessionLifecycle:
    def test_incremental_matches_run_stream(self, small_binary_stream):
        solo = run_stream(
            "LBD", small_binary_stream, epsilon=1.0, window=5, seed=9
        )
        session = StreamSession(
            "LBD", small_binary_stream, 1.0, 5, seed=9
        ).start()
        for t in range(small_binary_stream.horizon):
            session.observe(t)
        assert_sessions_identical(solo, session.finalize())

    def test_observe_requires_start(self, small_binary_stream):
        session = StreamSession("LBU", small_binary_stream, 1.0, 5, seed=0)
        with pytest.raises(InvalidParameterError):
            session.observe(0)

    def test_double_start_rejected(self, small_binary_stream):
        session = StreamSession("LBU", small_binary_stream, 1.0, 5, seed=0)
        session.start()
        with pytest.raises(InvalidParameterError):
            session.start()

    def test_out_of_order_observe_rejected(self, small_binary_stream):
        session = StreamSession(
            "LBU", small_binary_stream, 1.0, 5, seed=0
        ).start()
        session.observe(0)
        with pytest.raises(InvalidParameterError):
            session.observe(2)
        with pytest.raises(InvalidParameterError):
            session.observe(0)

    def test_observe_defaults_to_next_timestamp(self, small_binary_stream):
        session = StreamSession(
            "LBU", small_binary_stream, 1.0, 5, seed=0
        ).start()
        assert session.observe().t == 0
        assert session.observe().t == 1
        assert session.steps_observed == 2

    def test_horizon_enforced(self, small_binary_stream):
        session = StreamSession(
            "LBU", small_binary_stream, 1.0, 5, horizon=2, seed=0
        ).start()
        session.observe(0)
        session.observe(1)
        with pytest.raises(InvalidParameterError):
            session.observe(2)

    def test_finalize_is_terminal(self, small_binary_stream):
        session = StreamSession(
            "LBU", small_binary_stream, 1.0, 5, seed=0
        ).start()
        session.observe(0)
        session.finalize()
        with pytest.raises(InvalidParameterError):
            session.observe(1)
        with pytest.raises(InvalidParameterError):
            session.finalize()

    def test_partial_finalize_shapes(self, small_binary_stream):
        session = StreamSession(
            "LBU", small_binary_stream, 1.0, 5, seed=0
        ).start()
        for t in range(3):
            session.observe(t)
        result = session.finalize()
        assert result.horizon == 3
        assert result.releases.shape == (3, small_binary_stream.domain_size)

    def test_trace_free_session(self, small_binary_stream):
        session = StreamSession(
            "LPA", small_binary_stream, 1.0, 5, seed=0, record_trace=False
        ).start()
        for t in range(small_binary_stream.horizon):
            session.observe(t)
        summary = session.summary()
        assert summary["steps"] == small_binary_stream.horizon
        assert summary["max_window_spend"] <= 1.0 + 1e-9
        assert 0.0 <= summary["publication_rate"] <= 1.0
        with pytest.raises(InvalidParameterError):
            session.finalize()

    def test_running_counters_match_result(self, small_binary_stream):
        session = StreamSession(
            "LBD", small_binary_stream, 1.0, 5, seed=3
        ).start()
        for t in range(small_binary_stream.horizon):
            session.observe(t)
        publications = session.publication_count
        reports = session.total_reports
        result = session.finalize()
        assert result.publication_count == publications
        assert result.total_reports == reports


class TestSessionGroup:
    @pytest.mark.parametrize("mechanism", ALL_MECHANISMS)
    def test_bit_identical_to_solo_materialized(self, mechanism):
        dataset = make_lns(n_users=400, horizon=20, seed=5)
        solo = run_stream(mechanism, dataset, epsilon=1.0, window=5, seed=42)
        group = SessionGroup(dataset)
        group.add_session(mechanism, 1.0, 5, seed=42)
        assert_sessions_identical(solo, group.run()[0])

    @pytest.mark.parametrize("mechanism", ALL_MECHANISMS)
    def test_bit_identical_to_solo_generative(self, mechanism):
        solo_ds = TaxiSimulator(n_users=300, horizon=15, seed=7)
        solo = run_stream(mechanism, solo_ds, epsilon=1.0, window=5, seed=42)
        group_ds = TaxiSimulator(n_users=300, horizon=15, seed=7)
        group = SessionGroup(group_ds)
        group.add_session(mechanism, 1.0, 5, seed=42)
        assert_sessions_identical(solo, group.run()[0])

    def test_many_sessions_share_one_pass(self):
        dataset = TaxiSimulator(n_users=300, horizon=15, seed=7)
        solos = {}
        for mechanism in ("LBU", "LPD"):
            for epsilon in (0.5, 1.0):
                dataset.reset()
                solos[(mechanism, epsilon)] = run_stream(
                    mechanism, dataset, epsilon=epsilon, window=5, seed=11
                )
        group = SessionGroup(dataset)
        keys = list(solos)
        for mechanism, epsilon in keys:
            group.add_session(mechanism, epsilon, 5, seed=11)
        for key, result in zip(keys, group.run()):
            assert_sessions_identical(solos[key], result)

    def test_mixed_horizons(self):
        dataset = make_lns(n_users=300, horizon=20, seed=2)
        solo_short = run_stream(
            "LBU", dataset, epsilon=1.0, window=5, seed=1, horizon=8
        )
        solo_long = run_stream("LPU", dataset, epsilon=1.0, window=5, seed=1)
        group = SessionGroup(dataset)
        group.add_session("LBU", 1.0, 5, seed=1, horizon=8)
        group.add_session("LPU", 1.0, 5, seed=1)
        short, long = group.run()
        assert short.horizon == 8
        assert long.horizon == 20
        assert_sessions_identical(solo_short, short)
        assert_sessions_identical(solo_long, long)

    def test_oracle_and_postprocess_respected(self):
        dataset = make_lns(n_users=300, horizon=12, seed=2)
        solo = run_stream(
            "LPU",
            dataset,
            epsilon=1.0,
            window=4,
            seed=3,
            oracle="oue",
            postprocess="norm_sub",
        )
        group = SessionGroup(dataset)
        group.add_session(
            "LPU", 1.0, 4, seed=3, oracle="oue", postprocess="norm_sub"
        )
        assert_sessions_identical(solo, group.run()[0])

    def test_unbounded_stream_needs_horizon(self):
        dataset = TaxiSimulator(n_users=200, horizon=None, seed=0)
        group = SessionGroup(dataset)
        with pytest.raises(InvalidParameterError):
            group.add_session("LBU", 1.0, 5, seed=0)
        group.add_session("LBU", 1.0, 5, seed=0, horizon=6)
        assert group.run()[0].horizon == 6

    def test_run_is_single_shot(self):
        dataset = make_lns(n_users=200, horizon=10, seed=2)
        group = SessionGroup(dataset)
        group.add_session("LBU", 1.0, 5, seed=1)
        group.run()
        with pytest.raises(InvalidParameterError):
            group.run()
        with pytest.raises(InvalidParameterError):
            group.add_session("LBU", 1.0, 5, seed=2)

    def test_empty_group_runs(self):
        assert SessionGroup(make_lns(n_users=50, horizon=5, seed=0)).run() == []


class TestOnlineSession:
    def test_session_over_pushed_snapshots(self):
        reference = make_lns(n_users=200, horizon=10, seed=4)
        solo = run_stream("LBD", reference, epsilon=1.0, window=4, seed=8)
        online = OnlineStream(
            n_users=200, domain_size=reference.domain_size
        )
        session = StreamSession("LBD", online, 1.0, 4, seed=8).start()
        for t in range(10):
            online.push(reference.values(t))
            session.observe(t)
        assert_sessions_identical(solo, session.finalize())

    def test_constant_memory_ingestion(self):
        online = OnlineStream(n_users=100, domain_size=3, retain=2)
        session = StreamSession(
            "LBU", online, 1.0, 5, seed=0, record_trace=False
        ).start()
        rng = np.random.default_rng(0)
        for t in range(50):
            online.push(rng.integers(0, 3, size=100))
            session.observe(t)
        with pytest.raises(StreamAccessError, match="evicted"):
            online.values(49 - 2)
        # Every retained row is a view into one ring of ``retain`` rows.
        assert online.values_range(48, 50).shape == (2, 100)
        assert online.values(49).base.shape == (2, 100)
        assert session.steps_observed == 50

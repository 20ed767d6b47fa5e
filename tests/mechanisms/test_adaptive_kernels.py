"""Adaptive chunk kernels must be bit-identical to the per-step loop.

LBD's speculative kernel rewinds and replays the shared generator
around publications; LBA's sequential kernel and the streamlined
population kernels (LPD/LPA) re-issue exactly the per-step draws
through hoisted fast paths.  Either way the contract is total: for
every oracle and every chunking of the horizon, releases, per-record
decision fields (``dis``/``err``/strategy/budgets/group sizes), running
counters, checkpointable state and the final generator position must
all equal the ``observe()`` loop's, byte for byte.

This file is the deep matrix for the four adaptive mechanisms; the
engine-level chunking edge cases (misaligned chunks, stores, groups)
live in tests/engine/test_observe_many.py.
"""

import json
import types

import numpy as np
import pytest

from repro.engine import StreamSession
from repro.engine.collector import ChunkContext
from repro.mechanisms.base import StreamMechanism
from repro.streams import MaterializedStream

ADAPTIVE = ("LBD", "LBA", "LPD", "LPA")
ORACLES = ("grr", "oue", "sue", "olh", "hr")

HORIZON = 60
WINDOW = 5
N_USERS = 900
DOMAIN = 6

#: Chunk sizes crossing every interesting boundary: single step, prime
#: misaligned with the window, larger than the speculation lookahead,
#: and one chunk swallowing the whole horizon.
CHUNKS = (1, 7, 64, HORIZON + 10)


def _dataset(seed=31):
    # A drifting stream so the adaptive methods actually alternate
    # between publish / approximate / nullify within the horizon.
    rng = np.random.default_rng(seed)
    values = rng.integers(0, DOMAIN, size=(HORIZON, N_USERS))
    drift = rng.integers(0, DOMAIN, size=N_USERS)
    values[HORIZON // 3 :, : N_USERS // 2] = drift[: N_USERS // 2]
    values[2 * HORIZON // 3 :, N_USERS // 2 :] = drift[N_USERS // 2 :]
    return MaterializedStream(values, domain_size=DOMAIN)


def _session(mechanism, oracle, **kwargs):
    return StreamSession(
        mechanism,
        _dataset(),
        epsilon=1.0,
        window=WINDOW,
        horizon=HORIZON,
        oracle=oracle,
        seed=97,
        **kwargs,
    ).start()


def _run_looped(mechanism, oracle, **kwargs):
    session = _session(mechanism, oracle, **kwargs)
    for t in range(HORIZON):
        session.observe(t)
    return session


def _run_chunked(mechanism, oracle, chunk, **kwargs):
    session = _session(mechanism, oracle, **kwargs)
    t = 0
    while t < HORIZON:
        t += len(session.observe_many(t, chunk))
    return session


def _assert_field_equal(a, b, field, t):
    va, vb = getattr(a, field), getattr(b, field)
    if isinstance(va, float) and np.isnan(va):
        assert np.isnan(vb), f"t={t} {field}: {va} vs {vb}"
    else:
        assert va == vb, f"t={t} {field}: {va} vs {vb}"


def _assert_sessions_identical(a, b):
    ra, rb = a.finalize(), b.finalize()
    assert np.array_equal(ra.releases, rb.releases)
    assert np.array_equal(ra.true_frequencies, rb.true_frequencies)
    assert a.total_reports == b.total_reports
    assert a.max_window_spend == b.max_window_spend
    assert len(ra.records) == len(rb.records)
    for x, y in zip(ra.records, rb.records):
        assert x.t == y.t
        _assert_field_equal(x, y, "strategy", x.t)
        assert np.array_equal(np.asarray(x.release), np.asarray(y.release))
        for field in (
            "publication_epsilon",
            "publication_users",
            "dissimilarity_users",
            "reports",
            "dis",
            "err",
        ):
            _assert_field_equal(x, y, field, x.t)
    # The strongest statement available: both paths leave the shared
    # generator in the same position, so *anything* sampled afterwards
    # agrees too.
    assert a.rng.bit_generator.state == b.rng.bit_generator.state


class TestBitIdentityMatrix:
    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("oracle", ORACLES)
    @pytest.mark.parametrize("mechanism", ADAPTIVE)
    def test_kernel_matches_loop(self, mechanism, oracle, chunk):
        looped = _run_looped(mechanism, oracle)
        chunked = _run_chunked(mechanism, oracle, chunk)
        _assert_sessions_identical(looped, chunked)

    @pytest.mark.parametrize("mechanism", ADAPTIVE)
    def test_kernel_matches_loop_slow_oracle_path(self, mechanism):
        """fast=False drives the per-round perturb/aggregate path."""
        looped = _run_looped(mechanism, "grr", fast=False)
        chunked = _run_chunked(mechanism, "grr", 13, fast=False)
        _assert_sessions_identical(looped, chunked)

    @pytest.mark.parametrize("mechanism", ADAPTIVE)
    def test_kernel_matches_fallback(self, mechanism):
        """Binding the base per-step ``step_many`` on the instance must
        not change anything either — kernel, fallback and loop are one
        behaviour."""
        chunked = _run_chunked(mechanism, "oue", 13)
        session = _session(mechanism, "oue")
        session.mechanism.step_many = types.MethodType(
            StreamMechanism.step_many, session.mechanism
        )
        t = 0
        while t < HORIZON:
            t += len(session.observe_many(t, 13))
        _assert_sessions_identical(chunked, session)


class TestLBDSpeculation:
    """LBD's speculative mode against the ``step()`` loop.

    The drifting matrix above publishes too often for LBD to leave its
    sequential mode, so this input is built to speculate: a static
    stream (quiet at ``w = 2`` with a 32-value domain) for 70 steps,
    then every user switches to value 0.  The shift forces a publish
    inside a speculative sub-batch, so the kernel must rewind and
    replay the generator.
    """

    HORIZON = 120
    SHIFT = 70
    N_USERS = 10_000
    DOMAIN = 32

    def _dataset(self):
        rng = np.random.default_rng(5)
        held = rng.integers(0, self.DOMAIN, size=self.N_USERS)
        values = np.zeros((self.HORIZON, self.N_USERS), dtype=np.int64)
        values[: self.SHIFT] = held
        return MaterializedStream(values, domain_size=self.DOMAIN)

    def _session(self, oracle):
        return StreamSession(
            "LBD",
            self._dataset(),
            epsilon=1.0,
            window=2,
            horizon=self.HORIZON,
            oracle=oracle,
            seed=97,
        ).start()

    @pytest.mark.parametrize("chunk", (13, 64, 130))
    @pytest.mark.parametrize("oracle", ORACLES)
    def test_rewind_matches_loop(self, oracle, chunk, monkeypatch):
        looped = self._session(oracle)
        for t in range(self.HORIZON):
            looped.observe(t)

        restores = []
        original = ChunkContext.rng_restore

        def counting_restore(ctx, state):
            restores.append(ctx.t0)
            original(ctx, state)

        monkeypatch.setattr(ChunkContext, "rng_restore", counting_restore)
        chunked = self._session(oracle)
        t = 0
        while t < self.HORIZON:
            t += len(chunked.observe_many(t, chunk))
        assert restores, "input no longer drives a mid-sub-batch rewind"
        _assert_sessions_identical(looped, chunked)


class TestAccountingInvariants:
    @pytest.mark.parametrize("mechanism", ADAPTIVE)
    def test_privacy_budget_respected_chunked(self, mechanism):
        session = _run_chunked(mechanism, "oue", 64)
        assert session.max_window_spend <= 1.0 + 1e-9

    def test_speculation_hint_not_checkpointed(self):
        """LBD's _quiet_run is a perf-only hint: it must not leak into
        snapshots (restores start from the default and stay correct)."""
        session = _run_chunked("LBD", "oue", 64)
        payload = json.loads(json.dumps(session.snapshot()))
        assert "quiet_run" not in json.dumps(payload)


class TestCheckpointMidStream:
    @pytest.mark.parametrize("oracle", ("grr", "olh"))
    @pytest.mark.parametrize("mechanism", ADAPTIVE)
    def test_restore_then_chunk_matches_uninterrupted(self, mechanism, oracle):
        """Snapshot between two chunks, JSON-round-trip, restore, and
        finish with chunked ingestion: equal to one uninterrupted
        chunked run (and therefore, by the matrix above, to the loop)."""
        reference = _run_chunked(mechanism, oracle, 64)

        live = _session(mechanism, oracle)
        live.observe_many(0, 23)
        payload = json.loads(json.dumps(live.snapshot()))
        resumed = StreamSession.restore(payload, _dataset())
        t = 23
        while t < HORIZON:
            t += len(resumed.observe_many(t, 16))
        _assert_sessions_identical(reference, resumed)

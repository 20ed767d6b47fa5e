"""SoA scheduler conformance: bit-identity with solo runs at every
chunk size, on random-access and sequential streams, through mid-pass
checkpoints, with the fused and generic bucket paths both exercised."""

import json

import numpy as np
import pytest

from repro.engine import SessionGroup, StreamSession, run_stream
from repro.exceptions import InvalidParameterError
from repro.related import THRESH
from repro.streams import TaxiSimulator, make_sin

# The seven core mechanisms plus the LPF extension (no chunk kernel —
# exercises the base per-step loop inside SoA's generic lane).
MECHANISMS = ("LBU", "LSP", "LBD", "LBA", "LPU", "LPD", "LPA", "LPF")
ORACLES = ("grr", "oue", "sue", "olh", "hr")

N_USERS = 300
HORIZON = 15


def _dataset():
    return make_sin(horizon=HORIZON, n_users=N_USERS, seed=9)


def _taxi():
    return TaxiSimulator(
        n_users=N_USERS, horizon=HORIZON, domain_size=10, seed=3
    )


def _grid_group(dataset, *, oracle=None, chunk=16):
    group = SessionGroup(dataset, truth_chunk=chunk)
    for i, mech in enumerate(MECHANISMS):
        g_oracle = oracle if oracle is not None else ORACLES[i % len(ORACLES)]
        group.add_session(
            mech,
            0.8 + 0.2 * i,
            4,
            oracle=g_oracle,
            seed=50 + i,
            postprocess="clip" if i % 2 else "none",
        )
    return group


def _observe_loop(mechanism, dataset, epsilon, *, oracle, seed,
                  postprocess="none", window=4):
    """The per-step reference: a solo session driven by ``observe()``,
    publishing into its own store.  Returns ``(result, store)``."""
    session = StreamSession(
        mechanism, dataset, epsilon, window, horizon=HORIZON,
        oracle=oracle, seed=seed, postprocess=postprocess,
    )
    store = session.attach_store()
    session.start()
    for t in range(HORIZON):
        session.observe(t)
    return session.finalize(), store


def _grid_reference(make_dataset):
    """``_observe_loop`` for each session ``_grid_group`` would add."""
    return [
        _observe_loop(
            mech, make_dataset(), 0.8 + 0.2 * i,
            oracle=ORACLES[i % len(ORACLES)], seed=50 + i,
            postprocess="clip" if i % 2 else "none",
        )
        for i, mech in enumerate(MECHANISMS)
    ]


def assert_stores_identical(a, b):
    assert repr(a.state_dict()) == repr(b.state_dict())


def assert_results_identical(a, b):
    assert len(a.releases) == len(b.releases)
    for x, y in zip(a.releases, b.releases):
        assert np.array_equal(x, y)
    for x, y in zip(a.true_frequencies, b.true_frequencies):
        assert np.array_equal(x, y)
    assert a.total_reports == b.total_reports
    assert [r.strategy for r in a.records] == [r.strategy for r in b.records]


class TestSoloBitIdentity:
    """The ISSUE's conformance matrix: mechanisms × oracles × chunks."""

    @pytest.mark.parametrize("oracle", ORACLES)
    @pytest.mark.parametrize("chunk", (1, 5, 16, 64))
    def test_soa_matches_solo(self, oracle, chunk):
        dataset = _dataset()
        group = _grid_group(dataset, oracle=oracle, chunk=chunk)
        results = group.run()
        for i, mech in enumerate(MECHANISMS):
            solo = run_stream(
                mech,
                dataset,
                epsilon=0.8 + 0.2 * i,
                window=4,
                oracle=oracle,
                seed=50 + i,
                postprocess="clip" if i % 2 else "none",
            )
            assert_results_identical(results[i], solo)

    def test_fused_bucket_matches_solo_many_epsilons(self):
        # Same mechanism family + oracle at many budgets: one stacked
        # call drives the whole bucket.
        dataset = _dataset()
        group = SessionGroup(dataset, truth_chunk=8)
        epsilons = (0.5, 1.0, 2.0, 4.0)
        for j, eps in enumerate(epsilons):
            group.add_session("LBU", eps, 5, oracle="oue", seed=70 + j)
        results = group.run()
        for j, eps in enumerate(epsilons):
            solo = run_stream(
                "LBU", dataset, epsilon=eps, window=5,
                oracle="oue", seed=70 + j,
            )
            assert_results_identical(results[j], solo)

    def test_sequential_stream_matches_observe_loop(self):
        # All eight mechanisms, LPF's per-step loop included: the shared
        # value block consumes each span once, for every session.
        results = _grid_group(_taxi(), chunk=7).run()
        for result, (solo, _) in zip(results, _grid_reference(_taxi)):
            assert_results_identical(result, solo)

    def test_mixed_horizons_match_solo(self):
        dataset = _dataset()
        group = SessionGroup(dataset, truth_chunk=6)
        horizons = (HORIZON, 11, 7)
        for j, h in enumerate(horizons):
            group.add_session(
                "LBU", 1.0, 4, oracle="sue", seed=80 + j, horizon=h
            )
        results = group.run()
        for j, h in enumerate(horizons):
            solo = run_stream(
                "LBU", dataset, epsilon=1.0, window=4,
                horizon=h, oracle="sue", seed=80 + j,
            )
            assert_results_identical(results[j], solo)


class TestSnapshotThroughSoA:
    def test_mid_pass_snapshot_restore_non_aligned(self):
        dataset = _dataset()
        group = _grid_group(dataset, chunk=6)
        reference = _grid_group(_dataset(), chunk=6).run()
        group.start_pass()
        group.advance_to(7)  # not a chunk boundary
        payload = group.snapshot()
        assert "soa" not in payload
        restored = SessionGroup.restore(payload, _dataset())
        restored.advance_to(restored.steps)
        for a, b in zip(restored.finalize_all(), reference):
            assert_results_identical(a, b)

    @pytest.mark.parametrize("legacy_soa", (False, True, "auto", None))
    def test_legacy_soa_key_restores_and_continues(self, legacy_soa):
        """Older payloads carry the retired ``"soa"`` execution toggle
        (``None``: pre-SoA payloads without it); restore ignores it and
        the pass continues bit-identically."""
        reference = _grid_group(_dataset(), chunk=6).run()
        group = _grid_group(_dataset(), chunk=6)
        group.start_pass()
        group.advance_to(5)
        payload = json.loads(json.dumps(group.snapshot()))
        if legacy_soa is not None:
            payload["soa"] = legacy_soa
        restored = SessionGroup.restore(payload, _dataset())
        restored.advance_to(restored.steps)
        for a, b in zip(restored.finalize_all(), reference):
            assert_results_identical(a, b)


class TestConfiguration:
    def test_truth_chunk_rejects_float(self):
        with pytest.raises(InvalidParameterError, match="integer"):
            SessionGroup(_dataset(), truth_chunk=0.5)

    def test_truth_chunk_rejects_zero_and_negative(self):
        for bad in (0, -3):
            with pytest.raises(InvalidParameterError, match=">= 1"):
                SessionGroup(_dataset(), truth_chunk=bad)


class TestKernelFreeMechanisms:
    """LPF and THRESH have no chunk kernel: inside SoA they run the base
    per-step loop off the shared value block, which is legal on
    sequential streams too."""

    @pytest.mark.parametrize("oracle", ("grr", "oue", "olh"))
    @pytest.mark.parametrize("chunk", (1, 4, 16))
    def test_sequential_group_matches_observe_loop(self, oracle, chunk):
        mechanisms = ("LPF", THRESH, "LPF", THRESH)
        group = SessionGroup(_taxi(), truth_chunk=chunk)
        for j, mech in enumerate(mechanisms):
            group.add_session(
                mech, 0.5 + 0.5 * j, 3, oracle=oracle, seed=90 + j,
                postprocess="clip" if j % 2 else "none",
            )
        stores = group.attach_stores()
        results = group.run()
        for j, mech in enumerate(mechanisms):
            solo, solo_store = _observe_loop(
                mech, _taxi(), 0.5 + 0.5 * j, window=3, oracle=oracle,
                seed=90 + j, postprocess="clip" if j % 2 else "none",
            )
            assert_results_identical(results[j], solo)
            assert_stores_identical(stores[j], solo_store)


class TestStores:
    @pytest.mark.parametrize("make_dataset", (_dataset, _taxi))
    def test_store_contents_match_observe_loop(self, make_dataset):
        group = _grid_group(make_dataset(), chunk=9)
        stores = group.attach_stores()
        group.run()
        for store, (_, solo_store) in zip(
            stores, _grid_reference(make_dataset)
        ):
            assert_stores_identical(store, solo_store)

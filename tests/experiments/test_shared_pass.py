"""Tests for shared-pass coalescing in the parallel experiment engine.

Contract: coalescing cells that share a dataset into one SessionGroup
pass changes wall-clock only: every result is bit-identical to per-cell
execution (``coalesce=False``, a one-cell pass per spec) at any worker
count and any group split.
"""

import math

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.experiments import (
    CellSpec,
    DatasetSpec,
    coalesce_specs,
    execute_cells,
    grid_specs,
    sweep,
)
from repro.experiments.parallel import _build_dataset, _split_for_workers
from repro.streams import make_lns

ALL_MECHANISMS = ("LBU", "LSP", "LBD", "LBA", "LPU", "LPD", "LPA")

TINY = DatasetSpec.of("LNS", n_users=500, horizon=20, seed=11)
TINY_SIM = DatasetSpec.of("Taxi", n_users=400, horizon=15, seed=11)

CELL_FIELDS = (
    "mechanism",
    "epsilon",
    "window",
    "mre",
    "mae",
    "mse",
    "cfpu",
    "publication_rate",
    "auc",
    "repeats",
)


def assert_cells_identical(a, b):
    for name in CELL_FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, float) and math.isnan(x):
            assert isinstance(y, float) and math.isnan(y), name
        else:
            assert x == y, f"{name}: {x!r} != {y!r}"


class TestCoalescer:
    def test_groups_by_dataset_spec(self):
        other = DatasetSpec.of("LNS", n_users=500, horizon=20, seed=12)
        specs = grid_specs(["LBU", "LPU"], TINY, epsilons=(1.0,)) + grid_specs(
            ["LBU"], other, epsilons=(1.0,)
        )
        groups = coalesce_specs(specs)
        assert [len(g) for g in groups] == [2, 1]
        assert groups[0] == [0, 1]

    def test_live_datasets_group_by_identity(self):
        a = make_lns(n_users=100, horizon=10, seed=1)
        b = make_lns(n_users=100, horizon=10, seed=1)
        specs = [
            CellSpec(mechanism="LBU", dataset=a, epsilon=1.0, window=5),
            CellSpec(mechanism="LPU", dataset=a, epsilon=1.0, window=5),
            CellSpec(mechanism="LBU", dataset=b, epsilon=1.0, window=5),
        ]
        assert [len(g) for g in coalesce_specs(specs)] == [2, 1]

    def test_split_for_workers_balances(self):
        groups = _split_for_workers([[0, 1, 2, 3, 4, 5, 6, 7]], 4)
        assert len(groups) == 4
        assert sorted(i for g in groups for i in g) == list(range(8))

    def test_split_stops_at_singletons(self):
        groups = _split_for_workers([[0], [1]], 8)
        assert [len(g) for g in groups] == [1, 1]


class TestSharedPassIdentity:
    @pytest.mark.parametrize("mechanism", ALL_MECHANISMS)
    def test_every_mechanism_matches_solo_cell(self, mechanism):
        """Shared pass == one-cell passes, per mechanism, sim-backed."""
        specs = grid_specs(
            [mechanism], TINY_SIM, epsilons=(0.5, 1.0), windows=(5,), repeats=2
        )
        solo = execute_cells(specs, base_seed=3, coalesce=False)
        shared = execute_cells(specs, base_seed=3, coalesce=True)
        for a, b in zip(solo, shared):
            assert_cells_identical(a, b)

    def test_full_grid_coalesced_vs_percell(self):
        specs = grid_specs(
            ALL_MECHANISMS, TINY_SIM, epsilons=(0.5, 1.0), windows=(5,)
        )
        per_cell = execute_cells(specs, base_seed=7, jobs=1, coalesce=False)
        shared = execute_cells(specs, base_seed=7, jobs=1, coalesce=True)
        workers = execute_cells(specs, base_seed=7, jobs=2, coalesce=True)
        for a, b, c in zip(per_cell, shared, workers):
            assert_cells_identical(a, b)
            assert_cells_identical(a, c)

    def test_roc_cells_in_shared_pass(self):
        specs = [
            CellSpec(
                mechanism=m,
                dataset=TINY,
                epsilon=1.0,
                window=5,
                kind="roc",
                tag="fig7",
            )
            for m in ("LBA", "LPA")
        ]
        solo = execute_cells(specs, base_seed=5, coalesce=False)
        shared = execute_cells(specs, base_seed=5, coalesce=True)
        for a, b in zip(solo, shared):
            assert a.auc == b.auc
            assert np.array_equal(a.true_positive_rate, b.true_positive_rate)
            assert np.array_equal(a.false_positive_rate, b.false_positive_rate)

    def test_repeat_index_cells_in_shared_pass(self):
        spec = CellSpec(
            mechanism="LPD",
            dataset=TINY,
            epsilon=1.0,
            window=5,
            repeats=1,
            repeat_index=2,
            tag="evaluate",
        )
        [solo] = execute_cells([spec], base_seed=9, coalesce=False)
        shared = execute_cells([spec, spec], base_seed=9, coalesce=True)
        assert_cells_identical(solo, shared[0])
        assert_cells_identical(solo, shared[1])

    def test_mixed_kinds_one_pass(self):
        cell = CellSpec(
            mechanism="LBU", dataset=TINY, epsilon=1.0, window=5, repeats=2
        )
        roc = CellSpec(
            mechanism="LBA", dataset=TINY, epsilon=1.0, window=5, kind="roc"
        )
        solo = execute_cells([cell, roc], base_seed=2, coalesce=False)
        shared = execute_cells([cell, roc], base_seed=2, coalesce=True)
        assert_cells_identical(solo[0], shared[0])
        assert solo[1].auc == shared[1].auc

    def test_unknown_kind_rejected(self):
        spec = CellSpec(
            mechanism="LBU", dataset=TINY, epsilon=1.0, window=5, kind="nope"
        )
        with pytest.raises(InvalidParameterError):
            execute_cells([spec, spec], base_seed=0)

    def test_sweep_coalesced_matches_historical(self):
        """End-to-end: sweep() (now coalesced) == forced per-cell grid."""
        kwargs = dict(epsilons=(0.5, 1.0), windows=(5,), seed=3, repeats=2)
        coalesced = sweep(["LBU", "LPA"], TINY, jobs=1, **kwargs)
        specs = grid_specs(
            ["LBU", "LPA"],
            TINY,
            epsilons=kwargs["epsilons"],
            windows=kwargs["windows"],
            repeats=2,
        )
        per_cell = execute_cells(specs, base_seed=3, jobs=1, coalesce=False)
        for spec, cell in zip(specs, per_cell):
            assert_cells_identical(
                coalesced[str(spec.mechanism)][(spec.epsilon, spec.window)],
                cell,
            )


class TestDatasetLRU:
    """The per-process cache of built DatasetSpec streams."""

    def setup_method(self):
        _build_dataset.cache_clear()

    def test_hit_refreshes_recency(self):
        specs = [
            DatasetSpec.of("LNS", n_users=50, horizon=5, seed=i)
            for i in range(6)
        ]
        built = [_build_dataset(spec) for spec in specs[:4]]
        assert _build_dataset(specs[0]) is built[0]  # hit refreshes 0
        _build_dataset(specs[4])  # evicts 1 (least recently used), not 0
        assert _build_dataset(specs[0]) is built[0]
        assert _build_dataset.cache_info().hits == 2
        assert _build_dataset(specs[1]) is not built[1]  # rebuilt

    def test_bounded_size(self):
        for seed in range(6):
            _build_dataset(
                DatasetSpec.of("LNS", n_users=50, horizon=5, seed=seed)
            )
        info = _build_dataset.cache_info()
        assert info.currsize == info.maxsize == 4
        assert info.misses == 6

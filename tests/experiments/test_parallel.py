"""Tests for the parallel experiment engine and its determinism contract.

The contract (see repro/experiments/parallel.py): a cell's randomness is a
pure function of the campaign seed and the cell's coordinates, so

* serial and multi-worker execution are bit-identical,
* reordering the grid changes no cell's result,
* a single repeat re-run in isolation reproduces its in-sequence value.
"""

import math

import pytest

from repro.exceptions import InvalidParameterError
from repro.experiments import (
    CellSpec,
    DatasetSpec,
    evaluate,
    execute_cells,
    grid_specs,
    merge_grid,
    merge_repeat_cells,
    sweep,
)
from repro.experiments.parallel import resolve_jobs
from repro.streams import make_lns

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
    """Field-by-field bit-identity (NaN AUC compares equal to NaN)."""
    for name in CELL_FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, float) and math.isnan(x):
            assert isinstance(y, float) and math.isnan(y), name
        else:
            assert x == y, f"{name}: {x!r} != {y!r}"


#: A tiny name-addressable dataset every worker can rebuild quickly.
TINY = DatasetSpec.of("LNS", n_users=600, horizon=24, seed=11)


class TestDatasetSpec:
    def test_build_is_deterministic(self):
        a, b = TINY.build(), TINY.build()
        assert (a.values(0) == b.values(0)).all()
        assert a.n_users == 600 and a.horizon == 24

    def test_params_reach_generator(self):
        spec = DatasetSpec.of("LNS", n_users=100, horizon=10, seed=1, q_std=0.05)
        assert spec.params == (("q_std", 0.05),)
        assert spec.build().horizon == 10

    def test_specs_are_hashable_keys(self):
        assert DatasetSpec.of("LNS", seed=1) == DatasetSpec.of("LNS", seed=1)
        assert len({DatasetSpec.of("LNS", seed=1), DatasetSpec.of("LNS", seed=2)}) == 2


class TestSerialParallelIdentity:
    def test_sweep_jobs2_bit_identical(self):
        kwargs = dict(
            epsilons=(0.5, 1.0), windows=(5,), seed=3, repeats=2
        )
        serial = sweep(["LBU", "LPA"], TINY, jobs=1, **kwargs)
        parallel = sweep(["LBU", "LPA"], TINY, jobs=2, **kwargs)
        assert set(serial) == set(parallel) == {"LBU", "LPA"}
        for mechanism in serial:
            assert set(serial[mechanism]) == set(parallel[mechanism])
            for key in serial[mechanism]:
                assert_cells_identical(
                    serial[mechanism][key], parallel[mechanism][key]
                )

    def test_sweep_accepts_live_stream(self):
        stream = make_lns(n_users=400, horizon=20, seed=5)
        serial = sweep(["LPU"], stream, epsilons=(1.0,), windows=(5,), seed=2)
        parallel = sweep(
            ["LPU"], stream, epsilons=(1.0,), windows=(5,), seed=2, jobs=2
        )
        assert_cells_identical(
            serial["LPU"][(1.0, 5)], parallel["LPU"][(1.0, 5)]
        )

    def test_sweep_accepts_dataset_name(self):
        serial = sweep(
            ["LBU"], "LNS", epsilons=(1.0,), windows=(5,), seed=2
        )
        parallel = sweep(
            ["LBU"], "LNS", epsilons=(1.0,), windows=(5,), seed=2, jobs=2
        )
        assert_cells_identical(
            serial["LBU"][(1.0, 5)], parallel["LBU"][(1.0, 5)]
        )


class TestSeedStability:
    def test_cell_seed_ignores_grid_order(self):
        forward = sweep(
            ["LBU", "LPU"], TINY, epsilons=(0.5, 1.0), windows=(5, 10), seed=7
        )
        backward = sweep(
            ["LPU", "LBU"], TINY, epsilons=(1.0, 0.5), windows=(10, 5), seed=7
        )
        for mechanism in forward:
            for key in forward[mechanism]:
                assert_cells_identical(
                    forward[mechanism][key], backward[mechanism][key]
                )

    def test_cell_seed_ignores_grid_membership(self):
        full = sweep(
            ["LBU", "LPU", "LPA"], TINY, epsilons=(0.5, 1.0), windows=(5,), seed=7
        )
        solo = sweep(["LPA"], TINY, epsilons=(1.0,), windows=(5,), seed=7)
        assert_cells_identical(full["LPA"][(1.0, 5)], solo["LPA"][(1.0, 5)])

    def test_different_seeds_differ(self):
        a = sweep(["LPU"], TINY, epsilons=(1.0,), windows=(5,), seed=1)
        b = sweep(["LPU"], TINY, epsilons=(1.0,), windows=(5,), seed=2)
        assert a["LPU"][(1.0, 5)].mre != b["LPU"][(1.0, 5)].mre

    def test_cells_within_grid_are_independent(self):
        results = sweep(
            ["LPU"], TINY, epsilons=(1.0,), windows=(5, 10), seed=1
        )
        assert (
            results["LPU"][(1.0, 5)].mre != results["LPU"][(1.0, 10)].mre
        )

    def test_spec_seed_material_stable(self):
        spec = CellSpec(mechanism="LPA", dataset=TINY, epsilon=1.0, window=5)
        assert spec.seed_keys() == spec.seed_keys()
        other = CellSpec(mechanism="lpa", dataset=TINY, epsilon=1.0, window=5)
        assert spec.seed_keys() == other.seed_keys()  # case-insensitive


class TestRepeatSplitting:
    def test_repeat_index_cells_match_in_sequence_value(self):
        full = CellSpec(
            mechanism="LPU", dataset=TINY, epsilon=1.0, window=5, repeats=3
        )
        parts = [
            CellSpec(
                mechanism="LPU", dataset=TINY, epsilon=1.0, window=5,
                repeat_index=i,
            )
            for i in range(3)
        ]
        # Each repeat in its own pass: a lone repeat re-run in isolation.
        alone = execute_cells(parts, base_seed=9, coalesce=False)
        [whole] = execute_cells([full], base_seed=9)
        assert_cells_identical(whole, merge_repeat_cells(alone))

    def test_evaluate_jobs_split_matches_inline(self):
        inline = evaluate("LPA", TINY, 1.0, 5, seed=4, repeats=3, jobs=1)
        split = evaluate("LPA", TINY, 1.0, 5, seed=4, repeats=3, jobs=2)
        assert split.repeats == 3
        assert_cells_identical(inline, split)

    def test_merge_rejects_mixed_cells(self):
        stream = TINY.build()
        a = evaluate("LPU", stream, 1.0, 5, seed=1)
        b = evaluate("LPU", stream, 2.0, 5, seed=1)
        with pytest.raises(InvalidParameterError):
            merge_repeat_cells([a, b])

    def test_merge_rejects_empty(self):
        with pytest.raises(InvalidParameterError):
            merge_repeat_cells([])


class TestEngineParts:
    def test_grid_specs_row_major_and_merge(self):
        specs = grid_specs(
            ["LBU", "LPU"], TINY, epsilons=(0.5, 1.0), windows=(5, 10)
        )
        assert len(specs) == 8
        assert specs[0].mechanism == "LBU"
        assert (specs[0].epsilon, specs[0].window) == (0.5, 5)
        cells = execute_cells(specs, base_seed=0, jobs=1)
        results = merge_grid(specs, cells)
        assert set(results) == {"LBU", "LPU"}
        assert set(results["LBU"]) == {(0.5, 5), (0.5, 10), (1.0, 5), (1.0, 10)}

    def test_roc_cells_return_curves(self):
        spec = CellSpec(
            mechanism="LPA", dataset=TINY, epsilon=1.0, window=5, kind="roc"
        )
        [curve] = execute_cells([spec], base_seed=0)
        assert 0.0 <= curve.auc <= 1.0
        # bit-identical across worker counts too
        curves = execute_cells([spec, spec], base_seed=0, jobs=2)
        assert curves[0].auc == curves[1].auc == curve.auc

    def test_unknown_kind_rejected(self):
        spec = CellSpec(
            mechanism="LPA", dataset=TINY, epsilon=1.0, window=5, kind="nope"
        )
        with pytest.raises(InvalidParameterError):
            execute_cells([spec], base_seed=0)

    def test_resolve_jobs(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(4) == 4
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) >= 1
        with pytest.raises(InvalidParameterError):
            resolve_jobs(-2)

    def test_execute_preserves_spec_order(self):
        specs = grid_specs(["LBU"], TINY, epsilons=(0.5, 1.0, 1.5), windows=(5,))
        cells = execute_cells(specs, base_seed=0, jobs=3)
        assert [c.epsilon for c in cells] == [0.5, 1.0, 1.5]


class TestFigureParallelism:
    def test_fig4_jobs_identical(self):
        from repro.experiments import fig4_utility_vs_epsilon

        kwargs = dict(
            datasets=("LNS",),
            methods=("LBU", "LPU"),
            epsilons=(0.5, 1.0),
            size="smoke",
            seed=0,
        )
        assert fig4_utility_vs_epsilon(**kwargs) == fig4_utility_vs_epsilon(
            jobs=2, **kwargs
        )

    def test_table2_jobs_identical(self):
        from repro.experiments import table2_cfpu

        kwargs = dict(datasets=("Sin",), settings=((1.0, 5),), size="smoke", seed=0)
        assert table2_cfpu(**kwargs) == table2_cfpu(jobs=2, **kwargs)

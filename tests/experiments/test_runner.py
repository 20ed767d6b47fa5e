"""Unit tests for the experiment runner."""

import math

import numpy as np
import pytest

from repro.engine import run_stream
from repro.exceptions import InvalidParameterError
from repro.experiments import evaluate, merge_repeat_cells, sweep
from repro.experiments.runner import cell_from_session
from repro.streams import TaxiSimulator, make_lns
from repro.streams.base import GenerativeStream


class TestEvaluate:
    def test_metrics_present(self, small_binary_stream):
        cell = evaluate("LPU", small_binary_stream, 1.0, 5, seed=0)
        assert cell.mechanism == "LPU"
        assert cell.mre > 0
        assert cell.mae > 0
        assert cell.mse > 0
        assert 0 < cell.cfpu <= 1.0
        assert 0 <= cell.publication_rate <= 1.0
        assert np.isnan(cell.auc)  # ROC off by default

    def test_roc_enabled(self, small_binary_stream):
        cell = evaluate("LPU", small_binary_stream, 1.0, 5, seed=0, with_roc=True)
        assert 0.0 <= cell.auc <= 1.0

    def test_repeats_average(self, small_binary_stream):
        one = evaluate("LBU", small_binary_stream, 1.0, 5, seed=0, repeats=1)
        many = evaluate("LBU", small_binary_stream, 1.0, 5, seed=0, repeats=4)
        assert many.repeats == 4
        assert many.mre == pytest.approx(one.mre, rel=0.5)

    def test_invalid_repeats(self, small_binary_stream):
        with pytest.raises(InvalidParameterError):
            evaluate("LBU", small_binary_stream, 1.0, 5, repeats=0)

    def test_generative_stream_rewound_between_runs(self):
        stream = TaxiSimulator(n_users=500, horizon=20, seed=1)
        evaluate("LBU", stream, 1.0, 5, seed=0, repeats=2)
        # A third evaluation still works because reset() rewinds the cursor.
        cell = evaluate("LPU", stream, 1.0, 5, seed=0)
        assert cell.mre > 0

    def test_mechanism_instance_repeats_match_name(self, small_binary_stream):
        # The repeats share one pass; each session gets its own copy of
        # the instance, so the cell equals the by-name cell.
        from repro.mechanisms.base import get_mechanism

        by_name = evaluate("LPA", small_binary_stream, 1.0, 5, seed=3, repeats=3)
        by_instance = evaluate(
            get_mechanism("LPA"), small_binary_stream, 1.0, 5, seed=3, repeats=3
        )
        for name, value in by_name.as_dict().items():
            got = getattr(by_instance, name)
            assert got == value or (math.isnan(got) and math.isnan(value)), name

    def test_as_dict(self, small_binary_stream):
        cell = evaluate("LPU", small_binary_stream, 1.0, 5, seed=0)
        d = cell.as_dict()
        assert set(d) == {
            "mre",
            "mae",
            "mse",
            "cfpu",
            "publication_rate",
            "auc",
            "topk_precision",
        }


class TestSweep:
    def test_grid_shape(self, small_binary_stream):
        results = sweep(
            ["LBU", "LPU"],
            small_binary_stream,
            epsilons=(0.5, 1.0),
            windows=(5,),
            seed=0,
        )
        assert set(results) == {"LBU", "LPU"}
        assert set(results["LBU"]) == {(0.5, 5), (1.0, 5)}

    def test_error_decreases_with_epsilon(self, small_binary_stream):
        results = sweep(
            ["LBU"],
            small_binary_stream,
            epsilons=(0.5, 2.5),
            windows=(5,),
            seed=0,
            repeats=3,
        )
        assert results["LBU"][(2.5, 5)].mre < results["LBU"][(0.5, 5)].mre


def _reference_cell(mechanism, stream, epsilon, window, *, seed, repeats):
    """``evaluate``'s seeding spelled out: one solo ``run_stream`` per
    spawn child of the cell seed, averaged in repeat order."""
    cells = []
    for child in np.random.SeedSequence(seed).spawn(repeats):
        if isinstance(stream, GenerativeStream):
            stream.reset()  # each repeat replays the stream from t = 0
        result = run_stream(
            mechanism,
            stream,
            epsilon=epsilon,
            window=window,
            seed=np.random.default_rng(child),
        )
        cells.append(
            cell_from_session(
                result, epsilon, window, with_roc=True, query_k=2
            )
        )
    return merge_repeat_cells(cells)


class TestEvaluateSeeding:
    """``evaluate`` against an independent reference of its seeding."""

    @pytest.mark.parametrize("mechanism", ["LBD", "LPA"])
    @pytest.mark.parametrize(
        "make_stream",
        [
            lambda: make_lns(n_users=800, horizon=24, seed=3),
            lambda: TaxiSimulator(n_users=400, horizon=24, seed=3),
        ],
        ids=["random-access", "generative"],
    )
    def test_matches_run_stream_per_spawn_child(self, mechanism, make_stream):
        expected = _reference_cell(
            mechanism, make_stream(), 1.0, 5, seed=7, repeats=3
        )
        cell = evaluate(
            mechanism, make_stream(), 1.0, 5, seed=7, repeats=3,
            with_roc=True, query_k=2,
        )
        assert cell.repeats == expected.repeats == 3
        for name, value in expected.as_dict().items():
            got = getattr(cell, name)
            assert got == value or (math.isnan(got) and math.isnan(value)), name

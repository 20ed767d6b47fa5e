"""Tests for the count-level samplers behind the streaming engine.

Every oracle's eager run (:meth:`sample_aggregate_run`) and its prepared
samplers (:meth:`run_sampler`, :meth:`round_sampler`) must be
**bit-identical** to sequential :meth:`sample_aggregate` calls on the
same generator, and must leave that generator in the same state — this
is the contract the chunked ingestion engine builds on.
"""

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.freq_oracles import available_oracles, get_oracle
from repro.freq_oracles.base import FrequencyOracle

ALL_ORACLES = sorted(available_oracles())


def _counts(rng, batch=32, domain=9, n=4000):
    return rng.multinomial(n, rng.dirichlet(np.ones(domain)), size=batch)


def _sequential(oracle, counts, epsilon, rng):
    return np.stack(
        [
            oracle.sample_aggregate(row, epsilon, rng=rng).frequencies
            for row in counts
        ]
    )


class LoopOnly(FrequencyOracle):
    """GRR facade that only inherits the base run/round fallbacks."""

    name = "loop-only"

    def __init__(self):
        self._grr = get_oracle("grr")

    def perturb(self, values, domain_size, epsilon, rng=None):
        return self._grr.perturb(values, domain_size, epsilon, rng)

    def sample_aggregate(self, true_counts, epsilon, rng=None):
        return self._grr.sample_aggregate(true_counts, epsilon, rng)

    def variance(self, epsilon, n, domain_size):
        return self._grr.variance(epsilon, n, domain_size)


class TestBitIdentity:
    @pytest.mark.parametrize("name", ALL_ORACLES)
    @pytest.mark.parametrize("epsilon", [0.4, 1.0, 2.7])
    def test_run_equals_sequential_rounds(self, name, epsilon, rng):
        oracle = get_oracle(name)
        counts = _counts(rng)
        run = oracle.sample_aggregate_run(
            counts, epsilon, rng=np.random.default_rng(123)
        )
        loop_rng = np.random.default_rng(123)
        rounds = np.stack(
            [
                oracle.sample_aggregate(row, epsilon, rng=loop_rng).frequencies
                for row in counts
            ]
        )
        assert np.array_equal(run, rounds)

    @pytest.mark.parametrize("name", ALL_ORACLES)
    def test_mixed_row_totals_stay_identical(self, name):
        oracle = get_oracle(name)
        counts = np.array([[50, 25, 25], [5000, 2500, 2500], [1, 1, 1]])
        run = oracle.sample_aggregate_run(
            counts, 1.0, rng=np.random.default_rng(9)
        )
        loop_rng = np.random.default_rng(9)
        rounds = np.stack(
            [
                oracle.sample_aggregate(row, 1.0, rng=loop_rng).frequencies
                for row in counts
            ]
        )
        assert np.array_equal(run, rounds)

    @pytest.mark.parametrize("name", ALL_ORACLES)
    def test_generator_left_in_same_state(self, name, rng):
        """Downstream draws after a run match downstream draws after
        the equivalent loop — nothing is over- or under-consumed."""
        oracle = get_oracle(name)
        counts = _counts(rng, batch=7, domain=5)
        run_rng = np.random.default_rng(77)
        oracle.sample_aggregate_run(counts, 1.3, rng=run_rng)
        loop_rng = np.random.default_rng(77)
        for row in counts:
            oracle.sample_aggregate(row, 1.3, rng=loop_rng)
        assert np.array_equal(run_rng.integers(0, 1 << 30, 8),
                              loop_rng.integers(0, 1 << 30, 8))


class TestPreparedSamplers:
    """round_sampler / run_sampler called directly, not only through
    the mechanism kernels."""

    @pytest.mark.parametrize("name", ALL_ORACLES)
    @pytest.mark.parametrize("epsilon", [0.4, 1.0, 2.7])
    def test_round_sampler_equals_sample_aggregate(self, name, epsilon, rng):
        oracle = get_oracle(name)
        counts = _counts(rng, batch=6)
        sampler = oracle.round_sampler(epsilon, counts.shape[1])
        prepared_rng = np.random.default_rng(5)
        loop_rng = np.random.default_rng(5)
        for row in counts:
            got = sampler(row, prepared_rng)
            want = oracle.sample_aggregate(
                row, epsilon, rng=loop_rng
            ).frequencies
            assert np.array_equal(got, want)
        assert prepared_rng.bit_generator.state == loop_rng.bit_generator.state

    @pytest.mark.parametrize("name", ALL_ORACLES)
    @pytest.mark.parametrize("epsilon", [0.4, 1.0, 2.7])
    def test_run_sampler_equals_sequential_loop(self, name, epsilon, rng):
        oracle = get_oracle(name)
        sampler = oracle.run_sampler(epsilon, 9)
        prepared_rng = np.random.default_rng(8)
        loop_rng = np.random.default_rng(8)
        # Two chunks through one prepared sampler, as the collector's
        # memo drives it.
        for counts in (_counts(rng, batch=5), _counts(rng, batch=3, n=50)):
            got = sampler(counts, prepared_rng)
            want = _sequential(oracle, counts, epsilon, loop_rng)
            assert np.array_equal(got, want)
        assert prepared_rng.bit_generator.state == loop_rng.bit_generator.state

    def test_base_fallback_matches_sequential_calls(self):
        """The base-class run is literally sequential sample_aggregate."""
        oracle = LoopOnly()
        counts = np.array([[100, 50, 25], [10, 10, 10]])
        run_rng = np.random.default_rng(7)
        a = oracle.sample_aggregate_run(counts, 1.0, rng=run_rng)
        loop_rng = np.random.default_rng(7)
        b = _sequential(oracle, counts, 1.0, loop_rng)
        assert np.array_equal(a, b)
        assert run_rng.bit_generator.state == loop_rng.bit_generator.state
        assert oracle.sample_aggregate_run(
            np.empty((0, 3), dtype=np.int64), 1.0, rng=run_rng
        ).shape == (0, 3)


class TestShapesAndErrors:
    @pytest.mark.parametrize("name", ALL_ORACLES)
    def test_empty_run(self, name, rng):
        out = get_oracle(name).sample_aggregate_run(
            np.empty((0, 5), dtype=np.int64), 1.0, rng=rng
        )
        assert out.shape == (0, 5)
        assert out.dtype == np.float64

    @pytest.mark.parametrize("name", ALL_ORACLES)
    def test_rejects_non_matrix(self, name, rng):
        with pytest.raises(InvalidParameterError):
            get_oracle(name).sample_aggregate_run(
                np.array([1, 2, 3]), 1.0, rng=rng
            )

    @pytest.mark.parametrize("name", ALL_ORACLES)
    def test_rejects_zero_report_row(self, name, rng):
        with pytest.raises(InvalidParameterError):
            get_oracle(name).sample_aggregate_run(
                np.array([[2, 3], [0, 0]]), 1.0, rng=rng
            )

    @pytest.mark.parametrize("name", ALL_ORACLES)
    def test_rejects_negative_counts(self, name, rng):
        with pytest.raises(InvalidParameterError):
            get_oracle(name).sample_aggregate_run(
                np.array([[3, -1]]), 1.0, rng=rng
            )

    @pytest.mark.parametrize("name", ALL_ORACLES)
    def test_sample_aggregate_rejects_zero_reports(self, name):
        with pytest.raises(InvalidParameterError, match="zero reports"):
            get_oracle(name).sample_aggregate(
                np.zeros(4, dtype=np.int64), 1.0, rng=0
            )

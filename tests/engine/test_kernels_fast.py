"""Parity of the shared numpy kernels with pure-python loop forms.

The loop forms below are independent references — plain nested loops
over the same elementwise expressions — so asserting ``numpy == loop``
bit for bit on every bucket shape the scheduler emits pins each kernel's
exact integers and floats."""

import numpy as np
import pytest

from repro.engine import kernels_fast as kf

# (rows, n_users/d) shapes the SoA scheduler actually emits: singleton
# chunks, ragged tails, full truth chunks.
BLOCK_SHAPES = [(0, 7), (1, 1), (1, 50), (5, 33), (64, 20), (128, 300)]
DEBIAS_SHAPES = [(0, 4), (1, 2), (7, 16), (64, 128)]


def loop_block_histograms(block, domain_size):
    rows, n_users = block.shape
    out = np.zeros((rows, domain_size), dtype=np.int64)
    for b in range(rows):
        for i in range(n_users):
            out[b, block[b, i]] += 1
    return out


def loop_debias_rows(supports, n_reports, p, q):
    rows, d = supports.shape
    out = np.empty((rows, d), dtype=np.float64)
    for b in range(rows):
        n = n_reports[b]
        for j in range(d):
            out[b, j] = (supports[b, j] / n - q) / (p - q)
    return out


def loop_first_exceed(dissimilarity, error):
    for i in range(dissimilarity.shape[0]):
        if dissimilarity[i] > error[i]:
            return i
    return -1


def _block(rows, n_users, d, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, d, size=(rows, n_users), dtype=np.int64)


class TestNumpyVsLoopReference:
    @pytest.mark.parametrize("rows,n_users", BLOCK_SHAPES)
    def test_block_histograms(self, rows, n_users):
        d = 9
        block = _block(rows, n_users, d, seed=rows + n_users)
        got = kf.block_histograms(block, d)
        want = loop_block_histograms(block, d)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)
        # Columns sum back to the population: exact counting.
        if rows:
            assert np.array_equal(got.sum(axis=1), np.full(rows, n_users))

    @pytest.mark.parametrize("rows,d", DEBIAS_SHAPES)
    def test_debias_rows(self, rows, d):
        rng = np.random.default_rng(rows * 31 + d)
        supports = rng.integers(0, 500, size=(rows, d)).astype(np.float64)
        n_reports = rng.integers(1, 600, size=rows).astype(np.float64)
        p, q = 0.75, 1.0 / (1.0 + np.e)
        got = kf.debias_rows(supports, n_reports, p, q)
        want = loop_debias_rows(supports, n_reports, p, q)
        # Bitwise equality, not allclose: the loop evaluates the same
        # elementwise expression in the same order.
        assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "dis,err,expect",
        [
            ([], [], -1),
            ([1.0], [2.0], -1),
            ([3.0], [2.0], 0),
            ([0.1, 0.2, 5.0, 9.0], [1.0, 1.0, 1.0, 1.0], 2),
            ([0.1, np.nan, 5.0], [1.0, np.nan, np.inf], -1),
            ([2.0, 1.0], [np.nan, 0.5], 1),
        ],
    )
    def test_first_exceed(self, dis, err, expect):
        dis = np.asarray(dis, dtype=np.float64)
        err = np.asarray(err, dtype=np.float64)
        assert kf.first_exceed(dis, err) == expect
        assert loop_first_exceed(dis, err) == expect

    def test_backend_is_numpy(self):
        assert kf.backend() == "numpy"

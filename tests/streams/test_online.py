"""Unit tests for the push-based OnlineStream."""

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError, StreamAccessError
from repro.streams import OnlineStream
from repro.streams.online import snapshot_from_json


class TestPush:
    def test_push_assigns_sequential_timestamps(self):
        stream = OnlineStream(n_users=4, domain_size=3)
        assert stream.push([0, 1, 2, 0]) == 0
        assert stream.push([1, 1, 1, 1]) == 1
        assert stream.pushed == 2
        assert stream.horizon is None

    def test_values_roundtrip(self):
        stream = OnlineStream(n_users=3, domain_size=5)
        stream.push([4, 0, 2])
        assert np.array_equal(stream.values(0), [4, 0, 2])
        assert stream.values(0).dtype == np.int64

    def test_wrong_shape_rejected(self):
        stream = OnlineStream(n_users=3, domain_size=5)
        with pytest.raises(InvalidParameterError):
            stream.push([1, 2])
        with pytest.raises(InvalidParameterError):
            stream.push([[1, 2, 3]])

    def test_out_of_domain_rejected(self):
        stream = OnlineStream(n_users=2, domain_size=3)
        with pytest.raises(InvalidParameterError):
            stream.push([0, 3])
        with pytest.raises(InvalidParameterError):
            stream.push([-1, 0])

    @pytest.mark.parametrize(
        "values",
        (
            np.array([1.7, 0.0, 2.0]),
            np.array([1.0, 0.0, 2.0]),
            np.array([True, False, True]),
            [1.7, 0.0, 2.0],
        ),
    )
    def test_non_integer_dtype_rejected_not_truncated(self, values):
        stream = OnlineStream(n_users=3, domain_size=3)
        with pytest.raises(InvalidParameterError, match="integers"):
            stream.push(values)
        assert stream.pushed == 0

    @pytest.mark.parametrize("dtype", (np.uint8, np.int16, np.int64))
    def test_any_integer_dtype_accepted(self, dtype):
        stream = OnlineStream(n_users=3, domain_size=3)
        stream.push(np.array([2, 0, 1], dtype=dtype))
        assert stream.values(0).dtype == np.int64
        assert np.array_equal(stream.values(0), [2, 0, 1])

    def test_true_frequencies_from_snapshot(self):
        stream = OnlineStream(n_users=4, domain_size=2)
        stream.push([0, 0, 1, 1])
        assert np.allclose(stream.true_frequencies(0), [0.5, 0.5])


class TestSnapshotFromJson:
    def test_integer_list_parses_to_int64(self):
        values = snapshot_from_json([3, 0, 1])
        assert values.dtype == np.int64
        assert np.array_equal(values, [3, 0, 1])

    @pytest.mark.parametrize(
        "raw",
        (
            [1.7, 0],
            [1.0, 0],
            [True, 0],
            [float("inf")],
            "0120",
            {"0": 1},
            None,
            [[0, 1]],
            ["1", 0],
        ),
    )
    def test_non_integer_values_rejected(self, raw):
        with pytest.raises(InvalidParameterError, match="JSON list of int"):
            snapshot_from_json(raw)

    def test_beyond_int64_rejected(self):
        with pytest.raises(InvalidParameterError, match="int64"):
            snapshot_from_json([2**70])


class TestRetention:
    def test_old_snapshots_evicted(self):
        stream = OnlineStream(n_users=2, domain_size=2, retain=2)
        for t in range(5):
            stream.push([t % 2, t % 2])
        assert np.array_equal(stream.values(4), [0, 0])
        assert np.array_equal(stream.values(3), [1, 1])
        with pytest.raises(StreamAccessError):
            stream.values(2)

    def test_future_access_rejected(self):
        stream = OnlineStream(n_users=2, domain_size=2)
        stream.push([0, 1])
        with pytest.raises(StreamAccessError):
            stream.values(1)

    def test_retain_validated(self):
        with pytest.raises(InvalidParameterError):
            OnlineStream(n_users=2, domain_size=2, retain=0)

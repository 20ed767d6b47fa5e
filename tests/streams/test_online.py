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


class TestRing:
    def _pushed(self, retain, count, n_users=5, domain=7, seed=0):
        rng = np.random.default_rng(seed)
        stream = OnlineStream(n_users=n_users, domain_size=domain,
                              retain=retain)
        for _ in range(count):
            stream.push(rng.integers(0, domain, size=n_users))
        return stream

    @pytest.mark.parametrize("retain", (1, 3, 4))
    def test_values_range_equals_stacked_values_for_every_span(self, retain):
        rng = np.random.default_rng(retain)
        stream = OnlineStream(n_users=5, domain_size=7, retain=retain)
        for t in range(3 * retain):
            stream.push(rng.integers(0, 7, size=5))
            oldest = max(0, t + 1 - retain)
            for t0 in range(oldest, t + 1):
                for m in range(1, t + 2 - t0):
                    want = np.stack(
                        [stream.values(s) for s in range(t0, t0 + m)]
                    )
                    got = stream.values_range(t0, t0 + m)
                    assert got.dtype == np.int64
                    assert np.array_equal(got, want)

    def test_wrapping_span_is_one_copy_contiguous_span_a_view(self):
        stream = self._pushed(retain=4, count=6)
        contiguous = stream.values_range(4, 6)
        wrapping = stream.values_range(3, 5)
        assert np.shares_memory(contiguous, stream.values(4))
        assert not np.shares_memory(wrapping, stream.values(4))
        assert np.array_equal(wrapping[1], stream.values(4))

    def test_fast_forward_then_push(self):
        stream = self._pushed(retain=3, count=2)
        stream.fast_forward(10)
        with pytest.raises(StreamAccessError, match=r"oldest retained: none"):
            stream.values(1)
        with pytest.raises(StreamAccessError, match="not been pushed yet"):
            stream.values(10)
        assert stream.push([1, 2, 3, 4, 5]) == 10
        assert np.array_equal(stream.values(10), [1, 2, 3, 4, 5])
        assert np.array_equal(stream.values_range(10, 11), [[1, 2, 3, 4, 5]])
        with pytest.raises(StreamAccessError, match=r"oldest retained: 10\)"):
            stream.values(9)

    def test_fast_forward_before_first_push(self):
        stream = OnlineStream(n_users=2, domain_size=3, retain=2)
        stream.fast_forward(4)
        assert stream.push([2, 1]) == 4
        assert np.array_equal(stream.values(4), [2, 1])

    def test_access_error_messages(self):
        stream = self._pushed(retain=2, count=5)
        with pytest.raises(
            StreamAccessError,
            match=r"^timestamp 2 was evicted from the online retention "
            r"window \(oldest retained: 3\)$",
        ):
            stream.values(2)
        with pytest.raises(
            StreamAccessError,
            match=r"^timestamp 5 has not been pushed yet \(next is 5\)$",
        ):
            stream.values(5)
        with pytest.raises(StreamAccessError, match="non-negative"):
            stream.values(-1)
        # A span fails on its first unreadable timestamp, in order.
        with pytest.raises(StreamAccessError, match="timestamp 2 was evicted"):
            stream.values_range(2, 4)
        with pytest.raises(StreamAccessError, match="timestamp 5 has not"):
            stream.values_range(3, 8)
        with pytest.raises(StreamAccessError, match="timestamp 6 has not"):
            stream.values_range(6, 8)
        with pytest.raises(StreamAccessError, match="end before start"):
            stream.values_range(4, 3)
        assert stream.values_range(4, 4).shape == (0, 5)

    def test_unpushed_stream_errors(self):
        stream = OnlineStream(n_users=2, domain_size=3)
        with pytest.raises(StreamAccessError, match="timestamp 0 has not"):
            stream.values(0)
        with pytest.raises(StreamAccessError, match="timestamp 0 has not"):
            stream.values_range(0, 1)

    def test_integer_dtypes_give_identical_int64_rows(self):
        rows = np.random.default_rng(1).integers(0, 200, size=(6, 9))
        streams = []
        for dtype in (np.uint8, np.int16, np.int64):
            stream = OnlineStream(n_users=9, domain_size=200, retain=4)
            for row in rows:
                stream.push(row.astype(dtype))
            streams.append(stream)
        for stream in streams:
            block = stream.values_range(2, 6)
            assert block.dtype == np.int64
            assert np.array_equal(block, rows[2:6])
            assert stream.values(5).dtype == np.int64
            assert np.array_equal(stream.values(5), rows[5])

    def test_ring_allocated_on_first_push(self):
        stream = OnlineStream(n_users=1000, domain_size=3, retain=64)
        assert stream._ring is None
        stream.push(np.zeros(1000, dtype=np.uint8))
        assert stream._ring.shape == (64, 1000)


class TestNoAliasing:
    def test_push_copies_the_callers_buffer(self):
        stream = OnlineStream(n_users=4, domain_size=8)
        buf = np.array([1, 2, 3, 4])
        stream.push(buf)
        buf[:] = 7
        assert np.array_equal(stream.values(0), [1, 2, 3, 4])

    def test_values_and_blocks_are_read_only(self):
        stream = OnlineStream(n_users=3, domain_size=4, retain=3)
        for t in range(4):
            stream.push([t % 4, 0, 1])
        with pytest.raises(ValueError):
            stream.values(3)[0] = 2
        with pytest.raises(ValueError):
            stream.values_range(2, 4)[0, 0] = 2  # contiguous view
        with pytest.raises(ValueError):
            stream.values_range(1, 4)[0, 0] = 2  # wraps: a copy
        assert np.array_equal(stream.values(3), [3, 0, 1])

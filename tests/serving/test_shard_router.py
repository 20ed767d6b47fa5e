"""ShardRouter: deterministic hash partition of the user population."""

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.serving import ShardRouter, shard_seed
from repro.serving.router import splitmix64


class TestPartition:
    def test_members_partition_the_population(self):
        """Shard member sets are disjoint and cover range(n_users)."""
        for n_users, shards in [(40, 1), (40, 3), (257, 8), (1000, 16)]:
            router = ShardRouter(n_users, shards)
            merged = np.concatenate(router.members)
            assert merged.size == n_users
            assert np.array_equal(np.sort(merged), np.arange(n_users))

    def test_assignment_is_a_pure_function(self):
        """Two independently built routers agree user for user."""
        a = ShardRouter(513, 7)
        b = ShardRouter(513, 7)
        assert np.array_equal(a.assignment, b.assignment)
        for user in (0, 1, 255, 512):
            assert a.shard_of(user) == b.shard_of(user)
            assert a.shard_of(user) == int(a.assignment[user])

    def test_splitmix64_reference_values(self):
        """The hash is pinned: changing it would silently reshard every
        durable deployment, so lock the finalizer to known outputs."""
        out = splitmix64(np.array([0, 1, 2], dtype=np.uint64))
        assert out.dtype == np.uint64
        # SplitMix64 outputs for states 0..2 (0 and 1 match the
        # published test vectors; 2 pins this implementation).
        assert list(out) == [
            16294208416658607535,
            10451216379200822465,
            10905525725756348110,
        ]

    def test_single_shard_is_the_identity_layout(self):
        router = ShardRouter(17, 1)
        assert np.array_equal(router.members[0], np.arange(17))
        assert router.weights[0] == 1.0

    def test_counts_and_weights_are_consistent(self):
        router = ShardRouter(400, 4)
        assert int(router.counts.sum()) == 400
        np.testing.assert_allclose(router.weights.sum(), 1.0)
        assert np.array_equal(
            router.counts, [m.size for m in router.members]
        )


class TestValidation:
    def test_empty_shard_is_rejected(self):
        """More shards than users guarantees an empty shard — refused,
        because a shard session needs a non-empty population."""
        with pytest.raises(InvalidParameterError, match="own no users"):
            ShardRouter(1, 2)

    @pytest.mark.parametrize("n_users,shards", [(0, 1), (-3, 2), (5, 0)])
    def test_bad_geometry_is_rejected(self, n_users, shards):
        with pytest.raises(InvalidParameterError):
            ShardRouter(n_users, shards)

    def test_shard_of_bounds(self):
        router = ShardRouter(10, 2)
        with pytest.raises(InvalidParameterError):
            router.shard_of(10)
        with pytest.raises(InvalidParameterError):
            router.shard_of(-1)


class TestSplit:
    def test_split_routes_each_users_value(self):
        router = ShardRouter(64, 4)
        values = np.arange(64) % 5
        parts = router.split(values)
        for s, members in enumerate(router.members):
            assert np.array_equal(parts[s], values[members])

    def test_split_block_matches_columnwise_split(self):
        router = ShardRouter(64, 4)
        rng = np.random.default_rng(9)
        block = rng.integers(0, 6, size=(5, 64))
        parts = router.split_block(block)
        for s in range(4):
            assert parts[s].shape == (5, int(router.counts[s]))
            for i in range(5):
                assert np.array_equal(parts[s][i], router.split(block[i])[s])

    def test_split_block_with_one_shard_is_the_block_itself(self):
        """K=1 hands the flush block through without a copy, in its
        wire dtype."""
        block = np.arange(30, dtype=np.uint8).reshape(3, 10)
        (part,) = ShardRouter(10, 1).split_block(block)
        assert part is block
        assert np.shares_memory(part, block)

    def test_split_block_with_two_shards_gathers_copies(self):
        """K=2 is unchanged: each part is a column gather of the block,
        a fresh array in the block's dtype."""
        router = ShardRouter(10, 2)
        block = np.arange(30, dtype=np.uint16).reshape(3, 10)
        parts = router.split_block(block)
        for part, members in zip(parts, router.members):
            assert part.dtype == np.uint16
            assert np.array_equal(part, block[:, members])
            assert not np.shares_memory(part, block)

    def test_split_rejects_wrong_shape(self):
        router = ShardRouter(8, 2)
        with pytest.raises(InvalidParameterError):
            router.split(np.zeros(7, dtype=np.int64))
        with pytest.raises(InvalidParameterError):
            router.split_block(np.zeros((3, 9), dtype=np.int64))
        with pytest.raises(InvalidParameterError):
            router.split_block(np.zeros(8, dtype=np.int64))


class TestShardSeed:
    def test_single_shard_passes_the_master_seed_through(self):
        """K=1 must reuse the master seed unchanged — that is what makes
        a one-shard tier bit-identical to the solo server."""
        assert shard_seed(1234, 0, 1) == 1234
        assert shard_seed(None, 0, 1) is None

    def test_multi_shard_seeds_are_distinct_and_deterministic(self):
        seeds = [shard_seed(1234, s, 4) for s in range(4)]
        assert len(set(seeds)) == 4
        assert seeds == [shard_seed(1234, s, 4) for s in range(4)]
        # Keyed by num_shards too: a reshard cannot alias old streams.
        assert shard_seed(1234, 0, 4) != shard_seed(1234, 0, 2)

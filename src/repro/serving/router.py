"""Deterministic user-to-shard routing.

Users are assigned to shards by a fixed integer hash of their user id —
not round-robin, not load-balanced — so the assignment is a pure
function of ``(user_id, num_shards)``: stable across processes, runs and
machines, independent of ``PYTHONHASHSEED``, and identical between the
serial :class:`~repro.serving.sharded.ShardedSession` reference and the
process-parallel server.  Resharding (changing ``num_shards``) reshuffles
users and therefore cannot preserve per-shard state; the serving tier
refuses to resume a state directory under a different shard count.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..exceptions import InvalidParameterError
from ..rng import SeedLike, derive_seed


def splitmix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a uint64 array (vectorized, wrapping)."""
    z = (np.asarray(x, dtype=np.uint64) + np.uint64(0x9E3779B97F4A7C15))
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def shard_seed(seed: SeedLike, shard: int, num_shards: int) -> SeedLike:
    """Per-shard session seed derived from the master seed.

    With one shard the master seed passes through *unchanged*, which is
    what makes a 1-shard deployment bit-identical to a solo
    :class:`~repro.engine.session.StreamSession` (same generator, same
    draws).  With more
    shards each gets an independent deterministic child seed keyed by
    ``(shard, num_shards)``.
    """
    if num_shards == 1:
        return seed
    return derive_seed(seed, "serving-shard", int(shard), int(num_shards))


class ShardRouter:
    """Partition ``n_users`` users across ``num_shards`` shards by hash.

    ``members[s]`` is the ascending array of user ids owned by shard
    ``s``; the arrays are disjoint and cover ``range(n_users)``.  With
    ``num_shards=1`` the single shard owns every user in order (the
    identity layout, preserving solo bit-identity).
    """

    def __init__(self, n_users: int, num_shards: int):
        n_users = int(n_users)
        num_shards = int(num_shards)
        if n_users < 1:
            raise InvalidParameterError(
                f"n_users must be positive, got {n_users}"
            )
        if num_shards < 1:
            raise InvalidParameterError(
                f"num_shards must be >= 1, got {num_shards}"
            )
        self.n_users = n_users
        self.num_shards = num_shards
        # Modulo 1 every hash is 0: one shard owns every user in order.
        self.assignment = (
            splitmix64(np.arange(n_users, dtype=np.uint64))
            % np.uint64(num_shards)
        )
        self.members: List[np.ndarray] = [
            np.flatnonzero(self.assignment == s) for s in range(num_shards)
        ]
        self.counts = np.array([m.size for m in self.members], dtype=np.int64)
        if int(self.counts.min()) == 0:
            empty = [s for s, m in enumerate(self.members) if m.size == 0]
            raise InvalidParameterError(
                f"shard(s) {empty} own no users for n_users={n_users}, "
                f"num_shards={num_shards}; use fewer shards (every shard "
                f"session needs a non-empty population)"
            )
        self.weights = self.counts / n_users

    # ------------------------------------------------------------------
    def shard_of(self, user_id: int) -> int:
        """The shard owning one user id."""
        user_id = int(user_id)
        if not 0 <= user_id < self.n_users:
            raise InvalidParameterError(
                f"user id {user_id} outside [0, {self.n_users})"
            )
        return int(self.assignment[user_id])

    def split(self, values: np.ndarray) -> List[np.ndarray]:
        """One timestamp's ``(n_users,)`` snapshot -> per-shard snapshots."""
        values = np.asarray(values)
        if values.ndim != 1 or values.shape[0] != self.n_users:
            raise InvalidParameterError(
                f"snapshot must be a ({self.n_users},) value array, got "
                f"shape {values.shape}"
            )
        return [values[m] for m in self.members]

    def split_block(self, block: np.ndarray) -> List[np.ndarray]:
        """An ``(m, n_users)`` snapshot block -> per-shard ``(m, n_s)``.

        Each part keeps the block's dtype.  With one shard the part is
        ``block`` itself, not a copy: the identity layout needs no
        gather.
        """
        block = np.asarray(block)
        if block.ndim != 2 or block.shape[1] != self.n_users:
            raise InvalidParameterError(
                f"snapshot block must have shape (m, {self.n_users}), got "
                f"{block.shape}"
            )
        if self.num_shards == 1:
            return [block]
        return [block[:, m] for m in self.members]

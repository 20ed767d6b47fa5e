"""User-pool management for population-division mechanisms.

Algorithms 3 and 4 maintain an *available user set* ``U_A``: groups are
sampled from it for the dissimilarity (M1) and publication (M2) rounds,
removed so nobody reports twice inside a window, and recycled ``w``
timestamps later (Alg. 3 line 19 / Alg. 4 line 21).  :class:`UserPool`
implements exactly that contract and enforces it — double-assigning a user
or recycling someone who was never assigned raises immediately.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import (
    InvalidParameterError,
    PopulationExhaustedError,
)
from ..rng import SeedLike, ensure_rng


class UserPool:
    """Set of user ids with random disjoint-group sampling and recycling."""

    def __init__(self, n_users: int, seed: SeedLike = None):
        if n_users <= 0:
            raise InvalidParameterError(f"n_users must be positive, got {n_users}")
        self.n_users = int(n_users)
        self._rng = ensure_rng(seed)
        self._available = np.ones(self.n_users, dtype=bool)
        self._n_available = self.n_users

    # ------------------------------------------------------------------
    @property
    def n_available(self) -> int:
        """Number of users currently in ``U_A``."""
        return self._n_available

    def sample(self, k: int) -> np.ndarray:
        """Draw ``k`` distinct users uniformly from ``U_A`` and remove them.

        Raises :class:`PopulationExhaustedError` when fewer than ``k``
        users remain — a symptom of a broken recycling schedule.
        """
        if k < 0:
            raise InvalidParameterError(f"cannot sample negative k={k}")
        if k == 0:
            return np.empty(0, dtype=np.int64)
        if k > self._n_available:
            raise PopulationExhaustedError(
                f"requested {k} users but only {self._n_available} available"
            )
        candidates = np.flatnonzero(self._available)
        chosen = self._rng.choice(candidates, size=k, replace=False)
        self._available[chosen] = False
        self._n_available -= k
        return chosen.astype(np.int64, copy=False)

    def recycle(self, user_ids: np.ndarray) -> None:
        """Return previously sampled users to ``U_A``."""
        user_ids = np.asarray(user_ids, dtype=np.int64)
        if user_ids.size == 0:
            return
        if user_ids.min() < 0 or user_ids.max() >= self.n_users:
            raise InvalidParameterError("user ids outside population")
        if self._available[user_ids].any():
            raise InvalidParameterError(
                "attempted to recycle users that are already available"
            )
        self._available[user_ids] = True
        self._n_available += user_ids.size

    def recycle_run(self, *groups: np.ndarray) -> None:
        """Kernel-path :meth:`recycle` for several already-validated groups.

        The chunk kernels recycle exactly the arrays they sampled ``w``
        steps earlier, so the per-call bounds and double-recycle scans
        are skipped; the mask and counter updates are identical.
        """
        total = 0
        for user_ids in groups:
            if user_ids.size:
                self._available[user_ids] = True
                total += user_ids.size
        self._n_available += total

    def is_available(self, user_id: int) -> bool:
        """Whether a specific user is currently in ``U_A``."""
        return bool(self._available[user_id])

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Availability mask for :mod:`repro.persist` checkpoints.

        The pool's randomness lives in the shared session generator, so
        the mask is the whole state.
        """
        return {"available": self._available.copy()}

    def load_state(self, state: dict) -> None:
        """Install a mask captured by :meth:`state_dict`."""
        available = np.asarray(state["available"], dtype=bool)
        if available.shape != (self.n_users,):
            raise InvalidParameterError(
                f"pool mask must have shape ({self.n_users},), got "
                f"{available.shape}"
            )
        self._available = available.copy()
        self._n_available = int(available.sum())

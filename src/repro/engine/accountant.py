"""Runtime ``w``-event LDP accountant.

The accountant is the library's privacy safety net.  Every collection round
the engine executes is charged here, per user, and the invariant of
Definition 4.2 / Theorem 5.1 — *no user's privacy spend over any window of
``w`` consecutive timestamps exceeds epsilon* — is re-checked **at
runtime**.  A mechanism bug that would overspend raises
:class:`~repro.exceptions.PrivacyViolationError` immediately instead of
silently producing a non-private trace, and the test suite leans on this:
integration tests simply run every mechanism with the accountant armed.

Budget-division mechanisms (LBU/LSP/LBD/LBA) only ever charge *all* users
at once, so their ledger stays uniform across the population.  The
accountant tracks that regime with a single scalar — O(1) per charge
instead of O(N) array updates — and materialises the per-user array
lazily the first time a group charge (population division) or a snapshot
read needs it.  The scalar and array paths perform the same additions,
subtractions and clips in the same order, so switching regimes never
changes an observed spend by even one ULP.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import InvalidParameterError, PrivacyViolationError

#: Numerical slack for floating-point budget sums.
_TOLERANCE = 1e-9


class WEventAccountant:
    """Per-user sliding-window privacy ledger.

    Parameters
    ----------
    n_users:
        Population size.
    epsilon:
        Total ``w``-event budget each user may spend in any window.
    window:
        Window size ``w``.
    enforce:
        If True (default) raise on violation; if False only record the
        maximal observed window spend (useful to *demonstrate* that a
        deliberately broken mechanism overspends).
    """

    def __init__(
        self, n_users: int, epsilon: float, window: int, enforce: bool = True
    ):
        if n_users <= 0:
            raise InvalidParameterError(f"n_users must be positive, got {n_users}")
        if epsilon <= 0:
            raise InvalidParameterError(f"epsilon must be positive, got {epsilon}")
        if window <= 0:
            raise InvalidParameterError(f"window must be positive, got {window}")
        self.n_users = int(n_users)
        self.epsilon = float(epsilon)
        self.window = int(window)
        self.enforce = bool(enforce)
        # While every charge so far hit the whole population, the spend is
        # uniform and a single scalar carries the ledger (fast path).  The
        # first group charge materialises the per-user array.
        self._uniform = True
        self._uniform_spend = 0.0
        self._window_spend: Optional[np.ndarray] = None
        # (t, user_ids_or_None, eps) for every charge inside the window.
        self._charges: Deque[Tuple[int, Optional[np.ndarray], float]] = deque()
        self._current_t = -1
        self.max_window_spend = 0.0
        self.total_charges = 0

    # ------------------------------------------------------------------
    def charge(self, t: int, user_ids: Optional[np.ndarray], epsilon: float) -> None:
        """Charge ``epsilon`` to ``user_ids`` (or everyone) at timestamp ``t``.

        Raises :class:`PrivacyViolationError` if any charged user's spend
        over ``[t - w + 1, t]`` would exceed the total budget.
        """
        if epsilon < 0:
            raise InvalidParameterError(f"cannot charge negative budget {epsilon}")
        if t < self._current_t:
            raise InvalidParameterError(
                f"accountant charges must be time-ordered; got t={t} after "
                f"t={self._current_t}"
            )
        self._advance(t)
        if epsilon == 0:
            return
        if user_ids is None:
            if self._uniform:
                self._uniform_spend += epsilon
                touched_max = self._uniform_spend
            else:
                self._window_spend += epsilon
                touched_max = float(self._window_spend.max())
        else:
            user_ids = np.asarray(user_ids, dtype=np.int64)
            if user_ids.size == 0:
                return
            if user_ids.min() < 0 or user_ids.max() >= self.n_users:
                raise InvalidParameterError("user ids outside population")
            spend = self._materialize()
            touched = spend[user_ids]
            touched += epsilon
            spend[user_ids] = touched
            touched_max = float(touched.max())
        self._charges.append((t, user_ids, float(epsilon)))
        self.total_charges += 1
        self.max_window_spend = max(self.max_window_spend, touched_max)
        if self.enforce and touched_max > self.epsilon + _TOLERANCE:
            raise PrivacyViolationError(
                f"w-event LDP violated at t={t}: a user's window spend reached "
                f"{touched_max:.6f} > epsilon={self.epsilon:.6f} (w={self.window})"
            )

    def charge_many(self, ts: "Sequence[int]", epsilon: float) -> None:
        """Charge *everyone* ``epsilon`` at each of several timestamps.

        Equivalent to ``charge(t, None, epsilon)`` for each ``t`` of the
        non-descending ``ts`` — same ledger state, same
        ``max_window_spend``, same violation raised at the same
        timestamp — but executed as one tight scalar loop while the
        ledger is uniform.  This is the accountant's bulk-ingestion
        kernel: the uniform budget-division mechanisms charge the whole
        population once per timestamp, so a chunk's accounting collapses
        to O(chunk) scalar arithmetic with no per-charge method dispatch.
        """
        if not self._uniform:
            for t in ts:
                self.charge(t, None, epsilon)
            return
        if epsilon < 0:
            raise InvalidParameterError(f"cannot charge negative budget {epsilon}")
        spend = self._uniform_spend
        current_t = self._current_t
        max_spend = self.max_window_spend
        charges = self._charges
        limit = self.epsilon + _TOLERANCE
        count = 0
        try:
            for t in ts:
                if t < current_t:
                    raise InvalidParameterError(
                        f"accountant charges must be time-ordered; got "
                        f"t={t} after t={current_t}"
                    )
                if t > current_t:
                    current_t = t
                cutoff = t - self.window + 1
                evicted = False
                while charges and charges[0][0] < cutoff:
                    spend -= charges.popleft()[2]
                    evicted = True
                if evicted and spend < 0.0:
                    spend = 0.0
                if epsilon == 0:
                    continue
                spend += epsilon
                charges.append((t, None, float(epsilon)))
                count += 1
                if spend > max_spend:
                    max_spend = spend
                if self.enforce and spend > limit:
                    raise PrivacyViolationError(
                        f"w-event LDP violated at t={t}: a user's window "
                        f"spend reached {spend:.6f} > epsilon="
                        f"{self.epsilon:.6f} (w={self.window})"
                    )
        finally:
            # Mirror the per-charge path even when a violation raises
            # mid-span: everything charged so far stays on the ledger.
            self._uniform_spend = spend
            self._current_t = current_t
            self.max_window_spend = max_spend
            self.total_charges += count

    def window_spend(self, user_id: int) -> float:
        """Current window spend of a single user."""
        if self._uniform:
            if not 0 <= int(user_id) < self.n_users:
                raise IndexError(
                    f"user id {user_id} outside population of {self.n_users}"
                )
            return float(self._uniform_spend)
        return float(self._window_spend[user_id])

    def spend_snapshot(self) -> np.ndarray:
        """Copy of every user's current window spend."""
        if self._uniform:
            return np.full(self.n_users, self._uniform_spend, dtype=np.float64)
        return self._window_spend.copy()

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Full ledger state for :mod:`repro.persist` checkpoints.

        Captures the regime flag, the scalar/array spend, every charge
        still inside the window, and the running counters — everything
        :meth:`load_state` needs to continue charging bit-identically
        (the uniform fast path and the materialised array path are both
        preserved exactly as they were).
        """
        return {
            "uniform": self._uniform,
            "uniform_spend": self._uniform_spend,
            "window_spend": (
                None
                if self._window_spend is None
                else self._window_spend.copy()
            ),
            "charges": [
                (t, None if ids is None else ids.copy(), eps)
                for t, ids, eps in self._charges
            ],
            "current_t": self._current_t,
            "max_window_spend": self.max_window_spend,
            "total_charges": self.total_charges,
        }

    def load_state(self, state: dict) -> None:
        """Install a ledger captured by :meth:`state_dict`."""
        self._uniform = bool(state["uniform"])
        self._uniform_spend = float(state["uniform_spend"])
        spend = state["window_spend"]
        self._window_spend = (
            None if spend is None else np.asarray(spend, dtype=np.float64).copy()
        )
        self._charges = deque(
            (
                int(t),
                None if ids is None else np.asarray(ids, dtype=np.int64),
                float(eps),
            )
            for t, ids, eps in state["charges"]
        )
        self._current_t = int(state["current_t"])
        self.max_window_spend = float(state["max_window_spend"])
        self.total_charges = int(state["total_charges"])

    # ------------------------------------------------------------------
    def _materialize(self) -> np.ndarray:
        """Leave the uniform regime: expand the scalar into the array."""
        if self._uniform:
            self._window_spend = np.full(
                self.n_users, self._uniform_spend, dtype=np.float64
            )
            self._uniform = False
        return self._window_spend

    def _advance(self, t: int) -> None:
        """Evict charges that fell out of the window ending at ``t``."""
        self._current_t = max(self._current_t, t)
        cutoff = t - self.window + 1
        evicted = False
        # Ids of the evicted group charges; None once a whole-population
        # charge left a materialised ledger (every entry moved).
        moved: Optional[list] = []
        while self._charges and self._charges[0][0] < cutoff:
            _, ids, eps = self._charges.popleft()
            evicted = True
            if ids is None:
                if self._uniform:
                    self._uniform_spend -= eps
                else:
                    self._window_spend -= eps
                    moved = None
            else:
                self._window_spend[ids] -= eps
                if moved is not None:
                    moved.append(ids)
        if not evicted:
            return
        # Guard against floating point drift.  Entries no eviction touched
        # are sums of non-negative charges on top of an already clipped
        # ledger, so clipping only the moved ids equals the full clip.
        if self._uniform:
            self._uniform_spend = max(0.0, self._uniform_spend)
        elif moved is None:
            np.clip(self._window_spend, 0.0, None, out=self._window_spend)
        else:
            ids = moved[0] if len(moved) == 1 else np.concatenate(moved)
            self._window_spend[ids] = np.clip(
                self._window_spend[ids], 0.0, None
            )

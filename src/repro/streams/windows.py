"""Sliding-window bookkeeping helpers.

Both budget-division and population-division mechanisms repeatedly need
"the sum of some per-timestamp quantity over the last ``w`` timestamps"
(spent publication budget in Algorithm 1 line 7, used publication users in
Algorithm 3 line 7).  :class:`SlidingWindowSum` provides that in O(1)
per step.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

from ..exceptions import InvalidParameterError


class SlidingWindowSum:
    """Running sum of per-timestamp values over a window of size ``w``.

    ``record(t, value)`` appends the value for timestamp ``t``;
    ``window_sum(t)`` returns the sum over timestamps in
    ``[t - w + 1, t]``.  Timestamps must be recorded in strictly
    increasing order (one record per timestamp).
    """

    def __init__(self, window: int):
        if window <= 0:
            raise InvalidParameterError(f"window must be positive, got {window}")
        self.window = int(window)
        self._entries: Deque[Tuple[int, float]] = deque()
        self._sum = 0.0
        self._last_t = -1

    def record(self, t: int, value: float) -> None:
        """Record ``value`` for timestamp ``t`` (monotone in ``t``)."""
        if t <= self._last_t:
            raise InvalidParameterError(
                f"timestamps must be strictly increasing; got {t} after {self._last_t}"
            )
        self._last_t = t
        self._entries.append((t, float(value)))
        self._sum += float(value)
        self._evict(t)

    def window_sum(self, t: int) -> float:
        """Sum of recorded values with timestamps in ``[t - w + 1, t]``."""
        self._evict(t)
        return self._sum

    def state_dict(self) -> dict:
        """In-window entries and counters for checkpointing."""
        return {
            "entries": [(t, v) for t, v in self._entries],
            "sum": self._sum,
            "last_t": self._last_t,
        }

    def load_state(self, state: dict) -> None:
        """Install state captured by :meth:`state_dict`.

        The running sum is restored verbatim (not recomputed) so the
        accumulated floating-point rounding matches the original window
        exactly.
        """
        self._entries = deque(
            (int(t), float(v)) for t, v in state["entries"]
        )
        self._sum = float(state["sum"])
        self._last_t = int(state["last_t"])

    def _evict(self, t: int) -> None:
        cutoff = t - self.window + 1
        while self._entries and self._entries[0][0] < cutoff:
            _, value = self._entries.popleft()
            self._sum -= value

    def __len__(self) -> int:
        return len(self._entries)

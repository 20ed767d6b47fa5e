"""Push-based stream for true online ingestion.

:class:`OnlineStream` inverts the pull model of the other datasets: the
engine does not *generate* timestamps, an external producer *pushes* them
— a socket, a pipe into the ``repro stream`` CLI, a message queue.  The
stream is unbounded (``horizon=None``) and retains only a small ring of
recent snapshots, so an infinitely long session runs in constant memory.

The retained window exists because the two-round adaptive mechanisms read
the current timestamp's values more than once (M1 and M2), and a
shared-pass driver may fan one snapshot out to many sessions; nothing in
the engine ever looks further back than the current timestamp.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

import numpy as np

from ..exceptions import InvalidParameterError, StreamAccessError
from .base import StreamDataset


def snapshot_from_json(values) -> np.ndarray:
    """A JSON ``values`` field -> ``(n,)`` int64 snapshot.

    The wire form of one timestamp's user values is a JSON list of
    integers.  Anything else — a string, floats (``1.7``, ``Infinity``),
    booleans — raises :class:`~repro.exceptions.InvalidParameterError`
    instead of being coerced, so a malformed ingest never reaches the
    stream truncated.
    """
    if not isinstance(values, list) or not all(
        type(v) is int for v in values
    ):
        raise InvalidParameterError(
            "ingest values must be a JSON list of integers"
        )
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        raise InvalidParameterError(
            "ingest values outside the int64 range"
        ) from None


class OnlineStream(StreamDataset):
    """An unbounded stream fed one snapshot at a time via :meth:`push`.

    Parameters
    ----------
    n_users:
        Population size; every pushed snapshot must have this length.
    domain_size:
        Size of the categorical domain; pushed values must lie in
        ``[0, domain_size)``.
    retain:
        Number of most recent snapshots kept readable (>= 1).
    """

    def __init__(self, n_users: int, domain_size: int, retain: int = 4):
        super().__init__(n_users, domain_size, horizon=None)
        if retain < 1:
            raise InvalidParameterError(f"retain must be >= 1, got {retain}")
        self._retain = int(retain)
        self._snapshots: Deque[Tuple[int, np.ndarray]] = deque()
        self._next_t = 0

    # ------------------------------------------------------------------
    @property
    def pushed(self) -> int:
        """Number of snapshots ingested so far (== next timestamp)."""
        return self._next_t

    def push(self, values) -> int:
        """Ingest the next timestamp's user values; return its timestamp.

        ``values`` must hold integers (any integer dtype); floats and
        booleans raise rather than being truncated.
        """
        values = np.asarray(values)
        if values.dtype.kind not in "iu":
            raise InvalidParameterError(
                f"snapshot values must be integers, got dtype {values.dtype}"
            )
        if values.ndim != 1 or values.shape[0] != self.n_users:
            raise InvalidParameterError(
                f"snapshot must be a ({self.n_users},) value array, got "
                f"shape {values.shape}"
            )
        if values.size and (
            values.min() < 0 or values.max() >= self.domain_size
        ):
            raise InvalidParameterError(
                "snapshot values outside [0, domain_size)"
            )
        t = self._next_t
        self._snapshots.append((t, values.astype(np.int64, copy=False)))
        while len(self._snapshots) > self._retain:
            self._snapshots.popleft()
        self._next_t = t + 1
        return t

    def fast_forward(self, t: int) -> None:
        """Advance the stream cursor to timestamp ``t`` without data.

        Used when resuming a persisted session: the restored session
        already ingested timestamps ``0 .. t-1`` in a previous process,
        so the replacement stream must hand out ``t`` for the next
        :meth:`push`.  Only forward moves on an empty-or-behind stream
        are legal; retained snapshots are dropped (they belong to
        timestamps the session has already consumed).
        """
        if t < self._next_t:
            raise InvalidParameterError(
                f"cannot fast-forward backwards: stream is at "
                f"{self._next_t}, asked for {t}"
            )
        self._snapshots.clear()
        self._next_t = int(t)

    # ------------------------------------------------------------------
    def values(self, t: int) -> np.ndarray:
        t = self._check_t(t)
        for ts, snapshot in reversed(self._snapshots):
            if ts == t:
                return snapshot
            if ts < t:
                break
        if t >= self._next_t:
            raise StreamAccessError(
                f"timestamp {t} has not been pushed yet (next is "
                f"{self._next_t})"
            )
        raise StreamAccessError(
            f"timestamp {t} was evicted from the online retention window "
            f"(oldest retained: "
            f"{self._snapshots[0][0] if self._snapshots else 'none'})"
        )

    # The base values_range (stack values(t) in order) serves chunked
    # ingestion here as long as the whole span is still retained —
    # chunked consumers construct the stream with retain >= chunk.

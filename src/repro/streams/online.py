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

from typing import Optional

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

    The retained snapshots live in one ``(retain, n_users)`` int64 ring,
    allocated by the first :meth:`push`; timestamp ``t`` sits in row
    ``t % retain``.  :meth:`values` and :meth:`values_range` hand out
    read-only views into it, valid until ``retain`` further pushes
    overwrite them (a span that wraps round the ring comes back as one
    read-only copy instead).

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
        # Allocated on the first push, so building a stream (and a session
        # around it) costs no ring memory until data arrives.
        self._ring: Optional[np.ndarray] = None
        self._view: Optional[np.ndarray] = None  # read-only view of _ring
        self._first_t = 0  # first timestamp pushed since the last seek
        self._next_t = 0

    # ------------------------------------------------------------------
    @property
    def pushed(self) -> int:
        """Number of snapshots ingested so far (== next timestamp)."""
        return self._next_t

    def push(self, values) -> int:
        """Ingest the next timestamp's user values; return its timestamp.

        ``values`` must hold integers (any integer dtype); floats and
        booleans raise rather than being truncated.  The values are
        copied into the ring, so the caller may reuse its buffer.
        """
        values = np.asarray(values)
        kind = values.dtype.kind
        if kind not in "iu":
            raise InvalidParameterError(
                f"snapshot values must be integers, got dtype {values.dtype}"
            )
        if values.ndim != 1 or values.shape[0] != self.n_users:
            raise InvalidParameterError(
                f"snapshot must be a ({self.n_users},) value array, got "
                f"shape {values.shape}"
            )
        if (kind == "i" and values.min() < 0) or (
            values.max() >= self.domain_size
        ):
            raise InvalidParameterError(
                "snapshot values outside [0, domain_size)"
            )
        if self._ring is None:
            self._ring = np.empty((self._retain, self.n_users), np.int64)
            self._view = self._ring.view()
            self._view.flags.writeable = False
        t = self._next_t
        self._ring[t % self._retain] = values
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
        self._first_t = self._next_t = int(t)

    # ------------------------------------------------------------------
    def values(self, t: int) -> np.ndarray:
        return self._view[self._slot(t)]

    def _range_rows(self, t0: int, t1: int) -> np.ndarray:
        i0 = self._slot(t0)
        # The first unreadable timestamp of the span, if any, is the next
        # one to be pushed (t0 is retained, so everything after it is).
        self._slot(min(t1, self._next_t + 1) - 1)
        i1 = i0 + (t1 - t0)
        if i1 <= self._retain:
            return self._view[i0:i1]
        block = np.concatenate(
            (self._view[i0:], self._view[: i1 - self._retain])
        )
        block.flags.writeable = False
        return block

    def _slot(self, t: int) -> int:
        """Ring row of retained timestamp ``t``; raises if not retained."""
        t = self._check_t(t)
        if t >= self._next_t:
            raise StreamAccessError(
                f"timestamp {t} has not been pushed yet (next is "
                f"{self._next_t})"
            )
        oldest = max(self._first_t, self._next_t - self._retain)
        if t < oldest:
            raise StreamAccessError(
                f"timestamp {t} was evicted from the online retention window "
                f"(oldest retained: "
                f"{oldest if oldest < self._next_t else 'none'})"
            )
        return t % self._retain

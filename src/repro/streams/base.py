"""Stream dataset abstractions.

A *stream dataset* models the population side of Figure 1: ``n_users``
users, each holding one categorical value from a domain of size
``domain_size`` at every discrete timestamp.  Mechanisms only ever see
perturbed reports; the true per-user values are exposed here so the engine
can simulate the client side, and the true histograms are exposed for
evaluation.

Two concrete families exist:

* :class:`MaterializedStream` — values stored as an ``(T, n)`` matrix;
  random access; used for small/medium workloads and tests.
* :class:`GenerativeStream` — values produced lazily per timestamp from a
  seeded generator with an evolving internal state (e.g. per-user Markov
  chains).  Supports unbounded horizons (the "infinite" in LDP-IDS);
  enforces in-order access and caches the current snapshot so a mechanism
  may read it several times within a timestamp (M1 and M2 rounds).
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from ..exceptions import InvalidParameterError, StreamAccessError


class StreamDataset(abc.ABC):
    """Interface shared by all stream datasets."""

    #: Whether arbitrary timestamps can be read in any order (and hence
    #: whether batched range queries can skip sequential generation).
    random_access: bool = False

    def __init__(self, n_users: int, domain_size: int, horizon: Optional[int]):
        if n_users <= 0:
            raise InvalidParameterError(f"n_users must be positive, got {n_users}")
        if domain_size < 2:
            raise InvalidParameterError(
                f"domain_size must be >= 2, got {domain_size}"
            )
        if horizon is not None and horizon <= 0:
            raise InvalidParameterError(f"horizon must be positive, got {horizon}")
        self._n_users = int(n_users)
        self._domain_size = int(domain_size)
        self._horizon = None if horizon is None else int(horizon)

    # ------------------------------------------------------------------
    @property
    def n_users(self) -> int:
        """Number of participating users ``N``."""
        return self._n_users

    @property
    def domain_size(self) -> int:
        """Size ``d`` of the categorical value domain."""
        return self._domain_size

    @property
    def horizon(self) -> Optional[int]:
        """Number of timestamps, or ``None`` for an unbounded stream."""
        return self._horizon

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def values(self, t: int) -> np.ndarray:
        """True values of all users at timestamp ``t`` (0-based).

        Returns an ``(n_users,)`` int64 array with entries in
        ``[0, domain_size)``.  Callers must not mutate the result: it may
        be a view of the dataset's own storage, read-only on
        :class:`~repro.streams.online.OnlineStream`, whose views stay
        valid only until ``retain`` further pushes.
        """

    def true_frequencies(self, t: int) -> np.ndarray:
        """True frequency histogram ``c_t`` at timestamp ``t`` (sums to 1)."""
        counts = np.bincount(self.values(t), minlength=self.domain_size)
        return counts.astype(np.float64) / self.n_users

    def true_counts(self, t: int) -> np.ndarray:
        """True per-value counts at timestamp ``t`` (sums to ``n_users``)."""
        return np.bincount(self.values(t), minlength=self.domain_size).astype(
            np.int64
        )

    def values_range(self, t0: int, t1: int) -> np.ndarray:
        """True values of all users for ``t0 <= t < t1``, shape (t1-t0, n).

        Row ``i`` equals ``values(t0 + i)``.  This is the bulk-ingestion
        feed: :meth:`repro.engine.session.StreamSession.observe_many`
        pulls one block per chunk and drives the whole span off it.  The
        base implementation walks timestamps in order — note that on
        sequential generative streams this *consumes* them (the cursor
        ends at ``t1 - 1``), so a caller must either use only the block
        or only per-timestamp ``values`` for a given span, never both.

        This method validates the span and hands a non-empty one to the
        :meth:`_range_rows` hook; subclasses override the hook, not this
        method.  Materialized streams return an O(1) view of their
        matrix; :class:`~repro.streams.online.OnlineStream` returns a
        read-only view of its ring (valid until ``retain`` further
        pushes), or one read-only copy when the span wraps round it.
        Callers must not mutate the result.
        """
        if t1 < t0:
            raise StreamAccessError(
                f"invalid range [{t0}, {t1}): end before start"
            )
        if t1 == t0:
            return np.empty((0, self.n_users), dtype=np.int64)
        return self._range_rows(t0, t1)

    def _range_rows(self, t0: int, t1: int) -> np.ndarray:
        """Rows ``values(t0) .. values(t1 - 1)`` as a block (``t0 < t1``)."""
        return np.stack([self.values(t) for t in range(t0, t1)])

    def true_frequencies_range(self, t0: int, t1: int) -> np.ndarray:
        """True frequency histograms for ``t0 <= t < t1``, shape (t1-t0, d).

        Row ``i`` is bit-identical to ``true_frequencies(t0 + i)``.  The
        base implementation walks timestamps one by one (the only legal
        order for sequential generative streams); random-access datasets
        override it with a vectorized batch, which is the fast path the
        shared-pass :class:`~repro.engine.group.SessionGroup` driver and
        chunked replay consumers use.
        """
        if t1 < t0:
            raise StreamAccessError(
                f"invalid range [{t0}, {t1}): end before start"
            )
        if t1 == t0:
            return np.empty((0, self.domain_size), dtype=np.float64)
        return np.stack(
            [self.true_frequencies(t) for t in range(t0, t1)]
        )

    def frequency_matrix(self, horizon: Optional[int] = None) -> np.ndarray:
        """Stack ``true_frequencies`` for ``t = 0..horizon-1`` into (T, d)."""
        steps = horizon if horizon is not None else self.horizon
        if steps is None:
            raise StreamAccessError(
                "frequency_matrix needs an explicit horizon for unbounded streams"
            )
        return self.true_frequencies_range(0, steps)

    def _check_t(self, t: int) -> int:
        if t < 0:
            raise StreamAccessError(f"timestamp must be non-negative, got {t}")
        if self._horizon is not None and t >= self._horizon:
            raise StreamAccessError(
                f"timestamp {t} beyond stream horizon {self._horizon}"
            )
        return int(t)


class MaterializedStream(StreamDataset):
    """A stream fully stored in memory as a ``(T, n_users)`` value matrix."""

    random_access = True

    def __init__(self, values: np.ndarray, domain_size: Optional[int] = None):
        values = np.asarray(values)
        if values.ndim != 2:
            raise InvalidParameterError("values must be a (T, n_users) matrix")
        inferred = int(values.max()) + 1 if values.size else 2
        domain = domain_size if domain_size is not None else max(2, inferred)
        super().__init__(
            n_users=values.shape[1], domain_size=domain, horizon=values.shape[0]
        )
        if values.size and (values.min() < 0 or values.max() >= domain):
            raise InvalidParameterError("values outside [0, domain_size)")
        self._values = values.astype(np.int64, copy=False)

    def values(self, t: int) -> np.ndarray:
        t = self._check_t(t)
        return self._values[t]

    def _range_rows(self, t0: int, t1: int) -> np.ndarray:
        """O(1) block view of the stored value matrix."""
        self._check_t(t0)
        self._check_t(t1 - 1)
        return self._values[t0:t1]

    def true_frequencies_range(self, t0: int, t1: int) -> np.ndarray:
        """Vectorized batch histogram over the stored block.

        Each row's integer counts match the per-timestamp bincount
        exactly, so dividing by ``n_users`` reproduces
        :meth:`StreamDataset.true_frequencies` bit for bit.
        """
        # Imported here: the engine package imports this module.
        from ..engine.kernels_fast import block_histograms

        if t1 < t0:
            raise StreamAccessError(
                f"invalid range [{t0}, {t1}): end before start"
            )
        if t1 == t0:
            return np.empty((0, self.domain_size), dtype=np.float64)
        counts = block_histograms(self._range_rows(t0, t1), self.domain_size)
        return counts.astype(np.float64) / self.n_users


class GenerativeStream(StreamDataset):
    """A lazily generated stream with sequential state.

    Subclasses implement :meth:`_advance`, which produces the snapshot for
    the *next* timestamp given internal state.  Access must be in order
    (t = 0, 1, 2, ...); the current snapshot is cached so repeated reads of
    the same ``t`` are cheap and consistent, which the two-round adaptive
    mechanisms rely on.
    """

    def __init__(self, n_users: int, domain_size: int, horizon: Optional[int]):
        super().__init__(n_users, domain_size, horizon)
        self._cursor = -1
        self._current: Optional[np.ndarray] = None

    @abc.abstractmethod
    def _advance(self, t: int) -> np.ndarray:
        """Produce the value snapshot for timestamp ``t`` (called once per t)."""

    def values(self, t: int) -> np.ndarray:
        t = self._check_t(t)
        if t == self._cursor:
            assert self._current is not None
            return self._current
        if t != self._cursor + 1:
            raise StreamAccessError(
                f"generative streams must be read in order: asked for t={t} "
                f"while cursor is at {self._cursor}"
            )
        self._current = self._advance(t)
        self._cursor = t
        return self._current

    def reset(self) -> None:
        """Rewind the stream so it can be replayed from t = 0."""
        self._cursor = -1
        self._current = None
        self._reset_state()

    @abc.abstractmethod
    def _reset_state(self) -> None:
        """Restore any internal generator state to its initial value."""

"""Memory-bounded store of released estimates, the substrate of queries.

A streaming session *releases* one histogram per timestamp; the query
layer needs those releases organised for random access, window
arithmetic, and error propagation — without forcing an unbounded online
session to hoard its whole history.  :class:`ReleaseStore` is that
substrate:

* a **ring buffer** of the last ``capacity`` releases (``capacity=None``
  retains the full history, for offline / finalized-run queries);
* per-timestamp **prefix sums** of the release vectors, stored inside
  each slot, so any in-retention span's *sum/mean estimate* is O(d)
  regardless of span length;
* per-timestamp **publication ids**: re-released (approximate /
  nullified) timestamps repeat the *same* noisy histogram as the last
  publication, so their errors are perfectly correlated — the engine
  uses the ids to propagate variance correctly across spans (a single
  O(span-length) scan of the grouping, see
  :meth:`ReleaseStore.span_publication_groups`).

Sessions publish into a store from
:meth:`repro.engine.session.StreamSession.observe`; nothing in here
imports the engine, so the store is equally usable standalone (e.g.
rebuilt from a saved :class:`~repro.engine.records.SessionResult` by
:meth:`repro.query.engine.QueryEngine.from_result`).
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Deque, Iterator, List, Optional, Tuple

import numpy as np

from ..exceptions import EvictedSpanError, InvalidParameterError

#: Merged-row strategy precedence: any shard publishing makes the
#: population row a publication (new realized noise entered the merge);
#: otherwise any approximation outranks an all-nullified row.
_STRATEGY_RANK = {"publish": 2, "approximate": 1, "nullified": 0}

#: Sentinel for "inherit the first shard store's capacity".
_INHERIT = object()


def merge_release_rows(
    releases,
    variances,
    strategies,
    weights,
) -> Tuple[np.ndarray, float, str]:
    """Merge one timestamp's per-shard rows into the population row.

    ``releases``/``variances``/``strategies`` hold shard ``s``'s released
    histogram, its mean per-cell variance and its step strategy;
    ``weights`` are the population fractions ``n_s / N`` in shard order.
    Returns ``(release, variance, strategy)`` where:

    * ``release = Σ_s w_s · r_s`` — the population estimate.  Because
      every oracle's estimator is affine in its support counts, this
      equals the estimate a single process would have debiased from the
      summed supports (exact in algebra; accumulated in fixed shard
      order so any two mergers of the same rows agree bit-for-bit).
      With one shard it degenerates to ``1.0 · r_0``, bit-identical to
      the solo row.
    * ``variance = Σ_s w_s² · v_s`` — exact under cross-shard
      independence (shards draw from independent generators).
    * ``strategy`` — the highest-precedence shard strategy: ``publish``
      if any shard published fresh noise at this timestamp (the merged
      row then starts a new correlation group), else ``approximate`` if
      any shard approximated, else ``nullified``.
    """
    if not (len(releases) == len(variances) == len(strategies) == len(weights)):
        raise InvalidParameterError(
            "releases, variances, strategies and weights must align"
        )
    if not releases:
        raise InvalidParameterError("cannot merge zero shard rows")
    release = weights[0] * np.asarray(releases[0], dtype=np.float64)
    variance = weights[0] ** 2 * float(variances[0])
    strategy = str(strategies[0])
    for s in range(1, len(releases)):
        release = release + weights[s] * np.asarray(
            releases[s], dtype=np.float64
        )
        variance += weights[s] ** 2 * float(variances[s])
        if _STRATEGY_RANK.get(str(strategies[s]), 0) > _STRATEGY_RANK.get(
            strategy, 0
        ):
            strategy = str(strategies[s])
    return release, variance, strategy


class _Slot:
    """One retained timestamp: release row + running accumulators."""

    __slots__ = (
        "t",
        "release",
        "variance",
        "strategy",
        "publication_id",
        "cum_release",
    )

    def __init__(
        self, t, release, variance, strategy, publication_id, cum_release
    ):
        self.t = t
        self.release = release
        self.variance = variance
        self.strategy = strategy
        self.publication_id = publication_id
        self.cum_release = cum_release


class ReleaseStore:
    """Ring buffer of released estimates with prefix-sum accumulators.

    Parameters
    ----------
    domain_size:
        Length ``d`` of every released histogram.
    capacity:
        Maximum number of timestamps retained (``>= 1``).  ``None``
        retains everything — use for finalized runs; bounded online
        sessions should set a ring size so memory stays O(capacity · d).

    Timestamps must be appended in order starting at 0, mirroring the
    session's ``observe`` contract.  Queries may address any retained
    timestamp; touching an evicted one raises
    :class:`~repro.exceptions.EvictedSpanError`.
    """

    def __init__(self, domain_size: int, capacity: Optional[int] = None):
        if domain_size < 2:
            raise InvalidParameterError(
                f"domain_size must be >= 2, got {domain_size}"
            )
        if capacity is not None and capacity < 1:
            raise InvalidParameterError(
                f"capacity must be >= 1 or None, got {capacity}"
            )
        self.domain_size = int(domain_size)
        self.capacity = None if capacity is None else int(capacity)
        self._slots: Deque[_Slot] = deque()
        self._next_t = 0
        self._evicted = 0
        self._publications = 0

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def append(
        self,
        t: int,
        release: np.ndarray,
        variance: float,
        strategy: str,
        *,
        fresh_publication: Optional[bool] = None,
    ) -> None:
        """Publish timestamp ``t``'s released histogram into the store.

        ``variance`` is the mean per-cell estimation variance of this
        release (the oracle's ``V(eps, n)``; ``nan`` if unknown).
        ``fresh_publication`` defaults to ``strategy == "publish"`` and
        controls the publication-id grouping used for correlated error
        propagation.
        """
        if t != self._next_t:
            raise InvalidParameterError(
                f"releases must be appended in order: expected t="
                f"{self._next_t}, got t={t}"
            )
        release = np.asarray(release, dtype=np.float64)
        if release.shape != (self.domain_size,):
            raise InvalidParameterError(
                f"release must have shape ({self.domain_size},), got "
                f"{release.shape}"
            )
        if fresh_publication is None:
            fresh_publication = strategy == "publish"
        if fresh_publication:
            self._publications += 1
        if self._slots:
            cum_release = self._slots[-1].cum_release + release
        else:
            cum_release = release.copy()
        self._slots.append(
            _Slot(
                t=t,
                release=release.copy(),
                variance=float(variance),
                strategy=str(strategy),
                # id 0 = the zero prior before any publication.
                publication_id=self._publications,
                cum_release=cum_release,
            )
        )
        if self.capacity is not None:
            while len(self._slots) > self.capacity:
                self._slots.popleft()
                self._evicted += 1
        self._next_t = t + 1

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Serializable snapshot of the ring for :mod:`repro.persist`.

        Retained releases ship as one ``(m, d)`` block.  Only the *first*
        retained slot's prefix-sum accumulator is stored: the later
        accumulators were computed as ``cum[i] = cum[i-1] + release[i]``
        and :meth:`load_state` repeats exactly those additions, so the
        reconstructed accumulators — and every future ``window_sum`` —
        are bit-identical to the uninterrupted store's.
        """
        m = len(self._slots)
        d = self.domain_size
        if m:
            releases = np.stack([s.release for s in self._slots])
            base_cum = self._slots[0].cum_release.copy()
        else:
            releases = np.empty((0, d), dtype=np.float64)
            base_cum = None
        return {
            "domain_size": d,
            "capacity": self.capacity,
            "next_t": self._next_t,
            "evicted": self._evicted,
            "publications": self._publications,
            "oldest_t": self.oldest_t,
            "releases": releases,
            "base_cum": base_cum,
            "variances": [s.variance for s in self._slots],
            "strategies": [s.strategy for s in self._slots],
            "publication_ids": [s.publication_id for s in self._slots],
        }

    @classmethod
    def from_state(cls, state: dict) -> "ReleaseStore":
        """Rebuild a store captured by :meth:`state_dict`."""
        store = cls(int(state["domain_size"]), capacity=state["capacity"])
        releases = np.asarray(state["releases"], dtype=np.float64)
        m = releases.shape[0]
        if m:
            oldest = int(state["oldest_t"])
            cum = np.asarray(state["base_cum"], dtype=np.float64).copy()
            for i in range(m):
                if i:
                    cum = cum + releases[i]
                store._slots.append(
                    _Slot(
                        t=oldest + i,
                        release=releases[i].copy(),
                        variance=float(state["variances"][i]),
                        strategy=str(state["strategies"][i]),
                        publication_id=int(state["publication_ids"][i]),
                        cum_release=cum,
                    )
                )
        store._next_t = int(state["next_t"])
        store._evicted = int(state["evicted"])
        store._publications = int(state["publications"])
        return store

    # ------------------------------------------------------------------
    # Shard merging
    # ------------------------------------------------------------------
    @classmethod
    def merge(
        cls,
        stores: "List[ReleaseStore]",
        shard_users: "List[int]",
        *,
        capacity=_INHERIT,
    ) -> "ReleaseStore":
        """Merge aligned per-shard stores into one population store.

        ``stores[s]`` holds shard ``s``'s released estimates over its
        ``shard_users[s]`` users; shards must have ingested the same
        timestamps in lockstep (same ``len``, same retained span — the
        sharded serving tier guarantees this by construction).  Each
        retained timestamp merges through :func:`merge_release_rows`, so
        the result is row-for-row identical to the merged store the
        serving tier maintains incrementally over the same span.

        The merged store's publication groups are rebuilt from the span
        alone: a row starts a new correlation group iff some shard
        published at that timestamp, except the first retained row,
        which always opens a group (its predecessor's noise is outside
        the span).  ``capacity`` defaults to the first store's.
        """
        stores = list(stores)
        if not stores:
            raise InvalidParameterError("cannot merge zero stores")
        users = [int(u) for u in shard_users]
        if len(users) != len(stores):
            raise InvalidParameterError(
                f"{len(stores)} stores but {len(users)} shard populations"
            )
        if any(u <= 0 for u in users):
            raise InvalidParameterError("shard populations must be positive")
        d = stores[0].domain_size
        first = stores[0]
        for store in stores[1:]:
            if store.domain_size != d:
                raise InvalidParameterError(
                    f"stores mix domain sizes {d} and {store.domain_size}"
                )
            if (
                store._next_t != first._next_t
                or store.oldest_t != first.oldest_t
            ):
                raise InvalidParameterError(
                    "shard stores are not aligned: all shards must have "
                    "ingested the same timestamps with the same retention "
                    f"(got spans [{first.oldest_t}, {first._next_t}) and "
                    f"[{store.oldest_t}, {store._next_t}))"
                )
        total = sum(users)
        weights = [u / total for u in users]
        if capacity is _INHERIT:
            capacity = first.capacity
        merged = cls(d, capacity=capacity)
        if first.oldest_t is None:
            merged._next_t = first._next_t
            merged._evicted = first._evicted
            return merged
        start = first.oldest_t
        merged._next_t = start
        merged._evicted = start
        for t in range(start, first._next_t):
            release, variance, strategy = merge_release_rows(
                [store._slot(t).release for store in stores],
                [store._slot(t).variance for store in stores],
                [store._slot(t).strategy for store in stores],
                weights,
            )
            merged.append(
                t,
                release,
                variance,
                strategy,
                # The first retained row opens a group unconditionally:
                # whether its noise continues an earlier publication is
                # unknowable from the retained span.
                fresh_publication=(t == start) or strategy == "publish",
            )
        return merged

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._slots)

    @property
    def latest_t(self) -> Optional[int]:
        """Most recent retained timestamp (``None`` if empty)."""
        return self._slots[-1].t if self._slots else None

    def require_latest_t(self) -> int:
        """:attr:`latest_t`, raising the one empty-store error if empty."""
        if not self._slots:
            raise InvalidParameterError(
                "the release store is empty: no timestamp has been "
                "ingested yet (send an ingest request first)"
            )
        return self._slots[-1].t

    @property
    def oldest_t(self) -> Optional[int]:
        """Oldest retained timestamp (``None`` if empty)."""
        return self._slots[0].t if self._slots else None

    @property
    def evicted(self) -> int:
        """Number of timestamps dropped off the ring so far."""
        return self._evicted

    @property
    def publication_count(self) -> int:
        """Fresh publications seen over the whole stream (not just retained)."""
        return self._publications

    # ------------------------------------------------------------------
    # Slot access
    # ------------------------------------------------------------------
    def _slot(self, t: int) -> _Slot:
        if not isinstance(t, (int, np.integer)):
            raise InvalidParameterError(f"timestamp must be an int, got {t!r}")
        t = int(t)
        if t < 0 or t >= self._next_t:
            raise InvalidParameterError(
                f"timestamp {t} outside the observed range "
                f"[0, {self._next_t})"
            )
        oldest = self.oldest_t
        if oldest is None or t < oldest:
            raise EvictedSpanError(
                f"timestamp {t} was evicted from the release ring "
                f"(oldest retained: {oldest})",
                oldest=oldest,
            )
        return self._slots[t - oldest]

    def release_at(self, t: int) -> np.ndarray:
        """The released histogram ``r_t`` (a copy)."""
        return self._slot(t).release.copy()

    def variance_at(self, t: int) -> float:
        """Mean per-cell estimation variance of the release at ``t``."""
        return self._slot(t).variance

    def strategy_at(self, t: int) -> str:
        """``publish`` / ``approximate`` / ``nullified`` at ``t``."""
        return self._slot(t).strategy

    def publication_id_at(self, t: int) -> int:
        """Correlation group of ``t``'s release (shared by re-releases)."""
        return self._slot(t).publication_id

    def subset_sum(self, t: int, items) -> float:
        """Sum of the released cells ``items`` at ``t`` — one slot fetch.

        Fused form of reading ``release_at(t)[item]`` once per item:
        the slot is resolved once and the cells are accumulated
        *sequentially in the given order*, so the result is
        byte-identical to a caller summing per-item point reads (numpy
        slice ``.sum()`` would use pairwise summation and round
        differently).  Items are validated against the domain with the
        same error a per-item read would raise.
        """
        release = self._slot(t).release
        total = 0.0
        for item in items:
            if not isinstance(item, (int, np.integer)):
                raise InvalidParameterError(
                    f"item must be an int, got {item!r}"
                )
            item = int(item)
            if not 0 <= item < self.domain_size:
                raise InvalidParameterError(
                    f"item {item} outside the domain "
                    f"[0, {self.domain_size})"
                )
            total += float(release[item])
        return total

    # ------------------------------------------------------------------
    # Span access
    # ------------------------------------------------------------------
    def _check_span(self, t0: int, t1: int) -> Tuple[int, int]:
        if not (
            isinstance(t0, (int, np.integer))
            and isinstance(t1, (int, np.integer))
        ):
            raise InvalidParameterError(
                f"span bounds must be ints, got ({t0!r}, {t1!r})"
            )
        t0, t1 = int(t0), int(t1)
        if t0 > t1:
            raise InvalidParameterError(
                f"span must satisfy t0 <= t1, got [{t0}, {t1}]"
            )
        self._slot(t0)  # raises EvictedSpanError / range errors
        self._slot(t1)
        return t0, t1

    def _iter_span(self, t0: int, t1: int) -> Iterator[_Slot]:
        """Slots for a checked span, one O(span) pass (no per-t indexing —
        ``deque[i]`` costs O(distance-from-end), which would make long
        spans quadratic)."""
        oldest = self.oldest_t
        return islice(self._slots, t0 - oldest, t1 - oldest + 1)

    def window_sum(self, t0: int, t1: int) -> np.ndarray:
        """``Σ_{t0 <= t <= t1} r_t`` via prefix sums — O(d), any span length."""
        t0, t1 = self._check_span(t0, t1)
        first = self._slot(t0)
        last = self._slot(t1)
        return last.cum_release - first.cum_release + first.release

    def span_releases(self, t0: int, t1: int) -> np.ndarray:
        """The ``(t1 - t0 + 1, d)`` release block (copies, retained only)."""
        t0, t1 = self._check_span(t0, t1)
        return np.stack([slot.release for slot in self._iter_span(t0, t1)])

    def span_variances(self, t0: int, t1: int) -> np.ndarray:
        """Per-timestamp variances over the span, one O(span) pass."""
        t0, t1 = self._check_span(t0, t1)
        return np.array(
            [slot.variance for slot in self._iter_span(t0, t1)]
        )

    def span_publication_groups(
        self, t0: int, t1: int
    ) -> List[Tuple[int, int, float]]:
        """``(publication_id, n_timestamps, variance)`` per group in span.

        Re-released timestamps repeat the same noisy histogram, so the
        span decomposes into runs sharing one publication's noise.  The
        query engine turns this into the exact correlated variance
        ``Σ_groups n² · var`` of a span sum.  One O(span-length) scan;
        the group count is bounded by the publication count, which the
        adaptive mechanisms keep low by design.
        """
        t0, t1 = self._check_span(t0, t1)
        groups: List[Tuple[int, int, float]] = []
        for slot in self._iter_span(t0, t1):
            if groups and groups[-1][0] == slot.publication_id:
                pid, count, var = groups[-1]
                groups[-1] = (pid, count + 1, var)
            else:
                groups.append((slot.publication_id, 1, slot.variance))
        return groups

"""Online query engine over released estimates.

:class:`QueryEngine` answers the questions a consumer of a private
release stream actually asks — "how common is item 3 right now?", "what
are the heavy hitters?", "how much traffic did categories 10-20 carry
over the last hour?" — against a :class:`~repro.query.store.ReleaseStore`
fed by a live session or rebuilt from a finalized run.

Every answer carries a **variance-propagated confidence interval**
derived from the closed-form oracle variances
(:mod:`repro.freq_oracles.variance`) recorded at publish time:

* a single cell at one timestamp has variance ``V(eps, n)`` (the mean
  per-cell form of Eq. (2); normal approximation, unbiased estimator);
* a categorical range of ``m`` cells sums ``m`` estimates whose noise is
  treated as independent across cells (exact for OUE/SUE bit noise; a
  mild approximation for GRR, whose cells are weakly negatively
  correlated — intervals err slightly wide);
* a sliding span sums across timestamps, where *re-releases are copies
  of the last publication* and therefore perfectly correlated: a span
  covering groups ``g`` with ``n_g`` timestamps of a publication with
  variance ``v_g`` has sum variance ``Σ_g n_g² · v_g`` — the engine
  computes exactly this from the store's publication ids, not the naive
  (and badly optimistic) ``Σ_t v_t``.

The ``max`` aggregate reports the per-cell maximum with the interval of
the timestamp achieving it; the maximum of noisy estimates is biased
upward, so treat it as an optimistic envelope (documented in
``docs/QUERIES.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist
from typing import List, Mapping, Optional

import numpy as np

from ..exceptions import InvalidParameterError
from ..freq_oracles import get_oracle
from .propagation import PRIOR_VARIANCE, next_release_variance
from .store import _INHERIT, ReleaseStore

_AGGREGATES = ("sum", "mean", "max")


@dataclass(frozen=True)
class IntervalEstimate:
    """A scalar answer with a symmetric normal-approximation interval."""

    estimate: float
    stderr: float
    confidence: float

    @property
    def ci_low(self) -> float:
        return self.estimate - _z(self.confidence) * self.stderr

    @property
    def ci_high(self) -> float:
        return self.estimate + _z(self.confidence) * self.stderr

    def as_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "stderr": self.stderr,
            "confidence": self.confidence,
            "ci": [self.ci_low, self.ci_high],
        }


@dataclass(frozen=True)
class TopKEntry:
    """One heavy hitter: its rank, item id, and interval estimate."""

    rank: int
    item: int
    interval: IntervalEstimate

    def as_dict(self) -> dict:
        return {"rank": self.rank, "item": self.item, **self.interval.as_dict()}


def _z(confidence: float) -> float:
    """Two-sided normal quantile for a central ``confidence`` interval."""
    if not 0.0 < confidence < 1.0:
        raise InvalidParameterError(
            f"confidence must be in (0, 1), got {confidence}"
        )
    return NormalDist().inv_cdf(0.5 + confidence / 2.0)


class QueryEngine:
    """Answer point / top-k / range / sliding queries over a release store.

    Parameters
    ----------
    store:
        The :class:`ReleaseStore` to answer from.  The engine never
        mutates it; one store may back many engines — stand a second
        engine over the same store for answers at another confidence
        level.
    confidence:
        Central-interval mass for every answer from this engine.
    """

    def __init__(self, store: ReleaseStore, *, confidence: float = 0.95):
        _z(confidence)  # validate eagerly
        self.store = store
        self.confidence = float(confidence)

    # ------------------------------------------------------------------
    @classmethod
    def from_result(
        cls,
        result,
        *,
        capacity: Optional[int] = None,
        confidence: float = 0.95,
    ) -> "QueryEngine":
        """Build an engine over a finalized run's full release history.

        ``result`` is a :class:`~repro.engine.records.SessionResult`, a
        saved-run payload dict, or a path to a :func:`repro.io.save_session`
        artifact.  Dicts and paths go through the schema-validated
        loaders, so a legacy (version-skewed), truncated, or otherwise
        corrupt artifact fails with a clear
        :class:`~repro.exceptions.InvalidParameterError` instead of a
        ``KeyError``.  The variance track is reconstructed from the
        per-step records with the same rule a live session uses, so
        answers are bit-identical to those of a store that was attached
        during the run.
        """
        from ..io import load_session, session_from_dict

        _z(confidence)  # validate eagerly, before any loading work
        if isinstance(result, (str, Path)):
            result = load_session(result)
        elif isinstance(result, Mapping):
            result = session_from_dict(result)
        oracle = get_oracle(result.oracle)
        store = ReleaseStore(result.domain_size, capacity=capacity)
        variance = PRIOR_VARIANCE
        if len(result.records) != result.horizon:
            raise InvalidParameterError(
                "session result lacks per-step records (trace-free run?); "
                "queries need the full trace"
            )
        for t, record in enumerate(result.records):
            variance = next_release_variance(
                oracle,
                record.strategy,
                record.publication_epsilon,
                record.publication_users,
                result.domain_size,
                variance,
            )
            store.append(
                t, result.releases[t], variance, record.strategy
            )
        return cls(store, confidence=confidence)

    @classmethod
    def from_shards(
        cls,
        stores,
        shard_users,
        *,
        capacity=_INHERIT,
        confidence: float = 0.95,
    ) -> "QueryEngine":
        """Build a cross-shard engine over per-shard release stores.

        ``stores[s]`` is shard ``s``'s :class:`ReleaseStore` (its
        ``shard_users[s]`` users' releases), as maintained by the
        sharded serving tier (:mod:`repro.serving`).  The shards merge
        through :meth:`ReleaseStore.merge` — population-weighted rows,
        cross-shard-independent variances, publication groups cut
        wherever any shard published — and every query then answers
        exactly as a single-process engine over the merged store would.
        ``capacity`` is the merged store's retention (``None`` = full
        history, same meaning as everywhere else; default: inherit the
        first shard store's).  See ``docs/SERVING.md`` for the
        merged-answer contract.
        """
        _z(confidence)  # validate eagerly, before any merging work
        store = ReleaseStore.merge(stores, shard_users, capacity=capacity)
        return cls(store, confidence=confidence)

    # ------------------------------------------------------------------
    def _resolve_t(self, t: Optional[int]) -> int:
        if t is None:
            return self.store.require_latest_t()
        return int(t)

    def _check_item(self, item: int) -> int:
        if not isinstance(item, (int, np.integer)):
            raise InvalidParameterError(f"item must be an int, got {item!r}")
        item = int(item)
        if not 0 <= item < self.store.domain_size:
            raise InvalidParameterError(
                f"item {item} outside the domain "
                f"[0, {self.store.domain_size})"
            )
        return item

    # ------------------------------------------------------------------
    # Point / top-k / range: one timestamp
    # ------------------------------------------------------------------
    def point(self, item: int, t: Optional[int] = None) -> IntervalEstimate:
        """Estimated frequency of ``item`` at ``t`` (default: latest)."""
        item = self._check_item(item)
        t = self._resolve_t(t)
        release = self.store.release_at(t)
        variance = self.store.variance_at(t)
        return IntervalEstimate(
            estimate=float(release[item]),
            stderr=float(np.sqrt(variance)),
            confidence=self.confidence,
        )

    def topk(self, k: int = 5, t: Optional[int] = None) -> List[TopKEntry]:
        """The ``k`` heaviest items at ``t``, by released estimate.

        ``k`` defaults to 5, matching the serve protocol and the DSL
        wire form.  Ties break toward the smaller item id (stable
        sort), so answers are deterministic and identical across
        solo/group executions of the same session.
        """
        t = self._resolve_t(t)
        d = self.store.domain_size
        if not 1 <= k <= d:
            raise InvalidParameterError(f"k must be in [1, {d}], got {k}")
        release = self.store.release_at(t)
        stderr = float(np.sqrt(self.store.variance_at(t)))
        order = np.argsort(-release, kind="stable")[:k]
        return [
            TopKEntry(
                rank=rank,
                item=int(item),
                interval=IntervalEstimate(
                    estimate=float(release[item]),
                    stderr=stderr,
                    confidence=self.confidence,
                ),
            )
            for rank, item in enumerate(order, start=1)
        ]

    def range_count(
        self, lo: int, hi: int, t: Optional[int] = None
    ) -> IntervalEstimate:
        """Total estimated frequency of the categorical range ``[lo, hi)``.

        An empty range (``lo == hi``) is a valid query: estimate 0 with a
        zero-width interval.  Cell noise is treated as independent, so
        the variance of the sum is ``(hi - lo) · V``.
        """
        d = self.store.domain_size
        if not (
            isinstance(lo, (int, np.integer))
            and isinstance(hi, (int, np.integer))
        ):
            raise InvalidParameterError(
                f"range bounds must be ints, got ({lo!r}, {hi!r})"
            )
        lo, hi = int(lo), int(hi)
        if not 0 <= lo <= hi <= d:
            raise InvalidParameterError(
                f"range [{lo}, {hi}) must satisfy 0 <= lo <= hi <= {d}"
            )
        t = self._resolve_t(t)
        if lo == hi:
            return IntervalEstimate(0.0, 0.0, self.confidence)
        release = self.store.release_at(t)
        variance = self.store.variance_at(t) * (hi - lo)
        return IntervalEstimate(
            estimate=float(release[lo:hi].sum()),
            stderr=float(np.sqrt(variance)),
            confidence=self.confidence,
        )

    # ------------------------------------------------------------------
    # Sliding-window aggregates: a [t0, t1] span
    # ------------------------------------------------------------------
    def sliding(
        self,
        t0: int,
        t1: int,
        agg: str = "sum",
        item: Optional[int] = None,
    ) -> IntervalEstimate:
        """Aggregate one item over the closed span ``[t0, t1]``.

        ``agg`` is ``sum``, ``mean`` or ``max``.  Sum/mean estimates run
        on the store's prefix sums (O(d) regardless of span length);
        their variance uses the exact publication-group correlation (a
        single O(span) scan — see module docstring).  ``max`` scans the
        retained span.  Spans touching evicted timestamps raise
        :class:`~repro.exceptions.EvictedSpanError`.
        """
        if item is None:
            raise InvalidParameterError(
                "sliding() answers one item; use sliding_vector() for the "
                "whole histogram"
            )
        item = self._check_item(item)
        estimates, stderrs = self.sliding_vector(t0, t1, agg)
        return IntervalEstimate(
            estimate=float(estimates[item]),
            stderr=float(stderrs[item]),
            confidence=self.confidence,
        )

    def sliding_vector(
        self, t0: int, t1: int, agg: str = "sum"
    ) -> tuple:
        """Per-item ``(estimates, stderrs)`` arrays for a span aggregate."""
        if agg not in _AGGREGATES:
            raise InvalidParameterError(
                f"agg must be one of {_AGGREGATES}, got {agg!r}"
            )
        store = self.store
        if agg == "max":
            block = store.span_releases(t0, t1)  # validates the span
            arg = np.argmax(block, axis=0)
            estimates = block[arg, np.arange(store.domain_size)]
            # One O(span) variance pass; per-cell variance_at lookups
            # would cost O(d · span) in deque indexing.
            variances = store.span_variances(t0, t1)[arg]
            return estimates, np.sqrt(variances)
        total = store.window_sum(t0, t1)
        variance = sum(
            count * count * var
            for _, count, var in store.span_publication_groups(t0, t1)
        )
        span = t1 - t0 + 1
        if agg == "mean":
            return total / span, np.full(
                store.domain_size, np.sqrt(variance) / span
            )
        return total, np.full(store.domain_size, np.sqrt(variance))

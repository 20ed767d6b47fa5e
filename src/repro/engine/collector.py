"""The collection engine: the only place raw user values are touched.

Mechanisms are *server-side strategies*.  They decide who reports and with
which budget, but the perturbation itself — the client side of Figures 2
and 3 — happens here, so that privacy accounting and communication metering
cannot be bypassed:

* every collection round charges the :class:`WEventAccountant`;
* every report increments the communication counter that backs the CFPU
  metric of Sections 5.4.3 / 6.3.3.

``fast=True`` uses the oracles' exact count-level samplers
(:meth:`~repro.freq_oracles.base.FrequencyOracle.sample_aggregate`);
``fast=False`` runs the literal per-user protocol.

Two per-timestamp facades exist: :class:`TimestepContext` binds one
timestamp for per-step mechanisms, and :class:`ChunkContext` binds a
contiguous span for bulk ingestion
(:meth:`~repro.engine.session.StreamSession.observe_many`) — its
:meth:`ChunkContext.collect_run` executes one FO round per selected
timestamp through the oracles' order-preserving run samplers, so chunked
collection is bit-identical to the per-step loop.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import InvalidParameterError
from ..freq_oracles import FOEstimate, FrequencyOracle, get_oracle
from ..rng import SeedLike, ensure_rng
from ..streams.base import StreamDataset
from .accountant import WEventAccountant
from .kernels_fast import block_histograms


class Collector:
    """Executes LDP collection rounds against a stream dataset."""

    def __init__(
        self,
        dataset: StreamDataset,
        oracle: FrequencyOracle,
        accountant: Optional[WEventAccountant],
        rng: SeedLike = None,
        fast: bool = True,
    ):
        self.dataset = dataset
        self.oracle = get_oracle(oracle)
        self.accountant = accountant
        self.rng = ensure_rng(rng)
        self.fast = bool(fast)
        self.total_reports = 0
        # Prepared-sampler memos, keyed by budget.  The oracles' affine
        # debias constants and draw scaffolding used to be rebuilt every
        # chunk; a session cycles through a handful of budgets (one M1
        # budget plus the publication budgets), so memoizing here makes
        # the setup once-per-session.  Pure caches — reconstructible from
        # (oracle, budget) — so they are deliberately absent from
        # state_dict(): a restored collector just re-warms them.
        self._run_samplers: dict = {}
        self._round_samplers: dict = {}

    def run_sampler(self, epsilon: float):
        """Memoized order-preserving run sampler for a fixed budget.

        ``sample(counts, rng)`` is bit-identical to
        ``oracle.sample_aggregate_run(counts, epsilon, rng=rng)`` (see
        :meth:`~repro.freq_oracles.base.FrequencyOracle.run_sampler`).
        """
        sampler = self._run_samplers.get(epsilon)
        if sampler is None:
            sampler = self.oracle.run_sampler(
                epsilon, self.dataset.domain_size
            )
            self._run_samplers[epsilon] = sampler
        return sampler

    def round_sampler(self, epsilon: float):
        """Memoized prepared single-round sampler for a fixed budget.

        ``sample(counts, rng)`` is bit-identical to
        ``oracle.sample_aggregate(counts, epsilon, rng=rng).frequencies``
        (see :meth:`~repro.freq_oracles.base.FrequencyOracle.round_sampler`).
        """
        sampler = self._round_samplers.get(epsilon)
        if sampler is None:
            sampler = self.oracle.round_sampler(
                epsilon, self.dataset.domain_size
            )
            self._round_samplers[epsilon] = sampler
        return sampler

    def collect(
        self,
        t: int,
        epsilon: float,
        user_ids: Optional[np.ndarray] = None,
        values: Optional[np.ndarray] = None,
    ) -> FOEstimate:
        """Run one FO round at timestamp ``t``.

        ``user_ids=None`` means *all* users report (budget division);
        otherwise only the given group reports (population division), each
        with budget ``epsilon``.  ``values`` is timestamp ``t``'s
        ``(n_users,)`` value row when the caller already holds it (a
        chunk's prefetched block); otherwise the dataset is read.
        """
        if values is None:
            values = self.dataset.values(t)
        if user_ids is not None:
            user_ids = np.asarray(user_ids, dtype=np.int64)
            if user_ids.size == 0:
                raise InvalidParameterError("cannot collect from an empty group")
            values = values[user_ids]
        n = int(values.shape[0])
        if self.accountant is not None:
            self.accountant.charge(t, user_ids, epsilon)
        self.total_reports += n
        d = self.dataset.domain_size
        if self.fast:
            counts = np.bincount(values, minlength=d)
            return self.oracle.sample_aggregate(counts, epsilon, rng=self.rng)
        reports = self.oracle.perturb(values, d, epsilon, rng=self.rng)
        return self.oracle.aggregate(reports, d, epsilon)

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Communication-meter state for :mod:`repro.persist` checkpoints.

        The collector's randomness is the shared session generator
        (captured separately) and the accountant checkpoints itself, so
        the report counter is the only state owned here.
        """
        return {"total_reports": self.total_reports}

    def load_state(self, state: dict) -> None:
        """Install state captured by :meth:`state_dict`."""
        self.total_reports = int(state["total_reports"])

    @staticmethod
    def merge(estimates: Sequence[FOEstimate], oracle) -> FOEstimate:
        """Merge per-shard estimates of one logical collection round.

        All five oracles debias an additive integer sufficient statistic
        (the support-count vector), so when a population is partitioned
        across shards that each ran the *same* round (same oracle, same
        epsilon, disjoint users), summing the shard supports in shard
        order and re-debiasing reproduces the whole-population estimate
        exactly: ``merge([aggregate(r_s) for s]) ==
        aggregate(concat(r_s))`` bit-for-bit.  Estimates lacking
        supports (hand-built ones) fall back to the count-weighted
        frequency merge ``f = Σ n_s f_s / n`` — algebraically identical,
        exact only up to float associativity.
        """
        estimates = list(estimates)
        if not estimates:
            raise InvalidParameterError("cannot merge zero estimates")
        oracle = get_oracle(oracle)
        epsilon = estimates[0].epsilon
        d = estimates[0].domain_size
        for est in estimates[1:]:
            if est.epsilon != epsilon:
                raise InvalidParameterError(
                    f"shard estimates mix budgets {epsilon} and "
                    f"{est.epsilon}; only same-round estimates merge"
                )
            if est.domain_size != d:
                raise InvalidParameterError(
                    f"shard estimates mix domain sizes {d} and "
                    f"{est.domain_size}"
                )
        n = sum(int(est.n_reports) for est in estimates)
        if all(est.supports is not None for est in estimates):
            supports = estimates[0].supports.astype(np.float64, copy=True)
            for est in estimates[1:]:
                supports += est.supports
            return oracle.estimate_from_supports(supports, n, d, epsilon)
        frequencies = estimates[0].n_reports * estimates[0].frequencies
        for est in estimates[1:]:
            frequencies = frequencies + est.n_reports * est.frequencies
        frequencies = frequencies / n
        variance = sum(
            (est.n_reports / n) ** 2 * est.variance for est in estimates
        )
        return FOEstimate(
            frequencies=frequencies,
            n_reports=n,
            epsilon=epsilon,
            variance=float(variance),
        )

    def collect_run(
        self,
        t0: int,
        offsets: Sequence[int],
        epsilon: float,
        values_block: np.ndarray,
        user_ids: Optional[Sequence[np.ndarray]] = None,
        counts: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Run one FO round at each of several timestamps of a chunk.

        ``offsets`` are ascending row indices into ``values_block`` (the
        ``(chunk, n_users)`` value matrix for timestamps ``t0, t0+1,
        ...``); round ``i`` collects at timestamp ``t0 + offsets[i]``.
        ``user_ids=None`` means all users report at every selected
        timestamp (``counts`` may pass their precomputed ``(k, d)`` true
        histograms); otherwise ``user_ids[i]`` is the reporting group of
        round ``i``.  Returns the ``(k, d)`` unbiased frequency
        estimates and the ``(k,)`` per-round report counts.

        Bit-identity with sequential :meth:`collect` calls: the true
        counts are the same integers, accounting charges run in the same
        timestamp order, and the draws go through the oracle's
        order-preserving :meth:`~repro.freq_oracles.base.FrequencyOracle.
        sample_aggregate_run` (or, under ``fast=False``, a literal
        per-round perturb/aggregate loop).  The one observable
        difference is failure timing: all of the chunk's accountant
        charges precede its draws, so a privacy violation raises before
        any of the chunk's estimates exist rather than mid-span —
        either way the session is left mid-step and unusable.
        """
        d = self.dataset.domain_size
        if user_ids is None:
            if counts is None:
                counts = np.empty((len(offsets), d), dtype=np.int64)
                for i, off in enumerate(offsets):
                    counts[i] = np.bincount(values_block[off], minlength=d)
            groups: List[Optional[np.ndarray]] = [None] * len(offsets)
        else:
            if len(user_ids) != len(offsets):
                raise InvalidParameterError(
                    "user_ids must align with offsets: "
                    f"{len(user_ids)} groups for {len(offsets)} rounds"
                )
            groups = [np.asarray(ids, dtype=np.int64) for ids in user_ids]
            if any(ids.size == 0 for ids in groups):
                raise InvalidParameterError("cannot collect from an empty group")
            counts = np.stack(
                [
                    np.bincount(values_block[off][ids], minlength=d)
                    for off, ids in zip(offsets, groups)
                ]
            )
        n_reports = counts.sum(axis=1)
        if self.accountant is not None:
            if user_ids is None:
                self.accountant.charge_many(
                    [t0 + off for off in offsets], epsilon
                )
            else:
                for off, ids in zip(offsets, groups):
                    self.accountant.charge(t0 + off, ids, epsilon)
        self.total_reports += int(n_reports.sum())
        if self.fast:
            frequencies = self.run_sampler(epsilon)(counts, self.rng)
        else:
            estimates = []
            for off, ids in zip(offsets, groups):
                values = values_block[off]
                if ids is not None:
                    values = values[ids]
                reports = self.oracle.perturb(values, d, epsilon, rng=self.rng)
                estimates.append(
                    self.oracle.aggregate(reports, d, epsilon).frequencies
                )
            frequencies = (
                np.stack(estimates)
                if estimates
                else np.empty((0, d), dtype=np.float64)
            )
        return frequencies, n_reports


class TimestepContext:
    """Per-timestamp facade handed to mechanisms.

    Binds the current timestamp so a mechanism cannot accidentally collect
    against the wrong ``t``, and exposes only what a server-side strategy
    legitimately needs: collection rounds plus static session facts.
    """

    def __init__(
        self,
        collector: Collector,
        t: int,
        values: Optional[np.ndarray] = None,
    ):
        self._collector = collector
        self.t = int(t)
        self._values = values

    @property
    def n_users(self) -> int:
        """Total population size ``N``."""
        return self._collector.dataset.n_users

    @property
    def domain_size(self) -> int:
        """Domain size ``d``."""
        return self._collector.dataset.domain_size

    @property
    def oracle(self) -> FrequencyOracle:
        """The frequency oracle in use (for closed-form error prediction)."""
        return self._collector.oracle

    def collect(
        self, epsilon: float, user_ids: Optional[np.ndarray] = None
    ) -> FOEstimate:
        """Collect LDP reports at the bound timestamp."""
        return self._collector.collect(
            self.t, epsilon, user_ids, values=self._values
        )


class ChunkContext:
    """Facade over a contiguous span of timestamps for bulk ingestion.

    Handed to :meth:`~repro.mechanisms.base.StreamMechanism.step_many`;
    covers timestamps ``t0, ..., t0 + length - 1``.  Every data access
    reads one prefetched value block — through the run primitives
    (:meth:`collect_run`, the cached :meth:`counts`) that chunk kernels
    use, or through the per-step :class:`TimestepContext`\\ s of
    :meth:`timesteps`, which carry their row of the block.  This is what
    makes chunking legal on sequential generative streams, whose
    per-timestamp snapshots are consumed as the block is built.
    """

    def __init__(
        self,
        collector: Collector,
        t0: int,
        length: int,
        *,
        values_block: Optional[np.ndarray] = None,
        counts: Optional[np.ndarray] = None,
    ):
        if length < 0:
            raise InvalidParameterError(
                f"chunk length must be non-negative, got {length}"
            )
        self._collector = collector
        self.t0 = int(t0)
        self.length = int(length)
        # The SoA scheduler fetches one shared value block (and its
        # histograms) per chunk and injects them into every member
        # session's context, so the per-session caches start warm and the
        # dataset is read exactly once per span.  Injected arrays must be
        # this dataset's values for [t0, t0 + length) — the scheduler
        # guarantees it; shapes are checked here.
        if values_block is not None and values_block.shape[0] != length:
            raise InvalidParameterError(
                f"injected values_block covers {values_block.shape[0]} "
                f"timestamps, expected {length}"
            )
        if counts is not None and counts.shape != (
            length,
            collector.dataset.domain_size,
        ):
            raise InvalidParameterError(
                f"injected counts have shape {counts.shape}, expected "
                f"({length}, {collector.dataset.domain_size})"
            )
        self._values_block: Optional[np.ndarray] = values_block
        self._counts: Optional[np.ndarray] = counts

    # ------------------------------------------------------------------
    @property
    def n_users(self) -> int:
        """Total population size ``N``."""
        return self._collector.dataset.n_users

    @property
    def domain_size(self) -> int:
        """Domain size ``d``."""
        return self._collector.dataset.domain_size

    @property
    def oracle(self) -> FrequencyOracle:
        """The frequency oracle in use (for closed-form error prediction)."""
        return self._collector.oracle

    # ------------------------------------------------------------------
    def values_block(self) -> np.ndarray:
        """The chunk's ``(length, n_users)`` value block (cached fetch).

        The first call pulls
        :meth:`~repro.streams.base.StreamDataset.values_range` — on
        sequential streams this consumes the span, so per-step dataset
        reads for the same timestamps are no longer legal.
        """
        if self._values_block is None:
            self._values_block = self._collector.dataset.values_range(
                self.t0, self.t0 + self.length
            )
        return self._values_block

    def counts(self) -> np.ndarray:
        """All-user true count histograms, shape ``(length, d)`` (cached).

        Row ``i`` holds the same integers as
        ``np.bincount(values(t0 + i), minlength=d)``.  Computed by
        :func:`~repro.engine.kernels_fast.block_histograms` — one
        bincount per row of the block.
        """
        if self._counts is None:
            self._counts = block_histograms(
                self.values_block(), self.domain_size
            )
        return self._counts

    def collect_run(
        self,
        epsilon: float,
        offsets: Optional[Sequence[int]] = None,
        user_ids: Optional[Sequence[np.ndarray]] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Collect one FO round per selected chunk offset, in order.

        ``offsets=None`` selects every timestamp of the chunk.  See
        :meth:`Collector.collect_run` for the bit-identity contract.
        """
        if offsets is None:
            offsets = range(self.length)
        offsets = [int(off) for off in offsets]
        if any(not 0 <= off < self.length for off in offsets) or any(
            a >= b for a, b in zip(offsets, offsets[1:])
        ):
            raise InvalidParameterError(
                f"offsets must be strictly ascending within "
                f"[0, {self.length}), got {offsets}"
            )
        counts = None
        if user_ids is None and (
            self._counts is not None or len(offsets) == self.length
        ):
            # Reuse (or warm) the full-chunk histogram cache only when it
            # pays for itself; sparse selections (e.g. LSP's one publish
            # per window) bincount just their own rows downstream.
            counts = self.counts()[np.asarray(offsets, dtype=np.int64)]
        return self._collector.collect_run(
            self.t0,
            offsets,
            epsilon,
            self.values_block(),
            user_ids=user_ids,
            counts=counts,
        )

    # ------------------------------------------------------------------
    # Prepared per-round collection (adaptive population kernels: LPD/LPA)
    # ------------------------------------------------------------------
    def round_collector(self, epsilon: float):
        """Build a prepared group-collection closure for a fixed budget.

        Returns ``collect(offset, user_ids) -> frequencies`` performing
        exactly what per-step :meth:`TimestepContext.collect` does for a
        non-empty group at ``t0 + offset`` — charge, meter, count, draw,
        in that order, on the same shared generator — with the per-call
        oracle setup hoisted via the collector's memoized
        :meth:`Collector.round_sampler` (built once per session budget,
        not once per chunk).
        The adaptive population mechanisms' pool draws interleave with
        their oracle draws, so their rounds cannot batch; this closure
        is their chunk kernel's hot path.
        """
        collector = self._collector
        accountant = collector.accountant
        oracle = collector.oracle
        rng = collector.rng
        d = self.domain_size
        block = self.values_block()
        t0 = self.t0

        if collector.fast:
            sampler = collector.round_sampler(epsilon)

            def collect(offset: int, user_ids: np.ndarray) -> np.ndarray:
                values = block[offset][user_ids]
                if accountant is not None:
                    accountant.charge(t0 + offset, user_ids, epsilon)
                collector.total_reports += values.shape[0]
                counts = np.bincount(values, minlength=d)
                return sampler(counts, rng)

        else:

            def collect(offset: int, user_ids: np.ndarray) -> np.ndarray:
                values = block[offset][user_ids]
                if accountant is not None:
                    accountant.charge(t0 + offset, user_ids, epsilon)
                collector.total_reports += values.shape[0]
                reports = oracle.perturb(values, d, epsilon, rng=rng)
                return oracle.aggregate(reports, d, epsilon).frequencies

        return collect

    def budget_round_runner(self):
        """Build a prepared all-user round closure ``run(offset, epsilon)``.

        Performs exactly what per-step :meth:`TimestepContext.collect`
        does for a full-population round at ``t0 + offset`` — charge,
        meter, count, draw, in that order, on the same shared generator —
        but with the oracle setup hoisted per distinct budget through the
        collector-level :meth:`Collector.round_sampler` memo (the
        adaptive budget mechanisms cycle through one M1 budget and a
        handful of publication budgets, so the memo persists across
        chunks, not just within one).  This closure is the whole chunk
        kernel of both adaptive budget mechanisms, LBD and LBA: an M2
        round depends on the M1 round before it, so their rounds run one
        at a time.
        """
        collector = self._collector
        accountant = collector.accountant
        oracle = collector.oracle
        rng = collector.rng
        d = self.domain_size
        n_users = self.n_users
        t0 = self.t0

        if collector.fast:
            counts = self.counts()

            def run(offset: int, epsilon: float) -> np.ndarray:
                if accountant is not None:
                    accountant.charge(t0 + offset, None, epsilon)
                collector.total_reports += n_users
                return collector.round_sampler(epsilon)(counts[offset], rng)

        else:
            block = self.values_block()

            def run(offset: int, epsilon: float) -> np.ndarray:
                if accountant is not None:
                    accountant.charge(t0 + offset, None, epsilon)
                collector.total_reports += n_users
                reports = oracle.perturb(block[offset], d, epsilon, rng=rng)
                return oracle.aggregate(reports, d, epsilon).frequencies

        return run

    # ------------------------------------------------------------------
    def timestep(self, offset: int) -> TimestepContext:
        """Per-step context for chunk offset ``offset``.

        It collects from row ``offset`` of the chunk's value block, so
        the base :meth:`~repro.mechanisms.base.StreamMechanism.step_many`
        loop never re-reads the dataset.
        """
        if not 0 <= offset < self.length:
            raise InvalidParameterError(
                f"offset {offset} outside chunk of length {self.length}"
            )
        return TimestepContext(
            self._collector,
            self.t0 + offset,
            values=self.values_block()[offset],
        )

    def timesteps(self) -> Iterator[TimestepContext]:
        """Iterate per-step contexts in timestamp order."""
        for offset in range(self.length):
            yield self.timestep(offset)

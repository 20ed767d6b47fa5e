"""Structure-of-arrays execution for :class:`~repro.engine.group.SessionGroup`.

Driving every session of a shared pass through its own chunk kernel
would still cost S histogram passes, S oracle setups and S rounds of
per-session Python dispatch for S sessions over the same chunk.  The
SoA scheduler turns the member sessions into the *inner* axis instead:

* one ``values_range`` fetch and one
  :func:`~repro.engine.kernels_fast.block_histograms` pass per chunk,
  shared by every session (the per-session
  :class:`~repro.engine.collector.ChunkContext` caches are pre-warmed
  with the shared arrays);
* sessions whose chunk is one all-user FO round per timestamp at a fixed
  budget (:meth:`~repro.mechanisms.base.StreamMechanism.
  uniform_run_epsilon`) are **bucketed** by (mechanism family, oracle,
  postprocess) and driven through a single stacked oracle call
  (:meth:`~repro.freq_oracles.base.FrequencyOracle.
  sample_aggregate_run_stacked`) that hoists the epsilon-independent
  setup — e.g. OUE/SUE's ``(B, 2, d)`` trial tensor — once per bucket
  instead of once per session;
* everything else ingests through
  :meth:`~repro.engine.session.StreamSession.ingest_prepared` with the
  shared block/histograms injected — its mechanism's chunk kernel, or
  for mechanisms without one (LPF, THRESH) the base per-step loop,
  whose timestep contexts read their rows of the same block.

Bit-identity argument
---------------------
Every session's output is bit-identical to its solo ``run_stream``:

* **RNG privacy.** Each session's draws come exclusively from its own
  generator.  The stacked samplers take one generator *per layer* and
  replay, for layer ``s``, exactly the generator-call sequence of that
  session's solo run sampler (the stacked trial/probability tensors are
  shared only where they are epsilon-independent *inputs*, never where
  randomness is drawn).  Stacking therefore changes which Python frame
  issues the calls, not the calls themselves.
* **Shared inputs are exact.** The value block is the same array a solo
  pass would read; histograms are exact integer counts; the shared truth
  block performs the same ``counts / n_users`` division.
* **Ledger order.** The fused path charges a session's whole span
  through :meth:`~repro.engine.accountant.PrivacyAccountant.charge_span`
  — the same per-timestamp charges in the same order as the chunk
  kernel's ``charge_many``.  The one observable deviation matches the
  one already documented on ``collect_run``: a privacy violation raises
  before the bucket's draws rather than mid-span.
* **Session order is immaterial.** Buckets regroup sessions within a
  chunk, but no state is shared across sessions except the read-only
  input arrays, so visit order cannot affect any session's bytes.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from .collector import ChunkContext
from .kernels_fast import block_histograms

__all__ = ["SoAScheduler"]


class SoAScheduler:
    """Chunked structure-of-arrays driver for one :class:`SessionGroup`.

    Stateless: all pass state (cursor, sessions) lives on the group, so
    a mid-pass :meth:`~repro.engine.group.SessionGroup.snapshot` /
    ``restore`` round trip resumes under a freshly built scheduler with
    no extra bookkeeping.
    """

    def __init__(self, group):
        self._group = group

    # ------------------------------------------------------------------
    def advance(self, t0: int, t1: int) -> None:
        """Ingest timestamps ``[t0, t1)`` into every member session."""
        group = self._group
        dataset = group.dataset
        n_users = dataset.n_users
        d = dataset.domain_size
        for b0 in range(t0, t1, group.truth_chunk):
            b1 = min(b0 + group.truth_chunk, t1)
            live = [s for s in group.sessions if s.horizon > b0]
            if not live:
                continue
            # One read, one counting pass, one truth division per chunk.
            block = dataset.values_range(b0, b1)
            counts = block_histograms(block, d)
            truth = counts.astype(np.float64) / n_users
            self._drive_chunk(live, b0, b1, block, counts, truth)

    def _drive_chunk(
        self,
        live: List,
        b0: int,
        b1: int,
        block: np.ndarray,
        counts: np.ndarray,
        truth: np.ndarray,
    ) -> None:
        length = b1 - b0
        fused: Dict[Tuple, List] = {}
        generic: List[Tuple] = []  # (session, span)
        for s in live:
            span = min(b1, s.horizon) - b0
            if (
                span == length
                and s.fast
                and s.mechanism.uniform_run_epsilon() is not None
            ):
                key = (
                    type(s.mechanism),
                    s.oracle.name,
                    s.postprocess_name,
                )
                fused.setdefault(key, []).append(s)
            else:
                generic.append((s, span))
        for bucket in fused.values():
            if len(bucket) < 2:
                # A stacked call over one layer hoists nothing; the
                # ordinary prepared kernel is the cheaper identical path.
                generic.extend((s, length) for s in bucket)
                continue
            self._drive_fused(bucket, b0, length, counts, truth)
        for s, span in generic:
            whole = span == length
            ctx = ChunkContext(
                s.collector,
                b0,
                span,
                values_block=block if whole else block[:span],
                counts=counts if whole else counts[:span],
            )
            s.ingest_prepared(ctx, truth if whole else truth[:span])

    def _drive_fused(
        self,
        bucket: List,
        t0: int,
        length: int,
        counts: np.ndarray,
        truth: np.ndarray,
    ) -> None:
        """One stacked oracle call for a whole bucket of sessions.

        Replays, per session, exactly what its chunk kernel's
        ``collect_run`` over the full span would do: charge the span,
        meter the reports, draw through the session's private generator
        (layer ``s`` of the stacked sampler), then absorb the records.
        """
        # Same integers as Collector.collect_run's per-session reduction
        # of the identical shared counts.
        n_reports = counts.sum(axis=1)
        reports_total = int(n_reports.sum())
        epsilons = [s.mechanism.uniform_run_epsilon() for s in bucket]
        for s, eps in zip(bucket, epsilons):
            accountant = s.collector.accountant
            if accountant is not None:
                accountant.charge_span(t0, length, eps)
            s.collector.total_reports += reports_total
        oracle = bucket[0].oracle
        stacked = oracle.sample_aggregate_run_stacked(
            counts, epsilons, [s.collector.rng for s in bucket]
        )
        for k, s in enumerate(bucket):
            records = s.mechanism.absorb_run(t0, stacked[k], n_reports)
            s._absorb_records(t0, length, truth, records)

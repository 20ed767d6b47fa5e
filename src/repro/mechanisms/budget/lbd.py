"""LBD — LDP Budget Distribution (Algorithm 1).

Adaptive budget division.  Each timestamp runs two sub-mechanisms:

* **M1** (lines 3-6): every user reports with the fixed dissimilarity
  budget ``eps/(2w)``; the server computes the unbiased dissimilarity
  ``dis`` of Theorem 5.2 against the last release.
* **M2** (lines 7-16): half of the *remaining* publication budget in the
  sliding window is pre-assigned (exponential decay across publications,
  like BD in the centralized setting); its closed-form error ``err`` is
  compared with ``dis``; publication happens only if the fresh estimate
  would beat the approximation.

The total spend per window is eps/2 (M1) + at most eps/2 (M2, geometric
series), so the mechanism is ``w``-event eps-LDP (Theorem 5.3).
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from ...engine.collector import ChunkContext, TimestepContext
from ...engine.kernels_fast import first_exceed
from ...engine.records import (
    STRATEGY_APPROXIMATE,
    STRATEGY_PUBLISH,
    StepRecord,
)
from ...streams.windows import SlidingWindowSum
from ..base import StreamMechanism, register_mechanism
from ..common import estimate_dissimilarity

#: Budgets below this are treated as unusable (publication error ~ infinite).
_MIN_USABLE_EPSILON = 1e-4

#: Quiet steps (no publish) before the kernel switches from sequential
#: rounds to speculative batching.  Right after a publication the next one
#: is usually only a few steps away — speculating there discards and
#: redraws most of its lookahead — while a stretch this long signals a
#: genuinely stable segment where batched lookahead draws will stand.
_QUIET_TRIGGER = 24

#: Don't bother speculating into a chunk remainder shorter than this:
#: a tiny batch pays the batched-sampler setup without amortizing it.
_SPECULATION_MIN = 8

#: Largest speculative sub-batch.  Batched draws are near their asymptotic
#: per-round cost by this size, and a mid-batch publish wastes at most one
#: sub-batch of draws (discarded tail plus replayed prefix).
_SUB_BATCH_MAX = 64


@register_mechanism
class LBD(StreamMechanism):
    """LDP Budget Distribution (Algorithm 1)."""

    name = "LBD"
    adaptive = True
    framework = "budget"

    def _setup(self) -> None:
        self._spent_publication = SlidingWindowSum(self.window)
        # Perf-only speculation hint (steps since the last publication);
        # deliberately not checkpointed — it never affects the output.
        self._quiet_run = 0

    def _state(self) -> dict:
        return {"spent_publication": self._spent_publication.state_dict()}

    def _load_state(self, state: dict) -> None:
        self._spent_publication.load_state(state["spent_publication"])

    def step(self, ctx: TimestepContext) -> StepRecord:
        # --- Sub-mechanism M1: private dissimilarity estimation ---------
        dissim_epsilon = self.epsilon / (2.0 * self.window)
        estimate_m1 = ctx.collect(dissim_epsilon)
        dis = estimate_dissimilarity(estimate_m1, self.last_release)
        reports = estimate_m1.n_reports

        # --- Sub-mechanism M2: strategy determination (lines 7-16) ------
        remaining = self.epsilon / 2.0 - self._spent_publication.window_sum(ctx.t)
        remaining = max(0.0, remaining)
        publication_epsilon = remaining / 2.0
        if publication_epsilon >= _MIN_USABLE_EPSILON:
            err = self.predicted_error(publication_epsilon, ctx.n_users)
        else:
            err = math.inf

        if dis > err:
            estimate_m2 = ctx.collect(publication_epsilon)
            self.last_release = estimate_m2.frequencies
            self._spent_publication.record(ctx.t, publication_epsilon)
            reports += estimate_m2.n_reports
            return StepRecord(
                t=ctx.t,
                release=estimate_m2.frequencies,
                strategy=STRATEGY_PUBLISH,
                publication_epsilon=publication_epsilon,
                publication_users=estimate_m2.n_reports,
                dissimilarity_users=estimate_m1.n_reports,
                reports=reports,
                dis=dis,
                err=err,
            )

        self._spent_publication.record(ctx.t, 0.0)
        return StepRecord(
            t=ctx.t,
            release=self.last_release,
            strategy=STRATEGY_APPROXIMATE,
            dissimilarity_users=estimate_m1.n_reports,
            reports=reports,
            dis=dis,
            err=err,
        )

    def step_many(self, ctx: ChunkContext) -> List[StepRecord]:
        """Hybrid chunk kernel, bit-identical to the :meth:`step` loop.

        Between two publications every round is a fixed-``eps/(2w)`` M1
        run, so when the observed publication cadence is long the kernel
        speculatively batch-draws M1 estimates for a lookahead of
        timestamps, scans the ``dis``/``err`` decisions (previewing the
        remaining-budget window without mutating it), and commits whole
        no-publish segments at once.  On the first publish decision it
        rewinds the generator to the segment start, redraws the valid M1
        prefix (bit-identical values — the run samplers are
        prefix-stable), performs the M2 draw from the
        now-correctly-positioned generator, and discards the speculated
        tail.  When a publication is likely near — right after one, when
        short segments would discard most of their lookahead — it
        instead runs rounds one at a time through the prepared
        :meth:`~repro.engine.collector.ChunkContext.budget_round_runner`
        (zero wasted draws, oracle setup hoisted), and only returns to
        speculation after a sustained publish-free quiet run.  See
        ``docs/ARCHITECTURE.md`` ("Bulk ingestion") for the RNG-order
        argument.
        """
        length = ctx.length
        if length == 0:
            return []
        records: List[StepRecord] = []
        n_users = ctx.n_users
        t0 = ctx.t0
        window = self._spent_publication
        eps_m1 = self.epsilon / (2.0 * self.window)
        half = self.epsilon / 2.0
        # Same float as every per-step estimate_m1.variance this chunk.
        var_m1 = self.predicted_error(eps_m1, n_users)
        err_cache: dict = {}
        run = None
        pos = 0
        while pos < length:
            if (
                self._quiet_run < _QUIET_TRIGGER
                or length - pos < _SPECULATION_MIN
            ):
                # --- Sequential mode: publication expected soon -------
                if run is None:
                    run = ctx.budget_round_runner()
                t = t0 + pos
                est = run(pos, eps_m1)
                diff = est - self.last_release
                dis = float(np.mean(diff * diff)) - var_m1
                remaining = half - window.window_sum(t)
                remaining = max(0.0, remaining)
                publication_epsilon = remaining / 2.0
                if publication_epsilon >= _MIN_USABLE_EPSILON:
                    err = err_cache.get(publication_epsilon)
                    if err is None:
                        err = self.predicted_error(
                            publication_epsilon, n_users
                        )
                        err_cache[publication_epsilon] = err
                else:
                    err = math.inf
                if dis > err:
                    release = run(pos, publication_epsilon)
                    self.last_release = release
                    window.record(t, publication_epsilon)
                    records.append(
                        StepRecord(
                            t=t,
                            release=release,
                            strategy=STRATEGY_PUBLISH,
                            publication_epsilon=publication_epsilon,
                            publication_users=n_users,
                            dissimilarity_users=n_users,
                            reports=2 * n_users,
                            dis=dis,
                            err=err,
                        )
                    )
                    self._quiet_run = 0
                else:
                    window.record(t, 0.0)
                    records.append(
                        StepRecord(
                            t=t,
                            release=self.last_release,
                            strategy=STRATEGY_APPROXIMATE,
                            dissimilarity_users=n_users,
                            reports=n_users,
                            dis=dis,
                            err=err,
                        )
                    )
                    self._quiet_run += 1
                pos += 1
                continue
            # --- Speculative mode: long quiet segments ----------------
            # The lookahead is drawn in growing sub-batches with a
            # generator checkpoint before each, so a mid-batch publish
            # discards and replays at most one sub-batch (bounded waste)
            # while long no-publish stretches still amortize the batched
            # draws.
            dis_scan: List[float] = []
            err_scan: List[float] = []
            publish_at = -1
            publish_eps = 0.0
            release = None
            scanned = 0
            sub = _SPECULATION_MIN
            while pos + scanned < length and publish_at < 0:
                count = min(sub, length - pos - scanned)
                base = pos + scanned
                state0 = ctx.rng_checkpoint()
                spec = ctx.speculate_run(eps_m1, range(base, base + count))
                diff = spec - self.last_release
                # Row-wise mean reduces each row with the same pairwise
                # summation as np.mean on the row view — bit-identical to
                # the per-step dissimilarity, one vectorized call.
                sq_means = (diff * diff).mean(axis=1)
                sums = window.preview(range(t0 + base, t0 + base + count))
                # Elementwise subtraction: each entry is the same float64
                # op as the per-step ``float(sq_means[i]) - var_m1``.
                dis_arr = sq_means - var_m1
                err_arr = np.empty(count, dtype=np.float64)
                for i in range(count):
                    remaining = half - sums[i]
                    remaining = max(0.0, remaining)
                    publication_epsilon = remaining / 2.0
                    if publication_epsilon >= _MIN_USABLE_EPSILON:
                        err = err_cache.get(publication_epsilon)
                        if err is None:
                            err = self.predicted_error(
                                publication_epsilon, n_users
                            )
                            err_cache[publication_epsilon] = err
                    else:
                        err = math.inf
                    err_arr[i] = err
                # Decision scan through the comparison kernel; records
                # only ever read scan entries up to the committed prefix,
                # so filling the whole sub-batch is record-identical to
                # the old break-at-hit loop.
                hit = first_exceed(dis_arr, err_arr)
                dis_scan.extend(dis_arr.tolist())
                err_scan.extend(err_arr.tolist())
                if hit >= 0:
                    publish_eps = max(0.0, half - sums[hit]) / 2.0
                if hit < 0:
                    # The whole sub-batch approximates: every speculative
                    # draw stands; commit its M1 charges in bulk and keep
                    # scanning with a doubled lookahead.
                    ctx.commit_run(eps_m1, range(base, base + count))
                    scanned += count
                    sub = min(sub * 2, _SUB_BATCH_MAX)
                    continue
                publish_at = scanned + hit
                keep = hit + 1
                if keep < count:
                    # Discard-and-replay: the tail draws are invalid.
                    # Rewinding to the sub-batch checkpoint and redrawing
                    # the prefix reproduces the exact speculated values
                    # while advancing the generator to where the per-step
                    # path would stand before the M2 draw.
                    ctx.rng_restore(state0)
                # One non-uniform bulk charge covers the committed M1
                # rounds plus the publication round at the same final
                # timestamp — the exact per-step ledger order.
                ctx.commit_run(
                    [eps_m1] * keep + [publish_eps],
                    list(range(base, base + keep)) + [base + hit],
                )
                if keep < count:
                    ctx.speculate_run(eps_m1, range(base, base + keep))
                release = ctx.speculate_run(publish_eps, [base + hit])[0]
                scanned += keep
            committed = scanned
            if publish_at < 0:
                self._quiet_run += committed
            else:
                # Back to sequential mode: right after a publication the
                # next one tends to follow within a few steps.
                self._quiet_run = 0
            for i in range(committed):
                t = t0 + pos + i
                publishing = i == publish_at
                # Replay the per-step eviction/append order exactly:
                # window_sum(t) evicts before the step's record lands.
                window.window_sum(t)
                if publishing:
                    self.last_release = release
                    window.record(t, publish_eps)
                    records.append(
                        StepRecord(
                            t=t,
                            release=release,
                            strategy=STRATEGY_PUBLISH,
                            publication_epsilon=publish_eps,
                            publication_users=n_users,
                            dissimilarity_users=n_users,
                            reports=2 * n_users,
                            dis=dis_scan[i],
                            err=err_scan[i],
                        )
                    )
                else:
                    window.record(t, 0.0)
                    records.append(
                        StepRecord(
                            t=t,
                            release=self.last_release,
                            strategy=STRATEGY_APPROXIMATE,
                            dissimilarity_users=n_users,
                            reports=n_users,
                            dis=dis_scan[i],
                            err=err_scan[i],
                        )
                    )
            pos += committed
        return records

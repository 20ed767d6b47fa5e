"""LBA — LDP Budget Absorption (Algorithm 2).

Adaptive budget division with uniform pre-allocation: every timestamp
notionally owns ``eps/(2w)`` of publication budget.  A publication absorbs
the unused budget of the timestamps skipped since the last publication
(capped at ``w``), and afterwards an equal number of timestamps are
*nullified* — forced to approximate — so that no window ever exceeds its
publication half-budget (Theorem 5.3, Appendix A.3).

M1 (dissimilarity with ``eps/(2w)``) runs at every timestamp, including
nullified ones, exactly as in Algorithm 2 line 3.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from ...engine.collector import ChunkContext, TimestepContext
from ...engine.kernels_fast import first_exceed
from ...engine.records import (
    STRATEGY_APPROXIMATE,
    STRATEGY_NULLIFIED,
    STRATEGY_PUBLISH,
    StepRecord,
)
from ..base import StreamMechanism, register_mechanism
from ..common import estimate_dissimilarity

#: Quiet steps (no publish) before the kernel switches from sequential
#: rounds to speculative batching (see :mod:`repro.mechanisms.budget.lbd`).
_QUIET_TRIGGER = 24

#: Don't speculate into a chunk remainder shorter than this (see LBD).
_SPECULATION_MIN = 8

#: Largest speculative sub-batch (see :mod:`repro.mechanisms.budget.lbd`).
_SUB_BATCH_MAX = 64


@register_mechanism
class LBA(StreamMechanism):
    """LDP Budget Absorption (Algorithm 2)."""

    name = "LBA"
    adaptive = True
    framework = "budget"

    def _setup(self) -> None:
        # Last publication timestamp and its budget (line 1).  With 0-based
        # timestamps the "no publication yet" state is l = -1, eps_l2 = 0,
        # matching the paper's (l = 0, eps_l2 = 0) at 1-based t = 1.
        self._last_publication_t = -1
        self._last_publication_epsilon = 0.0
        # Perf-only speculation hint (steps since the last publication);
        # deliberately not checkpointed — it never affects the output.
        self._quiet_run = 0

    def _state(self) -> dict:
        return {
            "last_publication_t": self._last_publication_t,
            "last_publication_epsilon": self._last_publication_epsilon,
        }

    def _load_state(self, state: dict) -> None:
        self._last_publication_t = int(state["last_publication_t"])
        self._last_publication_epsilon = float(
            state["last_publication_epsilon"]
        )

    def step(self, ctx: TimestepContext) -> StepRecord:
        # --- Sub-mechanism M1 (same as LBD) ------------------------------
        unit = self.epsilon / (2.0 * self.window)
        estimate_m1 = ctx.collect(unit)
        dis = estimate_dissimilarity(estimate_m1, self.last_release)
        reports = estimate_m1.n_reports

        # --- Nullification check (lines 4-6) ------------------------------
        to_nullify = self._last_publication_epsilon / unit - 1.0
        if ctx.t - self._last_publication_t <= to_nullify:
            return StepRecord(
                t=ctx.t,
                release=self.last_release,
                strategy=STRATEGY_NULLIFIED,
                dissimilarity_users=estimate_m1.n_reports,
                reports=reports,
                dis=dis,
            )

        # --- Absorption and strategy determination (lines 8-16) ----------
        absorbable = ctx.t - (self._last_publication_t + to_nullify)
        publication_epsilon = unit * min(absorbable, float(self.window))
        if publication_epsilon > 0:
            err = self.predicted_error(publication_epsilon, ctx.n_users)
        else:
            err = math.inf

        if dis > err:
            estimate_m2 = ctx.collect(publication_epsilon)
            self.last_release = estimate_m2.frequencies
            self._last_publication_t = ctx.t
            self._last_publication_epsilon = publication_epsilon
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

        Same hybrid sequential/speculative scheme as :meth:`LBD.step_many
        <repro.mechanisms.budget.lbd.LBD.step_many>`; LBA's decision
        scan is even simpler because between publications the
        nullification window and the absorbable budget are closed-form
        functions of the timestamp alone (the last-publication state is
        frozen until the next publish ends the segment).
        """
        length = ctx.length
        if length == 0:
            return []
        records: List[StepRecord] = []
        n_users = ctx.n_users
        t0 = ctx.t0
        w = self.window
        unit = self.epsilon / (2.0 * w)
        # Same float as every per-step estimate_m1.variance this chunk.
        var_m1 = self.predicted_error(unit, n_users)
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
                est = run(pos, unit)
                diff = est - self.last_release
                dis = float(np.mean(diff * diff)) - var_m1
                to_nullify = self._last_publication_epsilon / unit - 1.0
                if t - self._last_publication_t <= to_nullify:
                    records.append(
                        StepRecord(
                            t=t,
                            release=self.last_release,
                            strategy=STRATEGY_NULLIFIED,
                            dissimilarity_users=n_users,
                            reports=n_users,
                            dis=dis,
                        )
                    )
                    self._quiet_run += 1
                    pos += 1
                    continue
                absorbable = t - (self._last_publication_t + to_nullify)
                publication_epsilon = unit * min(absorbable, float(w))
                if publication_epsilon > 0:
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
                    self._last_publication_t = t
                    self._last_publication_epsilon = publication_epsilon
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
            # Growing sub-batches with a checkpoint before each: a
            # mid-batch publish discards and replays at most one
            # sub-batch (see LBD.step_many).  The last-publication state
            # is frozen until the publish that ends the segment, so the
            # whole scan is closed-form in the timestamp.
            last_t = self._last_publication_t
            to_nullify = self._last_publication_epsilon / unit - 1.0
            scan: List[tuple] = []  # (dis, err, nullified) per offset
            publish_at = -1
            publish_eps = 0.0
            release = None
            scanned = 0
            sub = _SPECULATION_MIN
            while pos + scanned < length and publish_at < 0:
                count = min(sub, length - pos - scanned)
                base = pos + scanned
                state0 = ctx.rng_checkpoint()
                spec = ctx.speculate_run(unit, range(base, base + count))
                diff = spec - self.last_release
                # Row-wise mean: bit-identical to per-row np.mean (same
                # pairwise summation per row), one vectorized call.
                sq_means = (diff * diff).mean(axis=1)
                # Elementwise subtraction: each entry is the same float64
                # op as the per-step ``float(sq_means[i]) - var_m1``.
                dis_arr = sq_means - var_m1
                err_arr = np.empty(count, dtype=np.float64)
                nullified_arr = []
                for i in range(count):
                    t = t0 + base + i
                    if t - last_t <= to_nullify:
                        # NaN never exceeds: ``dis > nan`` is False in
                        # both the numpy and compiled comparison kernels,
                        # so nullified rounds can never be the hit.
                        err_arr[i] = math.nan
                        nullified_arr.append(True)
                        continue
                    absorbable = t - (last_t + to_nullify)
                    publication_epsilon = unit * min(absorbable, float(w))
                    if publication_epsilon > 0:
                        err = err_cache.get(publication_epsilon)
                        if err is None:
                            err = self.predicted_error(
                                publication_epsilon, n_users
                            )
                            err_cache[publication_epsilon] = err
                    else:
                        err = math.inf
                    err_arr[i] = err
                    nullified_arr.append(False)
                # Decision scan through the (compiled-capable) comparison
                # kernel; records only read scan entries up to the
                # committed prefix, so filling the whole sub-batch is
                # record-identical to the old break-at-hit loop.
                hit = first_exceed(dis_arr, err_arr)
                scan.extend(
                    zip(dis_arr.tolist(), err_arr.tolist(), nullified_arr)
                )
                if hit >= 0:
                    t_hit = t0 + base + hit
                    absorbable = t_hit - (last_t + to_nullify)
                    publish_eps = unit * min(absorbable, float(w))
                if hit < 0:
                    ctx.commit_run(unit, range(base, base + count))
                    scanned += count
                    sub = min(sub * 2, _SUB_BATCH_MAX)
                    continue
                publish_at = scanned + hit
                keep = hit + 1
                if keep < count:
                    ctx.rng_restore(state0)
                ctx.commit_run(
                    [unit] * keep + [publish_eps],
                    list(range(base, base + keep)) + [base + hit],
                )
                if keep < count:
                    ctx.speculate_run(unit, range(base, base + keep))
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
                dis, err, nullified = scan[i]
                if i == publish_at:
                    self.last_release = release
                    self._last_publication_t = t
                    self._last_publication_epsilon = publish_eps
                    records.append(
                        StepRecord(
                            t=t,
                            release=release,
                            strategy=STRATEGY_PUBLISH,
                            publication_epsilon=publish_eps,
                            publication_users=n_users,
                            dissimilarity_users=n_users,
                            reports=2 * n_users,
                            dis=dis,
                            err=err,
                        )
                    )
                elif nullified:
                    records.append(
                        StepRecord(
                            t=t,
                            release=self.last_release,
                            strategy=STRATEGY_NULLIFIED,
                            dissimilarity_users=n_users,
                            reports=n_users,
                            dis=dis,
                        )
                    )
                else:
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
            pos += committed
        return records

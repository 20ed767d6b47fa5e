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
from ...engine.records import (
    STRATEGY_APPROXIMATE,
    STRATEGY_NULLIFIED,
    STRATEGY_PUBLISH,
    StepRecord,
)
from ..base import StreamMechanism, register_mechanism
from ..common import estimate_dissimilarity


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
        """Sequential chunk kernel, bit-identical to the :meth:`step` loop.

        Runs the rounds one at a time through the prepared
        :meth:`~repro.engine.collector.ChunkContext.budget_round_runner`
        (oracle setup hoisted out of the loop) and mirrors :meth:`step`
        decision for decision: nullify, absorb, publish or approximate.
        """
        length = ctx.length
        if length == 0:
            return []
        records: List[StepRecord] = []
        n_users = ctx.n_users
        d = ctx.domain_size
        t0 = ctx.t0
        w = self.window
        unit = self.epsilon / (2.0 * w)
        # Same float as every per-step estimate_m1.variance this chunk.
        var_m1 = self.predicted_error(unit, n_users)
        err_cache: dict = {}
        run = ctx.budget_round_runner()
        for pos in range(length):
            t = t0 + pos
            est = run(pos, unit)
            diff = est - self.last_release
            # np.mean's own pairwise sum and division, minus its dispatch.
            dis = float(np.add.reduce(diff * diff)) / d - var_m1
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
                continue
            absorbable = t - (self._last_publication_t + to_nullify)
            publication_epsilon = unit * min(absorbable, float(w))
            if publication_epsilon > 0:
                err = err_cache.get(publication_epsilon)
                if err is None:
                    err = self.predicted_error(publication_epsilon, n_users)
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
        return records

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


@register_mechanism
class LBD(StreamMechanism):
    """LDP Budget Distribution (Algorithm 1)."""

    name = "LBD"
    adaptive = True
    framework = "budget"

    def _setup(self) -> None:
        self._spent_publication = SlidingWindowSum(self.window)

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
        """Sequential chunk kernel, bit-identical to the :meth:`step` loop.

        Runs the rounds one at a time through the prepared
        :meth:`~repro.engine.collector.ChunkContext.budget_round_runner`
        (oracle setup hoisted out of the loop) and mirrors :meth:`step`
        decision for decision: M1 round, remaining-budget lookup, then
        publish or approximate.
        """
        length = ctx.length
        if length == 0:
            return []
        records: List[StepRecord] = []
        n_users = ctx.n_users
        d = ctx.domain_size
        t0 = ctx.t0
        window = self._spent_publication
        eps_m1 = self.epsilon / (2.0 * self.window)
        half = self.epsilon / 2.0
        # Same float as every per-step estimate_m1.variance this chunk.
        var_m1 = self.predicted_error(eps_m1, n_users)
        err_cache: dict = {}
        run = ctx.budget_round_runner()
        for pos in range(length):
            t = t0 + pos
            est = run(pos, eps_m1)
            diff = est - self.last_release
            # np.mean's own pairwise sum and division, minus its dispatch.
            dis = float(np.add.reduce(diff * diff)) / d - var_m1
            remaining = half - window.window_sum(t)
            remaining = max(0.0, remaining)
            publication_epsilon = remaining / 2.0
            if publication_epsilon >= _MIN_USABLE_EPSILON:
                err = err_cache.get(publication_epsilon)
                if err is None:
                    err = self.predicted_error(publication_epsilon, n_users)
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
        return records

"""LPU — LDP Population Uniform method (Section 6.1).

The population-division counterpart of LBU: users are split once into
``w`` disjoint groups of roughly ``N/w``; at each timestamp the next group
(round-robin) reports with the *entire* budget ``eps``.  Every user reports
at most once per window, so ``w``-event LDP holds by parallel composition,
and Theorem 6.1 proves MSE(LPU) < MSE(LBU) for GRR/OUE: ``V(eps, N/w)``
grows only linearly in ``w`` while ``V(eps/w, N)`` grows near-exponentially.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ...engine.collector import ChunkContext, TimestepContext
from ...engine.records import STRATEGY_PUBLISH, StepRecord
from ..base import StreamMechanism, register_mechanism


@register_mechanism
class LPU(StreamMechanism):
    """LDP Population Uniform: round-robin groups of ``N/w``, full budget."""

    name = "LPU"
    adaptive = False
    framework = "population"

    def _setup(self) -> None:
        permutation = self.rng.permutation(self.n_users)
        # Nearly equal groups: sizes differ by at most one (footnote 4).
        self._groups = [
            group.astype(np.int64)
            for group in np.array_split(permutation, self.window)
        ]

    def _state(self) -> dict:
        # The group split is a one-time random draw at setup; a restored
        # session must reuse the original partition, not redraw it.
        return {"groups": [group.copy() for group in self._groups]}

    def _load_state(self, state: dict) -> None:
        self._groups = [
            np.asarray(group, dtype=np.int64) for group in state["groups"]
        ]

    def step(self, ctx: TimestepContext) -> StepRecord:
        group = self._groups[ctx.t % self.window]
        estimate = ctx.collect(self.epsilon, user_ids=group)
        self.last_release = estimate.frequencies
        return StepRecord(
            t=ctx.t,
            release=estimate.frequencies,
            strategy=STRATEGY_PUBLISH,
            publication_epsilon=self.epsilon,
            publication_users=estimate.n_reports,
            reports=estimate.n_reports,
        )

    def step_many(self, ctx: ChunkContext) -> List[StepRecord]:
        # The round-robin group schedule is a pure function of t, so the
        # chunk's rounds batch directly.
        groups = [
            self._groups[(ctx.t0 + i) % self.window]
            for i in range(ctx.length)
        ]
        frequencies, n_reports = ctx.collect_run(
            self.epsilon, user_ids=groups
        )
        records = []
        for i in range(ctx.length):
            release = frequencies[i]
            reports = int(n_reports[i])
            records.append(
                StepRecord(
                    t=ctx.t0 + i,
                    release=release,
                    strategy=STRATEGY_PUBLISH,
                    publication_epsilon=self.epsilon,
                    publication_users=reports,
                    reports=reports,
                )
            )
        if ctx.length:
            self.last_release = records[-1].release
        return records

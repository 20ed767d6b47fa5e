"""LBU — LDP Budget Uniform method (Section 5.2.1).

The straightforward baseline: the window budget ``eps`` is split evenly
over the ``w`` timestamps, and *every* user reports through the FO with
``eps / w`` at *every* timestamp.  MSE is ``V(eps/w, N)`` which blows up
quickly with ``w`` because LDP noise is exponential in the inverse budget.
"""

from __future__ import annotations

from typing import List

from ...engine.collector import ChunkContext, TimestepContext
from ...engine.records import STRATEGY_PUBLISH, StepRecord
from ..base import StreamMechanism, register_mechanism


@register_mechanism
class LBU(StreamMechanism):
    """LDP Budget Uniform: ``eps/w`` per timestamp, all users report."""

    name = "LBU"
    adaptive = False
    framework = "budget"

    def step(self, ctx: TimestepContext) -> StepRecord:
        per_step_epsilon = self.epsilon / self.window
        estimate = ctx.collect(per_step_epsilon)
        self.last_release = estimate.frequencies
        return StepRecord(
            t=ctx.t,
            release=estimate.frequencies,
            strategy=STRATEGY_PUBLISH,
            publication_epsilon=per_step_epsilon,
            publication_users=estimate.n_reports,
            reports=estimate.n_reports,
        )

    def step_many(self, ctx: ChunkContext) -> List[StepRecord]:
        # Every timestamp collects from everyone with the same budget, so
        # the whole chunk is one batched run of FO rounds.
        frequencies, n_reports = ctx.collect_run(self.epsilon / self.window)
        return self.absorb_run(ctx.t0, frequencies, n_reports)

    def uniform_run_epsilon(self) -> float:
        # One all-user round at eps/w every timestamp: the shape the SoA
        # scheduler can fuse across a whole bucket of sessions.
        return self.epsilon / self.window

    def absorb_run(self, t0, frequencies, n_reports) -> List[StepRecord]:
        per_step_epsilon = self.epsilon / self.window
        records = []
        for i in range(frequencies.shape[0]):
            release = frequencies[i]
            reports = int(n_reports[i])
            records.append(
                StepRecord(
                    t=t0 + i,
                    release=release,
                    strategy=STRATEGY_PUBLISH,
                    publication_epsilon=per_step_epsilon,
                    publication_users=reports,
                    reports=reports,
                )
            )
        if records:
            self.last_release = records[-1].release
        return records

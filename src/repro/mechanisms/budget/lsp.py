"""LSP — LDP Sampling method (Section 5.2.2).

Invest the whole window budget ``eps`` at a single *sampling* timestamp
per window and approximate the following ``w - 1`` timestamps with that
release.  Excellent on static streams (fresh estimates use the full
budget), terrible at tracking changes — the approximation error
``(c_t - c_l)^2`` is unbounded by design.

Section 6.1 points out LSP is equally a degenerate population-division
method (one group holds everyone, the rest are empty), which is why the
paper plots it with the population family; its CFPU is ``1/w`` either way.
"""

from __future__ import annotations

from typing import List

from ...engine.collector import ChunkContext, TimestepContext
from ...engine.records import (
    STRATEGY_APPROXIMATE,
    STRATEGY_PUBLISH,
    StepRecord,
)
from ..base import StreamMechanism, register_mechanism


@register_mechanism
class LSP(StreamMechanism):
    """LDP Sampling: full ``eps`` every ``w`` timestamps, approximate between.

    Parameters
    ----------
    offset:
        Position of the sampling timestamp inside each window (default 0,
        i.e. publish at t = 0, w, 2w, ...).
    """

    name = "LSP"
    adaptive = False
    framework = "budget"

    def __init__(self, offset: int = 0):
        super().__init__()
        self.offset = int(offset)

    def _state(self) -> dict:
        # The sampling phase is constructor configuration, not derived
        # state — restore rebuilds LSP() with the default offset, so the
        # checkpoint must carry it.
        return {"offset": self.offset}

    def _load_state(self, state: dict) -> None:
        self.offset = int(state["offset"])

    def step(self, ctx: TimestepContext) -> StepRecord:
        if ctx.t % self.window == self.offset % self.window:
            estimate = ctx.collect(self.epsilon)
            self.last_release = estimate.frequencies
            return StepRecord(
                t=ctx.t,
                release=estimate.frequencies,
                strategy=STRATEGY_PUBLISH,
                publication_epsilon=self.epsilon,
                publication_users=estimate.n_reports,
                reports=estimate.n_reports,
            )
        return StepRecord(
            t=ctx.t,
            release=self.last_release,
            strategy=STRATEGY_APPROXIMATE,
        )

    def step_many(self, ctx: ChunkContext) -> List[StepRecord]:
        # The sampling schedule is a pure function of t, so the chunk's
        # publish timestamps are known up front; only they draw, in order.
        phase = self.offset % self.window
        publish_offsets = [
            i
            for i in range(ctx.length)
            if (ctx.t0 + i) % self.window == phase
        ]
        frequencies, n_reports = ctx.collect_run(
            self.epsilon, offsets=publish_offsets
        )
        records: List[StepRecord] = []
        cursor = 0
        for i in range(ctx.length):
            if cursor < len(publish_offsets) and publish_offsets[cursor] == i:
                release = frequencies[cursor]
                reports = int(n_reports[cursor])
                cursor += 1
                self.last_release = release
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
            else:
                records.append(
                    StepRecord(
                        t=ctx.t0 + i,
                        release=self.last_release,
                        strategy=STRATEGY_APPROXIMATE,
                    )
                )
        return records

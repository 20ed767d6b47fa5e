"""LPA — LDP Population Absorption (Algorithm 4).

The population-division analogue of LBA: every timestamp notionally owns a
publication group of ``⌊N/(2w)⌋`` users; a publication absorbs the unused
groups of the timestamps skipped since the last publication (capped at
``w``) and afterwards an equal number of timestamps are nullified so that
the publication population inside any window never exceeds ``N/2``
(Theorem 6.2, Appendix A.5).

M1 — a fresh ``⌊N/(2w)⌋``-user dissimilarity round with the full budget —
runs at every timestamp, including nullified ones (Alg. 4 line 3).
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

from ...engine.collector import ChunkContext, TimestepContext
from ...engine.population import UserPool
from ...engine.records import (
    STRATEGY_APPROXIMATE,
    STRATEGY_NULLIFIED,
    STRATEGY_PUBLISH,
    StepRecord,
)
from ...exceptions import InvalidParameterError
from ..base import StreamMechanism, register_mechanism
from ..common import estimate_dissimilarity

_EMPTY = np.empty(0, dtype=np.int64)


@register_mechanism
class LPA(StreamMechanism):
    """LDP Population Absorption (Algorithm 4)."""

    name = "LPA"
    adaptive = True
    framework = "population"

    def _setup(self) -> None:
        self._m1_size = self.n_users // (2 * self.window)
        if self._m1_size < 1:
            raise InvalidParameterError(
                f"population division needs N >= 2w users "
                f"(N={self.n_users}, w={self.window})"
            )
        self._pool = UserPool(self.n_users, seed=self.rng)
        self._history: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        # "No publication yet": l = -1 with an empty publication group.
        self._last_publication_t = -1
        self._last_publication_size = 0

    def _state(self) -> dict:
        return {
            "pool": self._pool.state_dict(),
            "history": [
                (t, m1.copy(), m2.copy())
                for t, (m1, m2) in sorted(self._history.items())
            ],
            "last_publication_t": self._last_publication_t,
            "last_publication_size": self._last_publication_size,
        }

    def _load_state(self, state: dict) -> None:
        self._pool.load_state(state["pool"])
        self._history = {
            int(t): (
                np.asarray(m1, dtype=np.int64),
                np.asarray(m2, dtype=np.int64),
            )
            for t, m1, m2 in state["history"]
        }
        self._last_publication_t = int(state["last_publication_t"])
        self._last_publication_size = int(state["last_publication_size"])

    def step(self, ctx: TimestepContext) -> StepRecord:
        # --- Sub-mechanism M1 (same as LPD) -------------------------------
        users_m1 = self._pool.sample(self._m1_size)
        estimate_m1 = ctx.collect(self.epsilon, user_ids=users_m1)
        dis = estimate_dissimilarity(estimate_m1, self.last_release)
        reports = estimate_m1.n_reports

        users_m2 = _EMPTY
        # --- Nullification check (lines 4-6) -------------------------------
        to_nullify = self._last_publication_size / self._m1_size - 1.0
        if ctx.t - self._last_publication_t <= to_nullify:
            record = StepRecord(
                t=ctx.t,
                release=self.last_release,
                strategy=STRATEGY_NULLIFIED,
                dissimilarity_users=estimate_m1.n_reports,
                reports=reports,
                dis=dis,
            )
        else:
            # --- Absorption & strategy determination (lines 8-18) ---------
            absorbable = ctx.t - (self._last_publication_t + to_nullify)
            n_potential = int(self._m1_size * min(absorbable, float(self.window)))
            if n_potential >= 1:
                err = self.predicted_error(self.epsilon, n_potential)
            else:
                err = math.inf

            if dis > err:
                users_m2 = self._pool.sample(n_potential)
                estimate_m2 = ctx.collect(self.epsilon, user_ids=users_m2)
                self.last_release = estimate_m2.frequencies
                self._last_publication_t = ctx.t
                self._last_publication_size = n_potential
                record = StepRecord(
                    t=ctx.t,
                    release=estimate_m2.frequencies,
                    strategy=STRATEGY_PUBLISH,
                    publication_epsilon=self.epsilon,
                    publication_users=estimate_m2.n_reports,
                    dissimilarity_users=estimate_m1.n_reports,
                    reports=reports + estimate_m2.n_reports,
                    dis=dis,
                    err=err,
                )
            else:
                record = StepRecord(
                    t=ctx.t,
                    release=self.last_release,
                    strategy=STRATEGY_APPROXIMATE,
                    dissimilarity_users=estimate_m1.n_reports,
                    reports=reports,
                    dis=dis,
                    err=err,
                )

        self._history[ctx.t] = (users_m1, users_m2)

        # --- Recycling (lines 20-22) --------------------------------------
        expired = ctx.t - self.window + 1
        if expired >= 0:
            m1_old, m2_old = self._history.pop(expired)
            self._pool.recycle(m1_old)
            self._pool.recycle(m2_old)
        return record

    def step_many(self, ctx: ChunkContext) -> List[StepRecord]:
        """Streamlined chunk kernel, bit-identical to the :meth:`step` loop.

        Same sequential shape as :meth:`LPD.step_many
        <repro.mechanisms.population.lpd.LPD.step_many>` — population
        draws interleave on the shared generator, so the kernel issues
        exactly the per-step draws and wins by hoisting the round
        collector and the pool/recycling fast paths.  The nullification
        and absorption state is carried in locals and written back once.
        """
        if ctx.length == 0:
            return []
        records: List[StepRecord] = []
        eps = self.epsilon
        w = self.window
        t0 = ctx.t0
        m1_size = self._m1_size
        pool = self._pool
        history = self._history
        collect = ctx.round_collector(eps)
        # Same float as every per-step estimate_m1.variance this chunk.
        var_m1 = self.predicted_error(eps, m1_size)
        err_cache: dict = {}
        last_release = self.last_release
        last_t = self._last_publication_t
        last_size = self._last_publication_size
        for i in range(ctx.length):
            t = t0 + i
            users_m1 = pool.sample_run(m1_size)
            frequencies = collect(i, users_m1)
            diff = frequencies - last_release
            dis = float(np.mean(diff * diff)) - var_m1

            users_m2 = _EMPTY
            to_nullify = last_size / m1_size - 1.0
            if t - last_t <= to_nullify:
                records.append(
                    StepRecord(
                        t=t,
                        release=last_release,
                        strategy=STRATEGY_NULLIFIED,
                        dissimilarity_users=m1_size,
                        reports=m1_size,
                        dis=dis,
                    )
                )
            else:
                absorbable = t - (last_t + to_nullify)
                n_potential = int(m1_size * min(absorbable, float(w)))
                if n_potential >= 1:
                    err = err_cache.get(n_potential)
                    if err is None:
                        err = self.predicted_error(eps, n_potential)
                        err_cache[n_potential] = err
                else:
                    err = math.inf

                if dis > err:
                    users_m2 = pool.sample_run(n_potential)
                    last_release = collect(i, users_m2)
                    last_t = t
                    last_size = n_potential
                    records.append(
                        StepRecord(
                            t=t,
                            release=last_release,
                            strategy=STRATEGY_PUBLISH,
                            publication_epsilon=eps,
                            publication_users=n_potential,
                            dissimilarity_users=m1_size,
                            reports=m1_size + n_potential,
                            dis=dis,
                            err=err,
                        )
                    )
                else:
                    records.append(
                        StepRecord(
                            t=t,
                            release=last_release,
                            strategy=STRATEGY_APPROXIMATE,
                            dissimilarity_users=m1_size,
                            reports=m1_size,
                            dis=dis,
                            err=err,
                        )
                    )

            history[t] = (users_m1, users_m2)
            expired = t - w + 1
            if expired >= 0:
                pool.recycle_run(*history.pop(expired))
        self.last_release = last_release
        self._last_publication_t = last_t
        self._last_publication_size = last_size
        return records

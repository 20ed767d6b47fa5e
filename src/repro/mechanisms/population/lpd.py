"""LPD — LDP Population Distribution (Algorithm 3).

The population-division analogue of LBD: instead of halving the remaining
*budget* for each publication, halve the remaining *publication users*.
Every report — dissimilarity or publication — uses the entire budget
``eps``; privacy comes from each user reporting at most once per window
(Theorem 6.2).

Per timestamp:

* **M1** (lines 3-6): sample ``⌊N/(2w)⌋`` dissimilarity users from the
  available pool ``U_A``; they report with full ``eps``; compute ``dis``.
* **M2** (lines 7-17): the remaining publication population in the window
  is ``N/2 - Σ|U_i,2|``; pre-assign half of it, predict the publication
  error ``V(eps, N_pp)``, and publish only if ``dis > err`` and the group
  is at least ``u_min`` users.
* **Recycling** (lines 18-20): users consumed at ``t - w + 1`` leave the
  active window and return to ``U_A``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

from ...engine.collector import ChunkContext, TimestepContext
from ...engine.population import UserPool
from ...engine.records import (
    STRATEGY_APPROXIMATE,
    STRATEGY_PUBLISH,
    StepRecord,
)
from ...exceptions import InvalidParameterError
from ...streams.windows import SlidingWindowSum
from ..base import StreamMechanism, register_mechanism
from ..common import estimate_dissimilarity

_EMPTY = np.empty(0, dtype=np.int64)


@register_mechanism
class LPD(StreamMechanism):
    """LDP Population Distribution (Algorithm 3).

    Parameters
    ----------
    u_min:
        Minimum viable publication group size (Alg. 3 line 10); protects
        against the exponentially decaying group size collapsing to a
        handful of users whose estimate would be pure noise.
    """

    name = "LPD"
    adaptive = True
    framework = "population"

    def __init__(self, u_min: int = 1):
        super().__init__()
        if u_min < 1:
            raise InvalidParameterError(f"u_min must be >= 1, got {u_min}")
        self.u_min = int(u_min)

    def _setup(self) -> None:
        self._m1_size = self.n_users // (2 * self.window)
        if self._m1_size < 1:
            raise InvalidParameterError(
                f"population division needs N >= 2w users "
                f"(N={self.n_users}, w={self.window})"
            )
        self._pool = UserPool(self.n_users, seed=self.rng)
        self._used_publication = SlidingWindowSum(self.window)
        self._history: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    def _state(self) -> dict:
        return {
            "u_min": self.u_min,
            "pool": self._pool.state_dict(),
            "used_publication": self._used_publication.state_dict(),
            "history": [
                (t, m1.copy(), m2.copy())
                for t, (m1, m2) in sorted(self._history.items())
            ],
        }

    def _load_state(self, state: dict) -> None:
        self.u_min = int(state["u_min"])
        self._pool.load_state(state["pool"])
        self._used_publication.load_state(state["used_publication"])
        self._history = {
            int(t): (
                np.asarray(m1, dtype=np.int64),
                np.asarray(m2, dtype=np.int64),
            )
            for t, m1, m2 in state["history"]
        }

    def step(self, ctx: TimestepContext) -> StepRecord:
        # --- Sub-mechanism M1: dissimilarity from fresh users (lines 3-6)
        users_m1 = self._pool.sample(self._m1_size)
        estimate_m1 = ctx.collect(self.epsilon, user_ids=users_m1)
        dis = estimate_dissimilarity(estimate_m1, self.last_release)
        reports = estimate_m1.n_reports

        # --- Sub-mechanism M2: users allocation & strategy (lines 7-17)
        remaining = self.n_users // 2 - int(
            self._used_publication.window_sum(ctx.t)
        )
        n_potential = max(0, remaining // 2)
        if n_potential >= self.u_min:
            err = self.predicted_error(self.epsilon, n_potential)
        else:
            err = math.inf

        if dis > err and n_potential >= self.u_min:
            users_m2 = self._pool.sample(n_potential)
            estimate_m2 = ctx.collect(self.epsilon, user_ids=users_m2)
            self.last_release = estimate_m2.frequencies
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
            users_m2 = _EMPTY
            record = StepRecord(
                t=ctx.t,
                release=self.last_release,
                strategy=STRATEGY_APPROXIMATE,
                dissimilarity_users=estimate_m1.n_reports,
                reports=reports,
                dis=dis,
                err=err,
            )

        self._used_publication.record(ctx.t, float(users_m2.size))
        self._history[ctx.t] = (users_m1, users_m2)

        # --- Recycling (lines 18-20): t-w+1 exits the next active window.
        expired = ctx.t - self.window + 1
        if expired >= 0:
            m1_old, m2_old = self._history.pop(expired)
            self._pool.recycle(m1_old)
            self._pool.recycle(m2_old)
        return record

    def step_many(self, ctx: ChunkContext) -> List[StepRecord]:
        """Streamlined chunk kernel, bit-identical to the :meth:`step` loop.

        Population division cannot batch rounds: every timestamp's pool
        draw and oracle draw interleave on the shared generator, and the
        group sizes feed the next decision.  So this kernel is a
        sequential loop that issues exactly the per-step draws, and its
        win is hoisting the per-step dispatch: one prepared
        round collector (validation and oracle setup hoisted) plus the
        pool/recycling fast paths.
        """
        if ctx.length == 0:
            return []
        records: List[StepRecord] = []
        eps = self.epsilon
        w = self.window
        t0 = ctx.t0
        m1_size = self._m1_size
        u_min = self.u_min
        half_users = self.n_users // 2
        pool = self._pool
        used = self._used_publication
        history = self._history
        collect = ctx.round_collector(eps)
        # Same float as every per-step estimate_m1.variance this chunk.
        var_m1 = self.predicted_error(eps, m1_size)
        err_cache: dict = {}
        last_release = self.last_release
        for i in range(ctx.length):
            t = t0 + i
            users_m1 = pool.sample(m1_size)
            frequencies = collect(i, users_m1)
            diff = frequencies - last_release
            dis = float(np.mean(diff * diff)) - var_m1

            remaining = half_users - int(used.window_sum(t))
            n_potential = max(0, remaining // 2)
            if n_potential >= u_min:
                err = err_cache.get(n_potential)
                if err is None:
                    err = self.predicted_error(eps, n_potential)
                    err_cache[n_potential] = err
            else:
                err = math.inf

            if dis > err and n_potential >= u_min:
                users_m2 = pool.sample(n_potential)
                last_release = collect(i, users_m2)
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
                users_m2 = _EMPTY
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

            used.record(t, float(users_m2.size))
            history[t] = (users_m1, users_m2)
            expired = t - w + 1
            if expired >= 0:
                pool.recycle_run(*history.pop(expired))
        self.last_release = last_release
        return records

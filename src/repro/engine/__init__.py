"""Collection engine: the simulated client/server system.

* :class:`Collector` / :class:`TimestepContext` / :class:`ChunkContext`
  — execute FO rounds (per timestamp or per chunk), meter communication.
* :class:`WEventAccountant` — runtime ``w``-event LDP budget ledger.
* :class:`UserPool` — disjoint-group sampling with recycling.
* :class:`StreamSession` — incremental standing query
  (``start``/``observe``/``finalize``) enabling unbounded online runs.
* :class:`SessionGroup` — many sessions over one shared stream pass.
* :class:`SoAScheduler` — structure-of-arrays group execution (shared
  value blocks, stacked oracle calls; see :mod:`repro.engine.soa`).
* :func:`run_stream` — one-call session driver returning
  :class:`SessionResult`.
"""

from .accountant import WEventAccountant
from .collector import ChunkContext, Collector, TimestepContext
from .group import SessionGroup
from .population import UserPool
from .soa import SoAScheduler
from .records import (
    STRATEGY_APPROXIMATE,
    STRATEGY_NULLIFIED,
    STRATEGY_PUBLISH,
    SessionResult,
    StepRecord,
)
from .session import DEFAULT_CHUNK, StreamSession, run_stream

__all__ = [
    "WEventAccountant",
    "Collector",
    "TimestepContext",
    "ChunkContext",
    "DEFAULT_CHUNK",
    "UserPool",
    "SessionResult",
    "StepRecord",
    "STRATEGY_PUBLISH",
    "STRATEGY_APPROXIMATE",
    "STRATEGY_NULLIFIED",
    "StreamSession",
    "SessionGroup",
    "SoAScheduler",
    "run_stream",
]

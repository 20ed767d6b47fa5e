"""Structure-of-arrays execution for :class:`~repro.engine.group.SessionGroup`.

Driving every session of a shared pass through its own chunk kernel
would still cost S value fetches and S histogram passes for S sessions
over the same chunk.  The SoA scheduler turns the member sessions into
the *inner* axis instead:

* one ``values_range`` fetch and one
  :func:`~repro.engine.kernels_fast.block_histograms` pass per chunk,
  shared by every session (the per-session
  :class:`~repro.engine.collector.ChunkContext` caches are pre-warmed
  with the shared arrays);
* every session then ingests through
  :meth:`~repro.engine.session.StreamSession.ingest_prepared` with the
  shared block/histograms injected — its mechanism's chunk kernel, or
  for mechanisms without one (LPF, THRESH) the base per-step loop,
  whose timestep contexts read their rows of the same block.

Bit-identity argument
---------------------
Every session's output is bit-identical to its solo ``run_stream``:

* **RNG privacy.** Each session's draws come exclusively from its own
  generator, through its own chunk kernel — exactly the calls a solo
  run issues.
* **Shared inputs are exact.** The value block is the same array a solo
  pass would read; histograms are exact integer counts; the shared truth
  block performs the same ``counts / n_users`` division.
* **Session order is immaterial.** No state is shared across sessions
  except the read-only input arrays, so visit order cannot affect any
  session's bytes.
"""

from __future__ import annotations

import numpy as np

from .collector import ChunkContext
from .kernels_fast import block_histograms

__all__ = ["SoAScheduler"]


class SoAScheduler:
    """Chunked structure-of-arrays driver for one :class:`SessionGroup`.

    Stateless: all pass state (cursor, sessions) lives on the group, so
    a mid-pass :meth:`~repro.engine.group.SessionGroup.snapshot` /
    ``restore`` round trip resumes under a freshly built scheduler with
    no extra bookkeeping.
    """

    def __init__(self, group):
        self._group = group

    # ------------------------------------------------------------------
    def advance(self, t0: int, t1: int) -> None:
        """Ingest timestamps ``[t0, t1)`` into every member session."""
        group = self._group
        dataset = group.dataset
        n_users = dataset.n_users
        d = dataset.domain_size
        for b0 in range(t0, t1, group.truth_chunk):
            b1 = min(b0 + group.truth_chunk, t1)
            live = [s for s in group.sessions if s.horizon > b0]
            if not live:
                continue
            # One read, one counting pass, one truth division per chunk.
            block = dataset.values_range(b0, b1)
            counts = block_histograms(block, d)
            truth = counts.astype(np.float64) / n_users
            length = b1 - b0
            for s in live:
                span = min(b1, s.horizon) - b0
                whole = span == length
                ctx = ChunkContext(
                    s.collector,
                    b0,
                    span,
                    values_block=block if whole else block[:span],
                    counts=counts if whole else counts[:span],
                )
                s.ingest_prepared(ctx, truth if whole else truth[:span])

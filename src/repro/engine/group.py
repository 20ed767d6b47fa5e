"""Shared-pass multi-session engine.

A parameter sweep runs the *same dataset* under many configurations
(mechanism × epsilon × window × oracle × postprocess).  Executed naively,
every configuration re-simulates the stream and recomputes the true
frequencies from scratch, so a 7-mechanism × 4-epsilon grid pays for 28
stream passes to do 1 pass worth of data work.  Generation is not the
dominant cost of a pass (``perfbench/PROFILE.md`` measured Taxi
generation at 8 % of a shared sweep pass, the LPD/LPA mechanism work at
62 %), but per-cell execution pays it once per cell.

:class:`SessionGroup` runs many :class:`~repro.engine.session.StreamSession`
standing queries over a **single pass** of one dataset: each timestamp's
user values are produced once and its true-frequency histogram is computed
once, then fanned out to every session.

Determinism argument
--------------------
Each session's output is bit-identical to a solo
:func:`~repro.engine.session.run_stream` at the same seed because

* every session owns a private RNG — mechanism randomness and
  perturbation randomness never cross sessions;
* user values are a pure function of the dataset seed and the timestamp
  (generative streams replay bit-identically after ``reset()``), so one
  shared pass serves every session the exact arrays a solo pass would;
* true frequencies are a deterministic function of the values, so the
  group-computed histogram equals what each session would compute itself;
* sessions are advanced in timestamp order, which is the only order a
  solo run ever uses.

Execution
---------
The pass runs through the structure-of-arrays scheduler
(:mod:`repro.engine.soa`): one shared value block and one histogram pass
per ``truth_chunk`` span and pre-warmed chunk contexts for every
session.  Because every session reads the span only through the
prefetched block (chunk kernels and the base per-step loop alike), this
applies to sequential generative streams too: the block consumes the
span once, for everyone.
"""

from __future__ import annotations

import operator
from typing import List, Optional

from ..exceptions import InvalidParameterError
from ..query.store import ReleaseStore
from ..rng import SeedLike
from ..streams.base import GenerativeStream, StreamDataset
from .records import SessionResult
from .session import StreamSession
from .soa import SoAScheduler

#: Timestamps per shared value-block prefetch.
_TRUTH_CHUNK = 128


class SessionGroup:
    """Run many streaming sessions over one pass of a shared dataset.

    Parameters
    ----------
    dataset:
        The stream every session observes.
    horizon:
        Default horizon for sessions added without one; falls back to
        the dataset's horizon.
    truth_chunk:
        Bulk-ingestion span: timestamps per batched value/truth prefetch
        and per
        :meth:`~repro.engine.session.StreamSession.observe_many` call.
    """

    def __init__(
        self,
        dataset: StreamDataset,
        *,
        horizon: Optional[int] = None,
        truth_chunk: int = _TRUTH_CHUNK,
    ):
        try:
            truth_chunk = operator.index(truth_chunk)
        except TypeError:
            raise InvalidParameterError(
                f"truth_chunk must be an integer, got {truth_chunk!r}"
            ) from None
        if truth_chunk < 1:
            raise InvalidParameterError(
                f"truth_chunk must be >= 1, got {truth_chunk}"
            )
        self.dataset = dataset
        self.horizon = horizon if horizon is not None else dataset.horizon
        self.truth_chunk = truth_chunk
        self._sessions: List[StreamSession] = []
        self._ran = False
        self._started = False
        self._cursor = 0

    # ------------------------------------------------------------------
    def add_session(
        self,
        mechanism,
        epsilon: float,
        window: int,
        *,
        oracle="grr",
        seed: SeedLike = None,
        horizon: Optional[int] = None,
        fast: bool = True,
        postprocess: str = "none",
        enforce_privacy: bool = True,
        store: Optional[ReleaseStore] = None,
    ) -> StreamSession:
        """Register one session on the shared pass and return it.

        ``seed`` must be session-private (an int, SeedSequence, or a
        dedicated Generator) — handing several sessions the same live
        Generator would interleave their draws and break the solo
        equivalence.  ``store`` attaches a session-private
        :class:`~repro.query.ReleaseStore` the session publishes into
        during the pass (one store per session — stores track a single
        release sequence).
        """
        if self._ran:
            raise InvalidParameterError(
                "cannot add sessions after the group has run"
            )
        steps = horizon if horizon is not None else self.horizon
        if steps is None:
            raise InvalidParameterError(
                "a session horizon is required on unbounded streams"
            )
        if steps <= 0:
            raise InvalidParameterError(
                f"horizon must be positive, got {steps}"
            )
        session = StreamSession(
            mechanism,
            self.dataset,
            epsilon,
            window,
            horizon=int(steps),
            oracle=oracle,
            seed=seed,
            fast=fast,
            postprocess=postprocess,
            enforce_privacy=enforce_privacy,
            store=store,
        )
        self._sessions.append(session)
        return session

    def attach_stores(
        self, capacity: Optional[int] = None
    ) -> List[ReleaseStore]:
        """Fan one release store out to every registered session.

        Sessions that already own a store keep it; the returned list has
        one store per session, in ``add_session`` order, so callers can
        stand a :class:`~repro.query.QueryEngine` over each.
        """
        if self._ran:
            raise InvalidParameterError(
                "cannot attach stores after the group has run"
            )
        stores: List[ReleaseStore] = []
        for session in self._sessions:
            if session.store is None:
                session.attach_store(capacity)
            stores.append(session.store)
        return stores

    def __len__(self) -> int:
        return len(self._sessions)

    @property
    def sessions(self) -> List[StreamSession]:
        """Registered sessions, in ``add_session`` order."""
        return list(self._sessions)

    @property
    def cursor(self) -> int:
        """Next timestamp the shared pass will ingest."""
        return self._cursor

    @property
    def steps(self) -> int:
        """Total timestamps the pass covers (largest session horizon)."""
        if not self._sessions:
            return 0
        return max(s.horizon for s in self._sessions)

    # ------------------------------------------------------------------
    def run(self) -> List[SessionResult]:
        """Execute the single shared pass; results in ``add_session`` order.

        Equivalent to calling :func:`~repro.engine.session.run_stream`
        once per session (rewinding generative streams in between), but
        the stream is generated and the truth histograms are computed
        exactly once.  Composed from the incremental pass API below —
        drive :meth:`start_pass` / :meth:`advance_to` /
        :meth:`finalize_all` directly to pause (and checkpoint) the pass
        mid-stream.
        """
        if self._ran:
            raise InvalidParameterError("group has already run")
        if not self._sessions:
            self._ran = True
            return []
        self.start_pass()
        self.advance_to(self.steps)
        return self.finalize_all()

    def start_pass(self) -> "SessionGroup":
        """Begin the shared pass: rewind the stream, start every session."""
        if self._ran:
            raise InvalidParameterError("group has already run")
        if not self._sessions:
            raise InvalidParameterError(
                "cannot start a pass with no sessions"
            )
        self._ran = True
        self._started = True
        if isinstance(self.dataset, GenerativeStream):
            self.dataset.reset()
        for session in self._sessions:
            session.start()
        return self

    def advance_to(self, target: int) -> int:
        """Ingest shared-pass timestamps up to (excluding) ``target``.

        Clamped to the pass length; a ``target`` at or behind the cursor
        is a no-op.  Returns the new cursor.  Chunk boundaries are
        relative to the *current* cursor, which is safe because
        :meth:`~repro.engine.session.StreamSession.observe_many` is
        bit-identical at any chunk size — a resumed pass whose chunks no
        longer align with the original's produces the same bytes.
        """
        if not self._started:
            raise InvalidParameterError(
                "call start_pass() before advance_to()"
            )
        target = min(int(target), self.steps)
        if target <= self._cursor:
            return self._cursor
        SoAScheduler(self).advance(self._cursor, target)
        self._cursor = target
        return self._cursor

    def finalize_all(self) -> List[SessionResult]:
        """Finalize every session; results in ``add_session`` order."""
        if not self._started:
            raise InvalidParameterError(
                "call start_pass() before finalize_all()"
            )
        return [session.finalize() for session in self._sessions]

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-safe checkpoint payload of the mid-pass group.

        Captures the pass cursor plus every member session's full
        snapshot; restore with :meth:`restore`.  Legal any time between
        :meth:`start_pass` and :meth:`finalize_all`.
        """
        from ..persist.checkpoint import capture_group

        return capture_group(self)

    @classmethod
    def restore(
        cls, payload: dict, dataset: StreamDataset, *, position: bool = True
    ) -> "SessionGroup":
        """Rebuild a mid-pass group from a :meth:`snapshot` payload.

        The shared ``dataset`` is positioned once to the group cursor
        (member sessions never reposition it individually).
        """
        from ..persist.checkpoint import restore_group

        return restore_group(payload, dataset, position=position)

    def _adopt(self, sessions: List[StreamSession], cursor: int) -> None:
        """Install restored members mid-pass (checkpoint machinery only)."""
        self._sessions = list(sessions)
        self._ran = True
        self._started = True
        self._cursor = int(cursor)

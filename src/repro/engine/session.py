"""Incremental session core: standing ``w``-event LDP stream queries.

:class:`StreamSession` is the library's execution primitive — a *standing
query* over a value stream.  It wires a dataset, a frequency oracle, a
privacy accountant and a mechanism together and advances them one
timestamp at a time:

* :meth:`StreamSession.start` initialises all per-session state;
* :meth:`StreamSession.observe` ingests one timestamp (mechanism step,
  accounting, postprocessing, trace bookkeeping);
* :meth:`StreamSession.observe_many` ingests a contiguous chunk of
  timestamps in one call — bit-identical to the equivalent ``observe()``
  loop, but with the per-step interpreter overhead amortised across the
  chunk (vectorized mechanism kernels, batched truth histograms, bulk
  trace/store bookkeeping);
* :meth:`StreamSession.finalize` closes the session and returns the
  :class:`~repro.engine.records.SessionResult` with everything the
  paper's metrics need.

Because the session owns no loop, it supports true unbounded online
ingestion (the "infinite" in LDP-IDS): callers may push timestamps
forever — e.g. the ``repro stream`` CLI feeding an
:class:`~repro.streams.online.OnlineStream` from a pipe — and disable
trace recording to keep memory constant.  Many sessions can also share a
single pass over one dataset via
:class:`~repro.engine.group.SessionGroup`.

:func:`run_stream` remains the one-call entry point: it builds a session,
observes ``horizon`` timestamps and finalizes.  Its results are
bit-identical to the historical monolithic loop — the session performs
the same operations on the same RNG in the same order.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..exceptions import InvalidParameterError
from ..freq_oracles import get_oracle
from ..freq_oracles.postprocess import get_postprocessor
from ..mechanisms.base import StreamMechanism, get_mechanism
from ..query.propagation import PRIOR_VARIANCE, next_release_variance
from ..query.store import ReleaseStore
from ..rng import SeedLike, ensure_rng
from ..streams.base import StreamDataset
from .accountant import WEventAccountant
from .collector import ChunkContext, Collector, TimestepContext
from .records import STRATEGY_PUBLISH, SessionResult, StepRecord

#: Chunk size :func:`run_stream` ingests with when none is requested.
DEFAULT_CHUNK = 256


class StreamSession:
    """One incremental ``w``-event LDP streaming session.

    Parameters mirror :func:`run_stream`; in addition:

    horizon:
        Optional number of timestamps the session intends to run.  Unlike
        :func:`run_stream` this may stay ``None`` even on unbounded
        streams — an online session simply keeps observing.
    record_trace:
        Keep per-timestamp releases / truths / records for
        :meth:`finalize` (default).  Disable for unbounded online
        sessions so memory stays O(1); running counters and
        :meth:`summary` remain available.
    store:
        Optional :class:`~repro.query.ReleaseStore` the session
        publishes every (postprocessed) release into, along with its
        variance-propagation metadata — the substrate for live
        :class:`~repro.query.QueryEngine` queries.  A capacity-bounded
        store plus ``record_trace=False`` serves standing queries over
        an unbounded stream in O(capacity · d) memory.

    Lifecycle: ``start()`` → ``observe(t)`` for t = 0, 1, 2, ... →
    ``finalize()``.  Timestamps must be observed in order, exactly once.
    """

    def __init__(
        self,
        mechanism,
        dataset: StreamDataset,
        epsilon: float,
        window: int,
        *,
        horizon: Optional[int] = None,
        oracle="grr",
        seed: SeedLike = None,
        fast: bool = True,
        postprocess: str = "none",
        enforce_privacy: bool = True,
        record_trace: bool = True,
        store: Optional[ReleaseStore] = None,
    ):
        if horizon is not None and horizon <= 0:
            raise InvalidParameterError(
                f"horizon must be positive, got {horizon}"
            )
        if store is not None and store.domain_size != dataset.domain_size:
            raise InvalidParameterError(
                f"store domain_size {store.domain_size} != dataset "
                f"domain_size {dataset.domain_size}"
            )
        # Resolution order matches the historical run_stream loop exactly;
        # nothing here draws from the RNG, but keeping the order frozen
        # makes the bit-identity argument a pure refactoring one.
        self.rng = ensure_rng(seed)
        self.oracle = get_oracle(oracle)
        self.mechanism: StreamMechanism = get_mechanism(mechanism)
        self.postprocess_name = str(postprocess)
        self.postprocessor = get_postprocessor(postprocess)
        self.dataset = dataset
        self.epsilon = float(epsilon)
        self.window = int(window)
        self.horizon = None if horizon is None else int(horizon)
        self.fast = bool(fast)
        self.enforce_privacy = bool(enforce_privacy)
        self.record_trace = bool(record_trace)
        self.store = store
        self._release_variance = PRIOR_VARIANCE

        self.accountant: Optional[WEventAccountant] = None
        self.collector: Optional[Collector] = None
        self._releases: list = []
        self._true_frequencies: list = []
        self._records: list = []
        self._next_t = 0
        self._publications = 0
        self._started = False
        self._finalized = False

    # ------------------------------------------------------------------
    @property
    def steps_observed(self) -> int:
        """Number of timestamps ingested so far."""
        return self._next_t

    @property
    def publication_count(self) -> int:
        """Fresh publications so far (running counter, trace-free)."""
        return self._publications

    @property
    def total_reports(self) -> int:
        """LDP reports collected so far."""
        return 0 if self.collector is None else self.collector.total_reports

    @property
    def max_window_spend(self) -> float:
        """Largest per-user window spend the accountant has observed."""
        return 0.0 if self.accountant is None else self.accountant.max_window_spend

    # ------------------------------------------------------------------
    def attach_store(self, capacity: Optional[int] = None) -> ReleaseStore:
        """Create, attach and return a release store for this session.

        Must run before the first :meth:`observe` so the store sees the
        whole stream (ring eviction then bounds what it *retains*, not
        what it saw).  ``capacity=None`` retains the full history.
        """
        if self.store is not None:
            raise InvalidParameterError("session already has a store")
        if self._next_t:
            raise InvalidParameterError(
                "attach_store() must run before the first observe()"
            )
        self.store = ReleaseStore(self.dataset.domain_size, capacity=capacity)
        return self.store

    def start(self) -> "StreamSession":
        """Initialise mechanism, accountant and collector state."""
        if self._started:
            raise InvalidParameterError("session already started")
        self.mechanism.setup(
            n_users=self.dataset.n_users,
            domain_size=self.dataset.domain_size,
            epsilon=self.epsilon,
            window=self.window,
            oracle=self.oracle,
            rng=self.rng,
        )
        self.accountant = WEventAccountant(
            n_users=self.dataset.n_users,
            epsilon=self.epsilon,
            window=self.window,
            enforce=self.enforce_privacy,
        )
        self.collector = Collector(
            dataset=self.dataset,
            oracle=self.oracle,
            accountant=self.accountant,
            rng=self.rng,
            fast=self.fast,
        )
        self._started = True
        return self

    def observe(
        self,
        t: Optional[int] = None,
        true_frequencies: Optional[np.ndarray] = None,
    ) -> StepRecord:
        """Ingest one timestamp and return the mechanism's step record.

        ``t`` defaults to the next expected timestamp; passing it
        explicitly asserts in-order ingestion.  ``true_frequencies``
        lets a shared-pass driver hand over the truth histogram it
        already computed for this timestamp (it must equal
        ``dataset.true_frequencies(t)``); otherwise the session asks the
        dataset itself.
        """
        if not self._started:
            raise InvalidParameterError("call start() before observe()")
        if self._finalized:
            raise InvalidParameterError("session already finalized")
        if t is None:
            t = self._next_t
        elif t != self._next_t:
            raise InvalidParameterError(
                f"timestamps must be observed in order: expected "
                f"t={self._next_t}, got t={t}"
            )
        if self.horizon is not None and t >= self.horizon:
            raise InvalidParameterError(
                f"timestamp {t} beyond session horizon {self.horizon}"
            )
        ctx = TimestepContext(self.collector, t)
        record = self.mechanism.step(ctx)
        if record.t != t:
            raise InvalidParameterError(
                f"{self.mechanism.name} returned record for t={record.t} "
                f"at t={t}"
            )
        if record.strategy == STRATEGY_PUBLISH:
            self._publications += 1
        if self.record_trace or self.store is not None:
            # Postprocessing and the truth histogram only feed the trace
            # and the query store; trace-free, store-free online sessions
            # skip both so each step is O(1) beyond the mechanism's work.
            release = np.asarray(
                self.postprocessor(record.release), dtype=np.float64
            )
        if self.store is not None:
            self._release_variance = next_release_variance(
                self.oracle,
                record.strategy,
                record.publication_epsilon,
                record.publication_users,
                self.dataset.domain_size,
                self._release_variance,
            )
            self.store.append(
                t, release, self._release_variance, record.strategy
            )
        if self.record_trace:
            if true_frequencies is None:
                true_frequencies = self.dataset.true_frequencies(t)
            self._releases.append(release.copy())
            self._true_frequencies.append(
                np.asarray(true_frequencies, dtype=np.float64).copy()
            )
            self._records.append(record)
        self._next_t = t + 1
        return record

    def observe_many(
        self,
        t0: Optional[int] = None,
        n: Optional[int] = None,
        *,
        true_frequencies: Optional[np.ndarray] = None,
    ) -> list:
        """Ingest ``n`` consecutive timestamps starting at ``t0``.

        Bulk counterpart of :meth:`observe`, and **bit-identical** to
        calling it in a loop: the chunk performs the same RNG draws in
        the same order, so releases, records, counters and any attached
        store end up byte-for-byte equal.  The chunk runs through
        :meth:`~repro.mechanisms.base.StreamMechanism.step_many` over
        one prefetched value block.  The non-adaptive kernels batch
        their collection rounds through the oracles' order-preserving
        run samplers; LBD's kernel speculatively batches M1 rounds and
        rewinds/replays the generator around publications; LBA and the
        adaptive population kernels (LPD/LPA) run a streamlined
        per-round loop (LPD/LPA's pool draws interleave with oracle
        draws); mechanisms without a kernel run the base
        per-step loop.  What changes is the per-timestamp interpreter
        overhead: truth histograms, collection rounds and trace/store
        bookkeeping are amortised across the chunk (see
        ``benchmarks/bench_ingest_throughput.py`` and
        ``docs/ARCHITECTURE.md``, "Bulk ingestion").

        ``t0`` defaults to the next expected timestamp (and must equal
        it when given).  ``n`` defaults to the rest of the session's
        horizon; a chunk reaching beyond the horizon is clamped to it,
        so callers may loop ``observe_many(n=chunk)`` without sizing the
        final partial chunk — but ingesting *at* the horizon raises,
        exactly like :meth:`observe`.  ``true_frequencies`` optionally
        hands over the ``(n, d)`` truth block a shared-pass driver
        already computed (row ``i`` must equal
        ``dataset.true_frequencies(t0 + i)``).

        Returns the list of per-timestamp
        :class:`~repro.engine.records.StepRecord`\\ s.
        """
        if not self._started:
            raise InvalidParameterError("call start() before observe_many()")
        if self._finalized:
            raise InvalidParameterError("session already finalized")
        if t0 is None:
            t0 = self._next_t
        elif t0 != self._next_t:
            raise InvalidParameterError(
                f"timestamps must be observed in order: expected "
                f"t={self._next_t}, got t0={t0}"
            )
        # The tightest horizon in play: the session's own, else the
        # dataset's (unbounded online sessions have neither).
        limit = self.horizon
        if limit is None:
            limit = self.dataset.horizon
        if limit is not None and t0 >= limit:
            raise InvalidParameterError(
                f"timestamp {t0} beyond session horizon {limit}"
            )
        if n is None:
            if limit is None:
                raise InvalidParameterError(
                    "a chunk size n is required on sessions without a "
                    "horizon"
                )
            n = limit - t0
        n = int(n)
        if n < 0:
            raise InvalidParameterError(
                f"chunk size must be non-negative, got {n}"
            )
        if limit is not None:
            n = min(n, limit - t0)
        if n == 0:
            return []
        truth: Optional[np.ndarray] = None
        if true_frequencies is not None:
            truth = np.asarray(true_frequencies, dtype=np.float64)
            if truth.shape != (n, self.dataset.domain_size):
                raise InvalidParameterError(
                    f"true_frequencies must have shape "
                    f"({n}, {self.dataset.domain_size}), got {truth.shape}"
                )
        return self._ingest_chunk(ChunkContext(self.collector, t0, n), truth)

    def _ingest_chunk(
        self, ctx: ChunkContext, truth: Optional[np.ndarray]
    ) -> list:
        """Drive one chunk through ``mechanism.step_many(ctx)``.

        All stream access goes through the chunk context's prefetched
        value block — the mechanism's chunk kernel, or the base per-step
        loop whose timestep contexts carry their block row — which is
        what makes this path legal on sequential generative streams too
        (the block consumes the span; nothing re-reads it per step
        afterwards).  The SoA scheduler passes a context whose
        block/histogram caches are already warm with the chunk's shared
        arrays (:mod:`repro.engine.soa`).
        """
        records = self.mechanism.step_many(ctx)
        if self.record_trace and truth is None:
            # Same integers as per-step np.bincount(values(t)), divided
            # the same way — rows are bit-identical to
            # dataset.true_frequencies(t).
            truth = ctx.counts().astype(np.float64) / self.dataset.n_users
        self._absorb_records(ctx.t0, ctx.length, truth, records)
        return records

    def ingest_prepared(
        self, ctx: ChunkContext, truth: Optional[np.ndarray]
    ) -> list:
        """Drive one chunk through a caller-built :class:`ChunkContext`.

        The SoA scheduler's per-session entry: the context's value-block
        and histogram caches are pre-warmed with the chunk's shared
        arrays, so this session reads nothing from the dataset itself.
        The context must bind this session's collector and cover exactly
        ``[next_t, next_t + length)`` within the horizon.
        """
        if not self._started:
            raise InvalidParameterError("call start() before ingest")
        if self._finalized:
            raise InvalidParameterError("session already finalized")
        if ctx._collector is not self.collector:
            raise InvalidParameterError(
                "prepared chunk context binds a different session"
            )
        if ctx.t0 != self._next_t:
            raise InvalidParameterError(
                f"timestamps must be observed in order: expected "
                f"t={self._next_t}, got t0={ctx.t0}"
            )
        if self.horizon is not None and ctx.t0 + ctx.length > self.horizon:
            raise InvalidParameterError(
                f"chunk [{ctx.t0}, {ctx.t0 + ctx.length}) reaches beyond "
                f"session horizon {self.horizon}"
            )
        return self._ingest_chunk(ctx, truth)

    def _absorb_records(
        self,
        t0: int,
        n: int,
        truth: Optional[np.ndarray],
        records: list,
    ) -> None:
        """Post-process, store and trace a chunk's step records.

        Shared absorb tail of every bulk path — the in-session chunk
        drive and the SoA scheduler's prepared drive — so publication
        counting, post-processing, variance propagation and trace
        bookkeeping stay byte-identical across them.
        """
        if len(records) != n:
            raise InvalidParameterError(
                f"{self.mechanism.name} returned {len(records)} records "
                f"for a chunk of {n}"
            )
        need_release = self.record_trace or self.store is not None
        for i, record in enumerate(records):
            if record.t != t0 + i:
                raise InvalidParameterError(
                    f"{self.mechanism.name} returned record for "
                    f"t={record.t} at t={t0 + i}"
                )
            if record.strategy == STRATEGY_PUBLISH:
                self._publications += 1
            if need_release:
                release = np.asarray(
                    self.postprocessor(record.release), dtype=np.float64
                )
            if self.store is not None:
                self._release_variance = next_release_variance(
                    self.oracle,
                    record.strategy,
                    record.publication_epsilon,
                    record.publication_users,
                    self.dataset.domain_size,
                    self._release_variance,
                )
                self.store.append(
                    t0 + i, release, self._release_variance, record.strategy
                )
            if self.record_trace:
                self._releases.append(release.copy())
                self._true_frequencies.append(truth[i].copy())
                self._records.append(record)
        self._next_t = t0 + n

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-safe checkpoint payload of the live session.

        Covers everything needed to continue bit-identically: mechanism
        state, collector statistics, accountant ledger, bit-generator
        state, attached release store and the recorded trace.  Feed the
        result to :meth:`restore` (or wrap it in
        :class:`repro.persist.Checkpoint` for atomic file round trips).
        Requires a started, unfinalized session.
        """
        from ..persist.checkpoint import capture_session

        return capture_session(self)

    @classmethod
    def restore(
        cls, payload: dict, dataset: StreamDataset, *, position: bool = True
    ) -> "StreamSession":
        """Rebuild a live session from a :meth:`snapshot` payload.

        ``dataset`` re-attaches the input stream (streams are not part
        of a checkpoint); it must match the checkpointed population and
        domain.  ``position=True`` also seeks it so the next
        :meth:`observe` reads the right timestamp — see
        :func:`repro.persist.checkpoint.position_dataset`.
        """
        from ..persist.checkpoint import restore_session

        return restore_session(payload, dataset, position=position)

    def finalize(self) -> SessionResult:
        """Close the session and assemble its :class:`SessionResult`.

        Requires ``record_trace=True``; online sessions that disabled
        the trace should read :meth:`summary` instead.
        """
        if not self._started:
            raise InvalidParameterError("call start() before finalize()")
        if self._finalized:
            raise InvalidParameterError("session already finalized")
        if not self.record_trace:
            raise InvalidParameterError(
                "finalize() needs record_trace=True; use summary() for "
                "trace-free online sessions"
            )
        self._finalized = True
        d = self.dataset.domain_size
        if self._releases:
            releases = np.stack(self._releases)
            true_freqs = np.stack(self._true_frequencies)
        else:
            releases = np.empty((0, d), dtype=np.float64)
            true_freqs = np.empty((0, d), dtype=np.float64)
        return SessionResult(
            mechanism=self.mechanism.name,
            oracle=self.oracle.name,
            epsilon=self.epsilon,
            window=self.window,
            n_users=self.dataset.n_users,
            domain_size=d,
            releases=releases,
            true_frequencies=true_freqs,
            records=self._records,
            total_reports=self.collector.total_reports,
            max_window_spend=self.accountant.max_window_spend,
        )

    def summary(self) -> dict:
        """Running counters, available with or without a trace."""
        steps = self.steps_observed
        return {
            "mechanism": self.mechanism.name,
            "oracle": self.oracle.name,
            "epsilon": self.epsilon,
            "window": self.window,
            "steps": steps,
            "publications": self._publications,
            "publication_rate": self._publications / max(1, steps),
            "total_reports": self.total_reports,
            "cfpu": (
                self.total_reports / (self.dataset.n_users * steps)
                if steps
                else 0.0
            ),
            "max_window_spend": self.max_window_spend,
        }


def run_stream(
    mechanism,
    dataset: StreamDataset,
    epsilon: float,
    window: int,
    horizon: Optional[int] = None,
    oracle="grr",
    seed: SeedLike = None,
    fast: bool = True,
    postprocess: str = "none",
    enforce_privacy: bool = True,
    chunk: Optional[int] = None,
) -> SessionResult:
    """Run one ``w``-event LDP streaming session start-to-finish.

    Parameters
    ----------
    mechanism:
        A mechanism name (``"LBU"``, ..., ``"LPA"``), class, or instance.
    dataset:
        The stream to collect; its users are the reporting population.
    epsilon / window:
        The ``w``-event LDP parameters (total window budget and ``w``).
    horizon:
        Number of timestamps to run; defaults to the dataset's horizon
        (required for unbounded streams — drive a :class:`StreamSession`
        directly for open-ended online ingestion).
    oracle:
        Frequency oracle name or instance (default GRR, as in the paper).
    seed:
        Master seed; mechanism randomness and perturbation randomness are
        derived from it.
    fast:
        Use count-level exact samplers instead of per-user perturbation.
    postprocess:
        Consistency step applied to each release for the *stored* trace
        (``none`` by default, matching the paper's raw estimates).
    enforce_privacy:
        Arm the accountant (raise on any ``w``-event violation).  Always
        leave on except when deliberately probing broken mechanisms.
    chunk:
        Timestamps ingested per :meth:`StreamSession.observe_many` call
        (default :data:`DEFAULT_CHUNK`).  Results are bit-identical at
        any chunk size — including ``chunk=1``, the historical per-step
        loop — so this only trades peak memory against per-step
        overhead.

    Returns
    -------
    SessionResult
        Releases, true frequencies, per-step records and counters.
    """
    steps = horizon if horizon is not None else dataset.horizon
    if steps is None:
        raise InvalidParameterError(
            "horizon is required when running an unbounded stream"
        )
    if steps <= 0:
        raise InvalidParameterError(f"horizon must be positive, got {steps}")
    if chunk is None:
        chunk = DEFAULT_CHUNK
    elif chunk <= 0:
        raise InvalidParameterError(f"chunk must be positive, got {chunk}")
    session = StreamSession(
        mechanism,
        dataset,
        epsilon,
        window,
        horizon=steps,
        oracle=oracle,
        seed=seed,
        fast=fast,
        postprocess=postprocess,
        enforce_privacy=enforce_privacy,
    )
    session.start()
    for t0 in range(0, steps, chunk):
        session.observe_many(t0, min(chunk, steps - t0))
    return session.finalize()

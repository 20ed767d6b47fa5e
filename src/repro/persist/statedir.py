"""On-disk state directory for durable serve/stream sessions.

A ``--state-dir`` holds exactly two artifacts::

    state/
      checkpoint.json   # latest full session snapshot (atomic rename)
      releases.wal      # append-only committed release log (fsync'd)

The two cooperate under one invariant: **the checkpoint's watermark is
always <= the WAL's**.  The server commits the WAL after every flushed
chunk and writes a checkpoint less often, so after a crash the WAL may
run ahead of the checkpoint — never behind.  :meth:`StateDir.prepare_resume`
re-establishes the exactly-once contract by truncating the WAL back to
the checkpoint's watermark; the resumed session then re-ingests the
truncated span and, being deterministic, regenerates byte-for-byte the
rows that were cut.

:class:`DurableSession` is the one durable online session over such a
directory: ``repro stream --state-dir`` and every serve shard worker
open, resume, ingest and checkpoint through it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..engine.session import StreamSession
from ..exceptions import CheckpointError, InvalidParameterError
from ..streams.online import OnlineStream
from .checkpoint import Checkpoint
from .wal import ReleaseWAL, replay_wal, truncate_wal

PathLike = Union[str, Path]

CHECKPOINT_FILE = "checkpoint.json"
WAL_FILE = "releases.wal"


class StateDir:
    """Handle on a durable session's state directory."""

    def __init__(self, root: PathLike):
        self.root = Path(root)
        if self.root.exists() and not self.root.is_dir():
            raise CheckpointError(
                f"state dir {self.root} exists and is not a directory"
            )
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    @property
    def checkpoint_path(self) -> Path:
        return self.root / CHECKPOINT_FILE

    @property
    def wal_path(self) -> Path:
        return self.root / WAL_FILE

    def has_checkpoint(self) -> bool:
        return self.checkpoint_path.exists()

    # ------------------------------------------------------------------
    def save_checkpoint(self, checkpoint: Checkpoint) -> None:
        """Atomically replace the directory's checkpoint."""
        checkpoint.save(self.checkpoint_path)

    def load_checkpoint(self) -> Optional[Checkpoint]:
        """The latest checkpoint, or ``None`` on a fresh directory."""
        if not self.has_checkpoint():
            return None
        return Checkpoint.load(self.checkpoint_path)

    def open_wal(self) -> ReleaseWAL:
        """Open the release log for appending."""
        return ReleaseWAL(self.wal_path)

    def committed_releases(self) -> Tuple[List[dict], int]:
        """Validated committed WAL rows and their watermark."""
        return replay_wal(self.wal_path)

    # ------------------------------------------------------------------
    def prepare_resume(
        self, expect: Optional[dict] = None
    ) -> Tuple[Optional[Checkpoint], int]:
        """Make the directory consistent for resumption.

        Loads the checkpoint (``None`` on a fresh directory), checks its
        recorded config against ``expect`` when given
        (:func:`check_config`), validates the WAL's committed prefix,
        and truncates the WAL back to the checkpoint's watermark — the
        rows cut here are regenerated bit-identically by the resumed
        session, which is what makes ingestion exactly-once across
        crashes.  Every refusal comes before the truncation, so a
        refused resume leaves the directory's bytes as they were.
        Returns ``(checkpoint, watermark)`` where ``watermark`` is the
        number of timestamps the resumed session has already ingested.
        """
        checkpoint = self.load_checkpoint()
        if checkpoint is not None and expect is not None:
            check_config(
                str(self.checkpoint_path),
                checkpoint.payload.get("config"),
                expect,
            )
        watermark = 0 if checkpoint is None else checkpoint.watermark
        _, wal_mark = replay_wal(self.wal_path)  # validates the prefix
        if wal_mark < watermark:
            raise CheckpointError(
                f"{self.wal_path} is behind the checkpoint (WAL watermark "
                f"{wal_mark} < checkpoint watermark {watermark}); the "
                f"state dir has been tampered with or mixes two runs"
            )
        truncate_wal(self.wal_path, watermark)
        return checkpoint, watermark


#: Session settings a checkpoint only resumes under: continuing an LBD
#: stream as LPA, or at another epsilon, would corrupt both the privacy
#: ledger and the released trace.
RESUME_KEYS = (
    "mechanism",
    "oracle",
    "postprocess",
    "epsilon",
    "window",
    "n_users",
    "domain_size",
    "fast",
    "record_trace",
)


def check_config(
    where: str,
    recorded,
    expect: dict,
    hints: Optional[Dict[str, str]] = None,
) -> None:
    """Refuse to resume ``where`` under a configuration it did not record.

    Every key of ``expect`` must equal its ``recorded`` value; each
    mismatch is named, and ``hints[key]`` is appended when ``key`` is
    among them.
    """
    if not isinstance(recorded, dict):
        raise CheckpointError(f"{where} has no 'config' section")
    mismatched = [key for key in expect if recorded.get(key) != expect[key]]
    if not mismatched:
        return
    message = "; ".join(
        f"{key} is {recorded.get(key)!r} in the checkpoint but "
        f"{expect[key]!r} now"
        for key in mismatched
    )
    for key, hint in (hints or {}).items():
        if key in mismatched:
            message += f" ({hint})"
    raise CheckpointError(
        f"{where} disagrees with the configuration: {message}"
    )


def check_checkpoint_every(every: int) -> None:
    """Validate a checkpoint cadence (flushed chunks per checkpoint)."""
    if every < 1:
        raise InvalidParameterError(
            f"checkpoint_every must be >= 1, got {every}"
        )


class DurableSession:
    """An online session over an :class:`OnlineStream`, durable when it
    has a :class:`StateDir`.

    :meth:`open` resumes the directory's checkpoint or starts fresh;
    :meth:`ingest` returns a block's release rows only after their WAL
    commit, and writes a checkpoint every ``checkpoint_every`` commits
    when given one (a serve shard leaves the cadence to its front).
    """

    def __init__(
        self,
        session: StreamSession,
        stream: OnlineStream,
        state: Optional[StateDir],
        checkpoint_every: Optional[int],
    ):
        self.session = session
        self.stream = stream
        self.state = state
        self.checkpoint_every = checkpoint_every
        self.wal = None if state is None else state.open_wal()
        self._commits = 0

    @classmethod
    def open(
        cls,
        state_dir,
        config: dict,
        *,
        chunk: int,
        checkpoint_every: Optional[int] = None,
        store=None,
    ) -> "DurableSession":
        """Resume ``state_dir``'s checkpoint, or start a fresh session.

        ``config`` holds the :data:`RESUME_KEYS` (checked against the
        checkpoint) plus ``seed`` and ``enforce_privacy`` for a fresh
        start, which also attaches ``store``.  The stream's ring holds a
        whole pushed-but-unobserved chunk.
        """
        stream = OnlineStream(
            n_users=config["n_users"],
            domain_size=config["domain_size"],
            retain=max(4, chunk),
        )
        state = checkpoint = None
        if state_dir is not None:
            if checkpoint_every is not None:
                check_checkpoint_every(checkpoint_every)
            state = StateDir(state_dir)
            checkpoint, _ = state.prepare_resume(
                {key: config[key] for key in RESUME_KEYS}
            )
        if checkpoint is None:
            session = StreamSession(
                config["mechanism"],
                stream,
                epsilon=config["epsilon"],
                window=config["window"],
                oracle=config["oracle"],
                seed=config["seed"],
                postprocess=config["postprocess"],
                record_trace=config["record_trace"],
                store=store,
                enforce_privacy=config["enforce_privacy"],
                fast=config["fast"],
            ).start()
        else:
            session = checkpoint.restore(stream)
        return cls(session, stream, state, checkpoint_every)

    @property
    def watermark(self) -> int:
        """Timestamps ingested (and, when durable, committed) so far."""
        return self.session.steps_observed

    def ingest(self, t0: int, block) -> list:
        """Push ``block``'s rows as timestamps ``t0, t0 + 1, …``, observe
        them and commit them to the WAL.

        Returns one ``(release, variance, strategy)`` row per timestamp,
        read back from the session's store when it has one (``variance``
        is ``None`` without one) — the rows the WAL holds, so a caller
        that prints or acknowledges them only does so once durable.
        """
        session = self.session
        for values in block:
            self.stream.push(values)
        records = session.observe_many(t0, len(block))
        store = session.store
        if store is None:
            rows = [
                (session.postprocessor(r.release), None, r.strategy)
                for r in records
            ]
        else:
            rows = [
                (
                    store.release_at(r.t),
                    store.variance_at(r.t),
                    store.strategy_at(r.t),
                )
                for r in records
            ]
        if self.wal is not None:
            for record, (release, variance, strategy) in zip(records, rows):
                self.wal.append(record.t, release, strategy, variance)
            self.wal.commit(self.watermark)
            self._commits += 1
            if (
                self.checkpoint_every is not None
                and self._commits % self.checkpoint_every == 0
            ):
                self.checkpoint()
        return rows

    def checkpoint(self) -> None:
        """Capture the session and atomically replace the checkpoint."""
        if self.state is None:
            raise CheckpointError(
                "the session has no state dir to checkpoint into"
            )
        self.state.save_checkpoint(Checkpoint.capture(self.session))

    def close(self) -> None:
        """Close the WAL (uncommitted rows are lost, as in a crash)."""
        if self.wal is not None:
            self.wal.close()

    def __enter__(self) -> "DurableSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

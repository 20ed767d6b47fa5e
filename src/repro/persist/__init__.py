"""Durable sessions: checkpoint/restore and write-ahead release logs.

A production stream server must survive restarts.  This package is the
durability layer under ``repro stream --state-dir``, ``repro serve
--state-dir`` and the programmatic
:meth:`repro.engine.session.StreamSession.snapshot` /
:meth:`~repro.engine.session.StreamSession.restore` API:

* :mod:`repro.persist.checkpoint` — versioned, JSON-serializable
  snapshots of a live session (mechanism state, collector sufficient
  statistics, accountant ledger, NumPy bit-generator state, attached
  release store, optional trace) that restore **bit-identically**: the
  resumed session performs the same draws in the same order as an
  uninterrupted one;
* :mod:`repro.persist.wal` — an append-only JSONL write-ahead log of
  released estimates with per-chunk commit markers and fsync, so
  releases survive a crash at finer granularity than checkpoints;
* :mod:`repro.persist.statedir` — the on-disk layout
  (``checkpoint.json`` + ``releases.wal``) with the exactly-once
  truncation rule applied on every restore, and
  :class:`~repro.persist.statedir.DurableSession`, the one durable
  online session ``repro stream`` and each serve shard run through.

The exactly-once contract and the crash-injection harness that proves it
(``tools/crashtest.py``, ``tests/persist/``) are documented in
``docs/PERSISTENCE.md``.
"""

from .checkpoint import (
    CHECKPOINT_VERSION,
    Checkpoint,
    capture_group,
    capture_session,
    restore_group,
    restore_session,
)
from .statedir import DurableSession, StateDir
from .wal import ReleaseWAL, replay_wal, truncate_wal

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "capture_group",
    "capture_session",
    "restore_group",
    "restore_session",
    "ReleaseWAL",
    "replay_wal",
    "truncate_wal",
    "StateDir",
    "DurableSession",
]

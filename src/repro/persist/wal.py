"""Append-only write-ahead log of released estimates.

The WAL is the fine-grained durability channel of a persisted session:
every flushed ingest chunk appends one JSONL row per released timestamp
followed by a *commit marker* carrying the ingest watermark (the number
of timestamps durably ingested), then flushes and fsyncs.  A crash can
therefore only ever produce a **torn uncommitted tail** — rows (or a
partial line) after the last commit marker — never a corrupt committed
prefix.

Row layout (one JSON object per line)::

    {"op": "release", "t": 17, "strategy": "publish",
     "release": [0.21, ...], "variance": 3.1e-05}
    {"op": "commit", "watermark": 18}

Replay (:func:`replay_wal`) returns the committed prefix only and
validates it: timestamps strictly increasing from the previous watermark,
commit watermarks consistent with their rows.  Anything malformed
*inside* the committed prefix raises
:class:`~repro.exceptions.WALError`; a torn tail is silently dropped —
it belongs to work the checkpoint/replay machinery will redo
exactly-once.

On resume, :func:`truncate_wal` rewrites the log down to the restored
checkpoint's watermark: rows beyond it are discarded because the resumed
session will regenerate them bit-identically, which is precisely what
makes the log duplicate-free.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

from ..exceptions import WALError
from .codec import write_atomic

PathLike = Union[str, Path]

_OP_RELEASE = "release"
_OP_COMMIT = "commit"


class ReleaseWAL:
    """Writer handle for an append-only release log.

    Rows buffer in memory until :meth:`commit` writes them together with
    their commit marker and fsyncs — so the on-disk committed prefix
    always ends at a chunk boundary, and a crash mid-chunk loses only
    work that will be redone deterministically.
    """

    def __init__(self, path: PathLike):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("a", encoding="utf-8")
        self._pending: List[dict] = []

    # ------------------------------------------------------------------
    def append(
        self,
        t: int,
        release,
        strategy: str,
        variance: Optional[float] = None,
    ) -> None:
        """Buffer one released estimate for the next :meth:`commit`."""
        row = {
            "op": _OP_RELEASE,
            "t": int(t),
            "strategy": str(strategy),
            "release": np.asarray(release, dtype=np.float64).ravel().tolist(),
        }
        if variance is not None:
            row["variance"] = float(variance)
        self._pending.append(row)

    def commit(self, watermark: int) -> None:
        """Write buffered rows + a commit marker; flush and fsync.

        ``watermark`` is the ingest high-water mark: the number of
        timestamps whose effects are durable once this commit returns.
        """
        for row in self._pending:
            self._handle.write(json.dumps(row) + "\n")
        self._pending.clear()
        self._handle.write(
            json.dumps({"op": _OP_COMMIT, "watermark": int(watermark)}) + "\n"
        )
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        """Close the underlying file (pending uncommitted rows are lost)."""
        self._pending.clear()
        self._handle.close()

    def __enter__(self) -> "ReleaseWAL":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def replay_wal(path: PathLike) -> Tuple[List[dict], int]:
    """Read the committed prefix of a WAL; return ``(rows, watermark)``.

    ``rows`` are the release rows covered by the last commit marker, in
    timestamp order; ``watermark`` is that marker's value (0 for a
    missing or empty log).  The committed prefix is validated —
    undecodable lines, out-of-order timestamps, or a commit marker that
    disagrees with its rows raise :class:`~repro.exceptions.WALError`.
    Rows after the last commit marker (including a torn partial line)
    are uncommitted and dropped.
    """
    path = Path(path)
    if not path.exists():
        return [], 0
    committed: List[dict] = []
    watermark = 0
    tail: List[dict] = []
    last_t = -1
    with path.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                if not isinstance(row, dict):
                    raise ValueError("row is not a JSON object")
            except ValueError as error:
                # Only the *uncommitted* tail may be torn.  Remember the
                # damage: if a later commit marker claims this region,
                # the prefix is genuinely corrupt.
                tail.append({"__malformed__": lineno, "error": str(error)})
                continue
            op = row.get("op")
            if op == _OP_COMMIT:
                try:
                    mark = int(row["watermark"])
                except (KeyError, TypeError, ValueError) as error:
                    raise WALError(
                        f"{path}: commit marker on line {lineno} lacks a "
                        f"valid watermark"
                    ) from error
                for pending in tail:
                    if "__malformed__" in pending:
                        raise WALError(
                            f"{path}: undecodable line "
                            f"{pending['__malformed__']} inside the "
                            f"committed prefix: {pending['error']}"
                        )
                if mark < watermark:
                    raise WALError(
                        f"{path}: commit watermark went backwards on line "
                        f"{lineno} ({watermark} -> {mark})"
                    )
                if tail and tail[-1]["t"] >= mark:
                    raise WALError(
                        f"{path}: release row t={tail[-1]['t']} is not "
                        f"covered by its commit watermark {mark} "
                        f"(line {lineno})"
                    )
                committed.extend(tail)
                tail = []
                watermark = mark
            elif op == _OP_RELEASE:
                t = row.get("t")
                if not isinstance(t, int):
                    tail.append({"__malformed__": lineno, "error": "no t"})
                    continue
                if t <= last_t:
                    raise WALError(
                        f"{path}: out-of-order release row t={t} after "
                        f"t={last_t} (line {lineno})"
                    )
                last_t = t
                tail.append(row)
            else:
                tail.append(
                    {"__malformed__": lineno, "error": f"unknown op {op!r}"}
                )
    return committed, watermark


def truncate_wal(path: PathLike, watermark: int) -> int:
    """Drop committed rows at or beyond ``watermark``; return rows kept.

    Called on resume when the restored checkpoint is *older* than the
    log (crash between a WAL commit and the next checkpoint write): the
    session will re-ingest and re-release those timestamps
    bit-identically, so keeping the old rows would duplicate them.  The
    rewrite is atomic (temp file + rename) and ends with a commit marker
    at ``watermark``.
    """
    rows, _ = replay_wal(path)
    kept = [row for row in rows if row["t"] < watermark]
    commit = {"op": _OP_COMMIT, "watermark": int(watermark)}
    write_atomic(
        path, "".join(json.dumps(row) + "\n" for row in [*kept, commit])
    )
    return len(kept)

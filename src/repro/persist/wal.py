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
     "release": {"__nd__": "<base64>", "dtype": "<f8", "shape": [d]},
     "variance": 3.1e-05}
    {"op": "commit", "watermark": 18}

The release is the float64 row in the checkpoint codec's tagged base64
form (:mod:`repro.persist.codec`), so it round-trips bit-exactly and
costs no per-float text formatting.  Replay still reads rows written as
a plain JSON float list (logs from before the tagged form), also mixed
with tagged rows in one log, and returns every release as a list of
floats either way.

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

from ..exceptions import CheckpointError, WALError
from .codec import decode, encode, write_atomic

PathLike = Union[str, Path]

_OP_RELEASE = "release"
_OP_COMMIT = "commit"


def _release_row(t, release, strategy, variance) -> dict:
    """One release row as written: the release in tagged base64."""
    row = {
        "op": _OP_RELEASE,
        "t": int(t),
        "strategy": str(strategy),
        "release": encode(np.asarray(release, dtype=np.float64).ravel()),
    }
    if variance is not None:
        row["variance"] = float(variance)
    return row


def _jsonl(rows) -> str:
    return "".join(json.dumps(row) + "\n" for row in rows)


def _release_values(release) -> list:
    """A row's release as a list of floats, from either written form;
    ``ValueError`` when a tagged release is not a 1-D float64 row."""
    if isinstance(release, list):
        return release
    if not isinstance(release, dict) or release.get("dtype") != "<f8":
        raise ValueError(f"release is not a float64 row: {release!r:.80}")
    try:
        array = decode(release)
    except CheckpointError as error:
        raise ValueError(str(error)) from error
    if not isinstance(array, np.ndarray) or array.ndim != 1:
        raise ValueError(f"release is not a 1-D array: {release!r:.80}")
    return array.tolist()


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
        self._pending.append(_release_row(t, release, strategy, variance))

    def commit(self, watermark: int) -> None:
        """Write buffered rows + a commit marker; flush and fsync.

        ``watermark`` is the ingest high-water mark: the number of
        timestamps whose effects are durable once this commit returns.
        """
        commit = {"op": _OP_COMMIT, "watermark": int(watermark)}
        self._handle.write(_jsonl([*self._pending, commit]))
        self._pending.clear()
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
    missing or empty log); each row's release is a list of floats,
    whichever form it was written in.  The committed prefix is
    validated — undecodable lines (a malformed tagged release among
    them), out-of-order timestamps, or a commit marker that disagrees
    with its rows raise :class:`~repro.exceptions.WALError`.
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
    # Bytes, so a line that is not UTF-8 is one more undecodable line.
    with path.open("rb") as handle:
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
                except (
                    KeyError,
                    TypeError,
                    ValueError,
                    OverflowError,
                ) as error:
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
                try:
                    row["release"] = _release_values(row.get("release"))
                except ValueError as error:
                    tail.append({"__malformed__": lineno, "error": str(error)})
                    continue
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
    rewrite is atomic (temp file + rename), writes the kept rows in the
    tagged form whichever form they were read in, and ends with a commit
    marker at ``watermark``.
    """
    rows, _ = replay_wal(path)
    kept = [
        _release_row(
            row["t"], row["release"], row["strategy"], row.get("variance")
        )
        for row in rows
        if row["t"] < watermark
    ]
    commit = {"op": _OP_COMMIT, "watermark": int(watermark)}
    write_atomic(path, _jsonl([*kept, commit]))
    return len(kept)

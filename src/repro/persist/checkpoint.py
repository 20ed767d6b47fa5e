"""Versioned checkpoints of live streaming sessions.

A checkpoint is a JSON-serializable snapshot of everything a
:class:`~repro.engine.session.StreamSession` needs to continue
**bit-identically**: the mechanism's internal state, the collector's
sufficient statistics, the accountant's ledger, the NumPy bit-generator
state, the attached :class:`~repro.query.ReleaseStore` (if any) and the
recorded trace (if enabled).  "Bit-identically" is the contract the test
suite enforces: a session restored at timestamp ``t`` and advanced to
``T`` produces byte-for-byte the same releases, records, accountant
spend and query answers as a session that ran ``0..T`` uninterrupted.

The restore ordering is load-bearing.  A session is reconstructed by
running the normal constructor + :meth:`~StreamSession.start` first —
``start()`` may *draw from the RNG* (LPU's ``_setup`` permutes the
population) — then loading every component's state, and only **then**
installing the checkpointed bit-generator state.  Installing the RNG
earlier would let the setup draws corrupt it.

Checkpoints are written atomically (temp file + fsync + rename), so a
crash mid-write leaves the previous checkpoint intact.  Payloads carry a
``format`` marker and an integer ``version``; anything unrecognised
raises :class:`~repro.exceptions.CheckpointError` instead of
misinterpreting bytes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

import numpy as np

from ..engine.records import StepRecord
from ..exceptions import CheckpointError
from ..query.store import ReleaseStore
from ..rng import capture_rng_state, restore_rng_state
from ..streams.base import GenerativeStream, StreamDataset
from ..streams.online import OnlineStream
from .codec import decode, encode, write_atomic

PathLike = Union[str, Path]

#: Current checkpoint schema version.  Bump on any incompatible change
#: to the payload layout; :func:`restore_session` refuses other versions.
CHECKPOINT_VERSION = 1

_SESSION_FORMAT = "repro-checkpoint"
_GROUP_FORMAT = "repro-group-checkpoint"

_RECORD_FIELDS = (
    "t",
    "strategy",
    "publication_epsilon",
    "publication_users",
    "dissimilarity_users",
    "reports",
    "dis",
    "err",
)


# ----------------------------------------------------------------------
# Session capture / restore
# ----------------------------------------------------------------------
def capture_session(session) -> dict:
    """Snapshot a started, unfinalized session into a JSON-safe payload.

    The payload is self-describing (format marker, version, full
    configuration) and contains only JSON-native values — arrays ship
    through :mod:`repro.persist.codec`'s exact tagged-base64 encoding.
    """
    if not getattr(session, "_started", False):
        raise CheckpointError(
            "cannot checkpoint a session before start()"
        )
    if getattr(session, "_finalized", False):
        raise CheckpointError("cannot checkpoint a finalized session")
    d = session.dataset.domain_size
    trace = None
    if session.record_trace:
        if session._releases:
            releases = np.stack(session._releases)
            truths = np.stack(session._true_frequencies)
            record_releases = np.stack(
                [
                    np.asarray(r.release, dtype=np.float64)
                    for r in session._records
                ]
            )
        else:
            releases = np.empty((0, d), dtype=np.float64)
            truths = np.empty((0, d), dtype=np.float64)
            record_releases = np.empty((0, d), dtype=np.float64)
        trace = {
            "releases": releases,
            "true_frequencies": truths,
            "record_releases": record_releases,
            "records": [
                {field: getattr(r, field) for field in _RECORD_FIELDS}
                for r in session._records
            ],
        }
    payload = {
        "format": _SESSION_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": {
            "mechanism": session.mechanism.name,
            "oracle": session.oracle.name,
            "postprocess": session.postprocess_name,
            "epsilon": session.epsilon,
            "window": session.window,
            "horizon": session.horizon,
            "fast": session.fast,
            "enforce_privacy": session.enforce_privacy,
            "record_trace": session.record_trace,
            "n_users": session.dataset.n_users,
            "domain_size": d,
        },
        "state": {
            "next_t": session._next_t,
            "publications": session._publications,
            "release_variance": session._release_variance,
            "rng": capture_rng_state(session.rng),
            "mechanism": session.mechanism.state_dict(),
            "accountant": session.accountant.state_dict(),
            "collector": session.collector.state_dict(),
            "store": (
                None if session.store is None else session.store.state_dict()
            ),
            "trace": trace,
        },
    }
    return encode(payload)


def restore_session(
    payload: dict, dataset: StreamDataset, *, position: bool = True
):
    """Rebuild a live session from a :func:`capture_session` payload.

    ``dataset`` replaces the original stream (streams are not part of
    the checkpoint — a resumed server re-attaches its input source); it
    must match the checkpointed population and domain.  With
    ``position=True`` (default) the dataset is also repositioned so the
    next :meth:`~StreamSession.observe` reads the right timestamp:
    random-access streams need nothing, online streams fast-forward,
    and generative simulators replay — regenerating timestamps
    ``0..t-1`` reproduces their internal state exactly because their
    values are a pure function of the dataset seed and the cursor.
    """
    from ..engine.session import StreamSession

    _check_payload(payload, _SESSION_FORMAT)
    config = _section(payload, "config")
    state = _section(payload, "state")
    try:
        if int(config["n_users"]) != dataset.n_users:
            raise CheckpointError(
                f"checkpoint was taken over {config['n_users']} users but "
                f"the dataset has {dataset.n_users}"
            )
        if int(config["domain_size"]) != dataset.domain_size:
            raise CheckpointError(
                f"checkpoint domain size {config['domain_size']} != dataset "
                f"domain size {dataset.domain_size}"
            )
        store_state = state["store"]
        store = (
            None
            if store_state is None
            else ReleaseStore.from_state(decode(store_state))
        )
        # The seed is a placeholder: the real generator state is
        # installed below, *after* start() has taken its setup draws.
        session = StreamSession(
            config["mechanism"],
            dataset,
            float(config["epsilon"]),
            int(config["window"]),
            horizon=(
                None if config["horizon"] is None else int(config["horizon"])
            ),
            oracle=config["oracle"],
            seed=0,
            fast=bool(config["fast"]),
            postprocess=str(config["postprocess"]),
            enforce_privacy=bool(config["enforce_privacy"]),
            record_trace=bool(config["record_trace"]),
            store=store,
        )
        session.start()
        session.mechanism.load_state(decode(state["mechanism"]))
        session.accountant.load_state(decode(state["accountant"]))
        session.collector.load_state(decode(state["collector"]))
        session._next_t = int(state["next_t"])
        session._publications = int(state["publications"])
        session._release_variance = float(state["release_variance"])
        if session.record_trace:
            _load_trace(session, decode(state["trace"]))
        restore_rng_state(session.rng, state["rng"])
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError) as error:
        raise CheckpointError(
            f"corrupt checkpoint payload: {error}"
        ) from error
    if position:
        position_dataset(dataset, session._next_t)
    return session


def _load_trace(session, trace: Optional[dict]) -> None:
    if trace is None:
        raise CheckpointError(
            "checkpoint was taken with record_trace=True but carries no "
            "trace section"
        )
    releases = np.asarray(trace["releases"], dtype=np.float64)
    truths = np.asarray(trace["true_frequencies"], dtype=np.float64)
    record_releases = np.asarray(trace["record_releases"], dtype=np.float64)
    rows = trace["records"]
    if not (
        releases.shape[0] == truths.shape[0] == record_releases.shape[0] == len(rows)
    ):
        raise CheckpointError("checkpoint trace sections disagree in length")
    session._releases = [row.copy() for row in releases]
    session._true_frequencies = [row.copy() for row in truths]
    session._records = [
        StepRecord(
            t=int(row["t"]),
            release=record_releases[i].copy(),
            strategy=str(row["strategy"]),
            publication_epsilon=float(row["publication_epsilon"]),
            publication_users=int(row["publication_users"]),
            dissimilarity_users=int(row["dissimilarity_users"]),
            reports=int(row["reports"]),
            dis=float(row["dis"]),
            err=float(row["err"]),
        )
        for i, row in enumerate(rows)
    ]


def position_dataset(dataset: StreamDataset, t: int) -> None:
    """Reposition ``dataset`` so the next read is timestamp ``t``.

    Random-access datasets need nothing.  Online streams fast-forward
    their push cursor.  Generative simulators replay timestamps
    ``0..t-1`` to regenerate their sequential state — bit-identical to
    the original pass, since generation is a pure function of the
    dataset seed and the cursor.
    """
    if t == 0 or getattr(dataset, "random_access", False):
        return
    if isinstance(dataset, OnlineStream):
        dataset.fast_forward(t)
        return
    if isinstance(dataset, GenerativeStream):
        dataset.reset()
        for step in range(t):
            dataset.values(step)
        return
    raise CheckpointError(
        f"cannot reposition a {type(dataset).__name__} to timestamp {t}; "
        f"pass position=False and seek the stream yourself"
    )


# ----------------------------------------------------------------------
# Group capture / restore
# ----------------------------------------------------------------------
def capture_group(group) -> dict:
    """Snapshot a mid-pass :class:`~repro.engine.group.SessionGroup`."""
    if not getattr(group, "_started", False):
        raise CheckpointError(
            "cannot checkpoint a session group before start_pass()"
        )
    return {
        "format": _GROUP_FORMAT,
        "version": CHECKPOINT_VERSION,
        "horizon": group.horizon,
        "truth_chunk": group.truth_chunk,
        "cursor": group.cursor,
        "sessions": [capture_session(s) for s in group.sessions],
    }


def restore_group(
    payload: dict, dataset: StreamDataset, *, position: bool = True
):
    """Rebuild a mid-pass session group from :func:`capture_group`.

    Member sessions are restored individually (``position=False`` — a
    shared dataset must not be replayed once per member), then the
    dataset is positioned once to the group cursor.
    """
    from ..engine.group import SessionGroup

    _check_payload(payload, _GROUP_FORMAT)
    try:
        group = SessionGroup(
            dataset,
            horizon=(
                None
                if payload["horizon"] is None
                else int(payload["horizon"])
            ),
            # Older payloads also carry a "soa" execution toggle; the
            # SoA scheduler is now the only path, so it is ignored.
            truth_chunk=int(payload["truth_chunk"]),
        )
        sessions = [
            restore_session(entry, dataset, position=False)
            for entry in payload["sessions"]
        ]
        cursor = int(payload["cursor"])
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError) as error:
        raise CheckpointError(
            f"corrupt group checkpoint payload: {error}"
        ) from error
    group._adopt(sessions, cursor)
    if position:
        position_dataset(dataset, cursor)
    return group


# ----------------------------------------------------------------------
# Payload plumbing
# ----------------------------------------------------------------------
def _check_payload(payload, expected_format: str) -> None:
    if not isinstance(payload, dict):
        raise CheckpointError(
            f"checkpoint payload must be a JSON object, got "
            f"{type(payload).__name__}"
        )
    found = payload.get("format")
    if found != expected_format:
        raise CheckpointError(
            f"not a {expected_format} payload (format={found!r})"
        )
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version!r} "
            f"(this build reads version {CHECKPOINT_VERSION})"
        )


def _section(payload: dict, key: str) -> dict:
    section = payload.get(key)
    if not isinstance(section, dict):
        raise CheckpointError(f"checkpoint payload has no {key!r} section")
    return section


class Checkpoint:
    """A captured payload plus file round-trip helpers.

    Thin wrapper tying the functional capture/restore API to atomic disk
    persistence::

        Checkpoint.capture(session).save(path)
        session = Checkpoint.load(path).restore(dataset)
    """

    def __init__(self, payload: dict):
        if not isinstance(payload, dict) or payload.get("format") not in (
            _SESSION_FORMAT,
            _GROUP_FORMAT,
        ):
            raise CheckpointError(
                "not a checkpoint payload (missing/unknown format marker)"
            )
        self.payload = payload

    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        return int(self.payload.get("version", -1))

    @property
    def kind(self) -> str:
        """``"session"`` or ``"group"``."""
        return (
            "session"
            if self.payload["format"] == _SESSION_FORMAT
            else "group"
        )

    @property
    def watermark(self) -> int:
        """Ingest position the checkpoint was taken at."""
        if self.kind == "session":
            return int(_section(self.payload, "state")["next_t"])
        return int(self.payload["cursor"])

    # ------------------------------------------------------------------
    @classmethod
    def capture(cls, target) -> "Checkpoint":
        """Snapshot a session or a session group."""
        from ..engine.group import SessionGroup

        if isinstance(target, SessionGroup):
            return cls(capture_group(target))
        return cls(capture_session(target))

    def restore(self, dataset: StreamDataset, *, position: bool = True):
        """Rebuild the captured session / group over ``dataset``."""
        if self.kind == "group":
            return restore_group(self.payload, dataset, position=position)
        return restore_session(self.payload, dataset, position=position)

    # ------------------------------------------------------------------
    def save(self, path: PathLike) -> None:
        """Atomically write the payload (temp file + fsync + rename)."""
        write_atomic(path, json.dumps(self.payload))

    @classmethod
    def load(cls, path: PathLike) -> "Checkpoint":
        """Read a payload written by :meth:`save`."""
        try:
            with Path(path).open("r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except json.JSONDecodeError as error:
            raise CheckpointError(
                f"{path} is not valid JSON: {error}"
            ) from error
        return cls(payload)

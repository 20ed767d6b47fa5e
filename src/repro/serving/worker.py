"""Shard worker: one sub-population's session behind a pipe.

Each shard of the serving tier runs :func:`shard_worker_main` in its own
OS process (spawn context; the socket transport) or on a thread of the
server (the stdin transport), owning a :class:`~repro.engine.session.
StreamSession` over the shard's users, its :class:`~repro.query.
ReleaseStore`, and — when the tier is durable — its own state directory
(``<state-dir>/shard-XX/``: a :class:`~repro.persist.StateDir` with the
write-ahead release log + periodic checkpoints).

The protocol over the pipe is a strict request/reply alternation driven
by the front (one in-flight command per worker, ever):

==============================  =======================================
front sends                     worker replies
==============================  =======================================
(bootstraps on spawn)           ``("ready", watermark, wal_rows)``
``("ingest", t0, block)``       ``("rows", [(release, var, strat), …])``
``("checkpoint",)``             ``("ok", watermark)``
``("summary",)``                ``("summary", dict)``
``("stop",)``                   ``("bye",)``
==============================  =======================================

Any failure replies ``("error", message)`` and ends the process: a shard
that threw mid-ingest may be desynchronized from its stream, and the
merged population store cannot advance without it, so the front
escalates to :class:`~repro.exceptions.ServingError`.

Durability order inside an ingest: WAL append + commit *before* the
reply, so a row the front merged (and acked) is always durable on the
shard; checkpoints are coordinated separately by the front (which
writes its own ``front.json`` only after every shard's checkpoint ack —
the cross-shard invariant ``W_front <= W_shard``).  On resume the worker
ships its committed WAL rows from ``replay_from`` (the front's
watermark) upward so the front can rebuild the merged rows the crash cut
off.

If the front dies, the pipe's far end closes and ``recv()`` raises
``EOFError`` — the worker exits quietly instead of leaking (this is the
orphan-cleanup path exercised by the kill-based crash tests).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..exceptions import CheckpointError
from ..persist import Checkpoint, StateDir

#: Checkpoint config keys a shard resume must match exactly.
_CONFIG_KEYS = (
    "mechanism",
    "oracle",
    "postprocess",
    "epsilon",
    "window",
    "n_users",
    "domain_size",
    "fast",
)


def _bootstrap(config: dict) -> Tuple[object, object, Optional[StateDir], int, list]:
    """Build (or resume) the shard session; return replay rows for the front.

    Returns ``(session, stream, state_dir, watermark, wal_rows)`` where
    ``wal_rows`` are the shard's committed WAL rows with
    ``t >= config["replay_from"]`` — the sub-span the front's own
    checkpoint may be missing.
    """
    from ..engine.session import StreamSession
    from ..query.store import ReleaseStore
    from ..streams.online import OnlineStream

    n_users = int(config["n_users"])
    domain_size = int(config["domain_size"])
    retain = int(config["retain"])
    capacity = config["capacity"]

    state: Optional[StateDir] = None
    if config.get("state_dir") is not None:
        state = StateDir(config["state_dir"])
        checkpoint, watermark = state.prepare_resume()
        if checkpoint is not None:
            recorded = checkpoint.payload.get("config")
            if not isinstance(recorded, dict):
                raise CheckpointError(
                    "shard checkpoint payload has no 'config' section"
                )
            mismatches = [
                f"{key} is {recorded.get(key)!r} in the shard checkpoint "
                f"but {config[key]!r} now"
                for key in _CONFIG_KEYS
                if recorded.get(key) != config[key]
            ]
            if mismatches:
                raise CheckpointError(
                    "shard state dir disagrees with the serve "
                    "configuration: " + "; ".join(mismatches)
                )
            stream = OnlineStream(
                n_users=n_users, domain_size=domain_size, retain=retain
            )
            session = checkpoint.restore(stream)
            if session.store is None or session.store.capacity != capacity:
                found = (
                    "no store"
                    if session.store is None
                    else f"capacity {session.store.capacity}"
                )
                raise CheckpointError(
                    f"shard checkpoint release store has {found} but the "
                    f"serve configuration asks for capacity {capacity!r}"
                )
            replay_from = int(config.get("replay_from", 0))
            rows, _ = state.committed_releases()
            rows = [row for row in rows if row["t"] >= replay_from]
            return session, stream, state, watermark, rows

    stream = OnlineStream(
        n_users=n_users, domain_size=domain_size, retain=retain
    )
    store = ReleaseStore(domain_size, capacity=capacity)
    session = StreamSession(
        config["mechanism"],
        stream,
        epsilon=float(config["epsilon"]),
        window=int(config["window"]),
        oracle=config["oracle"],
        seed=config["seed"],
        postprocess=config["postprocess"],
        record_trace=False,
        store=store,
        enforce_privacy=bool(config.get("enforce_privacy", True)),
        fast=bool(config.get("fast", True)),
    ).start()
    return session, stream, state, 0, []


def shard_worker_main(conn, config: dict) -> None:
    """Worker process entry point: serve the pipe until stop/EOF."""
    try:
        session, stream, state, watermark, rows = _bootstrap(config)
    except Exception as error:  # ships to the front, which raises
        conn.send(("error", f"{type(error).__name__}: {error}"))
        conn.close()
        return
    conn.send(("ready", watermark, rows))
    wal = state.open_wal() if state is not None else None
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                return  # front died; exit without dangling
            op = message[0]
            try:
                if op == "ingest":
                    t0, block = message[1], message[2]
                    block = np.asarray(block)
                    for i in range(block.shape[0]):
                        stream.push(block[i])
                    session.observe_many(int(t0), block.shape[0])
                    store = session.store
                    reply_rows = [
                        (
                            store.release_at(t),
                            store.variance_at(t),
                            store.strategy_at(t),
                        )
                        for t in range(int(t0), int(t0) + block.shape[0])
                    ]
                    if wal is not None:
                        for t, (release, var, strat) in zip(
                            range(int(t0), int(t0) + block.shape[0]),
                            reply_rows,
                        ):
                            wal.append(t, release, strat, var)
                        wal.commit(session.steps_observed)
                    conn.send(("rows", reply_rows))
                elif op == "checkpoint":
                    if state is None:
                        raise CheckpointError(
                            "shard has no state dir to checkpoint into"
                        )
                    state.save_checkpoint(Checkpoint.capture(session))
                    conn.send(("ok", session.steps_observed))
                elif op == "summary":
                    conn.send(("summary", session.summary()))
                elif op == "stop":
                    conn.send(("bye",))
                    return
                else:
                    raise ValueError(f"unknown worker op {op!r}")
            except Exception as error:
                # A failed command may have left the session/stream pair
                # desynchronized; report and die — the front escalates.
                conn.send(("error", f"{type(error).__name__}: {error}"))
                return
    finally:
        if wal is not None:
            wal.close()
        conn.close()

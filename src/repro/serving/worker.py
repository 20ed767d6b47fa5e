"""Shard worker: one sub-population's session behind a pipe.

Each shard of the serving tier runs :func:`shard_worker_main` in its own
OS process (spawn context; the socket transport) or on a thread of the
server (the stdin transport), owning one
:class:`~repro.persist.DurableSession` over the shard's users: a
:class:`~repro.engine.session.StreamSession` with its
:class:`~repro.query.ReleaseStore` and — when the tier is durable — its
own state directory (``<state-dir>/shard-XX/``: a
:class:`~repro.persist.StateDir` with the write-ahead release log +
periodic checkpoints).  Opening, resuming (with the shared config
check), ingesting and checkpointing are ``DurableSession``'s, the same
path ``repro stream --state-dir`` runs; the worker adds the pipe
protocol, the store-capacity refusal and the WAL replay rows.

The protocol over the pipe is request/reply driven by the front.  The
worker serves one command at a time, in the order sent, and answers
each before it reads the next; the front may have sent the next one
already (two ingest flushes in flight, and a flush's checkpoint behind
the next batch), and pairs each reply with the oldest unanswered
command:

==============================  =======================================
front sends                     worker replies
==============================  =======================================
(bootstraps on spawn)           ``("ready", watermark, wal_rows)``
``("ingest", t0, block)``       ``("rows", [(release, var, strat), …])``
``("checkpoint",)``             ``("ok", watermark)``
``("summary",)``                ``("summary", dict)``
``("stop",)``                   ``("bye",)``
==============================  =======================================

An ingest ``block`` is ``(m, n_s)`` in the snapshots' wire dtype
(``uint8``/``uint16``/``uint32`` from b64 ingests, int64 from JSON
``values``, upcast by the front's ``np.stack`` when a batch mixes them),
so the pipe carries narrow bytes; ``OnlineStream.push`` widens each row
once, into the stream's int64 ring.

Any failure replies ``("error", message)`` and ends the process: a shard
that threw mid-ingest may be desynchronized from its stream, and the
merged population store cannot advance without it, so the front
escalates to :class:`~repro.exceptions.ServingError`.

Durability order inside an ingest: ``DurableSession.ingest`` returns
the rows only after their WAL commit, so a row the front merged (and
acked) is always durable on the shard; checkpoints are coordinated
separately by the front (which writes its own ``front.json`` only after
every shard's checkpoint ack — the cross-shard invariant ``W_front <=
W_shard``).  On resume the worker ships its committed WAL rows from
``replay_from`` (the front's watermark) upward so the front can rebuild
the merged rows the crash cut off.

If the front dies, the pipe's far end closes and ``recv()`` raises
``EOFError`` — the worker exits quietly instead of leaking (this is the
orphan-cleanup path exercised by the kill-based crash tests).
"""

from __future__ import annotations

import numpy as np

from ..exceptions import CheckpointError
from ..persist import DurableSession
from ..query.store import ReleaseStore


def _open(config: dict):
    """Build or resume the shard session; return it with the replay rows.

    The replay rows are the shard's committed WAL rows with
    ``t >= config["replay_from"]`` — the sub-span the front's own
    checkpoint may be missing.
    """
    capacity = config["capacity"]
    durable = DurableSession.open(
        config["state_dir"],
        config,
        chunk=config["chunk"],
        store=ReleaseStore(config["domain_size"], capacity=capacity),
    )
    store = durable.session.store
    if store is None or store.capacity != capacity:
        durable.close()
        found = "no store" if store is None else f"capacity {store.capacity}"
        raise CheckpointError(
            f"shard checkpoint release store has {found} but the "
            f"serve configuration asks for capacity {capacity!r}"
        )
    if durable.state is None:
        return durable, []
    rows, _ = durable.state.committed_releases()
    return durable, [row for row in rows if row["t"] >= config["replay_from"]]


def shard_worker_main(conn, config: dict) -> None:
    """Worker process entry point: serve the pipe until stop/EOF."""
    try:
        durable, rows = _open(config)
    except Exception as error:  # ships to the front, which raises
        conn.send(("error", f"{type(error).__name__}: {error}"))
        conn.close()
        return
    conn.send(("ready", durable.watermark, rows))
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                return  # front died; exit without dangling
            op = message[0]
            try:
                if op == "ingest":
                    rows = durable.ingest(message[1], np.asarray(message[2]))
                    conn.send(("rows", rows))
                elif op == "checkpoint":
                    durable.checkpoint()
                    conn.send(("ok", durable.watermark))
                elif op == "summary":
                    conn.send(("summary", durable.session.summary()))
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
        durable.close()
        conn.close()

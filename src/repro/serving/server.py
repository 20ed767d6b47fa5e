"""The serving tier: one asyncio dispatcher, two transports.

``repro serve`` runs this server in one of two transports over the same
per-line handler (:meth:`ShardServer._handle`):

* **socket** (``--shards K``): an asyncio TCP front-end on localhost
  accepting line-delimited JSON from any number of concurrent clients,
  backed by ``K`` shard worker processes (:mod:`repro.serving.worker`);
* **stdin** (no ``--shards``): JSONL requests on stdin, answers on
  stdout, no hello line, and one shard that runs the same worker loop
  on a thread of this process over an in-process pipe.

Each shard owns one sub-population's
:class:`~repro.engine.session.StreamSession`.  The population size N is
``--n-users`` when given, else the resumed ``front.json``'s, else the
length of the first valid ingest; the router and the shards start once
N is known.

**Ordering.**  All client lines funnel through one dispatcher coroutine,
so the server imposes a single global serialization: timestamps are
assigned in arrival order, queries answer against exactly the ingests
acknowledged before them, and the whole execution is equivalent to
feeding the same line sequence to the serial
:class:`~repro.serving.sharded.ShardedSession` — which is the property
the conformance suite checks bit-for-bit.

**Batching.**  Ingest lines buffer until ``chunk`` of them are pending
or another op arrives; the socket transport also flushes whenever its
queue drains empty, the stdin transport at EOF.  The batch flushes to
all shards *in parallel* (one ``observe_many`` per shard) and the merged
rows are acknowledged with one write per connection per flush, that
connection's ack lines in order; standing alerts follow, again one write
per connection.  Batch boundaries provably cannot change any result
(``observe_many`` is chunk-invariant and the merge is per timestamp), so
dynamic batching is pure throughput.  Up to two flushes
are in flight: the front sends each worker command from the event-loop
thread without blocking on a full pipe and reads the replies on the
loop (``loop.add_reader`` on the pipe), in command order, so each
worker already holds batch k+1 while the front merges, acks and
checkpoints batch k, and the socket transport parses and stacks the
batch after.  A full batch goes out as soon as fewer than two flushes
are in flight; merges, acks, alerts and checkpoints still happen in
flush order.  The idle dispatcher sends a partial batch only when no
flush is in flight and waits on whichever comes first, the next line or
the oldest flight landing, so no ack waits for another line to arrive.
Every other op, error line and checkpoint is a barrier: it lands every
flight and flushes the buffer before it answers, so answers still see
exactly the ingests acked before them.  The stdin transport lands each
flush before it reads its next line (a stdin client may wait for its
acks before writing more).

**Durability.**  With ``state_dir`` every shard keeps its own WAL +
checkpoints under ``<dir>/shard-XX/`` (:func:`shard_state_dir`) and
commits its WAL before replying, so every ack follows its durable
record.  The front atomically writes ``front.json`` (merged store
snapshot + watermark) *after* all shard checkpoint acks — so
``W_front <= W_shard`` always holds (a flush's checkpoint command may
reach a worker behind the next batch, so a shard can checkpoint one
batch past ``front.json``).  On restart the front resumes its merged
store from ``front.json``, rebuilds the ``[W_front, min W_shard)`` gap
from the shards' committed WAL rows, and skips re-sent timestamps per
shard until every shard is live again.  Resuming under a
different ``--shards`` is refused
(:class:`~repro.exceptions.CheckpointError`): resharding reshuffles the
user partition and no shard's state remains valid.

The wire protocol and the exactness contract are specified in
``docs/SERVING.md``.
"""

from __future__ import annotations

import asyncio
import base64
import collections
import json
import multiprocessing
import os
import socket
import struct
import sys
import threading
from dataclasses import dataclass
from multiprocessing.reduction import ForkingPickler
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from ..exceptions import (
    CheckpointError,
    InvalidParameterError,
    ReproError,
    ServingError,
)
from ..query.dsl import QUERY_OPS, parse_expr, query_from_request
from ..query.engine import QueryEngine
from ..query.planner import QueryPlanner
from ..query.standing import StandingRegistry
from ..persist.codec import decode, encode, write_atomic
from ..persist.statedir import (
    CHECKPOINT_FILE,
    WAL_FILE,
    check_checkpoint_every,
    check_config,
)
from ..query.store import ReleaseStore, merge_release_rows
from ..streams.online import snapshot_from_json
from .router import ShardRouter, shard_seed
from .worker import shard_worker_main

FRONT_FILE = "front.json"
_FRONT_FORMAT = "repro-front"
FRONT_VERSION = 1

_B64_DTYPES = {"u1": np.uint8, "u2": np.uint16, "u4": np.uint32}

#: Flushes the socket transport keeps in flight: each worker already
#: holds batch k+1 while the front merges and acks batch k.
_FLIGHTS = 2

#: Seconds a closing socket server waits for its clients to hang up.
_HANG_UP_S = 2.0

#: Bytes of a socket request line beyond its ingest payload: the JSON
#: envelope, and room for every other op (asyncio's default line limit).
_LINE_SLACK = 64 * 1024
#: The population the socket's line limit assumes while N is unknown at
#: listen time (no ``--n-users``, no resumed ``front.json``).
LINE_LIMIT_USERS = 1 << 20


def line_limit(n_users: Optional[int], domain_size: int) -> int:
    """Longest request line the socket transport reads, in bytes.

    The longest valid request is an ingest of N snapshot values: as JSON
    ``values`` with ``json.dumps`` separators (the digits of ``d - 1``
    plus ``", "`` per user) or as a b64 ``u4`` snapshot (16/3 bytes per
    user).  ``n_users=None`` takes N as :data:`LINE_LIMIT_USERS`.  A
    longer line is answered with an error line and skipped.
    """
    n = LINE_LIMIT_USERS if n_users is None else n_users
    per_user = max(len(str(domain_size - 1)) + 2, 6)
    return _LINE_SLACK + n * per_user


async def _read_line(reader) -> Optional[bytes]:
    """The next line from ``reader`` (``b""`` at EOF), or ``None`` for a
    line over the reader's limit, which is read and dropped through its
    newline so the connection can go on."""
    overlong = False
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as error:
            line = error.partial  # EOF: a last line without its newline
        except asyncio.LimitOverrunError as error:
            # Drop what the limit covers and look on for the newline.
            await reader.readexactly(error.consumed)
            overlong = True
            continue
        return None if overlong else line


def shard_state_dir(state_dir, shard: int) -> Path:
    """Shard ``shard``'s own state directory inside a tier's ``state_dir``."""
    return Path(state_dir) / f"shard-{shard:02d}"

#: Appended to a ``num_shards`` mismatch: the hash partition changes
#: with the shard count, so no shard's session state describes the users
#: it would now own.
_RESHARD_HINT = (
    "resharding a durable serving tier is not supported: the user "
    "partition is a function of the shard count, so per-shard session "
    "state cannot be reused"
)


@dataclass
class ServeConfig:
    """Configuration of the serving tier (CLI ``serve``, either transport).

    ``n_users`` may be ``None``: the tier then takes N from the resumed
    ``front.json`` or, on a fresh start, from the first valid ingest.
    """

    mechanism: str
    n_users: Optional[int]
    domain_size: int
    epsilon: float
    window: int
    num_shards: int = 1
    oracle: str = "grr"
    seed: Optional[int] = None
    postprocess: str = "none"
    capacity: Optional[int] = 256
    chunk: int = 1
    confidence: float = 0.95
    state_dir: Optional[str] = None
    checkpoint_every: int = 1
    host: str = "127.0.0.1"
    port: int = 0
    enforce_privacy: bool = True
    fast: bool = True

    def __post_init__(self):
        from ..freq_oracles import get_oracle
        from ..freq_oracles.postprocess import get_postprocessor
        from ..mechanisms import get_mechanism

        # Normalise names eagerly so workers, checkpoints and resume
        # validation all see the same canonical strings.
        self.mechanism = get_mechanism(self.mechanism).name
        self.oracle = get_oracle(self.oracle).name
        get_postprocessor(self.postprocess)
        self.domain_size = int(self.domain_size)
        self.epsilon = float(self.epsilon)
        self.window = int(self.window)
        self.num_shards = int(self.num_shards)
        self.chunk = int(self.chunk)
        if self.n_users is not None:
            self.n_users = int(self.n_users)
            if self.n_users < 1:
                raise InvalidParameterError(
                    f"n_users must be positive, got {self.n_users}"
                )
        if self.domain_size < 2:
            raise InvalidParameterError(
                f"domain_size must be >= 2, got {self.domain_size}"
            )
        if self.epsilon <= 0:
            raise InvalidParameterError(
                f"epsilon must be positive, got {self.epsilon}"
            )
        if self.window < 1:
            raise InvalidParameterError(
                f"window must be >= 1, got {self.window}"
            )
        if self.chunk < 1:
            raise InvalidParameterError(
                f"chunk must be >= 1, got {self.chunk}"
            )
        if self.capacity is not None:
            self.capacity = int(self.capacity)
            if self.capacity < self.chunk:
                raise InvalidParameterError(
                    f"capacity {self.capacity} must cover a whole ingest "
                    f"chunk ({self.chunk}): merged rows are read back from "
                    f"the shard stores after each flush"
                )
        if not 0.0 < self.confidence < 1.0:
            raise InvalidParameterError(
                f"confidence must be in (0, 1), got {self.confidence}"
            )
        check_checkpoint_every(self.checkpoint_every)

    def recorded(self) -> dict:
        """The config keys persisted in (and validated against) front.json.

        A ``num_shards`` mismatch on resume is the reshard refusal.
        """
        return {
            "mechanism": self.mechanism,
            "oracle": self.oracle,
            "postprocess": self.postprocess,
            "epsilon": self.epsilon,
            "window": self.window,
            "n_users": self.n_users,
            "domain_size": self.domain_size,
            "num_shards": self.num_shards,
            "capacity": self.capacity,
            "fast": self.fast,
        }


def _frame(message) -> list:
    """``message`` as the buffers ``Connection.send`` writes: a ``!i``
    length (``-1`` then ``!Q`` past 2 GiB) and the pickle, so the
    worker's ``Connection.recv`` reads it."""
    payload = ForkingPickler.dumps(message)
    size = len(payload)
    if size > 0x7FFFFFFF:
        return [struct.pack("!iQ", -1, size), payload]
    return [struct.pack("!i", size), payload]


class _WorkerHandle:
    """One shard worker (process or thread) + its command pipe (front side).

    Commands and replies pair up in order: the worker serves its pipe
    one command at a time, so the ``k``-th reply answers the ``k``-th
    command still pending.  Sends never block the event loop: with a
    command pending, a blocking send of the next one could wait for the
    worker to read it while the worker waits for the front to read its
    reply.  Bytes the pipe cannot take yet wait in ``_outbox`` and go
    out as it drains.
    """

    def __init__(self, index: int, runner, conn):
        self.index = index
        self.runner = runner
        self.conn = conn
        # A second handle on the pipe's socket, for MSG_DONTWAIT sends:
        # the fd stays blocking for ``conn.recv``.
        self._sock = socket.socket(fileno=os.dup(conn.fileno()))
        self._outbox = bytearray()
        self._pending: collections.deque = collections.deque()

    def request(self, *message) -> asyncio.Future:
        """Send one command from the event-loop thread.

        The returned future resolves with the worker's reply, read on the
        loop once the pipe turns readable; a dead worker or an
        ``("error", …)`` reply resolves it to
        :class:`~repro.exceptions.ServingError`.
        """
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        try:
            self._write(loop, _frame(message))
        except OSError:
            future.set_exception(self._died(message[0]))
            return future
        if not self._pending:
            loop.add_reader(self.conn.fileno(), self._on_reply, loop)
        self._pending.append((future, message[0]))
        return future

    def _died(self, op) -> ServingError:
        return ServingError(
            f"shard {self.index} worker died mid-command ({op!r})"
        )

    def _write(self, loop, buffers: list) -> None:
        sent = 0
        if not self._outbox:
            try:
                sent = self._sock.sendmsg(buffers, (), socket.MSG_DONTWAIT)
            except BlockingIOError:
                pass
            if sent == sum(len(b) for b in buffers):
                return
            loop.add_writer(self._sock.fileno(), self._drain, loop)
        for buffer in buffers:
            self._outbox += buffer
        del self._outbox[:sent]

    def _drain(self, loop) -> None:
        try:
            sent = self._sock.send(self._outbox, socket.MSG_DONTWAIT)
        except BlockingIOError:
            return
        except OSError:
            sent = len(self._outbox)  # worker gone: its EOF fails the replies
        del self._outbox[:sent]
        if not self._outbox:
            loop.remove_writer(self._sock.fileno())

    def _on_reply(self, loop) -> None:
        """Read one reply into the oldest pending command's future, even
        a cancelled one, so the pairing never slips; a dead worker fails
        every pending command."""
        future, op = self._pending.popleft()
        try:
            reply = self.conn.recv()
        except (EOFError, OSError):
            lost = [(future, op), *self._pending]
            self._pending.clear()
            loop.remove_reader(self.conn.fileno())
            for waiter, waiting_op in lost:
                if not waiter.cancelled():
                    waiter.set_exception(self._died(waiting_op))
            return
        if not self._pending:
            loop.remove_reader(self.conn.fileno())
        if future.cancelled():
            return
        if reply[0] == "error":
            future.set_exception(
                ServingError(
                    f"shard {self.index} failed on {op!r} and is no "
                    f"longer consistent with the tier: {reply[1]}"
                )
            )
        else:
            future.set_result(reply)

    def stop(self) -> None:
        """Ask the worker to exit, never blocking: a full pipe or a
        half-written command (the loop stopped mid-send) skips the
        request, and the caller's join timeout ends the worker."""
        if not self._outbox:
            try:
                self._sock.sendmsg(_frame(("stop",)), (), socket.MSG_DONTWAIT)
            except OSError:
                pass

    def close(self) -> None:
        for end in (self._sock, self.conn):
            try:
                end.close()
            except OSError:
                pass


class _LineWriter:
    """A text stream as the stdin transport's one client: the
    ``write``/``drain`` pair :meth:`ShardServer._send` expects."""

    def __init__(self, stream):
        self._stream = stream

    def write(self, data: bytes) -> None:
        self._stream.write(data.decode("utf-8"))

    async def drain(self) -> None:
        self._stream.flush()


class ShardServer:
    """The serving tier: shard workers, merged store, asyncio dispatcher.

    ``in_process`` runs each shard's worker loop on a thread of this
    process over an in-process pipe (the stdin transport) instead of in
    a spawned process.
    """

    def __init__(self, config: ServeConfig, *, in_process: bool = False):
        self.config = config
        self.in_process = in_process
        self.router: Optional[ShardRouter] = None
        self.merged = ReleaseStore(config.domain_size, capacity=config.capacity)
        self.engine = QueryEngine(self.merged, confidence=config.confidence)
        self.planner = QueryPlanner(self.engine)
        self.standing = StandingRegistry(self.planner)
        self.workers: List[_WorkerHandle] = []
        self.worker_next: List[int] = []
        self.replay_cache: List[Dict[int, dict]] = []
        self.state_root = (
            None if config.state_dir is None else Path(config.state_dir)
        )
        self._buffer: list = []
        # Flush tasks in flight, oldest first, and the one the next
        # launched flush must land after.
        self._flights: collections.deque = collections.deque()
        self._after: Optional[asyncio.Task] = None
        self._queue: Optional[asyncio.Queue] = None
        # Each connected client's writer -> the task reading its lines.
        self._clients: Dict[object, asyncio.Task] = {}
        self._line_limit = 0
        self._flushed_chunks = 0
        self._skip_remaining = 0
        self._started = False

    # ------------------------------------------------------------------
    @property
    def watermark(self) -> int:
        """Timestamps merged into the population store so far."""
        return self.merged._next_t

    # ------------------------------------------------------------------
    # Bootstrap (blocking)
    # ------------------------------------------------------------------
    def start(self) -> "ShardServer":
        """Resume the front store; start the shards if N is known.

        N is ``config.n_users``, else the resumed ``front.json``'s;
        failing both, the first valid ingest fixes it
        (:meth:`_parse_ingest`).
        """
        if self._started:
            raise InvalidParameterError("server already started")
        if self.state_root is not None:
            self.state_root.mkdir(parents=True, exist_ok=True)
            stray = [
                name
                for name in (CHECKPOINT_FILE, WAL_FILE)
                if (self.state_root / name).exists()
            ]
            if stray and not (self.state_root / FRONT_FILE).exists():
                # Starting over at t=0 here would re-release timestamps
                # that were already published, with fresh randomness.
                raise CheckpointError(
                    f"{self.state_root} has the single-session state-dir "
                    f"layout ({' + '.join(stray)} at its root, no "
                    f"{FRONT_FILE}) of the old stdin serve loop or "
                    f"`repro stream`; `repro serve` keeps {FRONT_FILE} + "
                    f"shard-XX/ and cannot resume it — use a fresh "
                    f"--state-dir"
                )
            self._load_front()
        if self.config.n_users is not None:
            self._start_shards(self.config.n_users)
        self._started = True
        return self

    def _start_shards(self, n_users: int) -> None:
        """Partition N users, spawn the workers, rebuild the crash gap."""
        self.router = ShardRouter(n_users, self.config.num_shards)
        self.config.n_users = self.router.n_users
        front_mark = self.watermark
        ctx = multiprocessing.get_context("spawn")
        config = self.config
        for s in range(config.num_shards):
            worker_config = {
                "mechanism": config.mechanism,
                "oracle": config.oracle,
                "postprocess": config.postprocess,
                "epsilon": config.epsilon,
                "window": config.window,
                "n_users": int(self.router.counts[s]),
                "domain_size": config.domain_size,
                "capacity": config.capacity,
                "chunk": config.chunk,
                "seed": shard_seed(config.seed, s, config.num_shards),
                "enforce_privacy": config.enforce_privacy,
                "fast": config.fast,
                "record_trace": False,
                "state_dir": (
                    None
                    if self.state_root is None
                    else str(shard_state_dir(self.state_root, s))
                ),
                "replay_from": front_mark,
            }
            if self.in_process:
                parent_conn, child_conn = multiprocessing.Pipe()
                runner = threading.Thread(
                    target=shard_worker_main,
                    args=(child_conn, worker_config),
                    name=f"shard-{s:02d}",
                    daemon=True,
                )
                runner.start()
            else:
                parent_conn, child_conn = ctx.Pipe()
                runner = ctx.Process(
                    target=shard_worker_main,
                    args=(child_conn, worker_config),
                    daemon=True,
                )
                runner.start()
                # The front's copy must close so a dead front EOFs the
                # worker.
                child_conn.close()
            self.workers.append(_WorkerHandle(s, runner, parent_conn))
        for handle in self.workers:
            try:
                reply = handle.conn.recv()
            except (EOFError, OSError) as error:
                raise ServingError(
                    f"shard {handle.index} worker died during bootstrap"
                ) from error
            if reply[0] == "error":
                message = str(reply[1])
                if message.startswith("CheckpointError:"):
                    raise CheckpointError(
                        f"shard {handle.index}: {message}"
                    )
                raise ServingError(f"shard {handle.index}: {message}")
            _, shard_mark, wal_rows = reply
            if shard_mark < front_mark:
                raise CheckpointError(
                    f"shard {handle.index} is behind the front checkpoint "
                    f"(shard watermark {shard_mark} < front watermark "
                    f"{front_mark}); the state dir mixes two runs"
                )
            self.worker_next.append(int(shard_mark))
            self.replay_cache.append({int(r["t"]): r for r in wal_rows})
        # Rebuild merged rows the crash cut off: every shard has durable
        # rows for [front_mark, min shard watermark).
        catch_up_to = min(self.worker_next)
        for t in range(front_mark, catch_up_to):
            self.merged.append(t, *self._merged_row(t, {}))
        self._skip_remaining = self.watermark

    def _merged_row(self, t: int, fresh: Dict[int, tuple]):
        """Merge timestamp ``t`` across shards from live replies + caches.

        ``fresh[s]`` is shard ``s``'s just-computed ``(release, variance,
        strategy)``; shards absent from it were ahead of ``t`` and serve
        the row from their replay cache (their WAL already had it).
        """
        releases, variances, strategies = [], [], []
        for s in range(self.config.num_shards):
            if s in fresh:
                release, variance, strategy = fresh[s]
            else:
                row = self.replay_cache[s].pop(t, None)
                if row is None or "variance" not in row:
                    raise CheckpointError(
                        f"shard {s}'s write-ahead log is missing released "
                        f"row t={t}; cannot rebuild the merged store"
                    )
                release = np.asarray(row["release"], dtype=np.float64)
                variance = float(row["variance"])
                strategy = str(row["strategy"])
            releases.append(release)
            variances.append(variance)
            strategies.append(strategy)
        return merge_release_rows(
            releases, variances, strategies, self.router.weights
        )

    # ------------------------------------------------------------------
    # front.json
    # ------------------------------------------------------------------
    def _load_front(self) -> None:
        path = self.state_root / FRONT_FILE
        if not path.exists():
            return
        try:
            with path.open("r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except json.JSONDecodeError as error:
            raise CheckpointError(
                f"{path} is not valid JSON: {error}"
            ) from error
        if (
            not isinstance(payload, dict)
            or payload.get("format") != _FRONT_FORMAT
        ):
            raise CheckpointError(f"{path} is not a front checkpoint")
        if payload.get("version") != FRONT_VERSION:
            raise CheckpointError(
                f"unsupported front checkpoint version "
                f"{payload.get('version')!r} (this build reads "
                f"{FRONT_VERSION})"
            )
        recorded = payload.get("config")
        if self.config.n_users is None and isinstance(recorded, dict):
            self.config.n_users = recorded.get("n_users")
        check_config(
            str(path),
            recorded,
            self.config.recorded(),
            hints={"num_shards": _RESHARD_HINT},
        )
        try:
            self.merged = ReleaseStore.from_state(decode(payload["store"]))
        except (KeyError, TypeError, ValueError) as error:
            raise CheckpointError(
                f"corrupt front checkpoint store: {error}"
            ) from error
        if self.merged._next_t != int(payload.get("watermark", -1)):
            raise CheckpointError(
                f"front checkpoint watermark {payload.get('watermark')!r} "
                f"disagrees with its store ({self.merged._next_t})"
            )
        self.engine = QueryEngine(
            self.merged, confidence=self.config.confidence
        )
        # The query surface answers against the resumed store; standing
        # registrations are per-connection and start empty on resume.
        self.planner = QueryPlanner(self.engine)
        self.standing = StandingRegistry(self.planner)

    def _write_front(self) -> None:
        """Atomically persist the merged store + watermark.

        Runs only after every shard's checkpoint ack, so on disk the
        front watermark never exceeds any shard's — the invariant the
        resume path's gap rebuild relies on.
        """
        payload = {
            "format": _FRONT_FORMAT,
            "version": FRONT_VERSION,
            "config": self.config.recorded(),
            "watermark": self.watermark,
            "store": encode(self.merged.state_dict()),
        }
        write_atomic(self.state_root / FRONT_FILE, json.dumps(payload))

    # ------------------------------------------------------------------
    # Ingest path
    # ------------------------------------------------------------------
    def _parse_ingest(self, request: dict) -> np.ndarray:
        """One ingest request -> validated ``(n_users,)`` snapshot.

        The snapshot keeps its wire dtype: a b64 payload stays a
        read-only ``uint8``/``uint16``/``uint32`` view of the decoded
        bytes, JSON ``values`` are int64.  It is widened once, when the
        shard's :class:`~repro.streams.online.OnlineStream` copies it
        into its int64 ring.
        """
        if "b64" in request:
            dtype_tag = request.get("dtype", "u1")
            if dtype_tag not in _B64_DTYPES:
                raise InvalidParameterError(
                    f"ingest dtype must be one of {sorted(_B64_DTYPES)}, "
                    f"got {dtype_tag!r}"
                )
            raw = base64.b64decode(request["b64"], validate=True)
            values = np.frombuffer(raw, dtype=_B64_DTYPES[dtype_tag])
        else:
            values = snapshot_from_json(request["values"])
        n_users = self.config.n_users
        if n_users is not None and values.shape != (n_users,):
            raise InvalidParameterError(
                f"ingest snapshot must carry {n_users} values, "
                f"got {values.shape[0] if values.ndim == 1 else values.shape}"
            )
        if values.size and (
            (values.dtype.kind == "i" and int(values.min()) < 0)
            or int(values.max()) >= self.config.domain_size
        ):
            raise InvalidParameterError(
                f"ingest values outside [0, {self.config.domain_size})"
            )
        if self.router is None:
            # The first valid ingest fixes N.  A bad N is this line's
            # error; a shard that cannot bootstrap is fatal.
            try:
                self._start_shards(values.shape[0])
            except CheckpointError as error:
                raise ServingError(str(error)) from error
        return values

    async def _flush(self) -> None:
        """Ingest the buffered snapshots through all shards in parallel.

        The batch goes to the workers at once; it merges and acks only
        after the flush it was launched behind (``_after``) has landed.
        """
        if not self._buffer:
            return
        entries, self._buffer = self._buffer, []
        previous, self._after = self._after, None
        block = np.stack([values for values, _ in entries])
        m = block.shape[0]
        # Every shard has been sent every row below its ``worker_next``,
        # and the shard that resumed lowest starts at the merged
        # watermark, so the minimum is the watermark plus the rows
        # still in flight.
        t0 = min(self.worker_next)
        parts = self.router.split_block(block)
        starts: Dict[int, int] = {}
        futures = []
        for s, handle in enumerate(self.workers):
            # Per-shard skip: a shard resumed ahead of the merged store
            # already ingested the first rows of this batch; it receives
            # only the suffix it has not seen.
            start_i = max(0, self.worker_next[s] - t0)
            if start_i < m:
                starts[s] = start_i
                futures.append(
                    handle.request(
                        "ingest", t0 + start_i, parts[s][start_i:]
                    )
                )
            self.worker_next[s] = max(self.worker_next[s], t0 + m)
        replies = await asyncio.gather(*futures)
        if previous is not None:
            await previous
        results = {
            s: (start_i, reply[1])
            for (s, start_i), reply in zip(starts.items(), replies)
        }
        acks = []
        for i, (_, writer) in enumerate(entries):
            t = t0 + i
            fresh = {}
            for s, (start_i, rows) in results.items():
                if i >= start_i:
                    fresh[s] = rows[i - start_i]
            release, variance, strategy = self._merged_row(t, fresh)
            self.merged.append(t, release, variance, strategy)
            acks.append(
                (writer, {"op": "ingest", "t": t, "strategy": strategy})
            )
        self._flushed_chunks += 1
        if (
            self.state_root is not None
            and self._flushed_chunks % self.config.checkpoint_every == 0
        ):
            await self._checkpoint()
        await self._send_each(acks)
        # Standing queries advance over exactly the rows this flush
        # merged; alerts go to the connection that registered them.
        await self._send_each(
            (standing.context, event)
            for standing, event in self.standing.poll()
            if standing.context is not None
        )

    async def _launch(self) -> None:
        """Put the buffered batch in flight and go back to parsing.

        With ``_FLIGHTS`` flushes in flight the oldest lands first.  The
        batch runs through :meth:`_flush` as a task behind the newest
        flight; one yield lets it take the buffer and send its worker
        commands first.
        """
        if len(self._flights) >= _FLIGHTS:
            await self._land()
        self._after = self._flights[-1] if self._flights else None
        self._flights.append(asyncio.ensure_future(self._flush()))
        await asyncio.sleep(0)

    async def _land(self) -> None:
        """Wait for the oldest flush in flight: its merge, acks and
        alerts."""
        await self._flights.popleft()

    async def _settle(self) -> None:
        """Land every flush in flight, in order."""
        while self._flights:
            await self._land()

    async def _barrier(self) -> None:
        """Land every ingest received so far, in flight or buffered."""
        await self._settle()
        await self._flush()

    async def _checkpoint(self) -> None:
        """Coordinated checkpoint: all shards first, front.json last."""
        if self.state_root is None:
            raise CheckpointError(
                "the server has no --state-dir to checkpoint into"
            )
        if self.router is None:
            return  # no shards yet: nothing ingested, nothing to persist
        await asyncio.gather(
            *(handle.request("checkpoint") for handle in self.workers)
        )
        self._write_front()

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------
    async def _answer(self, request: dict) -> dict:
        """Answer one parsed query against the merged store.

        Every query op lowers through the planner
        (:mod:`repro.query.planner`), so the answer is exactly what the
        equivalent hand-composed ``QueryEngine`` calls produce — the
        four classic verbs keep their legacy reply shapes
        byte-for-byte, and the DSL composites (``filter``/``groupby``/
        ``changepoint``/``threshold``, plus ``{"op": "query"}``
        envelopes carrying ``expr`` text) ride the same path.
        """
        op = request.get("op")
        if op == "summary":
            return await self._summary()
        if op != "query" and op not in QUERY_OPS:
            raise InvalidParameterError(
                f"unknown op {op!r}; expected ingest/"
                + "/".join(QUERY_OPS)
                + "/query/standing/summary/checkpoint/shutdown"
            )
        query = query_from_request(request)
        as_of = {"as_of": self.merged.latest_t}
        return {**self.planner.answer(query), **as_of}

    def _standing_request(self, request: dict, writer) -> dict:
        """Register / unregister / list standing queries.

        The registering connection is the alert sink: every event the
        query emits from later ingest flushes is written to it.
        """
        action = request.get("action")
        if action == "register":
            sid = request.get("id")
            if "expr" in request:
                expr = request["expr"]
                if not isinstance(expr, str):
                    raise InvalidParameterError(
                        f"'expr' must be a string, got {expr!r}"
                    )
                query = parse_expr(expr)
            elif "q" in request:
                query_from = request["q"]
                query = query_from_request(query_from)
            else:
                raise InvalidParameterError(
                    "a standing register needs 'expr' (text syntax) or "
                    "'q' (wire form)"
                )
            standing = self.standing.register(sid, query, context=writer)
            return {"op": "standing", "action": action, **standing.describe()}
        if action == "unregister":
            sid = request.get("id")
            if not isinstance(sid, str):
                raise InvalidParameterError(
                    f"a standing unregister needs a string 'id', got {sid!r}"
                )
            return {
                "op": "standing",
                "action": action,
                "id": sid,
                "removed": self.standing.unregister(sid),
            }
        if action == "list":
            return {
                "op": "standing",
                "action": action,
                "standing": self.standing.describe(),
            }
        raise InvalidParameterError(
            f"unknown standing action {action!r}; expected "
            f"register/unregister/list"
        )

    async def _summary(self) -> dict:
        if self.router is None:
            raise InvalidParameterError(
                "no timestamps ingested yet; send an ingest request first"
            )
        replies = await asyncio.gather(
            *(handle.request("summary") for handle in self.workers)
        )
        shard_summaries = [reply[1] for reply in replies]
        steps = self.watermark
        total_reports = sum(s["total_reports"] for s in shard_summaries)
        store = self.merged
        return {
            "op": "summary",
            "mechanism": self.config.mechanism,
            "oracle": self.config.oracle,
            "epsilon": self.config.epsilon,
            "window": self.config.window,
            "num_shards": self.config.num_shards,
            "shard_users": [int(c) for c in self.router.counts],
            "steps": steps,
            "publications": store.publication_count,
            "total_reports": total_reports,
            "cfpu": (
                total_reports / (self.config.n_users * steps)
                if steps
                else 0.0
            ),
            "max_window_spend": max(
                s["max_window_spend"] for s in shard_summaries
            ),
            "retained": len(store),
            "oldest_t": store.oldest_t,
            "latest_t": store.latest_t,
            "evicted": store.evicted,
        }

    # ------------------------------------------------------------------
    # Asyncio front
    # ------------------------------------------------------------------
    async def _send(self, writer, *payloads: dict) -> None:
        """Write ``payloads`` to one client as lines: one write, one
        drain."""
        try:
            writer.write(
                "".join(json.dumps(p) + "\n" for p in payloads).encode("utf-8")
            )
            await writer.drain()
        except (ConnectionError, RuntimeError):
            pass  # client went away; its acks are moot

    async def _send_each(self, pairs) -> None:
        """Send ``(writer, payload)`` pairs with one :meth:`_send` per
        writer, each writer's payloads in order."""
        grouped: Dict[object, list] = {}
        for writer, payload in pairs:
            grouped.setdefault(writer, []).append(payload)
        for writer, payloads in grouped.items():
            await self._send(writer, *payloads)

    async def _handle_client(self, reader, writer) -> None:
        self._clients[writer] = asyncio.current_task()
        try:
            while True:
                line = await _read_line(reader)
                if line == b"":
                    return
                if line is not None and not line.strip():
                    continue
                await self._queue.put((line, writer))
        except (ConnectionError, asyncio.IncompleteReadError):
            return
        except asyncio.CancelledError:
            # Loop teardown after shutdown: exit cleanly so Python 3.11's
            # stream-protocol callback doesn't log the cancellation.
            return
        finally:
            self._clients.pop(writer, None)
            try:
                writer.close()
            except RuntimeError:
                pass

    async def _handle(self, line, writer) -> bool:
        """Serve one request line; ``True`` once it was ``shutdown``.

        Both transports feed every line through here in arrival order.
        Ingests buffer until ``chunk`` are pending, then go in flight
        behind at most one other flush; any other op, and any bad
        line, is a barrier (:meth:`_barrier`) before it answers.  A bad
        line answers an error line (``line=None`` is a socket line over
        the length limit, already dropped).  A lost shard raises
        :class:`~repro.exceptions.ServingError` to the transport.
        """
        try:
            if line is None:
                raise InvalidParameterError(
                    f"request line longer than {self._line_limit} bytes, "
                    f"the longest ingest for this population"
                )
            request = json.loads(line)
            if not isinstance(request, dict):
                raise InvalidParameterError(
                    "each request must be a JSON object"
                )
            op = request.get("op")
            if op == "ingest":
                values = self._parse_ingest(request)
                if self._skip_remaining > 0:
                    # Replayed feed: this timestamp was merged before
                    # the restart; acknowledge without re-applying.
                    t_skip = self.watermark - self._skip_remaining
                    self._skip_remaining -= 1
                    await self._send(
                        writer,
                        {"op": "ingest", "t": t_skip, "skipped": True},
                    )
                    return False
                self._buffer.append((values, writer))
                if len(self._buffer) >= self.config.chunk:
                    await self._launch()
            elif op == "standing":
                # Registration sees every ingest acked before it: the
                # barrier lands them first, so the watermark the query
                # anchors at is the one the client saw.
                await self._barrier()
                await self._send(
                    writer, self._standing_request(request, writer)
                )
            elif op in ("checkpoint", "shutdown"):
                await self._barrier()
                if op == "checkpoint" or self.state_root is not None:
                    await self._checkpoint()
                await self._send(
                    writer, {"op": op, "watermark": self.watermark}
                )
                return op == "shutdown"
            else:
                # Queries answer against everything ingested so far.
                await self._barrier()
                await self._send(writer, await self._answer(request))
        except ServingError:
            raise
        except (
            ReproError,
            KeyError,
            ValueError,
            TypeError,
            OverflowError,
        ) as error:
            await self._barrier()
            await self._send(
                writer,
                {"error": f"{type(error).__name__}: {error}"},
            )
        return False

    async def _fatal(self, error: ServingError, writers) -> None:
        """A lost shard: one ``fatal`` error line to each client."""
        line = {"error": f"{type(error).__name__}: {error}", "fatal": True}
        for writer in writers:
            await self._send(writer, line)

    async def _dispatch(self) -> None:
        """Socket transport: serve the queue with two flushes in flight.

        Queued lines are handled back to back.  When the queue idles, a
        partial batch goes in flight only if none is, and the dispatcher
        waits on whichever comes first: the next line or the oldest
        flight landing — so no ack waits for another line.  A lost shard
        tells every connected client, then raises; every flight left is
        cancelled or its outcome retrieved, so the one fatal line is
        all that reports it.
        """
        queue = self._queue
        getter = None
        try:
            while True:
                if getter is None and not queue.empty():
                    if await self._handle(*queue.get_nowait()):
                        return
                    continue
                while self._flights and self._flights[0].done():
                    await self._land()
                if self._buffer and not self._flights:
                    await self._launch()
                if getter is None:
                    getter = asyncio.ensure_future(queue.get())
                waiting = {getter}
                if self._flights:
                    waiting.add(self._flights[0])
                await asyncio.wait(
                    waiting, return_when=asyncio.FIRST_COMPLETED
                )
                if getter.done():
                    line, writer = getter.result()
                    getter = None
                    if await self._handle(line, writer):
                        return
        except ServingError as error:
            await self._fatal(error, list(self._clients))
            raise
        finally:
            if getter is not None:
                getter.cancel()
            for flight in self._flights:
                if not flight.cancel() and not flight.cancelled():
                    flight.exception()

    async def _serve_lines(self, source, stdout) -> int:
        """Stdin transport: ``source`` lines in, answers on ``stdout``.

        No idle flush: a partial batch waits for ``chunk``, another op
        or EOF.  Each flush lands before the next line is read: the read
        blocks the loop, and the client may wait for its acks before
        writing more.  EOF flushes and checkpoints like ``shutdown`` but
        answers nothing.
        """
        writer = _LineWriter(stdout)
        handled = False
        try:
            for line in source:
                if not line.strip():
                    continue
                handled = True
                if await self._handle(line, writer):
                    return 0
                await self._settle()
            if not handled:
                raise InvalidParameterError("no requests received")
            await self._flush()
            if self.state_root is not None:
                await self._checkpoint()
        except ServingError as error:
            await self._fatal(error, [writer])
            raise
        return 0

    async def _amain(self, stdout) -> int:
        self._queue = asyncio.Queue()
        self._line_limit = line_limit(
            self.config.n_users, self.config.domain_size
        )
        server = await asyncio.start_server(
            self._handle_client,
            self.config.host,
            self.config.port,
            limit=self._line_limit,
        )
        port = server.sockets[0].getsockname()[1]
        # The hello line is the service-discovery contract: drivers read
        # it from stdout to find the ephemeral port and the resume
        # watermark (the number of feed lines to expect skipped acks for).
        print(
            json.dumps(
                {
                    "event": "listening",
                    "host": self.config.host,
                    "port": port,
                    "shards": self.config.num_shards,
                    "watermark": self.watermark,
                }
            ),
            file=stdout,
            flush=True,
        )
        try:
            await self._dispatch()
        finally:
            server.close()
            await self._hang_up()
            await server.wait_closed()
        return 0

    async def _hang_up(self) -> None:
        """End every connection without a reset.

        Closing a socket that still holds unread request bytes makes the
        kernel reset the connection, and the client loses the answers
        (the ``shutdown`` or ``fatal`` line) already written to it.  So
        each connection is half-closed first: the client reads to EOF,
        and its reader task goes on discarding lines until the client
        closes too, for at most ``_HANG_UP_S``.
        """
        for writer in list(self._clients):
            try:
                writer.write_eof()
            except OSError:
                pass
        readers = list(self._clients.values())
        if readers:
            await asyncio.wait(readers, timeout=_HANG_UP_S)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the workers (idempotent)."""
        for handle in self.workers:
            handle.stop()
        for handle in self.workers:
            handle.runner.join(timeout=5)
            if handle.runner.is_alive() and not self.in_process:
                handle.runner.terminate()
            handle.close()
        self.workers = []


def run_server(config: ServeConfig, *, stdout=None, stdin=None) -> int:
    """Bootstrap the tier and serve until ``shutdown`` (or EOF).

    Without ``stdin`` this is ``repro serve --shards``: the socket
    transport, which prints the hello line (ephemeral port + watermark)
    to ``stdout`` once listening.  With ``stdin`` it is plain
    ``repro serve``: the stdin transport, shards on threads of this
    process, answers on ``stdout``.
    """
    stdout = stdout or sys.stdout
    server = ShardServer(config, in_process=stdin is not None)
    try:
        server.start()
        if stdin is None:
            return asyncio.run(server._amain(stdout))
        return asyncio.run(server._serve_lines(stdin, stdout))
    finally:
        server.close()

"""Span tracer installed from the benchmark: wraps each repro layer's
public entry points with timing spans and counters.

Nothing under ``src/`` knows about it.  :func:`install` patches class
attributes in place and rebinds module-level functions in every loaded
``repro`` module that imported them by name (``block_histograms`` is
bound in ``kernels_fast``, ``collector`` and ``soa``), so it must run
before sessions memoize their oracle samplers — the sampler closures
are wrapped as they are built.

A span's *self* time is its duration minus the time its child spans
cover.  Counters attach to the outermost span of a name only, so a
``charge_many`` that loops over ``charge`` counts its timestamps once.
Observation never touches an argument or an RNG: outputs stay
bit-identical, which every traced run asserts through its digests.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict

MECHANISMS = ("LBU", "LSP", "LBD", "LBA", "LPU", "LPD", "LPA")

_clock = time.perf_counter


class Tracer:
    """In-memory span and counter aggregates for one process."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(float)
        self.root_s = 0.0  # time covered by outermost spans
        # Self time by (innermost enclosing mechanism span, span name):
        # attributes shared layers to the mechanism that drove them.
        self.by_mechanism = defaultdict(float)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, span, count=None):
        """Wrap ``fn`` in a span; ``span`` is a name or ``f(args) -> name``.

        ``count(args, kwargs, result)`` yields ``(counter, amount)``
        pairs, applied unless the enclosing span has the same name.
        ``span=None`` records counts without a span.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            name = span(args) if callable(span) else span
            nested = bool(stack) and stack[-1][0] == name
            if name is None:
                result = fn(*args, **kwargs)
            else:
                owner = stack[-1][3] if stack else ""
                if name.startswith("mechanisms."):
                    owner = name
                frame = [name, _clock(), 0.0, owner]
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    duration = _clock() - frame[1]
                    stack.pop()
                    tracer.self_s[name] += duration - frame[2]
                    tracer.by_mechanism[f"{owner}|{name}"] += (
                        duration - frame[2]
                    )
                    tracer.total_s[name] += duration
                    tracer.calls[name] += 1
                    if stack:
                        stack[-1][2] += duration
                    else:
                        tracer.root_s += duration
            if count is not None and not nested:
                for key, amount in count(args, kwargs, result):
                    tracer.counters[key] += amount
            return result

        return traced

    def patch_method(self, cls, attr, span, count=None):
        """Wrap ``cls.attr`` if ``cls`` itself defines it."""
        raw = cls.__dict__.get(attr)
        if raw is None:
            return
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(cls, attr, type(raw)(self.wrap(raw.__func__, span, count)))
        else:
            setattr(cls, attr, self.wrap(raw, span, count))

    def patch_function(self, module, attr, span, count=None):
        """Wrap a module function and rebind every ``repro`` import of it."""
        original = getattr(module, attr)
        wrapped = self.wrap(original, span, count)
        for name, loaded in list(sys.modules.items()):
            if not name.startswith("repro") or loaded is None:
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapped)

    def dump(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
            "by_mechanism": dict(self.by_mechanism),
            "root_s": self.root_s,
        }


def _one(key):
    return lambda args, kwargs, result: ((key, 1),)


def _rows(key, arg_index=1):
    def count(args, kwargs, result):
        return ((key, len(args[arg_index])),)

    return count


def _records(args, kwargs, result):
    name = args[0].name
    records = result if isinstance(result, list) else [result]
    published = sum(1 for r in records if r.strategy == "publish")
    return (
        (f"mechanisms.{name}.steps", len(records)),
        (f"mechanisms.{name}.publishes", published),
    )


def _mechanism_span(args):
    return f"mechanisms.{args[0].name}"


def install(tracer: Tracer, serving: bool = False) -> Tracer:
    """Wrap every layer's public entry points (idempotence not needed:
    each process installs once)."""
    if serving:
        # Import first so the by-name rebinding reaches server.py's
        # ``merge_release_rows``.
        import repro.serving.server  # noqa: F401
    from repro.engine import accountant, collector, kernels_fast, population
    from repro.engine import session, soa
    from repro.freq_oracles import base as fo_base
    from repro.mechanisms import base as mech_base
    from repro.mechanisms.base import get_mechanism
    from repro.persist import checkpoint, wal
    from repro.query import planner, standing, store
    from repro.streams import base as streams_base
    from repro.streams import online

    # streams
    for cls in (streams_base.StreamDataset, streams_base.MaterializedStream):
        tracer.patch_method(
            cls, "values_range", "streams.values_range", _one("streams.calls")
        )
    tracer.patch_method(
        online.OnlineStream, "push", "streams.push", _one("streams.calls")
    )

    # engine.kernels_fast: bound by name in collector and soa too.
    tracer.patch_function(
        kernels_fast,
        "block_histograms",
        "engine.kernels_fast.block_histograms",
        _one("engine.kernels_fast.block_histograms.calls"),
    )

    # freq_oracles: direct draws plus the memoized sampler closures.
    def rounds_of(args, kwargs, result):
        counts = args[0]
        rounds = len(counts) if counts.ndim > 1 else 1
        return (("freq_oracles.rounds", rounds),)

    def sampler_factory(factory):
        @functools.wraps(factory)
        def build(*args, **kwargs):
            return tracer.wrap(
                factory(*args, **kwargs), "freq_oracles.draw", rounds_of
            )

        return build

    oracle_classes = [fo_base.FrequencyOracle]
    oracle_classes += list(fo_base.FrequencyOracle.__subclasses__())
    for cls in oracle_classes:
        for attr in ("run_sampler", "round_sampler"):
            raw = cls.__dict__.get(attr)
            if raw is not None:
                setattr(cls, attr, sampler_factory(raw))
        tracer.patch_method(
            cls, "sample_aggregate", "freq_oracles.draw",
            _one("freq_oracles.rounds"),
        )
        for attr in ("sample_aggregate_run", "sample_aggregate_batch"):
            tracer.patch_method(
                cls, attr, "freq_oracles.draw",
                lambda a, k, r: (("freq_oracles.rounds", len(r)),),
            )
        tracer.patch_method(
            cls, "sample_aggregate_run_stacked", "freq_oracles.stacked",
            lambda a, k, r: (("freq_oracles.stacked.layers", len(r)),),
        )

    # engine.population
    for attr in ("sample", "sample_run", "recycle", "recycle_run"):
        tracer.patch_method(
            population.UserPool, attr, "engine.population",
            _one("engine.population.calls"),
        )

    # engine.accountant
    account = accountant.WEventAccountant
    tracer.patch_method(
        account, "charge", "engine.accountant",
        _one("engine.accountant.charges"),
    )
    tracer.patch_method(
        account, "charge_many", "engine.accountant",
        _rows("engine.accountant.charges"),
    )
    tracer.patch_method(
        account, "charge_span", "engine.accountant",
        lambda a, k, r: (("engine.accountant.charges", a[2]),),
    )

    # mechanisms: every registered core class plus the base fallbacks.
    classes = {mech_base.StreamMechanism}
    classes.update(type(get_mechanism(name)) for name in MECHANISMS)
    for cls in classes:
        for attr in ("step", "step_many", "absorb_run"):
            tracer.patch_method(cls, attr, _mechanism_span, _records)
    chunk = collector.ChunkContext
    tracer.patch_method(
        chunk, "speculate_run", None,
        _rows("mechanisms.speculation.drawn", 2),
    )
    tracer.patch_method(
        chunk, "commit_run", None,
        _rows("mechanisms.speculation.committed", 2),
    )

    # engine.soa
    tracer.patch_method(soa.SoAScheduler, "advance", "engine.soa")
    tracer.patch_method(
        soa.SoAScheduler, "_drive_fused", "engine.soa.fused",
        _rows("engine.soa.fused_layers"),
    )

    # engine.session: ingest entry points and the shared absorb tail.
    streamsession = session.StreamSession
    for attr in ("observe", "observe_many", "_absorb_records"):
        tracer.patch_method(streamsession, attr, "engine.session")
    tracer.patch_method(
        streamsession, "ingest_prepared", "engine.session",
        _one("engine.soa.generic_sessions"),
    )

    # query.store
    tracer.patch_method(
        store.ReleaseStore, "append", "query.store.append",
        _one("query.store.appends"),
    )
    tracer.patch_function(
        store, "merge_release_rows", "query.store.merge_rows"
    )

    # persist.wal: bytes are the file growth across the fsync'd commit.
    original_commit = wal.ReleaseWAL.commit

    def wal_commit(log, watermark):
        before = os.fstat(log._handle.fileno()).st_size
        original_commit(log, watermark)
        tracer.counters["persist.wal.bytes"] += (
            os.fstat(log._handle.fileno()).st_size - before
        )

    wal.ReleaseWAL.commit = tracer.wrap(
        functools.wraps(original_commit)(wal_commit),
        "persist.wal.commit",
        _one("persist.wal.commits"),
    )

    # persist.checkpoint
    tracer.patch_method(
        checkpoint.Checkpoint, "capture", "persist.checkpoint.capture"
    )
    tracer.patch_method(
        checkpoint.Checkpoint, "save", "persist.checkpoint.save",
        _one("persist.checkpoint.saves"),
    )

    # query.planner / query.standing
    tracer.patch_method(
        planner.QueryPlanner, "answer", "query.planner.answer",
        _one("query.planner.answers"),
    )
    tracer.patch_method(
        standing.StandingRegistry, "poll", "query.standing.poll",
        lambda a, k, r: (("query.standing.alerts", len(r)),),
    )

    if serving:
        _install_serving(tracer)
    return tracer


def _install_serving(tracer: Tracer) -> None:
    """Front-side serving spans: router split, flush batches, front.json."""
    from repro.serving import router, server

    tracer.patch_method(
        router.ShardRouter, "split_block", "serving.router.split_block"
    )
    tracer.patch_method(
        server.ShardServer, "_write_front", "persist.checkpoint.save",
        _one("persist.checkpoint.saves"),
    )
    original_flush = server.ShardServer._flush

    @functools.wraps(original_flush)
    async def flush(front):
        batch = len(front._buffer)
        if not batch:
            return await original_flush(front)
        started = _clock()
        spans_before = tracer.root_s
        try:
            return await original_flush(front)
        finally:
            counters = tracer.counters
            counters["serving.flushes"] += 1
            counters["serving.flushed"] += batch
            counters["serving.flush_wall_s"] += _clock() - started
            counters["serving.flush_front_spans_s"] += (
                tracer.root_s - spans_before
            )

    server.ShardServer._flush = flush


class _BusyConn:
    """Worker pipe proxy: time from a command's arrival to its reply,
    for the commands a flush sends (``ingest``, and ``checkpoint`` every
    ``--checkpoint-every`` flushes; the one shutdown checkpoint is
    counted too); ``summary`` and ``stop`` are not flush work."""

    FLUSH_OPS = ("ingest", "checkpoint")

    def __init__(self, conn, tracer: Tracer):
        self._conn = conn
        self._tracer = tracer
        self._received = None

    def recv(self):
        message = self._conn.recv()
        if message[0] in self.FLUSH_OPS:
            self._received = _clock()
        return message

    def send(self, message):
        if self._received is not None:
            self._tracer.counters["serving.worker_busy_s"] += (
                _clock() - self._received
            )
            self._received = None
        self._conn.send(message)

    def close(self):
        self._conn.close()


def install_worker(tracer: Tracer) -> None:
    """Shard-worker side: time every command the worker serves."""
    from repro.serving import worker

    original = worker.shard_worker_main

    @functools.wraps(original)
    def shard_worker_main(conn, config):
        return original(_BusyConn(conn, tracer), config)

    worker.shard_worker_main = shard_worker_main


def install_from_env() -> None:
    """``sitecustomize`` hook: trace this process if the env asks for it.

    ``PERFBENCH_TRACE_DIR`` names the directory each traced process
    writes ``trace-<pid>.json`` into when it exits.
    """
    out_dir = os.environ.get("PERFBENCH_TRACE_DIR")
    if not out_dir:
        return
    import atexit

    tracer = install(Tracer(), serving=True)
    if "--multiprocessing-fork" in sys.argv:
        install_worker(tracer)

    def write() -> None:
        path = os.path.join(out_dir, f"trace-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(tracer.dump(), handle)

    atexit.register(write)


def merge(dumps) -> dict:
    """Sum several processes' dumps into one."""
    keys = ("self_s", "total_s", "calls", "counters", "by_mechanism")
    total = {key: defaultdict(float) for key in keys}
    total["root_s"] = 0.0
    for dump in dumps:
        for key in keys:
            for name, value in dump[key].items():
                total[key][name] += value
        total["root_s"] += dump["root_s"]
    return total


def layer_metrics(dump: dict, rounds: int) -> dict:
    """The per-layer metric set, times per measured round.

    Idle layers read 0.  ``rounds`` normalises self times to one
    workload round (sweep: one grid pass; stream: one round of all its
    sessions; serve: one load run, fixed-rate phase and bursts together).
    """
    self_s = dump["self_s"]
    counters = dump["counters"]
    per = 1.0 / max(1, rounds)

    def s(name):
        return self_s.get(name, 0.0) * per

    def c(name):
        return counters.get(name, 0.0) * per

    def ratio(num, den):
        den = counters.get(den, 0.0)
        return counters.get(num, 0.0) / den if den else 0.0

    metrics = {
        "streams.values_range.self_s": s("streams.values_range"),
        "streams.push.self_s": s("streams.push"),
        "streams.calls": c("streams.calls"),
        "engine.kernels_fast.block_histograms.self_s":
            s("engine.kernels_fast.block_histograms"),
        "engine.kernels_fast.block_histograms.calls":
            c("engine.kernels_fast.block_histograms.calls"),
        "freq_oracles.draw.self_s": s("freq_oracles.draw"),
        "freq_oracles.rounds": c("freq_oracles.rounds"),
        "freq_oracles.stacked.self_s": s("freq_oracles.stacked"),
        "freq_oracles.stacked.layers": c("freq_oracles.stacked.layers"),
        "engine.population.self_s": s("engine.population"),
        "engine.population.calls": c("engine.population.calls"),
        "engine.accountant.self_s": s("engine.accountant"),
        "engine.accountant.charges": c("engine.accountant.charges"),
    }
    for name in MECHANISMS:
        metrics[f"mechanisms.{name}.self_s"] = s(f"mechanisms.{name}")
        metrics[f"mechanisms.{name}.publish_ratio"] = ratio(
            f"mechanisms.{name}.publishes", f"mechanisms.{name}.steps"
        )
    metrics.update({
        "mechanisms.speculation.kept_ratio": ratio(
            "mechanisms.speculation.committed", "mechanisms.speculation.drawn"
        ),
        "mechanisms.speculation.rounds": c("mechanisms.speculation.drawn"),
        "engine.soa.self_s": s("engine.soa") + s("engine.soa.fused"),
        "engine.soa.fused_layers": c("engine.soa.fused_layers"),
        "engine.soa.generic_sessions": c("engine.soa.generic_sessions"),
        "engine.session.self_s": s("engine.session"),
        "query.store.append.self_s": s("query.store.append"),
        "query.store.merge_rows.self_s": s("query.store.merge_rows"),
        "query.store.appends": c("query.store.appends"),
        "persist.wal.commit.self_s": s("persist.wal.commit"),
        "persist.wal.commits": c("persist.wal.commits"),
        "persist.wal.bytes": c("persist.wal.bytes"),
        "persist.checkpoint.capture.self_s": s("persist.checkpoint.capture"),
        "persist.checkpoint.save.self_s": s("persist.checkpoint.save"),
        "persist.checkpoint.saves": c("persist.checkpoint.saves"),
        "query.planner.answer.self_s": s("query.planner.answer"),
        "query.planner.answers": c("query.planner.answers"),
        "query.standing.poll.self_s": s("query.standing.poll"),
        "query.standing.alerts": c("query.standing.alerts"),
        "serving.router.split_block.self_s": s("serving.router.split_block"),
        "serving.batch_size": ratio("serving.flushed", "serving.flushes"),
    })
    flushes = counters.get("serving.flushes", 0.0)
    residual = (
        counters.get("serving.flush_wall_s", 0.0)
        - counters.get("serving.flush_front_spans_s", 0.0)
        - counters.get("serving.worker_busy_s", 0.0)
    )
    metrics["serving.front.residual_ms"] = (
        1000.0 * residual / flushes if flushes else 0.0
    )
    return metrics

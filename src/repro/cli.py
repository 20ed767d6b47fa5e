"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``       one streaming session; prints metrics, optionally saves JSON/CSV
``stream``    drive an online session from piped per-timestamp input
``serve``     keep a session hot; answer JSON queries over a piped stream
``query``     one-shot top-k/point/range/sliding queries on a finalized run
``figure``    regenerate a paper figure's series and print it as a table
``table2``    regenerate Table 2 (CFPU) with the paper's values side by side
``campaign``  regenerate every figure and table; write artifacts
``datasets``  list the registered datasets and their size tiers
``methods``   list the registered mechanisms

``run``, ``figure``, ``table2`` and ``campaign`` accept ``--jobs N`` to
fan their experiment grids out over N worker processes (``--jobs 0`` uses
all CPUs).  Results are bit-identical at any worker count: each cell's
randomness is derived from the seed (and, in a grid, the cell's
coordinates) alone (see :mod:`repro.experiments.parallel`).

``stream`` ingests one line per timestamp (whitespace/comma-separated
user values) and releases the private histogram as each line arrives —
a true unbounded online session over a
:class:`~repro.streams.online.OnlineStream`; memory stays constant
unless ``--trace`` asks for the full trace summary.

``serve`` is one server (:class:`~repro.serving.ShardServer`) with two
transports over the same line-delimited JSON protocol: by default it
reads requests on stdin and answers on stdout, with the population in
one shard inside this process; ``--shards K`` listens on a TCP socket
instead and partitions the population across K worker processes.
``ingest`` requests push timestamps into the hot sessions; query
requests (``point`` / ``topk`` / ``range`` / ``sliding`` / the DSL /
``summary``) are answered from a capacity-bounded merged
:class:`~repro.query.ReleaseStore` — an unbounded standing query server
in O(capacity · d) memory.  ``query`` answers the same queries one-shot
against a run saved with ``run --save-json``.

``stream`` and ``serve`` become **durable** with ``--state-dir DIR``:
each flushed chunk commits its releases to an fsync'd write-ahead log
before ``stream`` prints them or ``serve`` acknowledges them, and every
``--checkpoint-every N`` chunks a full checkpoint is written
atomically, so a crashed process restarted with the replayed feed
resumes mid-stream with exactly-once ingestion (re-sent timestamps are
skipped, or acknowledged as skipped) and bit-identical output.  Both
run through one :class:`~repro.persist.DurableSession` — ``stream``
directly, ``serve`` in each shard worker — see ``docs/PERSISTENCE.md``.

Examples
--------
::

    python -m repro run --method LPA --dataset LNS --epsilon 1 --window 20
    python -m repro run --method LPA --repeats 8 --jobs 4
    generator | python -m repro stream --method LBD --domain-size 5 --epsilon 1 --window 20
    mixed_feed | python -m repro serve --method LBD --domain-size 5 --epsilon 1 --window 20
    mixed_feed | python -m repro serve --method LBD --domain-size 5 --epsilon 1 \
        --window 20 --chunk 64 --state-dir state/ --checkpoint-every 4
    python -m repro query session.json topk --k 3 --t 40
    python -m repro figure fig4 --size smoke --jobs 4
    python -m repro table2 --size smoke
    python -m repro campaign --size smoke --jobs 0 --out artifacts/
    python -m repro datasets
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .analysis import (
    mean_absolute_error,
    mean_relative_error,
    mean_squared_error,
    monitoring_roc,
)
from .engine import run_stream
from .exceptions import InvalidParameterError, ReproError
from .mechanisms import available_mechanisms


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LDP-IDS reproduction: w-event LDP for infinite streams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one streaming session")
    run.add_argument("--method", required=True, help="LBU/LSP/LBD/LBA/LPU/LPD/LPA/LPF")
    run.add_argument("--dataset", default="LNS", help="dataset name (see `datasets`)")
    run.add_argument("--size", default="default", choices=["smoke", "default", "paper"])
    run.add_argument("--epsilon", type=float, default=1.0)
    run.add_argument("--window", type=int, default=20)
    run.add_argument("--oracle", default="grr")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--repeats",
        type=int,
        default=1,
        help="average metrics over this many independently seeded sessions",
    )
    _add_jobs_flag(run)
    run.add_argument("--save-json", metavar="PATH", default=None)
    run.add_argument("--save-csv", metavar="PATH", default=None)

    stream = sub.add_parser(
        "stream", help="drive an online session from piped input"
    )
    stream.add_argument("--method", required=True, help="LBU/LSP/LBD/LBA/LPU/LPD/LPA/LPF")
    stream.add_argument(
        "--domain-size",
        type=int,
        required=True,
        help="categorical domain size d of the incoming values",
    )
    stream.add_argument("--epsilon", type=float, default=1.0)
    stream.add_argument("--window", type=int, default=20)
    stream.add_argument("--oracle", default="grr")
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument("--postprocess", default="none")
    stream.add_argument(
        "--input",
        metavar="PATH",
        default="-",
        help="file with one timestamp per line ('-' = stdin)",
    )
    stream.add_argument(
        "--max-steps",
        type=int,
        default=None,
        help="stop after this many timestamps even if input continues",
    )
    stream.add_argument(
        "--emit",
        choices=["releases", "none"],
        default="releases",
        help="print each released histogram as CSV (default) or stay quiet",
    )
    stream.add_argument(
        "--trace",
        action="store_true",
        help="keep the full trace in memory and print error metrics at EOF "
        "(omit for constant-memory unbounded ingestion)",
    )
    _add_chunk_flag(stream)
    _add_state_dir_flags(stream)

    serve = sub.add_parser(
        "serve", help="standing query server over a piped online stream"
    )
    serve.add_argument("--method", required=True, help="LBU/LSP/LBD/LBA/LPU/LPD/LPA/LPF")
    serve.add_argument(
        "--domain-size",
        type=int,
        required=True,
        help="categorical domain size d of the incoming values",
    )
    serve.add_argument("--epsilon", type=float, default=1.0)
    serve.add_argument("--window", type=int, default=20)
    serve.add_argument("--oracle", default="grr")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--postprocess", default="none")
    serve.add_argument(
        "--capacity",
        type=int,
        default=256,
        help="release ring-buffer size (0 = retain full history)",
    )
    serve.add_argument(
        "--confidence",
        type=float,
        default=0.95,
        help="confidence mass of every reported interval",
    )
    serve.add_argument(
        "--input",
        metavar="PATH",
        default="-",
        help="file with one JSON request per line ('-' = stdin)",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="K",
        help="serve TCP clients instead of stdin: the same server, with "
        "the population partitioned across K worker processes and queries "
        "answered from the merged release store (see docs/SERVING.md)",
    )
    serve.add_argument(
        "--n-users",
        type=int,
        default=None,
        metavar="N",
        help="population size (default: from the resumed --state-dir, "
        "else from the first ingest)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="with --shards: TCP port to listen on (default 0 = ephemeral; "
        "the chosen port is printed in the JSON hello line)",
    )
    serve.add_argument(
        "--no-fast",
        dest="fast",
        action="store_false",
        help="run the literal per-user perturbation protocol instead of "
        "the exact count-level samplers (CPU-bound; this is the regime "
        "where --shards parallelism pays off)",
    )
    _add_chunk_flag(serve)
    _add_state_dir_flags(serve)

    query = sub.add_parser(
        "query", help="one-shot queries against a saved session JSON"
    )
    query.add_argument(
        "run", metavar="RUN_JSON", help="session saved by `run --save-json`"
    )
    query.add_argument(
        "op",
        nargs="?",
        default=None,
        choices=["point", "topk", "range", "sliding", "info"],
        help="classic verb (or use --expr for the full DSL)",
    )
    query.add_argument(
        "--expr",
        default=None,
        metavar="EXPR",
        help="DSL text query, e.g. "
        '"topk(5) where item in {0..9} @ t=200" — see docs/QUERIES.md',
    )
    query.add_argument("--t", type=int, default=None, help="timestamp (default: last)")
    query.add_argument("--item", type=int, default=None)
    query.add_argument("--k", type=int, default=5)
    query.add_argument("--lo", type=int, default=None)
    query.add_argument("--hi", type=int, default=None)
    query.add_argument("--t0", type=int, default=None)
    query.add_argument("--t1", type=int, default=None)
    query.add_argument(
        "--agg",
        choices=["sum", "mean", "max"],
        default="sum",
        help="sliding aggregate (default sum, same as the engine and "
        "the serve protocol)",
    )
    query.add_argument("--confidence", type=float, default=0.95)

    figure = sub.add_parser("figure", help="regenerate a paper figure series")
    figure.add_argument(
        "name", choices=["fig4", "fig5", "fig6", "fig7", "fig8"]
    )
    figure.add_argument("--size", default="smoke", choices=["smoke", "default", "paper"])
    figure.add_argument("--seed", type=int, default=0)
    figure.add_argument("--repeats", type=int, default=1)
    _add_jobs_flag(figure)

    table2 = sub.add_parser("table2", help="regenerate Table 2 (CFPU)")
    table2.add_argument("--size", default="smoke", choices=["smoke", "default", "paper"])
    table2.add_argument("--seed", type=int, default=0)
    _add_jobs_flag(table2)

    campaign = sub.add_parser(
        "campaign", help="regenerate every figure & table; write artifacts"
    )
    campaign.add_argument("--out", metavar="DIR", default=None)
    campaign.add_argument(
        "--size", default="smoke", choices=["smoke", "default", "paper"]
    )
    campaign.add_argument("--repeats", type=int, default=1)
    campaign.add_argument("--seed", type=int, default=0)
    _add_jobs_flag(campaign)

    sub.add_parser("datasets", help="list datasets")
    sub.add_parser("methods", help="list mechanisms")
    return parser


def _add_chunk_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--chunk",
        type=int,
        default=1,
        metavar="N",
        help="buffer N timestamps and ingest them per engine call (bulk "
        "ingestion: identical output, higher throughput, N-step output "
        "latency; default 1 = release after every timestamp)",
    )


def _add_state_dir_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--state-dir",
        metavar="DIR",
        default=None,
        help="durable session state: write-ahead release log + periodic "
        "checkpoints in DIR; on startup, resume from the latest "
        "checkpoint and skip already-ingested timestamps of a replayed "
        "feed (exactly-once ingestion across crashes)",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        metavar="CHUNKS",
        help="with --state-dir: write a full checkpoint every N flushed "
        "chunks (default 1; the WAL commits every chunk regardless)",
    )


def _add_jobs_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the experiment grid (0 = all CPUs); "
        "results are identical at any worker count",
    )


def _cmd_run(args) -> int:
    from .experiments import make_dataset

    if args.repeats < 1:
        raise InvalidParameterError(
            f"repeats must be >= 1, got {args.repeats}"
        )
    if args.repeats > 1:
        if args.save_json or args.save_csv:
            raise InvalidParameterError(
                "--save-json/--save-csv save one session's trace and need "
                "--repeats 1; repeated runs only report averaged metrics"
            )
        return _cmd_run_repeats(args)
    if args.jobs not in (0, 1):
        print("(--jobs has no effect on a single session; add --repeats N)")
    dataset = make_dataset(args.dataset, size=args.size, seed=args.seed)
    result = run_stream(
        args.method,
        dataset,
        epsilon=args.epsilon,
        window=args.window,
        oracle=args.oracle,
        seed=args.seed,
    )
    print(
        f"{result.mechanism} on {args.dataset} "
        f"(N={result.n_users}, T={result.horizon}, d={result.domain_size}, "
        f"eps={result.epsilon:g}, w={result.window}, oracle={result.oracle})"
    )
    print(f"  MRE  = {mean_relative_error(result.releases, result.true_frequencies):.4f}")
    print(f"  MAE  = {mean_absolute_error(result.releases, result.true_frequencies):.5f}")
    print(f"  MSE  = {mean_squared_error(result.releases, result.true_frequencies):.3e}")
    print(f"  CFPU = {result.cfpu:.4f}")
    print(f"  publications = {result.publication_count}/{result.horizon}")
    print(f"  max window spend = {result.max_window_spend:.4f} (<= {result.epsilon:g})")
    try:
        auc = monitoring_roc(result.releases, result.true_frequencies).auc
        print(f"  event-monitoring AUC = {auc:.4f}")
    except InvalidParameterError:
        pass
    if args.save_json:
        from .io import save_session

        save_session(result, args.save_json)
        print(f"  saved JSON -> {args.save_json}")
    if args.save_csv:
        from .io import session_to_csv

        session_to_csv(result, args.save_csv)
        print(f"  saved CSV  -> {args.save_csv}")
    return 0


def _cmd_run_repeats(args) -> int:
    """Averaged multi-repeat run, fanned over ``--jobs`` workers."""
    from .experiments import DatasetSpec, evaluate

    dataset = DatasetSpec.of(args.dataset, size=args.size, seed=args.seed)
    cell = evaluate(
        args.method,
        dataset,
        args.epsilon,
        args.window,
        oracle=args.oracle,
        seed=args.seed,
        repeats=args.repeats,
        with_roc=True,
        jobs=args.jobs,
    )
    print(
        f"{cell.mechanism} on {args.dataset} (size={args.size}, "
        f"eps={cell.epsilon:g}, w={cell.window}, oracle={args.oracle}, "
        f"repeats={cell.repeats})"
    )
    print(f"  MRE  = {cell.mre:.4f}")
    print(f"  MAE  = {cell.mae:.5f}")
    print(f"  MSE  = {cell.mse:.3e}")
    print(f"  CFPU = {cell.cfpu:.4f}")
    print(f"  publication rate = {cell.publication_rate:.4f}")
    if cell.auc == cell.auc:  # not NaN
        print(f"  event-monitoring AUC = {cell.auc:.4f}")
    return 0


def _parse_snapshot_line(line: str):
    """One input line -> int value list (comma- or whitespace-separated)."""
    parts = line.replace(",", " ").split()
    try:
        return [int(part) for part in parts]
    except ValueError:
        raise InvalidParameterError(
            f"stream input lines must hold integer values, got {line.strip()!r}"
        ) from None


def _cmd_stream(args) -> int:
    """Online ingestion: one StreamSession advanced line by line.

    With ``--chunk N`` input lines are buffered and ingested ``N``
    timestamps at a time through
    :meth:`~repro.engine.session.StreamSession.observe_many` — the
    emitted releases are identical (bulk ingestion is bit-identical to
    the per-step loop), they just appear once per chunk instead of once
    per line.

    The session is a :class:`~repro.persist.DurableSession`.  With
    ``--state-dir`` every flushed chunk commits its releases to a
    fsync'd write-ahead log before they are printed and (every
    ``--checkpoint-every`` chunks) writes a full checkpoint; on startup
    the session resumes from the latest checkpoint and the first
    ``watermark`` input lines of the replayed feed are skipped, so
    ingestion is exactly-once across crashes.  Skipped lines count
    toward ``--max-steps``.
    """
    import contextlib
    import itertools

    from .freq_oracles import get_oracle
    from .mechanisms import get_mechanism
    from .persist import DurableSession

    if args.max_steps is not None and args.max_steps < 1:
        raise InvalidParameterError(
            f"max-steps must be >= 1, got {args.max_steps}"
        )
    if args.chunk < 1:
        raise InvalidParameterError(f"chunk must be >= 1, got {args.chunk}")
    with contextlib.ExitStack() as stack:
        if args.input == "-":
            source = sys.stdin
        else:
            source = stack.enter_context(
                open(args.input, "r", encoding="utf-8")
            )
        lines = itertools.islice(
            (_parse_snapshot_line(line) for line in source if line.strip()),
            args.max_steps,
        )
        first = next(lines, None)
        if first is None:
            print("error: no input timestamps received", file=sys.stderr)
            return 2
        # The population size is whatever the first timestamp carries.
        durable = stack.enter_context(
            DurableSession.open(
                args.state_dir,
                {
                    "mechanism": get_mechanism(args.method).name,
                    "oracle": get_oracle(args.oracle).name,
                    "postprocess": args.postprocess,
                    "epsilon": args.epsilon,
                    "window": args.window,
                    "n_users": len(first),
                    "domain_size": args.domain_size,
                    "fast": True,
                    "record_trace": args.trace,
                    "seed": args.seed,
                    "enforce_privacy": True,
                },
                chunk=args.chunk,
                checkpoint_every=args.checkpoint_every,
            )
        )
        session = durable.session
        # Already ingested before the crash; the replayed feed re-sends
        # it, exactly-once means we drop it here.
        skip_remaining = durable.watermark
        buffer: list = []

        def flush() -> None:
            t0 = durable.watermark
            rows = durable.ingest(t0, buffer)
            if args.emit == "releases":
                for t, (release, _, strategy) in enumerate(rows, t0):
                    text = ",".join(f"{v:.6g}" for v in release)
                    print(f"{t},{strategy},{text}")
            buffer.clear()

        for values in itertools.chain([first], lines):
            if skip_remaining > 0:
                skip_remaining -= 1
                continue
            buffer.append(values)
            if len(buffer) >= args.chunk:
                flush()
        if buffer:
            flush()
        if args.state_dir is not None:
            durable.checkpoint()
        summary = session.summary()
        print(
            f"{summary['mechanism']} online session: {summary['steps']} steps, "
            f"{summary['publications']} publications "
            f"(rate {summary['publication_rate']:.4f}), "
            f"CFPU {summary['cfpu']:.4f}, "
            f"max window spend {summary['max_window_spend']:.4f} "
            f"(<= {args.epsilon:g})",
            file=sys.stderr,
        )
        if args.trace:
            result = session.finalize()
            print(
                f"  MRE  = {mean_relative_error(result.releases, result.true_frequencies):.4f}\n"
                f"  MAE  = {mean_absolute_error(result.releases, result.true_frequencies):.5f}\n"
                f"  MSE  = {mean_squared_error(result.releases, result.true_frequencies):.3e}",
                file=sys.stderr,
            )
    return 0


def _cmd_serve(args) -> int:
    """``repro serve``: one :class:`~repro.serving.ShardServer`, two
    transports.

    Without ``--shards`` it answers JSONL from ``--input`` (stdin) on
    stdout with one shard on a thread of this process; with
    ``--shards K`` it prints a JSON hello line (``{"event":
    "listening", "port": ...}``) and serves TCP clients from K worker
    processes until a ``shutdown`` request.  Either way every line goes
    through the same handler; the protocol and the exactness contract
    are documented in ``docs/SERVING.md``.
    """
    import contextlib

    from .serving import ServeConfig, run_server

    config = ServeConfig(
        mechanism=args.method,
        n_users=args.n_users,
        domain_size=args.domain_size,
        epsilon=args.epsilon,
        window=args.window,
        num_shards=1 if args.shards is None else args.shards,
        oracle=args.oracle,
        seed=args.seed,
        postprocess=args.postprocess,
        capacity=None if args.capacity == 0 else args.capacity,
        chunk=args.chunk,
        confidence=args.confidence,
        state_dir=args.state_dir,
        checkpoint_every=args.checkpoint_every,
        port=args.port,
        fast=args.fast,
    )
    if args.shards is not None:
        return run_server(config)
    with contextlib.ExitStack() as stack:
        if args.input == "-":
            source = sys.stdin
        else:
            source = stack.enter_context(
                open(args.input, "r", encoding="utf-8")
            )
        return run_server(config, stdin=source)


def _cmd_query(args) -> int:
    """One-shot queries over a finalized run saved with --save-json."""
    import json

    from .io import load_session
    from .query import QueryEngine, QueryPlanner, parse_expr

    if (args.op is None) == (args.expr is None):
        raise InvalidParameterError(
            "query takes exactly one of a classic verb "
            "(point/topk/range/sliding/info) or --expr EXPR"
        )
    result = load_session(args.run)
    engine = QueryEngine.from_result(result, confidence=args.confidence)
    if args.expr is not None:
        planner = QueryPlanner(engine)
        answer = planner.answer(parse_expr(args.expr))
    elif args.op == "info":
        answer = {
            "op": "info",
            "mechanism": result.mechanism,
            "oracle": result.oracle,
            "epsilon": result.epsilon,
            "window": result.window,
            "n_users": result.n_users,
            "domain_size": result.domain_size,
            "horizon": result.horizon,
        }
    elif args.op == "point":
        if args.item is None:
            raise InvalidParameterError("point queries need --item")
        answer = {
            "op": "point",
            "item": args.item,
            **engine.point(args.item, t=args.t).as_dict(),
        }
    elif args.op == "topk":
        answer = {
            "op": "topk",
            "items": [e.as_dict() for e in engine.topk(args.k, t=args.t)],
        }
    elif args.op == "range":
        if args.lo is None or args.hi is None:
            raise InvalidParameterError("range queries need --lo and --hi")
        answer = {
            "op": "range",
            "lo": args.lo,
            "hi": args.hi,
            **engine.range_count(args.lo, args.hi, t=args.t).as_dict(),
        }
    else:  # sliding
        if args.item is None:
            raise InvalidParameterError("sliding queries need --item")
        t0 = 0 if args.t0 is None else args.t0
        t1 = result.horizon - 1 if args.t1 is None else args.t1
        answer = {
            "op": "sliding",
            "item": args.item,
            "t0": t0,
            "t1": t1,
            "agg": args.agg,
            **engine.sliding(t0, t1, args.agg, item=args.item).as_dict(),
        }
    print(json.dumps(answer))
    return 0


def _cmd_figure(args) -> int:
    from .experiments import ARTIFACTS

    # ``fig6`` names both of its panels: fig6_population, fig6_fluctuation.
    print(
        "\n\n".join(
            artifact.render(
                artifact.generate(
                    args.size, args.seed, args.repeats, args.jobs
                )
            )
            for name, artifact in ARTIFACTS.items()
            if name.startswith(args.name)
        )
    )
    return 0


def _cmd_table2(args) -> int:
    from .experiments import ARTIFACTS

    table2 = ARTIFACTS["table2"]
    print(table2.render(table2.generate(args.size, args.seed, 1, args.jobs)))
    print("\n(values shown as measured/paper)")
    return 0


def _cmd_campaign(args) -> int:
    from .experiments import run_campaign

    run_campaign(
        output_dir=args.out,
        size=args.size,
        repeats=args.repeats,
        seed=args.seed,
        verbose=True,
        jobs=args.jobs,
    )
    if args.out:
        print(f"artifacts written to {args.out}")
    return 0


def _cmd_datasets(_args) -> int:
    from .experiments import ALL_DATASETS, dataset_size

    print(f"{'name':<12}{'tier':<10}{'n_users':>10}{'horizon':>9}")
    for name in ALL_DATASETS:
        for tier in ("smoke", "default", "paper"):
            n, t = dataset_size(name, tier)
            print(f"{name:<12}{tier:<10}{n:>10}{t:>9}")
    return 0


def _cmd_methods(_args) -> int:
    for name in available_mechanisms():
        print(name.upper())
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "stream": _cmd_stream,
        "serve": _cmd_serve,
        "query": _cmd_query,
        "figure": _cmd_figure,
        "table2": _cmd_table2,
        "campaign": _cmd_campaign,
        "datasets": _cmd_datasets,
        "methods": _cmd_methods,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a consumer (e.g. `head`) that closed early.
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Serving tier: many shard sessions, one query surface.

The user population is partitioned across shards by a deterministic
hash (:class:`ShardRouter`); each shard runs its own
:class:`~repro.engine.session.StreamSession` over its sub-population and
publishes into its own :class:`~repro.query.ReleaseStore`; per-timestamp
shard rows merge into one population-level store
(:func:`repro.query.merge_release_rows`) that answers every query.

Two execution surfaces share that exact merge arithmetic:

* :class:`ShardedSession` — the *serial reference*: all shards advanced
  in-process, in shard order.  This is the semantics oracle the
  conformance suite (``tests/serving/``) diffs everything against.
* :class:`ShardServer` — the one ``repro serve`` implementation: an
  asyncio dispatcher batching ingest lines into ``observe_many`` chunks,
  with two transports — stdin/stdout over one in-process shard, or
  (``--shards K``) a TCP socket over one OS process per shard.
  Bit-identical to :class:`ShardedSession` at every shard count because
  batching boundaries provably cannot change results (``observe_many``
  is chunk-invariant) and the merge runs in fixed shard order.

The contract — which parts are bit-exact, which are
variance-matched — is written down in ``docs/SERVING.md``.
"""

from .router import ShardRouter, shard_seed
from .server import ServeConfig, ShardServer, run_server, shard_state_dir
from .sharded import ShardedSession

__all__ = [
    "ShardRouter",
    "ShardedSession",
    "ShardServer",
    "ServeConfig",
    "run_server",
    "shard_seed",
    "shard_state_dir",
]

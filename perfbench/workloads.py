"""Child process for the ``sweep`` and ``stream`` workloads.

``run.py`` starts this script with ``PYTHONPATH=src``; it imports the
program, builds the workload's engine objects, prints ``READY`` (the end
of set-up), then runs rounds until its time is up and prints one JSON
result line.  ``--setup-only`` exits right after ``READY``.

Each round reruns the same inputs from scratch, so every round's digest
must equal the first one's (the determinism contract); a round whose
digest differs counts its ops as failed.  The host-speed reference
(:mod:`calibrate`) is timed before the first round and after each one.

``--trace 1`` runs half the time untraced, then installs the span
tracer (:mod:`tracer`) and runs the same number of rounds traced; the
traced digest must equal the untraced one.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import sys
import time

import numpy as np

import calibrate

MECHANISMS = ("LBU", "LSP", "LBD", "LBA", "LPU", "LPD", "LPA")

#: size -> sweep (n_users, horizon, epsilons, windows)
SWEEP_SIZES = {
    "default": (50_000, 200, (0.5, 1.0, 1.5, 2.0), (10, 20)),
    "tiny": (2_000, 40, (0.5, 1.0), (10,)),
}
#: size -> stream (n_users, steps per session)
STREAM_SIZES = {
    "default": (10_000, 1_536),
    "tiny": (1_000, 192),
}
STREAM_ORACLE = "oue"
STREAM_EPSILON = 1.0
STREAM_CHUNK = 64
#: Inputs of the stream workload: name -> domain size.
STREAM_INPUTS = {"sparse": 32, "stable": 64}
#: Sessions of one stream round: (mechanism, window, input).  The seven
#: mechanisms run at w = 20 on the sparse stream, where the adaptive
#: ones publish on noise and never speculate; LBD also runs at w = 2 on
#: a static stream with d = 64 (the ``stable`` regime of
#: ``benchmarks/bench_ingest_throughput.py``), where it never publishes
#: and its speculative chunk kernel batches every step after the first
#: 24.  (LBA keeps publishing on about a quarter of the steps of that
#: stream, so it would not speculate there.)
STREAM_SESSIONS = tuple((name, 20, "sparse") for name in MECHANISMS) + (
    ("LBD", 2, "stable"),
)


def sparse_stream(seed: int, n_users: int, domain: int, steps: int):
    """Sticky users over a Zipf-shaped domain with rare regime shifts.

    Each step a user re-draws its value with probability 2%, from the
    current regime's distribution; a regime shift (a new permutation of
    the Zipf weights) happens with probability 1% per step.  Most steps
    barely move the histogram, which is the sparsity the adaptive
    mechanisms exploit.
    """
    rng = np.random.default_rng([seed, 7])
    weights = 1.0 / np.arange(1, domain + 1) ** 1.1
    weights /= weights.sum()
    regime = weights[rng.permutation(domain)]
    values = rng.choice(domain, size=n_users, p=regime).astype(np.uint8)
    block = np.empty((steps, n_users), dtype=np.uint8)
    for t in range(steps):
        if rng.random() < 0.01:
            regime = weights[rng.permutation(domain)]
        switch = np.flatnonzero(rng.random(n_users) < 0.02)
        values[switch] = rng.choice(domain, size=switch.size, p=regime)
        block[t] = values
    return block


def stable_stream(seed: int, n_users: int, domain: int, steps: int):
    """Every user keeps one uniformly drawn value for the whole horizon."""
    rng = np.random.default_rng([seed, 13])
    values = rng.integers(0, domain, size=n_users).astype(np.uint8)
    return np.broadcast_to(values, (steps, n_users))


# --------------------------------------------------------------------------
# sweep
class Sweep:
    """The paper's grid as one coalesced shared pass over Taxi."""

    def __init__(self, seed: int, size: str):
        from repro.experiments import DatasetSpec, grid_specs

        n_users, horizon, epsilons, windows = SWEEP_SIZES[size]
        self.seed = seed
        self.dataset = DatasetSpec.of(
            "Taxi", n_users=n_users, horizon=horizon, seed=seed
        )
        # Materialising the simulator is part of the engine's set-up.
        self.dataset.build()
        self.specs = grid_specs(
            MECHANISMS,
            self.dataset,
            epsilons=epsilons,
            windows=windows,
            tag="perfbench-sweep",
        )
        self.ops_per_round = len(self.specs)

    def prepare(self):
        """Nothing to build ahead of a round: the pass builds its own
        sessions, as ``execute_cells`` does for its users."""
        return None

    def round(self, _):
        """One grid pass; returns (digest, [pass seconds], privacy ok).

        A privacy violation raises inside the pass, so a completed
        pass is private by construction."""
        from repro.experiments import execute_cells

        started = time.perf_counter()
        cells = execute_cells(
            self.specs, base_seed=self.seed, jobs=1, coalesce=True
        )
        elapsed = time.perf_counter() - started
        digest = hashlib.sha256()
        for cell in cells:
            digest.update(repr(dataclasses.astuple(cell)).encode())
        return digest.hexdigest(), [elapsed], True


# --------------------------------------------------------------------------
# stream
class Stream:
    """One online session per entry of ``STREAM_SESSIONS``, each fed
    through its own ``OnlineStream``.

    The loop is ``repro stream --chunk 64`` minus line parsing: push 64
    snapshots, then one ``observe_many``; trace-free, no store.
    """

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.n_users, self.steps = STREAM_SIZES[size]
        self.ops_per_round = self.steps * len(STREAM_SESSIONS)
        self._sessions = None
        self._sessions = self.prepare()
        self.blocks = None

    def prepare(self):
        """Fresh started sessions for one round (built before the round
        is timed; the first set is built during set-up)."""
        if self._sessions is not None:
            sessions, self._sessions = self._sessions, None
            return sessions
        from repro.engine import StreamSession
        from repro.streams import OnlineStream

        sessions = []
        for index, (name, window, source) in enumerate(STREAM_SESSIONS):
            stream = OnlineStream(
                n_users=self.n_users,
                domain_size=STREAM_INPUTS[source],
                retain=max(4, STREAM_CHUNK),
            )
            session = StreamSession(
                name,
                stream,
                epsilon=STREAM_EPSILON,
                window=window,
                oracle=STREAM_ORACLE,
                seed=self.seed * 16 + index,
                record_trace=False,
            ).start()
            sessions.append((stream, session, source))
        return sessions

    def round(self, sessions):
        """Every session over its whole input; returns (digest,
        per-chunk latencies in s, privacy ok)."""
        if self.blocks is None:
            make = {"sparse": sparse_stream, "stable": stable_stream}
            self.blocks = {
                source: make[source](self.seed, self.n_users, domain,
                                     self.steps)
                for source, domain in STREAM_INPUTS.items()
            }
        digest = hashlib.sha256()
        latencies = []
        private = True
        for stream, session, source in sessions:
            block = self.blocks[source]
            for t0 in range(0, self.steps, STREAM_CHUNK):
                started = time.perf_counter()
                rows = block[t0 : t0 + STREAM_CHUNK]
                ts = [stream.push(row) for row in rows]
                records = session.observe_many(ts[0], len(ts))
                latencies.append(time.perf_counter() - started)
                for record in records:
                    digest.update(record.strategy.encode())
                    digest.update(
                        np.asarray(record.release, dtype=np.float64).tobytes()
                    )
            summary = session.summary()
            digest.update(repr(sorted(summary.items())).encode())
            private &= session.max_window_spend <= STREAM_EPSILON * (1 + 1e-9)
        return digest.hexdigest(), latencies, private


WORKLOADS = {"sweep": Sweep, "stream": Stream}


def _rounds(workload, deadline, min_rounds, max_rounds=None):
    """Timed rounds, each bracketed by a host-speed reference; returns
    (round s, per-round latency lists, reference s, digests, privacy)."""
    times, latencies, digests, private = [], [], [], []
    references = [calibrate.reference()]
    while len(times) < min_rounds or time.perf_counter() < deadline:
        if max_rounds is not None and len(times) >= max_rounds:
            break
        state = workload.prepare()
        started = time.perf_counter()
        digest, lat, ok = workload.round(state)
        times.append(time.perf_counter() - started)
        references.append(calibrate.reference())
        latencies.append(lat)
        digests.append(digest)
        private.append(ok)
    return times, latencies, references, digests, private


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("default", "tiny"), default="default"
    )
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.size)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    started = time.perf_counter()
    # Warm-up round: lazy imports, first-call caches, input generation.
    warm_digest, _, warm_private = workload.round(workload.prepare())
    calibrate.reference()
    result = {"warmup_s": time.perf_counter() - started}
    budget = max(0.0, args.seconds - result["warmup_s"])
    if args.trace:
        budget /= 2.0
    times, latencies, references, digests, private = _rounds(
        workload, time.perf_counter() + budget, min_rounds=3
    )
    result.update(
        round_s=times,
        latencies_s=latencies,
        reference_s=references,
        ops_per_round=workload.ops_per_round,
        digest=warm_digest,
        bad_rounds=sum(
            1
            for digest, ok in zip(digests, private)
            if digest != warm_digest or not ok
        ) + (0 if warm_private else 1),
        peak_rss_mb=(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ),
    )
    if args.trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracing

        tracer = tracing.install(tracing.Tracer())
        traced_times, _, traced_refs, traced_digests, traced_private = _rounds(
            workload, 0.0, min_rounds=len(times), max_rounds=len(times)
        )
        result.update(
            traced_round_s=traced_times,
            traced_reference_s=traced_refs,
            traced_digests_match=all(d == warm_digest for d in traced_digests),
            traced_private=all(traced_private),
            trace=tracer.dump(),
        )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

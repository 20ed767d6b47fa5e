"""Host-speed reference: fixed work timed next to every measured round.

The benchmark shares a few CPUs of a host with other tenants, and the
speed of those CPUs drifts by 20-40 % within minutes: the same grid
pass, on the same inputs, takes anywhere from 1.7 s to 2.6 s.  Neither
CPU time nor the median of a 30 s run removes that.  So the benchmark
times :func:`reference`, a fixed piece of numpy + interpreter work of
the same kind as the program's (seeded random draws, sampling without
replacement, bincounts, scatter-adds, a dict loop), before and after
every timed round, and reports times on the scale of a host on which
the reference takes ``REFERENCE_S``::

    normalised = measured * REFERENCE_S / mean(reference before, after)

A faster program still reads faster, since the reference does not run
any of its code; a slower host no longer does.  Every record keeps the
raw times and the reference times next to the normalised ones.
"""

from __future__ import annotations

import time

import numpy as np

#: Median seconds of :func:`reference` on the 2-vCPU host the bounds
#: were set on; it fixes the unit of every normalised time.
REFERENCE_S = 0.125


def reference() -> float:
    """Run the fixed reference work once; return its wall seconds."""
    rng = np.random.default_rng(20220612)
    started = time.perf_counter()
    counts = {}
    for i in range(200):
        values = rng.integers(0, 64, size=50_000)
        histogram = np.bincount(values, minlength=64)
        chosen = rng.choice(50_000, size=2_000, replace=False)
        draws = rng.binomial(10_000, 0.3, size=4_096)
        ledger = np.zeros(50_000)
        ledger[chosen] += 0.1
        for j in range(1_000):
            key = (i * j) & 255
            counts[key] = counts.get(key, 0) + int(j & 7)
        counts[-1] = int(histogram[3]) + int(draws[0]) + int(ledger[chosen[0]])
    return time.perf_counter() - started


def scales(references):
    """Per-interval factors from references taken around each interval.

    ``references[i]`` and ``references[i + 1]`` bracket interval ``i``;
    multiplying a time measured in interval ``i`` by the factor puts it
    on the ``REFERENCE_S`` scale.
    """
    return [
        REFERENCE_S / ((before + after) / 2.0)
        for before, after in zip(references, references[1:])
    ]

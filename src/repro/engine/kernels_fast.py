"""Shared numpy kernels for the SoA hot loops.

The structure-of-arrays scheduler (:mod:`repro.engine.soa`) and the
chunked collector spend most of their time in three tight loops:

``block_histograms``   per-round exact histograms over a values block
                       (the shared truth/counts pass every session reads;
                       one bincount per row)
``debias_rows``        the oracle debias affine map applied to a block of
                       perturbed support counts
``first_exceed``       LBD's speculative-replay decision scan (first
                       round whose dissimilarity exceeds its error bound)

Each is a short vectorized numpy expression.  No RNG ever runs here:
perturbation *draws* come from each session's private
:class:`numpy.random.Generator`, so only the deterministic pre/post maps
around the draws live in this module.  The parity suite
(``tests/engine/test_kernels_fast.py``) checks every kernel bit-exact
against a pure-python loop on every bucket shape the scheduler emits.
"""

from __future__ import annotations

import numpy as np

__all__ = ["backend", "block_histograms", "debias_rows", "first_exceed"]


def block_histograms(block: np.ndarray, domain_size: int) -> np.ndarray:
    """Exact per-row histograms: ``(B, n_users)`` values -> ``(B, d)``.

    One ``bincount`` per row into a preallocated result: no widened
    ``(B, n_users)`` offset copy of the block, and faster than a single
    flat-offset ``bincount`` on every scheduler shape.
    """
    block = np.asarray(block)
    counts = np.zeros((block.shape[0], domain_size), dtype=np.int64)
    for i, row in enumerate(block):
        counts[i] = np.bincount(row, minlength=domain_size)
    return counts


def debias_rows(
    supports: np.ndarray, n_reports: np.ndarray, p: float, q: float
) -> np.ndarray:
    """``(supports / n - q) / (p - q)`` with per-row report counts.

    ``supports`` is ``(B, d)`` float64, ``n_reports`` is ``(B,)``.  The
    expression is the exact debias map every oracle applies after its
    perturbation draw, in the same elementwise evaluation order.
    """
    return (supports / n_reports[:, None] - q) / (p - q)


def first_exceed(dissimilarity: np.ndarray, error: np.ndarray) -> int:
    """First index with ``dissimilarity > error``, or ``-1`` if none."""
    hits = np.nonzero(dissimilarity > error)[0]
    return int(hits[0]) if hits.size else -1


def backend() -> str:
    """The kernel backend: always ``"numpy"``."""
    return "numpy"

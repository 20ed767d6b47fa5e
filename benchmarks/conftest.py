"""Benchmark configuration: the ``size`` fixture of the performance rails.

pytest collects only ``test_*.py`` files, so each ``bench_*.py`` rail
runs by file name (or as a script; see its docstring)::

    pytest benchmarks/bench_shared_pass.py -s

Sizes are controlled by the BENCH_SIZE environment variable
(``smoke`` | ``default`` | ``paper``; default ``smoke`` so CI stays fast).
The paper's shape claims live in ``tests/integration/test_paper_shape.py``.
"""

from __future__ import annotations

import os

import pytest


@pytest.fixture(scope="session")
def size():
    """Dataset size tier for benchmark runs (env BENCH_SIZE)."""
    return os.environ.get("BENCH_SIZE", "smoke")

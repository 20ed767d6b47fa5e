"""Shared fixtures for the test suite."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.persist.codec import decode
from repro.streams import BinaryStream, MaterializedStream, make_lns, make_sin


@pytest.fixture
def rng():
    """Deterministic generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_binary_stream():
    """A small LNS-like binary stream: 2,000 users, 40 timestamps."""
    return make_lns(n_users=2_000, horizon=40, seed=7)


@pytest.fixture
def small_sin_stream():
    """A small Sin binary stream: 2,000 users, 40 timestamps."""
    return make_sin(n_users=2_000, horizon=40, seed=7)


@pytest.fixture
def tiny_multicat_stream(rng):
    """A 5-category materialised stream: 600 users, 25 timestamps."""
    values = rng.integers(0, 5, size=(25, 600))
    return MaterializedStream(values, domain_size=5)


@pytest.fixture
def constant_stream():
    """A stream whose histogram never changes (p = 0.2)."""
    probs = np.full(30, 0.2)
    return BinaryStream(probs, n_users=2_000, seed=3, name="const")


@pytest.fixture
def to_list_form():
    """Rewrite a WAL's releases as JSON float lists: the form every
    release row took before the tagged base64 one."""

    def rewrite(path):
        lines = []
        for line in path.read_text().splitlines():
            row = json.loads(line)
            if row["op"] == "release":
                row["release"] = decode(row["release"]).tolist()
            lines.append(json.dumps(row) + "\n")
        path.write_text("".join(lines))

    return rewrite

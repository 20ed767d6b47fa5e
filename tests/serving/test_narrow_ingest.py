"""Serve ingest keeps each snapshot's wire dtype up to the shard's ring.

A b64 ``u1``/``u2``/``u4`` line stays ``uint8``/``uint16``/``uint32``
from decode through the flush block, the router and the worker pipe;
only ``OnlineStream.push`` widens it, into its int64 ring.  The values
are the same either way, so a feed that mixes encodings must answer
byte-for-byte like the same feed sent as JSON ``values``.

These tests drive the stdin transport in-process: its shards run the
worker loop on threads, so a monkeypatch on ``DurableSession.ingest``
sees the exact block each shard receives.
"""

import base64
import io
import json

import numpy as np
import pytest

from repro.persist import DurableSession
from repro.serving.server import ServeConfig, run_server

N_USERS = 48
DOMAIN = 8


def _feed(steps, seed=7):
    rng = np.random.default_rng(seed)
    return rng.integers(0, DOMAIN, size=(steps, N_USERS), dtype=np.int64)


def _values(row):
    return {"op": "ingest", "values": [int(v) for v in row]}


def _packed(row, tag):
    dtype = {"u1": np.uint8, "u2": np.uint16, "u4": np.uint32}[tag]
    payload = row.astype(dtype).tobytes()
    return _raw(payload, tag)


def _raw(payload: bytes, tag):
    return {
        "op": "ingest",
        "b64": base64.b64encode(payload).decode("ascii"),
        "dtype": tag,
    }


def _serve(requests, *, shards=1, chunk=4):
    """Run the stdin transport over ``requests``; return its answers."""
    config = ServeConfig(
        "LBD",
        N_USERS,
        DOMAIN,
        1.0,
        4,
        num_shards=shards,
        seed=7,
        chunk=chunk,
    )
    stdout = io.StringIO()
    lines = [json.dumps(request) + "\n" for request in requests]
    assert run_server(config, stdout=stdout, stdin=lines) == 0
    return stdout.getvalue()


@pytest.fixture
def ingested_blocks(monkeypatch):
    """Record the dtype of every block a shard session ingests."""
    seen = []
    original = DurableSession.ingest

    def ingest(self, t0, block):
        seen.append((t0, block.dtype))
        return original(self, t0, block)

    monkeypatch.setattr(DurableSession, "ingest", ingest)
    return seen


_QUERIES = [
    {"op": "point", "item": 3},
    {"op": "topk", "k": 3},
    {"op": "range", "lo": 1, "hi": 5},
    {"op": "sliding", "t0": 2, "t1": 11, "agg": "mean", "item": 2},
    {"op": "summary"},
]


def test_an_all_u1_chunk_reaches_the_shard_as_uint8(ingested_blocks):
    feed = _feed(8)
    requests = [_packed(row, "u1") for row in feed]
    _serve(requests, chunk=4)
    assert ingested_blocks == [(0, np.uint8), (4, np.uint8)]


def test_a_mixed_chunk_arrives_in_its_widest_dtype(ingested_blocks):
    """``np.stack`` upcasts a mixed flush once: u1 + u2 -> u2, and
    anything with JSON values -> int64."""
    feed = _feed(8)
    requests = [
        _packed(feed[0], "u1"),
        _packed(feed[1], "u2"),
        _packed(feed[2], "u1"),
        _packed(feed[3], "u1"),
        _packed(feed[4], "u4"),
        _values(feed[5]),
        _packed(feed[6], "u1"),
        _packed(feed[7], "u2"),
    ]
    _serve(requests, chunk=4)
    assert ingested_blocks == [(0, np.uint16), (4, np.int64)]


@pytest.mark.parametrize("shards", [1, 2])
def test_mixed_encodings_answer_like_json_values(shards):
    """Acks and every query answer are byte-identical to the all-values
    feed: the narrow path changes no value."""
    feed = _feed(12, seed=11)
    encoders = [
        _values,
        lambda row: _packed(row, "u1"),
        lambda row: _packed(row, "u2"),
        lambda row: _packed(row, "u4"),
    ]
    mixed = [encoders[t % 4](row) for t, row in enumerate(feed)]
    plain = [_values(row) for row in feed]
    got = _serve(mixed + _QUERIES, shards=shards)
    want = _serve(plain + _QUERIES, shards=shards)
    assert got == want
    answers = [json.loads(line) for line in got.splitlines()]
    assert [a["t"] for a in answers if a.get("op") == "ingest"] == list(
        range(12)
    )
    assert not any("error" in a for a in answers)


def test_bad_wide_payloads_answer_errors_and_keep_serving():
    """A ``u2`` value >= domain_size and a ``u2``/``u4`` payload whose
    length is no multiple of the item size each earn an error line;
    the valid ingests around them are acked in order."""
    feed = _feed(3, seed=13)
    out_of_domain = feed[0].astype(np.uint16)
    out_of_domain[5] = 300
    requests = [
        _values(feed[0]),
        _raw(out_of_domain.tobytes(), "u2"),
        _raw(feed[1].astype(np.uint16).tobytes()[:-1], "u2"),
        _packed(feed[1], "u1"),
        _raw(feed[2].astype(np.uint32).tobytes() + b"\x00\x00", "u4"),
        _packed(feed[2], "u2"),
        {"op": "point", "item": 0},
    ]
    answers = [
        json.loads(line) for line in _serve(requests, chunk=1).splitlines()
    ]
    errors = [i for i, a in enumerate(answers) if set(a) == {"error"}]
    assert errors == [1, 2, 4]
    assert answers[1]["error"] == (
        f"InvalidParameterError: ingest values outside [0, {DOMAIN})"
    )
    assert answers[2]["error"].startswith("ValueError:")
    assert answers[4]["error"].startswith("ValueError:")
    assert [a["t"] for a in answers if a.get("op") == "ingest"] == [0, 1, 2]
    assert answers[-1]["op"] == "point"

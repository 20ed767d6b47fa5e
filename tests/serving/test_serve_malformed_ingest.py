"""Satellite regression: malformed ingest values must not kill serve.

Python's ``json`` happily parses ``Infinity`` into ``float("inf")``,
and ``int(float("inf"))`` raises ``OverflowError`` — an exception class
the legacy ``repro serve`` loop did not catch, so one malformed record
could take down a server holding buffered (``--chunk > 1``) timestamps.
Floats, booleans and digit strings were worse: ``int()`` truncated them
into a silently ingested snapshot.  The server must instead reject any
``values`` that is not a list of JSON integers with a typed error line
and keep serving the rest of the feed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

N_USERS = 30
DOMAIN = 4


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return env


def _serve_cmd(chunk=3):
    return [
        sys.executable, "-m", "repro", "serve",
        "--method", "LBD", "--oracle", "grr",
        "--domain-size", str(DOMAIN), "--epsilon", "1", "--window", "4",
        "--seed", "11", "--chunk", str(chunk), "--capacity", "0",
    ]


def _ingest_lines(n, seed=5):
    rng = np.random.default_rng(seed)
    return [
        json.dumps(
            {
                "op": "ingest",
                "values": rng.integers(0, DOMAIN, N_USERS).tolist(),
            }
        )
        for _ in range(n)
    ]


def _infinity_line():
    # json.dumps would also emit bare Infinity, but build it explicitly:
    # the point is a record whose values parse to non-finite floats.
    return (
        '{"op": "ingest", "values": ['
        + ", ".join(["Infinity"] * N_USERS)
        + "]}"
    )


def test_infinity_values_emit_an_error_line_not_a_crash():
    feed = _ingest_lines(6)
    feed.insert(2, _infinity_line())
    feed.insert(5, '{"op": "ingest", "values": [-Infinity, NaN]}')
    feed.append(json.dumps({"op": "point", "item": 0}))
    proc = subprocess.run(
        _serve_cmd(),
        input="\n".join(feed) + "\n",
        capture_output=True,
        text=True,
        env=_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = [json.loads(line) for line in proc.stdout.splitlines()]
    errors = [obj for obj in out if "error" in obj]
    assert len(errors) == 2
    assert all(
        obj["error"].startswith("InvalidParameterError") for obj in errors
    )
    # Every well-formed ingest was acked with a consecutive timestamp —
    # the buffered chunk survived both malformed records.
    acked = [obj["t"] for obj in out if obj.get("op") == "ingest"]
    assert acked == list(range(6))
    answer = [obj for obj in out if obj.get("op") == "point"]
    assert len(answer) == 1 and "estimate" in answer[0]


def test_chunk_one_still_reports_instead_of_dying():
    """The overflow predates batching: cover the unbuffered path too."""
    feed = [_infinity_line(), *_ingest_lines(2, seed=9)]
    proc = subprocess.run(
        _serve_cmd(chunk=1),
        input="\n".join(feed) + "\n",
        capture_output=True,
        text=True,
        env=_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = [json.loads(line) for line in proc.stdout.splitlines()]
    assert sum("error" in obj for obj in out) == 1
    assert [obj["t"] for obj in out if obj.get("op") == "ingest"] == [0, 1]


def test_non_integer_values_are_rejected_not_truncated():
    """Each record is right-sized and in-domain once truncated, so an
    ``int()`` parse would have ingested it; each must instead earn a
    typed error line, and the valid ingest right after it is acked."""
    bad = [
        [1.7] * N_USERS,
        [True] * N_USERS,
        "012" * (N_USERS // 3),
    ]
    valid = _ingest_lines(len(bad) + 1, seed=13)
    feed = [valid[0]]
    for values, line in zip(bad, valid[1:]):
        feed += [json.dumps({"op": "ingest", "values": values}), line]
    feed.append(json.dumps({"op": "point", "item": 0}))
    proc = subprocess.run(
        _serve_cmd(chunk=1),
        input="\n".join(feed) + "\n",
        capture_output=True,
        text=True,
        env=_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = [json.loads(line) for line in proc.stdout.splitlines()]
    # One answer per request, in request order: ack, then (error, ack)
    # for every bad record, then the query.
    assert len(out) == len(feed)
    assert out[0]["op"] == "ingest" and out[0]["t"] == 0
    for i in range(len(bad)):
        error, ack = out[1 + 2 * i], out[2 + 2 * i]
        assert set(error) == {"error"}
        assert error["error"].startswith(
            "InvalidParameterError: ingest values must be"
        )
        assert ack["op"] == "ingest" and ack["t"] == i + 1
    assert "estimate" in out[-1]

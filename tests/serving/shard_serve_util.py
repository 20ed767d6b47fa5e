"""Shared helpers for the sharded-serving conformance suite.

The subprocess tests here talk to a real ``repro serve --shards K``
process over its TCP socket, exactly as an operator's client would:
spawn the CLI, parse the one-line JSON hello for the ephemeral port,
then exchange line-delimited JSON.  The serial
:class:`repro.serving.ShardedSession` built by :func:`serial_reference`
is the semantics oracle every server answer is diffed against.

This module is imported by several test files in a directory without an
``__init__.py``; keep its basename globally unique across ``tests/``.
"""

import json
import os
import queue
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

#: Default tier geometry shared by the conformance tests: small enough
#: to keep subprocess tests fast, large enough that every shard of an
#: 8-way split owns users.
DEFAULTS = {
    "method": "LBD",
    "oracle": "grr",
    "domain": 8,
    "epsilon": 1.0,
    "window": 6,
    "seed": 7,
    "chunk": 4,
    "postprocess": "none",
}


def serve_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return env


def serve_config(*, shards, n_users, capacity=None, **overrides):
    """The :class:`ServeConfig` of ``sharded_cmd`` with the same
    arguments (``capacity=None`` is ``--capacity 0``, unbounded)."""
    from repro.serving.server import ServeConfig

    cfg = {**DEFAULTS, **overrides}
    return ServeConfig(
        mechanism=cfg["method"],
        n_users=n_users,
        domain_size=cfg["domain"],
        epsilon=cfg["epsilon"],
        window=cfg["window"],
        num_shards=shards,
        oracle=cfg["oracle"],
        seed=cfg["seed"],
        postprocess=cfg["postprocess"],
        capacity=capacity,
        chunk=cfg["chunk"],
    )


def sharded_cmd(*, shards, n_users, extra=(), **overrides):
    """The serve command line; ``n_users=None`` leaves N to the server."""
    cfg = {**DEFAULTS, **overrides}
    population = [] if n_users is None else ["--n-users", str(n_users)]
    return [
        sys.executable, "-m", "repro", "serve",
        "--shards", str(shards), *population,
        "--method", cfg["method"], "--oracle", cfg["oracle"],
        "--domain-size", str(cfg["domain"]),
        "--epsilon", str(cfg["epsilon"]),
        "--window", str(cfg["window"]), "--seed", str(cfg["seed"]),
        "--postprocess", cfg["postprocess"],
        "--chunk", str(cfg["chunk"]), "--capacity", "0",
        *extra,
    ]


def feed_block(steps, n_users, domain, seed=3):
    """The canonical seeded stream: an ``(steps, n_users)`` value block."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, domain, size=(steps, n_users), dtype=np.int64)


def serial_reference(block, *, shards, capacity=None, **overrides):
    """Replay ``block`` through the in-process ShardedSession oracle."""
    from repro.serving import ShardedSession

    cfg = {**DEFAULTS, **overrides}
    chunk = cfg["chunk"]
    session = ShardedSession(
        cfg["method"],
        n_users=block.shape[1],
        domain_size=cfg["domain"],
        epsilon=cfg["epsilon"],
        window=cfg["window"],
        num_shards=shards,
        oracle=cfg["oracle"],
        seed=cfg["seed"],
        postprocess=cfg["postprocess"],
        capacity=capacity,
        retain=max(4, chunk),
    ).start()
    for i in range(0, block.shape[0], chunk):
        session.ingest_many(block[i : i + chunk])
    return session


class ServerClient:
    """One line-delimited JSON connection to the sharded server."""

    def __init__(self, port, timeout=120):
        self.sock = socket.create_connection(
            ("127.0.0.1", port), timeout=timeout
        )
        self.rfile = self.sock.makefile("r", encoding="utf-8")
        self.wfile = self.sock.makefile("w", encoding="utf-8")

    def send(self, request):
        self.wfile.write(json.dumps(request) + "\n")
        self.wfile.flush()

    def send_raw(self, line):
        self.wfile.write(line + "\n")
        self.wfile.flush()

    def recv(self):
        line = self.rfile.readline()
        assert line, "server closed the connection mid-conversation"
        return json.loads(line)

    def ask(self, request):
        self.send(request)
        return self.recv()

    def close(self):
        for stream in (self.rfile, self.wfile):
            try:
                stream.close()
            except OSError:
                pass
        self.sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class ShardServerProc:
    """A live ``repro serve --shards K`` subprocess, hello already read."""

    def __init__(self, cmd):
        self.proc = subprocess.Popen(
            cmd,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=serve_env(),
        )
        line = self.proc.stdout.readline()
        if not line:
            stderr = self.proc.stderr.read()
            self.proc.wait(timeout=30)
            raise AssertionError(
                f"server exited (rc={self.proc.returncode}) before its "
                f"hello line:\n{stderr}"
            )
        self.hello = json.loads(line)
        assert self.hello["event"] == "listening", self.hello
        self.port = int(self.hello["port"])

    def client(self, timeout=120):
        return ServerClient(self.port, timeout=timeout)

    def shutdown(self, timeout=60):
        """Graceful shutdown; returns (reply, returncode)."""
        with self.client() as client:
            reply = client.ask({"op": "shutdown"})
        self.proc.stdout.close()
        self.proc.stderr.close()
        return reply, self.proc.wait(timeout=timeout)

    def kill(self):
        """SIGKILL — the crash-injection path."""
        self.proc.send_signal(signal.SIGKILL)
        self.proc.stdout.close()
        self.proc.stderr.close()
        self.proc.wait(timeout=30)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.kill()


class InProcessServer:
    """The socket transport on a thread of this process, so a test can
    patch the front (shard workers are still spawned processes).

    It runs :func:`repro.serving.server.run_server` exactly as ``repro
    serve --shards K`` does, with this object as the stdout its hello
    line goes to.
    """

    def __init__(self, config):
        from repro.serving.server import run_server

        self._hello = queue.Queue()
        self.rc = None
        self.error = None

        def run():
            try:
                self.rc = run_server(config, stdout=self)
            except BaseException as error:  # re-raised by shutdown()
                self.error = error
            finally:
                self._hello.put(None)

        self._thread = threading.Thread(target=run, daemon=True)
        self._thread.start()
        hello = self._hello.get(timeout=120)
        if hello is None:
            raise AssertionError(
                f"server failed before its hello line: {self.error!r}"
            )
        self.port = int(hello["port"])

    def write(self, text):
        if text.strip():
            self._hello.put(json.loads(text))

    def flush(self):
        pass

    def client(self, timeout=120):
        return ServerClient(self.port, timeout=timeout)

    def shutdown(self, timeout=60):
        """Graceful shutdown; returns (reply, return code)."""
        with self.client(timeout=timeout) as client:
            reply = client.ask({"op": "shutdown"})
        self._thread.join(timeout)
        assert not self._thread.is_alive(), "server thread did not exit"
        if self.error is not None:
            raise self.error
        return reply, self.rc

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._thread.is_alive():
            try:
                self.shutdown(timeout=30)
            except (OSError, AssertionError):
                pass
        elif self.error is not None and exc[0] is not None:
            raise AssertionError(f"server failed: {self.error!r}")


def worker_pids(pid):
    """The shard workers among the child processes of ``pid`` (the
    spawn context also starts a resource tracker)."""
    workers = []
    for tid in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{tid}/children") as handle:
            for child in handle.read().split():
                with open(f"/proc/{child}/cmdline", "rb") as cmdline:
                    if b"--multiprocessing-fork" in cmdline.read():
                        workers.append(int(child))
    return workers


def wait_exited(pid, timeout=60):
    """Until process ``pid`` has exited (gone, or a zombie)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with open(f"/proc/{pid}/stat") as handle:
                state = handle.read().rsplit(")", 1)[1].split()[0]
        except FileNotFoundError:
            return
        if state in ("Z", "X"):
            return
        time.sleep(0.02)
    raise AssertionError(f"process {pid} still runs after {timeout} s")


def assert_same_answer(got, want, *, ignore=("as_of",)):
    """Exact equality of two answer dicts, modulo server-only keys."""
    got = {k: v for k, v in got.items() if k not in ignore}
    want = {k: v for k, v in want.items() if k not in ignore}
    assert got == want, f"\nserver: {got}\nserial: {want}"

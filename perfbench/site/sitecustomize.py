"""Tracing hook for the ``serve`` workload's traced run.

``run.py`` puts this directory first on ``PYTHONPATH`` together with
``PERFBENCH_TRACE_DIR``; Python imports ``sitecustomize`` at start-up in
every process it launches — the ``repro serve`` front and its spawned
shard worker alike — so both install the span tracer before any session
exists, and each writes ``trace-<pid>.json`` when it exits.
"""

import importlib.util
import os

_path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tracer.py")
_spec = importlib.util.spec_from_file_location("perfbench_tracer", _path)
_tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_tracer)
_tracer.install_from_env()

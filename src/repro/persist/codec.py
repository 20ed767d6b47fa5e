"""Exact JSON codec for checkpoint payloads and WAL release rows.

Checkpoints must round-trip **bit-identically**: a single ULP of drift in
a release vector or an accountant ledger would break the restored
session's equivalence with an uninterrupted run.  Plain ``tolist()``
round-trips Python floats exactly (``json`` serialises them via
``repr``), but it is slow and bulky for the large arrays a trace-enabled
session carries, and it loses dtypes.  Arrays are therefore encoded as
tagged base64 of their raw little-endian bytes:

``{"__nd__": "<base64>", "dtype": "<f8", "shape": [T, d]}``

:func:`encode` walks an arbitrary nesting of dicts / lists / tuples and
replaces every :class:`numpy.ndarray` (and numpy scalar) with a
JSON-safe form; :func:`decode` is its exact inverse.  Everything else —
ints (arbitrary precision), floats (including NaN/inf, which Python's
``json`` reads back), strings, booleans, ``None`` — passes through
untouched.

:func:`write_atomic` is the one way a persisted file is replaced
(checkpoints, the truncated WAL, the serve front's ``front.json``): a
temp file in the same directory, fsync, then rename, so a crash
mid-write leaves the previous version intact.
"""

from __future__ import annotations

import base64
import os
import tempfile
from pathlib import Path
from typing import Any

import numpy as np

from ..exceptions import CheckpointError

_ND_TAG = "__nd__"

#: Dtypes a checkpoint may legally carry; anything else is a bug in a
#: ``state_dict`` implementation and fails loudly at capture time.
_ALLOWED_DTYPES = {"<f8", "<i8", "|b1"}


def encode(value: Any) -> Any:
    """Recursively convert ``value`` into a JSON-serializable structure."""
    if isinstance(value, np.ndarray):
        return _encode_array(value)
    if isinstance(value, dict):
        return {str(k): encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise CheckpointError(
        f"cannot encode {type(value).__name__!r} into a checkpoint"
    )


def decode(value: Any) -> Any:
    """Exact inverse of :func:`encode`."""
    if isinstance(value, dict):
        if _ND_TAG in value:
            return _decode_array(value)
        return {k: decode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode(v) for v in value]
    return value


def _encode_array(array: np.ndarray) -> dict:
    # Normalise to little-endian so payloads are portable across hosts.
    canonical = array.astype(array.dtype.newbyteorder("<"), copy=False)
    dtype = canonical.dtype.str
    if dtype not in _ALLOWED_DTYPES:
        raise CheckpointError(
            f"checkpoint arrays must be float64/int64/bool, got {dtype}"
        )
    return {
        _ND_TAG: base64.b64encode(np.ascontiguousarray(canonical).tobytes()).decode(
            "ascii"
        ),
        "dtype": dtype,
        "shape": list(canonical.shape),
    }


def _decode_array(payload: dict) -> np.ndarray:
    try:
        dtype = str(payload["dtype"])
        if dtype not in _ALLOWED_DTYPES:
            raise CheckpointError(
                f"unsupported checkpoint array dtype {dtype!r}"
            )
        raw = base64.b64decode(payload[_ND_TAG], validate=True)
        array = np.frombuffer(raw, dtype=np.dtype(dtype))
        return array.reshape([int(n) for n in payload["shape"]]).copy()
    except CheckpointError:
        raise
    except (KeyError, ValueError, TypeError) as error:
        raise CheckpointError(
            f"corrupt array payload: {error}"
        ) from error


def write_atomic(path, text: str) -> None:
    """Replace ``path`` with ``text`` (temp file + fsync + rename)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name, suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise

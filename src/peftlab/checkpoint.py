"""Adapter checkpoint serialization.

A checkpoint directory holds exactly two files:

* ``adapter_config.json`` — format version, adapter name, config, and the
  model dims the adapter was built for (sorted keys, 2-space indent);
* ``weights.bin`` — magic ``ADPT``, little-endian u32 format version,
  u64 tensor count, then per tensor: u32 name length, utf-8 name bytes,
  u32 rank, u64 extents, float32 payload in row-major order.

Tensors are written in sorted-name order, so save -> load -> save is
byte-identical.  Compute stays float64; only persisted payloads are float32.
Each file is written to a temporary name in its directory and renamed over
the target, so a reader sees either the old file or the whole new one.  A
payload holding NaN or an infinity is rejected on read.
"""

from __future__ import annotations

import json
import math
import os
import struct
import threading
from pathlib import Path

import numpy as np

MAGIC = b"ADPT"
FORMAT_VERSION = 1
CONFIG_FILE = "adapter_config.json"
WEIGHTS_FILE = "weights.bin"


class CheckpointError(ValueError):
    """Corrupt, truncated, or incompatible checkpoint contents."""


def write_atomic(path, data: bytes) -> None:
    """Write ``data`` to a temporary file beside ``path``, then rename it over
    ``path``; on any failure the temporary file is removed and ``path`` is
    left as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_weights(path, tensors: dict) -> None:
    """Write named float arrays to the pinned binary layout."""
    parts = [MAGIC, struct.pack("<I", FORMAT_VERSION), struct.pack("<Q", len(tensors))]
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name])
        nb = name.encode("utf-8")
        parts += [struct.pack("<I", len(nb)), nb, struct.pack("<I", arr.ndim)]
        parts += [struct.pack("<Q", e) for e in arr.shape]
        parts.append(arr.astype("<f4").tobytes(order="C"))
    write_atomic(path, b"".join(parts))


class _Reader:
    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointError(
                f"truncated weights file {self.path}: {n} bytes needed at offset {self.pos}, "
                f"{len(self.blob) - self.pos} left")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]


def read_weights(path) -> dict:
    """Read the binary layout back into float32 arrays keyed by name."""
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as e:
        raise CheckpointError(f"cannot read weights file {path}: {e}") from None
    r = _Reader(blob, path)
    if r.take(4) != MAGIC:
        raise CheckpointError(f"{path} is not an adapter weights file (bad magic)")
    version = r.u32()
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported weights format version {version} (expected {FORMAT_VERSION})"
        )
    count = r.u64()
    out = {}
    for _ in range(count):
        try:
            name = r.take(r.u32()).decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"{path} has a tensor name that is not valid UTF-8") from None
        rank = r.u32()
        shape = tuple(r.u64() for _ in range(rank))
        n = math.prod(shape)              # Python ints: a hostile extent cannot wrap
        arr = np.frombuffer(r.take(4 * n), dtype="<f4").reshape(shape)
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: tensor {name!r} holds NaN or infinite values")
        out[name] = arr
    if r.pos != len(blob):
        raise CheckpointError(f"{path} has {len(blob) - r.pos} trailing bytes after its last tensor")
    return out


def write_manifest(path, name: str, config_dict: dict, dims_dict: dict) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "name": name,
        "config": config_dict,
        "dims": dims_dict,
    }
    write_atomic(path, (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8"))


def read_json_object(path, what: str) -> dict:
    """Parse ``path`` as one JSON object; any other content, or a file that
    cannot be read, raises :class:`CheckpointError` naming ``what``."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError as e:
        raise CheckpointError(f"cannot read {what} {path}: {e}") from None
    except (ValueError, RecursionError) as e:   # syntax, non-UTF-8 bytes, deep nesting
        raise CheckpointError(f"malformed {what} {path}: {e}") from None
    if not isinstance(doc, dict):
        raise CheckpointError(f"{what} {path} is not a JSON object")
    return doc


def read_manifest(path) -> dict:
    doc = read_json_object(path, "manifest")
    if doc.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported manifest version {doc.get('format_version')!r} "
            f"(expected {FORMAT_VERSION})"
        )
    for key in ("name", "config", "dims"):
        if key not in doc:
            raise CheckpointError(f"manifest {path} is missing {key!r}")
    if not isinstance(doc["name"], str):
        raise CheckpointError(f"manifest {path} has a name that is not a string")
    return doc

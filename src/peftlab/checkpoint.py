"""Checkpoint file formats, and every rule a saved file must meet.

* An adapter directory holds ``adapter_config.json`` (format version, name,
  config, and the model dims it was built for) and ``weights.bin``.
* A base directory holds ``base_config.json`` (format version, dims) and
  ``base_weights.bin``.
* ``head.json`` is one prediction head on one line: kind, label count, and
  ``w`` and ``b`` as nested lists, with no format version.

Manifests have sorted keys and a 2-space indent.  A weights file is magic
``ADPT``, little-endian u32 format version, u64 tensor count, then per
tensor: u32 name length, utf-8 name bytes, u32 rank, u64 extents, float32
payload in row-major order, tensors in sorted-name order, so save -> load ->
save is byte-identical.  Compute stays float64.  Each file is written to a
temporary name beside it and renamed over the target.

Every manifest and head file is read by :func:`read_manifest`, every tensor
set checked by :func:`check_tensors`; a file that breaks a rule, or holds
NaN or an infinity, raises :class:`CheckpointError`.  Saves put what they
are about to write through the same check (:func:`storable`).
"""

from __future__ import annotations

import json
import math
import os
import struct
import threading
from dataclasses import fields
from pathlib import Path
from typing import Optional

import numpy as np

from .model import HEAD_KINDS, ModelDims

MAGIC = b"ADPT"
FORMAT_VERSION = 1
CONFIG_FILE = "adapter_config.json"
WEIGHTS_FILE = "weights.bin"
BASE_CONFIG_FILE = "base_config.json"
BASE_WEIGHTS_FILE = "base_weights.bin"
HEAD_FILE = "head.json"

# each manifest's required keys and the JSON type of each value
ADAPTER_KEYS = {"name": str, "config": dict, "dims": dict}
BASE_KEYS = {"dims": dict}
HEAD_KEYS = {"kind": str, "num_labels": int, "w": list, "b": list}


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
        arr = np.ascontiguousarray(tensors[name], dtype="<f4")
        nb = name.encode("utf-8")
        parts += [struct.pack("<I", len(nb)), nb, struct.pack("<I", arr.ndim)]
        parts += [struct.pack("<Q", e) for e in arr.shape]
        parts.append(arr.tobytes(order="C"))
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


def read_weights(path, shapes: Optional[dict] = None) -> dict:
    """Read the binary layout back into finite float32 arrays keyed by name;
    with ``shapes``, the file must hold exactly those tensors."""
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
        if name in out:
            raise CheckpointError(f"{path} holds tensor {name!r} twice")
        rank = r.u32()
        shape = tuple(r.u64() for _ in range(rank))
        n = math.prod(shape)              # Python ints: a hostile extent cannot wrap
        payload = r.take(4 * n)
        try:
            out[name] = np.frombuffer(payload, dtype="<f4").reshape(shape)
        except ValueError as e:           # more axes, or a larger extent, than numpy allows
            raise CheckpointError(f"{path}: tensor {name!r} has shape {shape}: {e}") from None
    if r.pos != len(blob):
        raise CheckpointError(f"{path} has {len(blob) - r.pos} trailing bytes after its last tensor")
    return check_tensors(path, out, shapes)


def check_tensors(path, tensors: dict, shapes: Optional[dict] = None) -> dict:
    """Return ``tensors`` if every array is finite and, given ``shapes``, the
    names and shapes are exactly those; else raise :class:`CheckpointError`."""
    if shapes is not None and set(shapes) != set(tensors):
        missing, extra = sorted(set(shapes) - set(tensors))[:3], sorted(set(tensors) - set(shapes))[:3]
        raise CheckpointError(f"{path}: tensor set mismatch (missing {missing}, unexpected {extra})")
    for name, arr in tensors.items():
        if shapes is not None and arr.shape != tuple(shapes[name]):
            raise CheckpointError(
                f"{path}: tensor {name!r} has shape {arr.shape}, expected {shapes[name]}")
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: tensor {name!r} holds NaN or infinite values")
    return tensors


def storable(path, tensors: dict) -> dict:
    """``tensors`` as the float32 arrays a weights file stores, checked by
    :func:`check_tensors` (errors name ``path``), so a save refuses what a
    load refuses: NaN, infinities, and finite values beyond float32's
    range, which would be stored as infinities."""
    with np.errstate(over="ignore"):
        return check_tensors(path, {k: np.asarray(a, dtype="<f4") for k, a in tensors.items()})


def _write_json(path, doc: dict, **style) -> None:
    write_atomic(path, (json.dumps(doc, **style) + "\n").encode("utf-8"))


def write_manifest(path, name: str, config_dict: dict, dims_dict: dict) -> None:
    """Write an adapter manifest."""
    doc = {"format_version": FORMAT_VERSION, "name": name, "config": config_dict,
           "dims": dims_dict}
    _write_json(path, doc, sort_keys=True, indent=2)


def write_base_manifest(path, dims_dict: dict) -> None:
    _write_json(path, {"format_version": FORMAT_VERSION, "dims": dims_dict},
                sort_keys=True, indent=2)


def write_head(path, kind: str, num_labels: int, w, b) -> None:
    _write_json(path, {"kind": kind, "num_labels": num_labels, "w": w.tolist(), "b": b.tolist()})


def _finite(text: str) -> float:
    """``json`` hook for float literals and ``NaN``/``Infinity``: only finite
    numbers parse."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def read_json_object(path, what: str) -> dict:
    """Parse ``path`` as one JSON object of finite numbers; any other
    content, or a file that cannot be read, raises :class:`CheckpointError`
    naming ``what``."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"), parse_float=_finite,
                         parse_constant=_finite)
    except OSError as e:
        raise CheckpointError(f"cannot read {what} {path}: {e}") from None
    except (ValueError, RecursionError) as e:   # syntax, non-UTF-8 bytes, deep nesting
        raise CheckpointError(f"malformed {what} {path}: {e}") from None
    if not isinstance(doc, dict):
        raise CheckpointError(f"{what} {path} is not a JSON object")
    return doc


def _is(value, kind: type) -> bool:
    """JSON type test in which neither a bool nor a float is an int."""
    return isinstance(value, kind) and not (kind is int and isinstance(value, bool))


def read_manifest(path, keys: dict = ADAPTER_KEYS, what: str = "manifest",
                  version: Optional[int] = FORMAT_VERSION) -> dict:
    """Read a JSON object whose ``format_version`` is ``version`` (unless
    that is None) and which holds each key of ``keys`` with a value of its
    type; anything else raises :class:`CheckpointError`."""
    doc = read_json_object(path, what)
    found = doc.get("format_version")
    if version is not None and not (_is(found, int) and found == version):
        raise CheckpointError(f"unsupported {what} version {found!r} (expected {version})")
    for key, kind in keys.items():
        if key not in doc:
            raise CheckpointError(f"{what} {path} is missing {key!r}")
        if not _is(doc[key], kind):
            raise CheckpointError(f"{what} {path} has a {key!r} that is not a {kind.__name__}")
    return doc


def manifest_dims(doc: dict, path) -> ModelDims:
    """A manifest's ``dims``: exactly the :class:`ModelDims` fields, each an
    int, and a consistent set."""
    d, names = doc["dims"], sorted(f.name for f in fields(ModelDims))
    if sorted(d) != names or not all(_is(v, int) for v in d.values()):
        raise CheckpointError(f"{path} has dims {d}; expected an int for each of {names}")
    try:
        return ModelDims.from_dict(d)
    except ValueError as e:
        raise CheckpointError(f"bad dims in {path}: {e}") from None


def read_head(path, hidden: int) -> tuple:
    """``(kind, num_labels, {"w": ..., "b": ...})`` of a head file for an
    encoder of width ``hidden``."""
    doc = read_manifest(path, HEAD_KEYS, "head file", version=None)
    kind, n = doc["kind"], doc["num_labels"]
    if kind not in HEAD_KINDS or n < 1:
        raise CheckpointError(f"head file {path} has kind {kind!r} and {n} labels; "
                              f"expected one of {HEAD_KINDS} and at least 1 label")
    try:
        arrays = {k: np.asarray(doc[k]) for k in ("w", "b")}
    except ValueError as e:                                   # ragged nesting
        raise CheckpointError(f"malformed head file {path}: {e}") from None
    if any(a.dtype.kind not in "iuf" for a in arrays.values()):   # strings, nulls, ...
        raise CheckpointError(f"head file {path} has a w or b that is not a grid of numbers")
    arrays = {k: a.astype(np.float64) for k, a in arrays.items()}
    return kind, n, check_tensors(path, arrays, {"w": (hidden, n), "b": (n,)})

"""Binary weight-blob and manifest format tests."""

import json
import struct

import numpy as np
import pytest

from peftlab.checkpoint import (FORMAT_VERSION, CheckpointError, read_manifest,
                                read_weights, write_manifest, write_weights)


@pytest.fixture
def tensors(rng):
    return {
        "b.up.w": rng.normal(size=(3, 5)),
        "a.down.w": rng.normal(size=(5, 3)),
        "a.down.b": rng.normal(size=(3,)),
    }


def test_round_trip_preserves_values_at_float32(tmp_path, tensors):
    path = tmp_path / "weights.bin"
    write_weights(path, tensors)
    back = read_weights(path)
    assert set(back) == set(tensors)
    for k, v in tensors.items():
        assert back[k].shape == np.asarray(v).shape
        assert np.array_equal(back[k], np.asarray(v).astype("<f4"))


def test_zero_rank_arrays_are_promoted_to_length_one(tmp_path):
    """0-d inputs are stored (and read back) as shape-(1,) vectors: the
    writer runs everything through ``ascontiguousarray``, which guarantees
    at least one dimension.  No adapter tensor is 0-d, so this only pins
    the corner-case behaviour."""
    path = tmp_path / "weights.bin"
    write_weights(path, {"s": np.array(2.5)})
    back = read_weights(path)
    assert back["s"].shape == (1,)
    assert back["s"][0] == np.float32(2.5)


def test_rewrite_is_byte_identical(tmp_path, tensors):
    p1, p2 = tmp_path / "one.bin", tmp_path / "two.bin"
    write_weights(p1, tensors)
    write_weights(p2, {k: v.astype(np.float64) for k, v in read_weights(p1).items()})
    assert p1.read_bytes() == p2.read_bytes()


def test_tensors_are_stored_in_sorted_name_order(tmp_path, tensors):
    path = tmp_path / "weights.bin"
    write_weights(path, tensors)
    blob = path.read_bytes()
    offsets = [blob.index(name.encode()) for name in sorted(tensors)]
    assert offsets == sorted(offsets)


def test_bad_magic_is_rejected(tmp_path):
    path = tmp_path / "weights.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="bad magic"):
        read_weights(path)


def test_unknown_version_is_rejected(tmp_path, tensors):
    path = tmp_path / "weights.bin"
    write_weights(path, tensors)
    blob = bytearray(path.read_bytes())
    blob[4:8] = struct.pack("<I", FORMAT_VERSION + 9)
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version"):
        read_weights(path)


def test_truncation_is_rejected(tmp_path, tensors):
    path = tmp_path / "weights.bin"
    write_weights(path, tensors)
    blob = path.read_bytes()
    path.write_bytes(blob[:-7])
    with pytest.raises(CheckpointError, match="truncated"):
        read_weights(path)


def test_trailing_garbage_is_rejected(tmp_path, tensors):
    path = tmp_path / "weights.bin"
    write_weights(path, tensors)
    path.write_bytes(path.read_bytes() + b"\x01\x02")
    with pytest.raises(CheckpointError, match="trailing bytes"):
        read_weights(path)


def test_non_utf8_tensor_name_is_rejected(tmp_path, tensors):
    path = tmp_path / "weights.bin"
    write_weights(path, tensors)
    blob = bytearray(path.read_bytes())
    # magic, version, count and the first name's length come before its bytes
    first_name = 4 + 4 + 8 + 4
    blob[first_name] = 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="name"):
        read_weights(path)


def test_extents_whose_product_overflows_are_rejected(tmp_path):
    path = tmp_path / "weights.bin"
    write_weights(path, {"a": np.zeros((2, 2))})
    blob = bytearray(path.read_bytes())
    # magic, version, count, name length, the 1-byte name, rank
    extents = 4 + 4 + 8 + 4 + 1 + 4
    blob[extents:extents + 16] = struct.pack("<QQ", 2 ** 62, 4)   # 2**64 wraps to 0
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="truncated"):
        read_weights(path)


def test_missing_weights_file(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read"):
        read_weights(tmp_path / "nope.bin")


def test_manifest_round_trip(tmp_path):
    path = tmp_path / "adapter_config.json"
    write_manifest(path, "my-adapter", {"kind": "bottleneck", "reduction_factor": 16},
                   {"hidden": 64})
    doc = read_manifest(path)
    assert doc["name"] == "my-adapter"
    assert doc["config"]["reduction_factor"] == 16
    assert doc["dims"] == {"hidden": 64}
    assert doc["format_version"] == FORMAT_VERSION


def test_manifest_is_stable_text(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_manifest(a, "x", {"z": 1, "a": 2}, {"hidden": 8})
    write_manifest(b, "x", {"a": 2, "z": 1}, {"hidden": 8})
    assert a.read_text() == b.read_text()


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("name"),
    lambda d: d.pop("config"),
    lambda d: d.pop("dims"),
    lambda d: d.update(format_version=99),
])
def test_manifest_schema_violations(tmp_path, mutate):
    path = tmp_path / "adapter_config.json"
    write_manifest(path, "x", {"kind": "lora"}, {"hidden": 8})
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError):
        read_manifest(path)


def test_malformed_manifest_json(tmp_path):
    path = tmp_path / "adapter_config.json"
    path.write_text("{not json")
    with pytest.raises(CheckpointError, match="malformed"):
        read_manifest(path)


def test_manifest_that_is_not_an_object(tmp_path):
    path = tmp_path / "adapter_config.json"
    path.write_text("[]")
    with pytest.raises(CheckpointError, match="object"):
        read_manifest(path)


def test_manifest_nested_too_deeply(tmp_path):
    path = tmp_path / "adapter_config.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    with pytest.raises(CheckpointError, match="malformed"):
        read_manifest(path)


def test_manifest_that_is_not_utf8(tmp_path):
    path = tmp_path / "adapter_config.json"
    path.write_bytes(b'{"name": "\xff"}')
    with pytest.raises(CheckpointError, match="malformed"):
        read_manifest(path)

"""Binary weight-blob and manifest format tests."""

import copy
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peftlab.checkpoint import (BASE_CONFIG_FILE, CONFIG_FILE, FORMAT_VERSION, HEAD_FILE,
                                MAGIC, CheckpointError, read_manifest, read_weights,
                                write_manifest, write_weights)
from peftlab.configs import ConfigError
from peftlab.registry import AdapterModel

from conftest import TINY_DIMS


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


def _header(*tensors) -> bytes:
    """A weights file holding ``(name, extents, payload)`` tensors as given."""
    parts = [MAGIC, struct.pack("<I", FORMAT_VERSION), struct.pack("<Q", len(tensors))]
    for name, extents, payload in tensors:
        parts += [struct.pack("<I", len(name)), name, struct.pack("<I", len(extents))]
        parts += [struct.pack("<Q", e) for e in extents]
        parts.append(payload)
    return b"".join(parts)


@pytest.mark.parametrize("extents", [(0,) * 70, (0, 2 ** 63)],
                         ids=["rank-70", "extent-2**63"])
def test_empty_tensor_numpy_cannot_shape_is_rejected(tmp_path, extents):
    path = tmp_path / "weights.bin"
    path.write_bytes(_header((b"a", extents, b"")))
    with pytest.raises(CheckpointError, match="shape"):
        read_weights(path)


def test_repeated_tensor_name_is_rejected(tmp_path):
    path = tmp_path / "weights.bin"
    one = (b"a", (1,), struct.pack("<f", 1.0))
    path.write_bytes(_header(one, one))
    with pytest.raises(CheckpointError, match="twice"):
        read_weights(path)


def test_expected_shapes_are_checked(tmp_path, tensors):
    path = tmp_path / "weights.bin"
    write_weights(path, tensors)
    shapes = {k: v.shape for k, v in tensors.items()}
    assert set(read_weights(path, shapes)) == set(tensors)
    with pytest.raises(CheckpointError, match=r"unexpected \['b.up.w'\]"):
        read_weights(path, {k: s for k, s in shapes.items() if k != "b.up.w"})
    with pytest.raises(CheckpointError, match=r"missing \['c'\]"):
        read_weights(path, {**shapes, "c": (1,)})
    with pytest.raises(CheckpointError, match="expected"):
        read_weights(path, {**shapes, "a.down.b": (4,)})


_extent = st.one_of(st.integers(0, 3), st.sampled_from([2 ** 31, 2 ** 32, 2 ** 63]),
                    st.integers(0, 2 ** 64 - 1))
_tensor = st.tuples(st.binary(max_size=4),
                    st.one_of(st.lists(_extent, max_size=4),
                              st.lists(st.just(0), min_size=60, max_size=70)),
                    st.binary(max_size=24))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None)
@given(blob=st.one_of(st.binary(max_size=64),
                      st.binary(max_size=64).map(lambda b: MAGIC + b),
                      st.lists(_tensor, max_size=3).map(lambda ts: _header(*ts)),
                      st.tuples(st.lists(_tensor, max_size=3), st.integers(0, 80))
                      .map(lambda p: _header(*p[0])[:-p[1] or None])))
def test_any_bytes_read_as_finite_arrays_or_a_checkpoint_error(fuzz_dir, blob):
    path = fuzz_dir / "weights.bin"
    path.write_bytes(blob)
    try:
        out = read_weights(path)
    except CheckpointError:
        return
    for arr in out.values():
        assert arr.dtype == np.float32 and np.isfinite(arr).all()


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_non_finite_json_numbers_are_rejected(tmp_path, literal):
    path = tmp_path / "adapter_config.json"
    write_manifest(path, "x", {"type": "lora", "alpha": 8.0}, {"hidden": 8})
    path.write_text(path.read_text().replace("8.0", literal))
    with pytest.raises(CheckpointError, match="non-finite"):
        read_manifest(path)


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8)


@st.composite
def _damaged(draw, doc):
    """Any JSON value, or ``doc`` with one key (or one key of an object it
    holds) dropped or set to any JSON value."""
    if draw(st.booleans()):
        return draw(_json)
    doc = copy.deepcopy(doc)
    target = doc
    key = draw(st.sampled_from(sorted(target)))
    if isinstance(target[key], dict) and target[key] and draw(st.booleans()):
        target = target[key]
        key = draw(st.sampled_from(sorted(target)))
    if draw(st.booleans()):
        del target[key]
    else:
        target[key] = draw(_json)
    return doc


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A TINY_DIMS base, and a lora adapter with its head."""
    root = tmp_path_factory.mktemp("saved")
    m = AdapterModel(TINY_DIMS)
    m.add_adapter("a", "lora")
    m.add_prediction_head("a", "classification", 3)
    m.save_adapter("a", root / "adapter")
    m.save_head("a", root / "adapter" / HEAD_FILE)
    m.save_base(root / "base")
    return root


MANIFESTS = {
    "adapter": (f"adapter/{CONFIG_FILE}",
                lambda root: AdapterModel(TINY_DIMS).load_adapter(root / "adapter")),
    "base": (f"base/{BASE_CONFIG_FILE}", lambda root: AdapterModel.load_base(root / "base")),
    "head": (f"adapter/{HEAD_FILE}",
             lambda root: AdapterModel(TINY_DIMS).load_head("h", root / "adapter" / HEAD_FILE)),
}


@pytest.mark.parametrize("kind", sorted(MANIFESTS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_json_manifest_loads_or_raises_a_documented_error(saved, kind, data):
    name, load = MANIFESTS[kind]
    path = saved / name
    pristine = saved / (name + ".orig")
    if not pristine.exists():
        pristine.write_bytes(path.read_bytes())
    path.write_text(json.dumps(data.draw(_damaged(json.loads(pristine.read_text())))))
    try:
        load(saved)
    except (CheckpointError, ConfigError):
        pass

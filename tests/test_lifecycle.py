"""Adapter lifecycle: registration, parameter partitions, identity at init,
persistence, averaging, merging, and integrity fingerprints."""

import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from peftlab import AdapterModel, parse_config
from peftlab.checkpoint import (BASE_CONFIG_FILE, CONFIG_FILE, WEIGHTS_FILE, CheckpointError,
                                read_weights, write_weights)
from peftlab.configs import CONFIG_NAMES, ConfigError
from peftlab.composition import CompositionError, Fuse, Parallel, Stack, leaves
from peftlab import methods
from peftlab import model as model_module
from peftlab.methods import StateError
from peftlab.model import DESK_DIMS, InputError, ModelDims
from peftlab.registry import RegistryError
from peftlab.training import train_model

from conftest import SMALL_DIMS, random_tokens

IDENTITY_AT_INIT = ["seq_bn", "double_seq_bn", "par_bn", "seq_bn_inv",
                    "lora", "ia3", "compacter"]


def randomize(inst, seed=0):
    r = np.random.default_rng(seed)
    for t in inst.tensors.values():
        t.data[...] = r.normal(0.0, 0.4, size=t.data.shape)


# ---------------------------------------------------------------------------
# registration


def test_add_and_list_adapters():
    m = AdapterModel(SMALL_DIMS)
    m.add_adapter("zeta", "seq_bn")
    m.add_adapter("alpha", parse_config("lora"))
    assert m.adapter_names() == ["alpha", "zeta"]
    assert m.has_adapter("zeta") and not m.has_adapter("eta")
    assert m.adapter_instance("alpha").config == parse_config("lora")


def test_duplicate_names_are_rejected():
    m = AdapterModel(SMALL_DIMS)
    m.add_adapter("a", "seq_bn")
    with pytest.raises(RegistryError, match="already exists"):
        m.add_adapter("a", "lora")


@pytest.mark.parametrize("bad", ["", "1abc", "with space", "semi;colon"])
def test_invalid_adapter_names_are_rejected(bad):
    m = AdapterModel(SMALL_DIMS)
    with pytest.raises(RegistryError, match="invalid adapter name"):
        m.add_adapter(bad, "seq_bn")


def test_delete_frees_the_name_for_reuse():
    m = AdapterModel(SMALL_DIMS)
    m.add_adapter("a", "seq_bn")
    m.delete_adapter("a")
    assert not m.has_adapter("a")
    assert not any(k.startswith("adapter.a.") for k in m.all_parameters())
    m.add_adapter("a", "lora")              # name is free again


def test_delete_guards():
    m = AdapterModel(SMALL_DIMS)
    m.add_adapter("a", "seq_bn")
    m.add_adapter("b", "seq_bn")
    m.set_active(Stack("a", "b"))
    with pytest.raises(RegistryError, match="active setup"):
        m.delete_adapter("a")
    m.set_active(None)
    m.add_adapter_fusion(["a", "b"])
    with pytest.raises(RegistryError, match="fusion"):
        m.delete_adapter("b")

    m2 = AdapterModel(SMALL_DIMS)
    m2.add_adapter("lo", "lora")
    m2.merge_adapter("lo")
    with pytest.raises(StateError, match="merged"):
        m2.delete_adapter("lo")


def test_adapter_seeding_is_name_keyed():
    """Same name -> same init across models; different name -> different."""
    m1, m2 = AdapterModel(SMALL_DIMS, seed=5), AdapterModel(SMALL_DIMS, seed=5)
    a1 = m1.add_adapter("a", "seq_bn")
    a2 = m2.add_adapter("a", "seq_bn")
    other = m2.add_adapter("other", "seq_bn")
    for k in a1.tensors:
        assert np.array_equal(a1.tensors[k].data, a2.tensors[k].data)
    assert any(not np.array_equal(a1.tensors[k].data, other.tensors[k].data)
               for k in a1.tensors)


# ---------------------------------------------------------------------------
# identity at init


@pytest.mark.parametrize("method", IDENTITY_AT_INIT)
def test_fresh_adapters_are_identity(method, rng):
    m = AdapterModel(DESK_DIMS, seed=2)
    tokens = random_tokens(rng, 4, 12, DESK_DIMS.vocab)
    plain = m.encode(tokens).hidden.data
    m.add_adapter("fresh", method)
    m.set_active("fresh")
    adapted = m.encode(tokens).hidden.data
    assert np.allclose(adapted, plain, atol=1e-10)


# ---------------------------------------------------------------------------
# parameter partitions


def test_train_adapter_marks_exactly_one_partition():
    m = AdapterModel(SMALL_DIMS)
    m.add_adapter("a", "seq_bn")
    m.add_adapter("b", "lora")
    m.add_prediction_head("a", num_labels=3)
    m.train_adapter("a")
    keys = set(m.trainable_parameters())
    assert keys == {k for k in m.all_parameters()
                    if k.startswith("adapter.a.") or k.startswith("head.a.")}
    assert leaves(m.active) == ["a"]


def test_train_adapter_covers_every_leaf_of_a_setup():
    m = AdapterModel(SMALL_DIMS)
    m.add_adapter("a", "seq_bn")
    m.add_adapter("b", "seq_bn")
    m.train_adapter(Parallel("a", "b"))
    keys = set(m.trainable_parameters())
    assert {k.split(".")[1] for k in keys} == {"a", "b"}


def test_fusion_training_freezes_member_adapters():
    m = AdapterModel(SMALL_DIMS)
    m.add_adapter("a", "seq_bn")
    m.add_adapter("b", "seq_bn")
    m.add_adapter_fusion(["a", "b"])
    m.train_adapter(Fuse("a", "b"))
    keys = set(m.trainable_parameters())
    assert keys and all(k.startswith("fusion.a+b.") for k in keys)

    m.train_adapter(Fuse("a", "b"), train_fused_members=True)
    keys = set(m.trainable_parameters())
    assert any(k.startswith("adapter.a.") for k in keys)
    assert any(k.startswith("fusion.a+b.") for k in keys)


def test_train_full_is_the_inverse_partition():
    m = AdapterModel(SMALL_DIMS)
    m.add_adapter("a", "seq_bn")
    m.add_prediction_head("cls", num_labels=2)
    m.train_full(head="cls")
    keys = set(m.trainable_parameters())
    assert all(k.startswith("base.") or k.startswith("head.cls.") for k in keys)
    assert any(k.startswith("base.") for k in keys)
    assert m.active is None


def test_extra_heads_can_join_the_trainable_set():
    m = AdapterModel(SMALL_DIMS)
    m.add_adapter("a", "seq_bn")
    m.add_prediction_head("side", num_labels=2)
    m.train_adapter("a", extra_heads=["side"])
    assert any(k.startswith("head.side.") for k in m.trainable_parameters())


def test_set_active_is_pure(rng):
    m = AdapterModel(SMALL_DIMS)
    m.add_adapter("a", "seq_bn")
    m.train_adapter("a")
    flags_before = {k: t.requires_grad for k, t in m.all_parameters().items()}
    fp_before = m.base_fingerprint()
    m.set_active(None)
    m.set_active("a")
    assert {k: t.requires_grad for k, t in m.all_parameters().items()} == flags_before
    assert m.base_fingerprint() == fp_before


# ---------------------------------------------------------------------------
# persistence


@pytest.mark.parametrize("method", ["seq_bn", "lora", "prefix_tuning"])
def test_save_load_round_trip(tmp_path, method):
    m = AdapterModel(SMALL_DIMS, seed=1)
    inst = m.add_adapter("keep", method)
    randomize(inst, seed=9)
    m.save_adapter("keep", tmp_path / "ckpt")

    m2 = AdapterModel(SMALL_DIMS, seed=1)
    assert m2.load_adapter(tmp_path / "ckpt") == "keep"
    got = m2.adapter_instance("keep")
    assert got.config == inst.config
    for k, t in inst.tensors.items():
        assert np.array_equal(got.tensors[k].data,
                              t.data.astype(np.float32).astype(np.float64))

    m2.save_adapter("keep", tmp_path / "again")
    for fn in ("adapter_config.json", "weights.bin"):
        assert (tmp_path / "ckpt" / fn).read_bytes() == (tmp_path / "again" / fn).read_bytes()


def test_load_under_a_different_name(tmp_path):
    m = AdapterModel(SMALL_DIMS)
    m.add_adapter("orig", "seq_bn")
    m.save_adapter("orig", tmp_path)
    m.load_adapter(tmp_path, name="copy")
    assert m.has_adapter("copy") and m.has_adapter("orig")


def test_loaded_adapters_arrive_frozen_and_inactive(tmp_path):
    m = AdapterModel(SMALL_DIMS)
    m.add_adapter("a", "seq_bn")
    m.train_adapter("a")
    m.save_adapter("a", tmp_path)
    m2 = AdapterModel(SMALL_DIMS)
    m2.load_adapter(tmp_path)
    assert m2.active is None
    assert not any(t.requires_grad
                   for k, t in m2.all_parameters().items() if k.startswith("adapter.a."))


def test_cross_dim_load_fails_cleanly(tmp_path):
    m = AdapterModel(SMALL_DIMS)
    m.add_adapter("a", "seq_bn")
    m.save_adapter("a", tmp_path)
    other = AdapterModel(ModelDims(num_layers=1, hidden=8, heads=2, intermediate=16,
                                   vocab=40, max_seq=32))
    with pytest.raises(CheckpointError, match="dims"):
        other.load_adapter(tmp_path)
    assert not other.has_adapter("a")      # nothing half-registered


def test_truncated_checkpoint_fails_cleanly(tmp_path):
    m = AdapterModel(SMALL_DIMS)
    m.add_adapter("a", "seq_bn")
    m.save_adapter("a", tmp_path)
    blob = (tmp_path / "weights.bin").read_bytes()
    (tmp_path / "weights.bin").write_bytes(blob[: len(blob) // 2])
    m2 = AdapterModel(SMALL_DIMS)
    with pytest.raises(CheckpointError, match="truncated"):
        m2.load_adapter(tmp_path)
    assert not m2.has_adapter("a")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_payload_fails_cleanly(tmp_path, bad):
    m = AdapterModel(SMALL_DIMS)
    m.add_adapter("a", "lora")
    m.save_adapter("a", tmp_path)
    path = tmp_path / "weights.bin"
    blobs = {k: v.copy() for k, v in read_weights(path).items()}
    blobs["layer1.query.b"][0, 1] = bad
    write_weights(path, blobs)
    m2 = AdapterModel(SMALL_DIMS)
    m2.add_adapter("other", "seq_bn")
    with pytest.raises(CheckpointError, match="layer1.query.b"):
        m2.load_adapter(tmp_path)
    assert m2.adapter_names() == ["other"]


def test_failed_save_leaves_the_previous_checkpoint(tmp_path):
    m = AdapterModel(SMALL_DIMS)
    m.add_adapter("a", "lora")
    m.add_adapter("b", "seq_bn")
    m.save_adapter("a", tmp_path)
    manifest = (tmp_path / "adapter_config.json").read_bytes()
    (tmp_path / "weights.bin").unlink()
    (tmp_path / "weights.bin").mkdir()
    with pytest.raises(OSError):
        m.save_adapter("b", tmp_path)
    assert (tmp_path / "adapter_config.json").read_bytes() == manifest
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adapter_config.json", "weights.bin"]


@pytest.mark.parametrize("what, bad", [
    *[(what, bad) for what in ("adapter", "base", "head") for bad in (np.nan, -np.inf)],
    ("adapter", 1e39), ("base", 1e39),      # finite, but stored in float32 as inf
])
def test_a_save_refuses_what_a_load_refuses(tmp_path, what, bad):
    m = AdapterModel(SMALL_DIMS)
    m.add_adapter("a", "seq_bn")
    m.add_prediction_head("a", num_labels=2)
    saves = {"adapter": lambda: m.save_adapter("a", tmp_path),
             "base": lambda: m.save_base(tmp_path),
             "head": lambda: m.save_head("a", tmp_path / "head.json")}
    for save in saves.values():
        save()
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    tensor = {"adapter": m.adapter_instance("a").tensors["layer1.post_ffn.up.w"],
              "base": m.encoder.params["layer0.attn.wq"], "head": m.head("a").w}[what]
    tensor.data[0, 0] = bad
    with pytest.raises(CheckpointError, match="NaN or infinite"):
        saves[what]()
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def _edit_manifest(directory, edit):
    path = directory / "adapter_config.json"
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def test_manifest_config_that_is_not_an_object_fails_cleanly(tmp_path):
    m = AdapterModel(SMALL_DIMS)
    m.add_adapter("a", "seq_bn")
    m.save_adapter("a", tmp_path)
    _edit_manifest(tmp_path, lambda doc: doc.update(config="seq_bn"))
    m2 = AdapterModel(SMALL_DIMS)
    with pytest.raises((CheckpointError, ConfigError), match="config"):
        m2.load_adapter(tmp_path)
    assert m2.adapter_names() == []


def test_manifest_config_field_of_the_wrong_type_fails_cleanly(tmp_path):
    m = AdapterModel(SMALL_DIMS)
    m.add_adapter("a", "seq_bn")
    m.save_adapter("a", tmp_path)
    _edit_manifest(tmp_path, lambda doc: doc.update(
        config={"type": "bottleneck", "reduction_factor": "x"}))
    m2 = AdapterModel(SMALL_DIMS)
    with pytest.raises(ConfigError, match="reduction_factor"):
        m2.load_adapter(tmp_path)
    assert m2.adapter_names() == []


@pytest.mark.parametrize("edit", [
    lambda doc: doc.update(name=""),
    lambda doc: doc.update(name="9 lives"),
    lambda doc: doc["dims"].update(hidden=float(doc["dims"]["hidden"])),
    lambda doc: doc["dims"].update(num_layers=True),
    lambda doc: doc.update(format_version=1.0),
], ids=["empty-name", "invalid-name", "float-dims", "bool-dims", "float-version"])
def test_manifest_names_dims_and_version_are_checked_strictly(tmp_path, edit):
    m = AdapterModel(SMALL_DIMS)
    m.add_adapter("a", "seq_bn")
    m.save_adapter("a", tmp_path)
    _edit_manifest(tmp_path, edit)
    m2 = AdapterModel(SMALL_DIMS)
    with pytest.raises(CheckpointError):
        m2.load_adapter(tmp_path)
    assert m2.adapter_names() == []


def test_load_checks_the_weights_file_before_allocating(tmp_path, monkeypatch):
    """A manifest whose config does not match its weights file is rejected
    before any tensor is allocated, however large the config claims to be."""
    m = AdapterModel(SMALL_DIMS)
    m.add_adapter("a", "seq_bn")
    m.save_adapter("a", tmp_path)
    _edit_manifest(tmp_path, lambda doc: doc.update(
        config={"type": "prefix_tuning", "prefix_length": SMALL_DIMS.max_seq, "flat": True}))

    def refuse(*args, **kwargs):
        raise AssertionError("load_adapter allocated a tensor")

    m2 = AdapterModel(SMALL_DIMS)
    monkeypatch.setattr(methods, "Tensor", refuse)
    with pytest.raises(CheckpointError, match="tensor set mismatch"):
        m2.load_adapter(tmp_path)
    assert m2.adapter_names() == []


def test_load_base_checks_the_weights_file_before_allocating(tmp_path, monkeypatch):
    AdapterModel(SMALL_DIMS).save_base(tmp_path)
    path = tmp_path / BASE_CONFIG_FILE
    doc = json.loads(path.read_text())
    doc["dims"]["vocab"] = 10 ** 6
    path.write_text(json.dumps(doc))

    def refuse(*args, **kwargs):
        raise AssertionError("load_base allocated an encoder")

    monkeypatch.setattr(model_module.TransformerEncoder, "__init__", refuse)
    with pytest.raises(CheckpointError, match="embed.token"):
        AdapterModel.load_base(tmp_path)


def test_compacter_manifest_with_retired_keys_still_loads(tmp_path):
    """Manifests written when CompacterConfig still had ``factor_rank`` and
    ``share_factors`` load as the same adapter: unknown keys are ignored."""
    m = AdapterModel(DESK_DIMS)
    m.add_adapter("c", "compacter")
    m.save_adapter("c", tmp_path)
    _edit_manifest(tmp_path, lambda doc: doc["config"].update(
        factor_rank=1, share_factors=False))
    m2 = AdapterModel(DESK_DIMS)
    m2.load_adapter(tmp_path)
    assert m2.adapter_instance("c").config == parse_config("compacter")
    saved = m.adapter_instance("c").tensors
    loaded = m2.adapter_instance("c").tensors
    assert loaded.keys() == saved.keys()
    for k, t in loaded.items():
        assert np.array_equal(t.data, saved[k].data.astype(np.float32))


def test_tensor_set_mismatch_fails_cleanly(tmp_path):
    """A manifest claiming one config but weights from another is rejected,
    and the registry is left untouched."""
    m = AdapterModel(SMALL_DIMS)
    m.add_adapter("a", "seq_bn")
    m.add_adapter("b", "lora")
    m.save_adapter("a", tmp_path / "bn")
    m.save_adapter("b", tmp_path / "lo")
    (tmp_path / "bn" / "weights.bin").write_bytes(
        (tmp_path / "lo" / "weights.bin").read_bytes())
    m2 = AdapterModel(SMALL_DIMS)
    with pytest.raises(CheckpointError, match="tensor set mismatch"):
        m2.load_adapter(tmp_path / "bn")
    assert m2.adapter_names() == []


def test_load_collision_with_existing_name(tmp_path):
    m = AdapterModel(SMALL_DIMS)
    m.add_adapter("a", "seq_bn")
    m.save_adapter("a", tmp_path)
    with pytest.raises(RegistryError, match="already exists"):
        m.load_adapter(tmp_path)


@pytest.mark.parametrize("method", CONFIG_NAMES)
def test_load_builds_from_the_file_without_drawing(tmp_path, rng_callers, method):
    m = AdapterModel(DESK_DIMS, seed=1)
    inst = m.add_adapter("keep", method)
    randomize(inst, seed=9)
    m.save_adapter("keep", tmp_path)
    m2 = AdapterModel(DESK_DIMS, seed=1)
    rng_callers.clear()
    m2.load_adapter(tmp_path, name="loaded")
    assert rng_callers == []
    got = m2.adapter_instance("loaded").tensors
    assert list(got) == list(inst.tensors)
    for k, t in inst.tensors.items():
        assert np.array_equal(got[k].data, t.data.astype(np.float32).astype(np.float64))


def test_load_base_and_load_head_build_from_their_files_without_drawing(tmp_path,
                                                                       rng_callers):
    m = AdapterModel(SMALL_DIMS, seed=4)
    head = m.add_prediction_head("h", "tagging", 3)
    head.b.data[...] = np.random.default_rng(2).normal(size=3)
    m.save_base(tmp_path)
    m.save_head("h", tmp_path / "head.json")
    rng_callers.clear()
    m2 = AdapterModel.load_base(tmp_path)
    m2.load_head("h", tmp_path / "head.json")
    assert rng_callers == []
    for k, t in m.encoder.params.items():
        assert np.array_equal(m2.encoder.params[k].data,
                              t.data.astype(np.float32).astype(np.float64))
    assert m2.head("h").kind == "tagging"
    for k, t in m.head("h").tensors().items():
        assert np.array_equal(m2.head("h").tensors()[k].data, t.data)


def test_an_encoder_built_from_a_state_keeps_its_float64_arrays():
    state = AdapterModel(SMALL_DIMS, seed=3).encoder.state_array()
    encoder = AdapterModel(SMALL_DIMS, base_state=state).encoder
    assert all(encoder.params[k].data is a for k, a in state.items())
    wide = dict(state, **{"embed.token": state["embed.token"][:, :-1]})
    with pytest.raises(InputError, match="embed.token"):
        AdapterModel(SMALL_DIMS, base_state=wide)
    with pytest.raises(InputError, match="final_ln.b"):
        AdapterModel(SMALL_DIMS, base_state={k: a for k, a in state.items()
                                             if k != "final_ln.b"})


# ---------------------------------------------------------------------------
# averaging


def test_average_is_the_weighted_elementwise_mean():
    m = AdapterModel(SMALL_DIMS)
    a = m.add_adapter("a", "seq_bn")
    b = m.add_adapter("b", "seq_bn")
    for t in a.tensors.values():
        t.data[...] = 2.0
    for t in b.tensors.values():
        t.data[...] = 4.0
    avg = m.average_adapters("avg", ["a", "b"], weights=[0.5, 0.5])
    for t in avg.tensors.values():
        assert np.all(t.data == 3.0)


def test_an_unequal_average_of_three_builds_the_weighted_sums_without_drawing(rng_callers):
    m = AdapterModel(SMALL_DIMS)
    sources = [m.add_adapter(name, "unipelt") for name in ("a", "b", "c")]
    for seed, inst in enumerate(sources):
        randomize(inst, seed=seed)
    rng_callers.clear()
    avg = m.average_adapters("avg", ["a", "b", "c"], weights=[1.0, 2.0, 3.5])
    assert rng_callers == []
    weights = np.asarray([1.0, 2.0, 3.5])
    weights = weights / weights.sum()
    assert list(avg.tensors) == list(sources[0].tensors)
    for key, t in avg.tensors.items():
        acc = np.zeros_like(t.data)
        for w, inst in zip(weights, sources):
            acc += w * inst.tensors[key].data
        assert np.array_equal(t.data, acc)


def test_average_weights_are_normalized():
    m = AdapterModel(SMALL_DIMS)
    randomize(m.add_adapter("a", "seq_bn"), 1)
    randomize(m.add_adapter("b", "seq_bn"), 2)
    x = m.average_adapters("x", ["a", "b"], weights=[1.0, 3.0])
    y = m.average_adapters("y", ["a", "b"], weights=[0.25, 0.75])
    for k in x.tensors:
        assert np.allclose(x.tensors[k].data, y.tensors[k].data, atol=1e-15)


def test_average_weight_one_zero_copies_the_first_source():
    m = AdapterModel(SMALL_DIMS)
    a = m.add_adapter("a", "seq_bn")
    randomize(a, 3)
    randomize(m.add_adapter("b", "seq_bn"), 4)
    avg = m.average_adapters("avg", ["a", "b"], weights=[1.0, 0.0])
    for k, t in avg.tensors.items():
        assert np.array_equal(t.data, a.tensors[k].data)


def test_average_of_identical_sources_is_a_fixed_point():
    m = AdapterModel(SMALL_DIMS)
    a = m.add_adapter("a", "seq_bn")
    randomize(a, 5)
    b = m.add_adapter("b", "seq_bn")
    for k in a.tensors:
        b.tensors[k].data[...] = a.tensors[k].data
    avg = m.average_adapters("avg", ["a", "b"], weights=[0.9, 0.1])
    for k, t in avg.tensors.items():
        assert np.allclose(t.data, a.tensors[k].data, atol=1e-15)


def test_average_defaults_to_uniform_weights():
    m = AdapterModel(SMALL_DIMS)
    for i, name in enumerate(["a", "b", "c"]):
        randomize(m.add_adapter(name, "seq_bn"), i)
    d = m.average_adapters("d", ["a", "b", "c"])
    e = m.average_adapters("e", ["a", "b", "c"], weights=[1, 1, 1])
    for k in d.tensors:
        assert np.allclose(d.tensors[k].data, e.tensors[k].data, atol=1e-15)


def test_average_rejects_heterogeneous_configs():
    m = AdapterModel(SMALL_DIMS)
    m.add_adapter("a", "seq_bn")
    m.add_adapter("b", "lora")
    with pytest.raises(RegistryError, match="configs differ"):
        m.average_adapters("avg", ["a", "b"])


def test_average_argument_validation():
    m = AdapterModel(SMALL_DIMS)
    m.add_adapter("a", "seq_bn")
    m.add_adapter("b", "seq_bn")
    with pytest.raises(RegistryError, match="at least one source"):
        m.average_adapters("avg", [])
    with pytest.raises(RegistryError, match="2 sources but 3 weights"):
        m.average_adapters("avg", ["a", "b"], weights=[1, 1, 1])
    with pytest.raises(RegistryError, match="non-negative"):
        m.average_adapters("avg", ["a", "b"], weights=[-1.0, 2.0])
    for weights in ([float("nan"), 1.0], [1.0, float("inf")], [1e308, 1e308]):
        with pytest.raises(RegistryError, match="finite"):
            m.average_adapters("avg", ["a", "b"], weights=weights)
    with pytest.raises(RegistryError, match="already exists"):
        m.average_adapters("a", ["a", "b"])
    with pytest.raises(KeyError):
        m.average_adapters("avg", ["a", "ghost"])


def test_averaged_adapter_runs_like_any_other(rng):
    m = AdapterModel(SMALL_DIMS)
    randomize(m.add_adapter("a", "seq_bn"), 1)
    randomize(m.add_adapter("b", "seq_bn"), 2)
    m.average_adapters("avg", ["a", "b"], weights=[0.3, 0.7])
    m.set_active("avg")
    tokens = random_tokens(rng, 2, 8, SMALL_DIMS.vocab)
    out = m.encode(tokens).hidden.data
    assert out.shape == (2, 8, SMALL_DIMS.hidden)


# ---------------------------------------------------------------------------
# merging


def test_merge_preserves_the_forward_pass(rng):
    m = AdapterModel(SMALL_DIMS, seed=4)
    randomize(m.add_adapter("lo", "lora"), 11)
    tokens = random_tokens(rng, 3, 9, SMALL_DIMS.vocab)
    m.set_active("lo")
    active = m.encode(tokens).hidden.data
    m.set_active(None)

    m.merge_adapter("lo")
    merged = m.encode(tokens).hidden.data      # no active setup
    assert np.allclose(merged, active, atol=1e-10)


def test_unmerge_restores_base_weights(rng):
    m = AdapterModel(SMALL_DIMS, seed=4)
    randomize(m.add_adapter("lo", "lora"), 11)
    before = {k: t.data.copy() for k, t in m.encoder.params.items()}
    m.merge_adapter("lo")
    changed = [k for k, t in m.encoder.params.items()
               if not np.array_equal(t.data, before[k])]
    assert changed                              # merge really edited the base
    m.unmerge_adapter("lo")
    for k, t in m.encoder.params.items():
        assert np.allclose(t.data, before[k], atol=1e-12)


def test_merge_state_guards():
    m = AdapterModel(SMALL_DIMS)
    m.add_adapter("lo", "lora")
    m.add_adapter("bn", "seq_bn")
    m.add_adapter("u", "unipelt")
    with pytest.raises(StateError, match="not a pure low-rank"):
        m.merge_adapter("bn")
    with pytest.raises(StateError, match="not a pure low-rank"):
        m.merge_adapter("u")
    with pytest.raises(StateError, match="not merged"):
        m.unmerge_adapter("lo")
    m.merge_adapter("lo")
    with pytest.raises(StateError, match="already merged"):
        m.merge_adapter("lo")


# ---------------------------------------------------------------------------
# fingerprints


def test_base_fingerprint_tracks_only_base_weights():
    m = AdapterModel(SMALL_DIMS, seed=6)
    fp = m.base_fingerprint()
    randomize(m.add_adapter("a", "seq_bn"), 1)
    m.set_active("a")
    assert m.base_fingerprint() == fp           # adapter ops leave Theta alone
    randomize(m.add_adapter("lo", "lora"), 2)
    m.set_active(None)
    m.merge_adapter("lo")
    assert m.base_fingerprint() != fp


def test_adapter_fingerprint_is_stable_across_save_load(tmp_path):
    m = AdapterModel(SMALL_DIMS, seed=6)
    inst = m.add_adapter("a", "seq_bn")
    # float32-representable values so persistence cannot perturb them
    r = np.random.default_rng(0)
    for t in inst.tensors.values():
        t.data[...] = r.normal(0.0, 0.4, size=t.data.shape).astype(np.float32)
    fp = m.adapter_fingerprint("a")
    m.save_adapter("a", tmp_path)
    m2 = AdapterModel(SMALL_DIMS, seed=99)
    m2.load_adapter(tmp_path)
    assert m2.adapter_fingerprint("a") == fp


# ---------------------------------------------------------------------------
# random lifecycles


POOL = st.sampled_from(["a", "b", "c", "d"])
PRESETS = st.sampled_from(["seq_bn", "lora", "par_bn", "ia3"])
SETUPS = POOL | st.builds("{}({}, {})".format,
                          st.sampled_from(["Stack", "Parallel", "Fuse", "Average"]), POOL, POOL)

# what a registry call that cannot run raises
DOCUMENTED = (RegistryError, StateError, CompositionError, CheckpointError, KeyError)


class Lifecycle(RuleBasedStateMachine):
    """Random walks over the registry.  Every call succeeds or raises a
    documented error; only merge and unmerge move the base, which is back
    within 1e-12 whenever nothing is merged; and an adapter saved, loaded
    and saved again writes the same bytes."""

    def __init__(self):
        super().__init__()
        self.model = AdapterModel(SMALL_DIMS, seed=1)
        self.model.add_prediction_head("h", num_labels=2)
        self.base = self.model.encoder.state_array()
        self.dir = Path(tempfile.mkdtemp())
        self.saves = 0
        r = np.random.default_rng(0)
        self.x, self.y = r.integers(0, SMALL_DIMS.vocab, size=(4, 6)), r.integers(0, 2, size=4)

    def teardown(self):
        shutil.rmtree(self.dir)

    @initialize(presets=st.lists(PRESETS, min_size=2, max_size=2))
    def add_three(self, presets):
        for name, preset in zip("abc", ["lora"] + presets):     # one that merges
            self.model.add_adapter(name, preset)

    def _call(self, fn, *args, moves_base=False):
        before = self.model.base_fingerprint()
        try:
            fn(*args)
        except DOCUMENTED:
            pass
        if not moves_base:
            assert self.model.base_fingerprint() == before

    @rule(name=POOL, preset=PRESETS)
    def add(self, name, preset):
        self._call(self.model.add_adapter, name, preset)

    @rule(name=POOL)
    def delete(self, name):
        self._call(self.model.delete_adapter, name)

    @rule(setup=st.none() | SETUPS)
    def set_active(self, setup):
        self._call(self.model.set_active, setup)

    @rule(setup=SETUPS)
    def train_one_step(self, setup):
        def train():
            self.model.train_adapter(setup, extra_heads=("h",))
            try:
                res = train_model(self.model, "h", self.x, self.y, 0.05, 1, batch_size=4)
            except ValueError as e:         # the loss cannot score Parallel's copies
                assert "copies each input row" in str(e)
                return
            assert res.steps == 1 and np.isfinite(res.losses).all()
        self._call(train)

    @rule(name=POOL)
    def merge(self, name):
        self._call(self.model.merge_adapter, name, moves_base=True)

    @rule(name=POOL)
    def unmerge(self, name):
        self._call(self.model.unmerge_adapter, name, moves_base=True)

    @rule(new=POOL, a=POOL, b=POOL, w=st.floats(0.0, 1.0))
    def average(self, new, a, b, w):
        self._call(self.model.average_adapters, new, [a, b], [w, 1.0 - w])

    @rule(name=POOL, copy=POOL)
    def save_and_load(self, name, copy):
        def save_load_save():
            self.saves += 1
            first, again = self.dir / f"{self.saves}", self.dir / f"{self.saves}-again"
            self.model.save_adapter(name, first)
            other = AdapterModel(SMALL_DIMS)
            other.save_adapter(other.load_adapter(first), again)
            for f in (WEIGHTS_FILE, CONFIG_FILE):
                assert (first / f).read_bytes() == (again / f).read_bytes()
            self.model.load_adapter(first, name=copy)
        self._call(save_load_save)

    @rule(a=POOL, b=POOL)
    def add_fusion(self, a, b):
        self._call(self.model.add_adapter_fusion, [a, b])

    @invariant()
    def the_base_is_back_when_nothing_is_merged(self):
        m = self.model
        if not any(m.adapter_instance(n).merged for n in m.adapter_names()):
            for k, t in m.encoder.params.items():
                assert np.max(np.abs(t.data - self.base[k])) <= 1e-12


TestLifecycle = Lifecycle.TestCase
TestLifecycle.settings = settings(max_examples=60, stateful_step_count=30, deadline=None)

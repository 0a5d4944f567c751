"""Per-method module tests: initialization identities, closed-form algebra
(Kronecker sums, low-rank deltas, coupling inverses), and gradient checks."""

import numpy as np
import pytest
import scipy.special

from peftlab import tensor as T
from peftlab.configs import (CompacterConfig, PrefixTuningConfig, count_params,
                             parse_config)
from peftlab.methods import (GateModule, IA3Module, InvertibleModule,
                             LoraModule, PhmLinear, PrefixModule,
                             PromptModule, _Alloc, BottleneckModule,
                             FusionLayer, instantiate_adapter)
from peftlab.model import DESK_DIMS, HookPoint

from conftest import SMALL_DIMS
from test_configs import closed_form_count


def alloc(seed=0):
    return _Alloc(np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# bottleneck


def test_bottleneck_identity_at_init(rng):
    al = alloc()
    m = BottleneckModule(al, "m.", 16, 4, "relu", 1.0)
    h = T.Tensor(rng.normal(size=(3, 5, 16)))
    assert np.array_equal(m.delta(h).data, np.zeros((3, 5, 16)))


def test_bottleneck_delta_formula(rng):
    al = alloc()
    m = BottleneckModule(al, "m.", 8, 2, "relu", 3.0)
    m.w_up.data = rng.normal(size=(2, 8))
    m.b_up.data = rng.normal(size=(8,))
    h = rng.normal(size=(4, 8))
    expect = 3.0 * (np.maximum(h @ m.w_down.data + m.b_down.data, 0.0)
                    @ m.w_up.data + m.b_up.data)
    assert np.allclose(m.delta(T.Tensor(h)).data, expect, atol=1e-12)


def test_bottleneck_identity_nonlinearity(rng):
    h = rng.normal(size=(2, 6))
    al = alloc()
    m = BottleneckModule(al, "m.", 6, 3, "identity", 1.0)
    m.w_up.data = rng.normal(size=(3, 6))
    expect = (h @ m.w_down.data + m.b_down.data) @ m.w_up.data + m.b_up.data
    assert np.allclose(m.delta(T.Tensor(h)).data, expect, atol=1e-12)


def test_bottleneck_grad_check(rng):
    al = alloc()
    m = BottleneckModule(al, "m.", 6, 3, "relu", 2.0)
    m.w_up.data = rng.normal(size=(3, 6)) * 0.1
    h = rng.normal(size=(2, 6)) + 0.7   # keep relu away from its kink
    for t in (m.w_down, m.w_up, m.b_down, m.b_up):
        err = T.grad_check(
            lambda v: T.tsum(T.mul(m.delta(T.constant(h)), m.delta(T.constant(h)))),
            t)
        assert err < 1e-5


# ---------------------------------------------------------------------------
# PHM / Kronecker


def brute_force_phm_weight(a, s, t):
    """sum_i kron(A_i, s_i t_i^T) computed with numpy only."""
    n = a.shape[0]
    out = None
    for i in range(n):
        term = np.kron(a[i], np.outer(s[i], t[i]))
        out = term if out is None else out + term
    return out


def test_phm_weight_matches_bruteforce(rng):
    n, fin, fout = 4, 16, 8
    al = alloc(3)
    shared = T.Tensor(rng.normal(size=(n, n, n)))
    ph = PhmLinear(al, "p.", fin, fout, n, shared, zero_out=False)
    got = ph.weight().data
    expect = brute_force_phm_weight(shared.data, ph.s.data, ph.t.data)
    assert got.shape == (fin, fout)
    assert np.allclose(got, expect, atol=1e-12)


def test_phm_apply_is_affine(rng):
    n, fin, fout = 2, 8, 6
    al = alloc(4)
    shared = T.Tensor(rng.normal(size=(n, n, n)))
    ph = PhmLinear(al, "p.", fin, fout, n, shared, zero_out=False)
    ph.bias.data = rng.normal(size=(fout,))
    x = rng.normal(size=(5, fin))
    expect = x @ brute_force_phm_weight(shared.data, ph.s.data, ph.t.data) \
        + ph.bias.data
    assert np.allclose(ph.apply(T.Tensor(x)).data, expect, atol=1e-12)


def test_phm_zero_out_gives_zero_weight(rng):
    al = alloc(5)
    shared = T.Tensor(rng.normal(size=(2, 2, 2)))
    ph = PhmLinear(al, "p.", 8, 8, 2, shared, zero_out=True)
    assert np.array_equal(ph.weight().data, np.zeros((8, 8)))


def test_phm_grad_check(rng):
    n = 2
    al = alloc(6)
    shared = T.Tensor(rng.normal(size=(n, n, n)), requires_grad=True)
    ph = PhmLinear(al, "p.", 4, 4, n, shared, zero_out=False)
    x = T.constant(rng.normal(size=(3, 4)))

    def loss(_v):
        y = ph.apply(x)
        return T.tsum(T.mul(y, y))

    for t in (shared, ph.s, ph.t, ph.bias):
        assert T.grad_check(loss, t) < 1e-5


def test_compacter_identity_at_init(rng):
    model_cfg = CompacterConfig()
    inst = instantiate_adapter("c", model_cfg, DESK_DIMS,
                               np.random.default_rng(0))
    h = T.Tensor(rng.normal(size=(2, 3, 64)))
    mod = inst.bindings[HookPoint.POST_FFN_RESIDUAL][0][0][0]
    assert np.array_equal(mod.delta(h).data, np.zeros((2, 3, 64)))


def test_compacter_shares_mixing_factors():
    inst = instantiate_adapter("c", CompacterConfig(), DESK_DIMS,
                               np.random.default_rng(0))
    assert "phm.a" in inst.tensors
    mods = [m for layer in (inst.bindings[HookPoint.POST_FFN_RESIDUAL]
                            + inst.bindings[HookPoint.POST_ATTN_RESIDUAL])
            for m, _gate, *_ in layer]
    assert len(mods) == 2 * DESK_DIMS.num_layers
    for m in mods:
        assert m.down.a is inst.tensors["phm.a"]
        assert m.up.a is inst.tensors["phm.a"]


# ---------------------------------------------------------------------------
# invertible coupling


def _randomized_invertible(rng, d=12, inv_rf=2):
    al = alloc(7)
    m = InvertibleModule(al, "inv.", d, inv_rf)
    for tag in ("f", "g"):
        w1, b1, w2, b2 = m.nets[tag]
        w2.data = rng.normal(size=w2.data.shape) * 0.5
        b2.data = rng.normal(size=b2.data.shape) * 0.1
    return m


def test_invertible_identity_at_init(rng):
    al = alloc(8)
    m = InvertibleModule(al, "inv.", 10, 1)
    x = rng.normal(size=(2, 4, 10))
    assert np.array_equal(m.forward(T.Tensor(x)).data, x)


def test_invertible_roundtrip(rng):
    m = _randomized_invertible(rng)
    for _ in range(20):
        x = rng.normal(size=(2, 5, 12)) * 3
        y = m.forward(T.Tensor(x)).data
        back = m.inverse(T.Tensor(y)).data
        assert np.max(np.abs(back - x)) < 1e-10
        assert not np.allclose(y, x)     # the map itself is not identity


def test_invertible_forward_then_inverse_objects(rng):
    m = _randomized_invertible(rng)
    x = T.Tensor(rng.normal(size=(1, 3, 12)))
    assert np.max(np.abs(m.inverse(m.forward(x)).data - x.data)) < 1e-10


def test_invertible_coupling_structure(rng):
    """y2 must depend on y1 (not x1 directly): perturbing x1 changes y2
    through F/G chaining."""
    m = _randomized_invertible(rng)
    x = rng.normal(size=(1, 2, 12))
    y = m.forward(T.Tensor(x)).data
    x2 = x.copy()
    x2[..., 0] += 1.0                    # a first-half channel
    y2 = m.forward(T.Tensor(x2)).data
    assert not np.allclose(y[..., 6:], y2[..., 6:])


def test_invertible_grad_check(rng):
    m = _randomized_invertible(rng, d=8)
    x = T.constant(rng.normal(size=(2, 3, 8)))
    w1 = m.nets["f"][0]

    def loss(_v):
        y = m.forward(x)
        return T.tsum(T.mul(y, y))

    assert T.grad_check(loss, w1, sample=10) < 1e-5


def test_invertible_odd_width_rejected():
    with pytest.raises(ValueError):
        InvertibleModule(alloc(), "inv.", 7, 1)


# ---------------------------------------------------------------------------
# LoRA


def test_lora_zero_at_init(rng):
    al = alloc(9)
    m = LoraModule(al, "l.", 8, 2, 8.0)
    x = rng.normal(size=(3, 5, 8))
    assert np.array_equal(m.delta(T.Tensor(x)).data, np.zeros((3, 5, 8)))


def test_lora_delta_closed_form(rng):
    al = alloc(10)
    m = LoraModule(al, "l.", 8, 2, 16.0)
    m.b.data = rng.normal(size=(8, 2))
    x = rng.normal(size=(4, 8))
    expect = (16.0 / 2) * (x @ m.a.data.T @ m.b.data.T)
    assert np.allclose(m.delta(T.Tensor(x)).data, expect, atol=1e-12)
    assert np.allclose(x @ m.weight_delta(), expect, atol=1e-12)


def test_lora_scaling_property():
    m = LoraModule(alloc(11), "l.", 4, 4, 2.0)
    assert m.scaling == 0.5


def test_lora_grad_check(rng):
    al = alloc(12)
    m = LoraModule(al, "l.", 6, 2, 4.0)
    m.b.data = rng.normal(size=(6, 2)) * 0.3
    x = T.constant(rng.normal(size=(3, 6)))

    def loss(_v):
        y = m.delta(x)
        return T.tsum(T.mul(y, y))

    assert T.grad_check(loss, m.a) < 1e-5
    assert T.grad_check(loss, m.b) < 1e-5


# ---------------------------------------------------------------------------
# IA3 / gates / fusion


def test_ia3_ones_init_is_identity(rng):
    m = IA3Module(alloc(13), "v", 6)
    h = rng.normal(size=(2, 4, 6))
    assert np.array_equal(m.apply(T.Tensor(h)).data, h)
    m.l.data = np.arange(6, dtype=np.float64)
    assert np.allclose(m.apply(T.Tensor(h)).data, h * np.arange(6), atol=1e-15)


def test_gate_value_range_and_formula(rng):
    m = GateModule(alloc(14), "g", 6)
    x = rng.normal(size=(3, 5, 6)) * 4
    got = m.value(T.Tensor(x)).data
    assert got.shape == (3, 1, 1)
    assert np.all((got > 0.0) & (got < 1.0))
    expect = scipy.special.expit(x @ m.wg.data).mean(axis=1, keepdims=True)
    assert np.allclose(got, expect, atol=1e-12)


def test_fusion_layer_near_identity_values():
    fl = FusionLayer(("a", "b"), 8, np.random.default_rng(0))
    assert set(fl.tensors()) == {"wq", "wk", "wv"}
    assert np.allclose(fl.wv.data, np.eye(8), atol=1e-3)
    assert not np.array_equal(fl.wv.data, np.eye(8))


# ---------------------------------------------------------------------------
# prompts / prefixes


def test_prompt_module_shape():
    m = PromptModule(alloc(15), "p.", 5, 16)
    assert m.embedding.shape == (5, 16)
    assert m.length == 5


def test_prefix_materialize_reparameterized(rng):
    cfg = PrefixTuningConfig(prefix_length=3, bottleneck_size=7)
    al = alloc(16)
    m = PrefixModule(al, "pre.", cfg, SMALL_DIMS)
    pairs = m.materialize()
    assert len(pairs) == SMALL_DIMS.num_layers
    # manual tanh reparameterization
    mid = np.tanh(m.base.data @ m.w_down.data + m.b_down.data)
    full = (mid @ m.w_up.data + m.b_up.data).reshape(
        3, SMALL_DIMS.num_layers, 2, SMALL_DIMS.hidden)
    for l, (k, v) in enumerate(pairs):
        assert k.shape == (3, SMALL_DIMS.hidden)
        assert np.allclose(k.data, full[:, l, 0, :], atol=1e-12)
        assert np.allclose(v.data, full[:, l, 1, :], atol=1e-12)


def test_prefix_materialize_flat(rng):
    cfg = PrefixTuningConfig(prefix_length=4, flat=True)
    al = alloc(17)
    m = PrefixModule(al, "pre.", cfg, SMALL_DIMS)
    pairs = m.materialize()
    for l, (k, v) in enumerate(pairs):
        assert np.array_equal(k.data, m.kv.data[l, 0])
        assert np.array_equal(v.data, m.kv.data[l, 1])


# ---------------------------------------------------------------------------
# instance assembly


@pytest.mark.parametrize("name", ["seq_bn", "double_seq_bn", "par_bn",
                                  "seq_bn_inv", "prompt_tuning",
                                  "prefix_tuning", "compacter", "lora", "ia3",
                                  "mam", "unipelt"])
def test_instance_allocation_matches_counter(name):
    cfg = parse_config(name)
    inst = instantiate_adapter("x", cfg, DESK_DIMS, np.random.default_rng(0))
    assert inst.num_params() == count_params(cfg, DESK_DIMS)
    assert inst.num_params() == closed_form_count(cfg, DESK_DIMS)
    assert inst.merged is False


def test_an_instance_built_from_arrays_takes_each_by_name_and_shape():
    cfg = parse_config("mam")
    drawn = instantiate_adapter("x", cfg, SMALL_DIMS, np.random.default_rng(0))
    arrays = {k: t.data + 1.0 for k, t in drawn.tensors.items()}
    inst = instantiate_adapter("x", cfg, SMALL_DIMS, arrays)
    assert list(inst.tensors) == list(drawn.tensors)
    assert all(inst.tensors[k].data is a for k, a in arrays.items())
    key = next(iter(arrays))
    for bad, message in [({k: a for k, a in arrays.items() if k != key}, "no array given"),
                         (dict(arrays, **{key: arrays[key][..., :1]}), "expected"),
                         (dict(arrays, extra=np.zeros(1)), "does not declare")]:
        with pytest.raises(ValueError, match=message):
            instantiate_adapter("x", cfg, SMALL_DIMS, bad)


def test_instance_classification_flags():
    mk = lambda s: instantiate_adapter("x", parse_config(s), DESK_DIMS,
                                       np.random.default_rng(0))
    assert mk("prompt_tuning").grows_sequence
    assert not mk("seq_bn").grows_sequence
    assert mk("lora").touches_attention
    assert mk("prefix_tuning").touches_attention
    assert mk("ia3").touches_attention
    assert not mk("seq_bn").touches_attention
    assert mk("lora").has_lora()
    assert mk("unipelt").has_lora()
    assert not mk("seq_bn").has_lora()
    assert mk("prompt_tuning").prompt_length() == 10
    assert mk("seq_bn").footprint == {HookPoint.POST_FFN_RESIDUAL}


def test_instance_requires_grad_toggle():
    inst = instantiate_adapter("x", parse_config("unipelt"), DESK_DIMS,
                               np.random.default_rng(0))
    assert all(not t.requires_grad for t in inst.tensors.values())
    inst.set_requires_grad(True)
    assert all(t.requires_grad for t in inst.tensors.values())
    inst.set_requires_grad(False)
    assert all(not t.requires_grad for t in inst.tensors.values())


def test_unipelt_members_are_gated():
    inst = instantiate_adapter("x", parse_config("unipelt"), DESK_DIMS,
                               np.random.default_rng(0))
    gate_names = [n for n in inst.tensors if "gate" in n]
    # lora q+v gates, prefix gate, bottleneck gate -- per layer
    assert len(gate_names) == DESK_DIMS.num_layers * 4
    for layer in inst.bindings[HookPoint.ATTN_Q_PROJ]:
        for _m, gate in layer:
            assert gate is not None
    for layer in inst.bindings[HookPoint.POST_FFN_RESIDUAL]:
        for _m, gate, *_src in layer:
            assert gate is not None


def test_mam_members_are_ungated():
    inst = instantiate_adapter("x", parse_config("mam"), DESK_DIMS,
                               np.random.default_rng(0))
    assert not any("gate" in n for n in inst.tensors)

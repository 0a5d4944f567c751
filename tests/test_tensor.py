"""Tape engine tests: forward values against numpy/scipy references and
gradients against central finite differences."""

import gc
import itertools
import weakref

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from peftlab import tensor as T
from peftlab.model import DESK_DIMS
from peftlab.registry import AdapterModel
from peftlab.tensor import ContractError, Tape, Tensor, backward, grad_check
from peftlab.training import task_loss


def t(arr, grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


def scalarize(expr):
    """Deterministic scalar reduction used to drive grad checks."""
    return T.tsum(T.mul(expr, expr))


# ---------------------------------------------------------------------------
# forward values


def test_add_mul_broadcast_values(rng):
    a = rng.normal(size=(3, 1, 4))
    b = rng.normal(size=(5, 4))
    assert np.array_equal((t(a) + t(b)).data, a + b)
    assert np.array_equal(T.mul(t(a), t(b)).data, a * b)
    assert np.array_equal(T.sub(t(a), t(b)).data, a - b)


def test_matmul_2d_matches_numpy(rng):
    a, b = rng.normal(size=(4, 6)), rng.normal(size=(6, 3))
    assert np.allclose(T.matmul(t(a), t(b)).data, a @ b, rtol=0, atol=0)


def test_matmul_nd_by_2d(rng):
    a, b = rng.normal(size=(2, 5, 6)), rng.normal(size=(6, 3))
    assert np.allclose(T.matmul(t(a), t(b)).data, a @ b)


def test_matmul_batched(rng):
    a, b = rng.normal(size=(2, 3, 4, 5)), rng.normal(size=(2, 3, 5, 6))
    assert np.allclose(T.matmul(t(a), t(b)).data, a @ b)


def test_matmul_hand_expanded():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[5.0, 6.0], [7.0, 8.0]])
    expect = np.array([[1 * 5 + 2 * 7, 1 * 6 + 2 * 8],
                       [3 * 5 + 4 * 7, 3 * 6 + 4 * 8]], dtype=np.float64)
    assert np.array_equal(T.matmul(t(a), t(b)).data, expect)


def test_kron_matches_numpy(rng):
    a, b = rng.normal(size=(3, 2)), rng.normal(size=(4, 5))
    assert np.allclose(T.kron(t(a), t(b)).data, np.kron(a, b), rtol=0, atol=0)


def test_softmax_matches_scipy(rng):
    x = rng.normal(size=(4, 7)) * 30.0      # large magnitudes: stability check
    got = T.softmax(t(x), axis=-1).data
    assert np.allclose(got, scipy.special.softmax(x, axis=-1), atol=1e-12)
    assert np.allclose(got.sum(axis=-1), 1.0, atol=1e-12)


def test_log_softmax_matches_scipy(rng):
    x = rng.normal(size=(3, 5)) * 20.0
    got = T.log_softmax(t(x), axis=-1).data
    assert np.allclose(got, scipy.special.log_softmax(x, axis=-1), atol=1e-12)


def test_gelu_is_gaussian_erf_form(rng):
    x = rng.normal(size=(50,)) * 3
    expect = x * scipy.stats.norm.cdf(x)
    assert np.allclose(T.gelu(t(x)).data, expect, atol=1e-12)


def test_sigmoid_tanh_relu_values(rng):
    x = rng.normal(size=(20,)) * 4
    assert np.allclose(T.sigmoid(t(x)).data, scipy.special.expit(x), atol=1e-15)
    assert np.allclose(T.tanh(t(x)).data, np.tanh(x), atol=1e-15)
    assert np.array_equal(T.relu(t(x)).data, np.maximum(x, 0.0))


def test_layer_norm_statistics(rng):
    x = rng.normal(size=(6, 9)) * 5 + 3
    g, b = np.ones(9), np.zeros(9)
    out = T.layer_norm(t(x), t(g), t(b)).data
    assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-12)
    # biased variance normalization, eps=1e-5 in the denominator
    v = x.var(axis=-1)
    assert np.allclose(out.var(axis=-1), v / (v + 1e-5), atol=1e-10)


def test_layer_norm_affine(rng):
    x = rng.normal(size=(4, 6))
    g, b = rng.normal(size=6), rng.normal(size=6)
    plain = T.layer_norm(t(x), t(np.ones(6)), t(np.zeros(6))).data
    affine = T.layer_norm(t(x), t(g), t(b)).data
    assert np.allclose(affine, plain * g + b, atol=1e-12)


def test_concat_narrow_roundtrip(rng):
    a, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 5, 4))
    cat = T.concat([t(a), t(b)], axis=1)
    assert np.array_equal(T.narrow(cat, 1, 0, 3).data, a)
    assert np.array_equal(T.narrow(cat, 1, 3, 5).data, b)


def test_gather_rows_values(rng):
    table = rng.normal(size=(10, 4))
    idx = np.array([[1, 1, 9], [0, 3, 3]])
    assert np.array_equal(T.gather_rows(t(table), idx).data, table[idx])


def test_expand_and_tile(rng):
    x = rng.normal(size=(3, 4))
    assert np.array_equal(T.expand_dim0(t(x), 5).data,
                          np.broadcast_to(x, (5, 3, 4)))


# ---------------------------------------------------------------------------
# backward: closed forms


def test_backward_linear_grad_is_coefficient(rng):
    x = t(rng.normal(size=(4, 3)))
    c = rng.normal(size=(4, 3))
    with Tape() as tape:
        loss = T.tsum(T.mul(x, T.constant(c)))
        tape.backward(loss)
    assert np.allclose(x.grad, c, atol=1e-15)


def test_backward_matmul_closed_form(rng):
    a = t(rng.normal(size=(3, 4)))
    b = t(rng.normal(size=(4, 5)))
    g = rng.normal(size=(3, 5))
    with Tape() as tape:
        out = T.matmul(a, b)
        loss = T.tsum(T.mul(out, T.constant(g)))
        tape.backward(loss)
    assert np.allclose(a.grad, g @ b.data.T, atol=1e-12)
    assert np.allclose(b.grad, a.data.T @ g, atol=1e-12)
    assert out.grad is None and loss.grad is None   # only leaves keep a gradient


def test_backward_broadcast_unreduces(rng):
    bias = t(rng.normal(size=(5,)))
    x = t(rng.normal(size=(7, 5)), grad=False)
    with Tape() as tape:
        loss = T.tsum(x + bias)
        tape.backward(loss)
    assert np.allclose(bias.grad, np.full(5, 7.0), atol=1e-15)
    assert x.grad is None          # non-trainable leaves stay untouched


def test_backward_accumulates_across_uses(rng):
    x = t(rng.normal(size=(3,)))
    with Tape() as tape:
        loss = T.tsum(x + x)
        tape.backward(loss)
    assert np.allclose(x.grad, np.full(3, 2.0))


def test_gather_rows_accumulates_repeated_indices(rng):
    table = t(rng.normal(size=(6, 2)))
    idx = np.array([[0, 0, 0], [5, 0, 5]])
    with Tape() as tape:
        loss = T.tsum(T.gather_rows(table, idx))
        tape.backward(loss)
    expect = np.zeros((6, 2))
    np.add.at(expect, idx.reshape(-1), 1.0)
    assert np.allclose(table.grad, expect)


def test_softmax_backward_closed_form(rng):
    x = t(rng.normal(size=(2, 5)))
    g = rng.normal(size=(2, 5))
    with Tape() as tape:
        s = T.softmax(x, axis=-1)
        loss = T.tsum(T.mul(s, T.constant(g)))
        tape.backward(loss)
    s_ = scipy.special.softmax(x.data, axis=-1)
    expect = s_ * (g - (g * s_).sum(axis=-1, keepdims=True))
    assert np.allclose(x.grad, expect, atol=1e-12)


def test_backward_requires_scalar(rng):
    x = t(rng.normal(size=(3,)))
    with Tape() as tape:
        y = T.mul(x, x)
        with pytest.raises(ContractError):
            tape.backward(y)


def test_backward_module_function(rng):
    x = t(rng.normal(size=(3,)))
    with Tape():
        loss = T.tsum(T.mul(x, x))
        backward(loss)
    assert np.allclose(x.grad, 2 * x.data)


def test_tape_exit_frees_activations(rng):
    # The records -> output -> Tensor._tape -> tape cycle must not outlive
    # the block: with the cyclic collector off, an intermediate activation
    # dies as soon as its last outside name goes.
    x = t(rng.normal(size=(4, 6)))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        with Tape() as tape:
            h = T.gelu(T.matmul(x, T.constant(rng.normal(size=(6, 5)))))
            loss = T.tsum(T.mul(h, h))
            tape.backward(loss)
            assert len(tape) == 4          # intact until the block ends
        alive = weakref.ref(h.data)
        del h
        assert alive() is None
        assert len(tape) == 0
        with pytest.raises(ContractError):
            tape.backward(loss)
    finally:
        if was_enabled:
            gc.enable()
    assert x.grad is not None


def test_no_tape_no_recording(rng):
    x = t(rng.normal(size=(3,)))
    y = T.mul(x, x)
    assert y._tape is None
    with pytest.raises(ContractError):
        backward(T.tsum(y))


# ---------------------------------------------------------------------------
# backward: finite differences over composite expressions

_ATOL = 1e-6     # smooth ops at eps=1e-5 resolve to ~1e-7; generous headroom


def test_grad_check_mlp_block(rng):
    w1, w2 = rng.normal(size=(6, 9)), rng.normal(size=(9, 2))
    x = t(rng.normal(size=(4, 6)))

    def f(v):
        h = T.gelu(T.matmul(v, T.constant(w1)))
        return T.tsum(T.mul(T.matmul(h, T.constant(w2)),
                            T.matmul(h, T.constant(w2))))

    assert grad_check(f, x) < 1e-6


def test_grad_check_layer_norm(rng):
    x = t(rng.normal(size=(3, 7)))
    g = t(rng.normal(size=(7,)))
    b = t(rng.normal(size=(7,)))
    assert grad_check(lambda v: scalarize(T.layer_norm(v, g, b)), x) < 1e-6
    assert grad_check(lambda v: scalarize(T.layer_norm(x, v, b)), g) < 1e-6
    assert grad_check(lambda v: scalarize(T.layer_norm(x, g, v)), b) < 1e-6


def test_grad_check_softmax_chain(rng):
    x = t(rng.normal(size=(2, 3, 5)))
    c = T.constant(rng.normal(size=(2, 3, 5)))
    assert grad_check(lambda v: T.tsum(T.mul(T.softmax(v, axis=-1), c)), x) < 1e-6


def test_grad_check_log_softmax(rng):
    x = t(rng.normal(size=(4, 6)))
    c = T.constant(rng.normal(size=(4, 6)))
    assert grad_check(lambda v: T.tsum(T.mul(T.log_softmax(v, axis=-1), c)), x) < 1e-6


def test_grad_check_kron(rng):
    a = t(rng.normal(size=(2, 3)))
    b = t(rng.normal(size=(3, 2)))
    assert grad_check(lambda v: scalarize(T.kron(v, b)), a) < 1e-6
    assert grad_check(lambda v: scalarize(T.kron(a, v)), b) < 1e-6


def test_grad_check_reshape_swap_concat(rng):
    x = t(rng.normal(size=(2, 6)))

    def f(v):
        y = T.reshape(v, (2, 3, 2))
        y = T.swapaxes(y, 0, 2)
        z = T.concat([y, y], axis=1)
        return scalarize(z)

    assert grad_check(f, x) < 1e-6


def test_grad_check_mean_and_narrow(rng):
    x = t(rng.normal(size=(3, 8)))

    def f(v):
        m = T.tmean(v, axis=1, keepdims=True)
        return scalarize(T.narrow(T.sub(v, m), 1, 2, 4))

    assert grad_check(f, x) < 1e-6


def test_grad_check_sigmoid_tanh_gate(rng):
    x = t(rng.normal(size=(5, 4)))

    def f(v):
        return T.tsum(T.mul(T.sigmoid(v), T.tanh(v)))

    assert grad_check(f, x) < 1e-6


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(1, 4),
    inner=st.integers(1, 5),
    cols=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_matmul_gradients_property(rows, inner, cols, seed):
    r = np.random.default_rng(seed)
    a = t(r.normal(size=(rows, inner)))
    b = T.constant(r.normal(size=(inner, cols)))
    assert grad_check(lambda v: scalarize(T.matmul(v, b)), a) < 1e-6


@settings(max_examples=25, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 3), st.integers(2, 6)),
    seed=st.integers(0, 2**32 - 1),
)
def test_elementwise_chain_gradients_property(shape, seed):
    r = np.random.default_rng(seed)
    x = t(r.normal(size=shape))

    def f(v):
        return T.tsum(T.mul(T.gelu(v), T.sigmoid(T.scale(v, 0.5))))

    assert grad_check(f, x) < 1e-5


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_unbroadcast_reduces_to_sum(seed):
    r = np.random.default_rng(seed)
    g = r.normal(size=(4, 3, 5))
    reduced = T._unbroadcast(g, (3, 1))
    assert reduced.shape == (3, 1)
    assert np.allclose(reduced, g.sum(axis=0).sum(axis=-1, keepdims=True))


def test_grad_check_rejects_nonscalar(rng):
    x = t(rng.normal(size=(3,)))
    with pytest.raises(ContractError):
        grad_check(lambda v: T.mul(v, v), x)


def test_grad_check_restores_flags(rng):
    x = Tensor(rng.normal(size=(3,)), requires_grad=False)
    err = grad_check(lambda v: T.tsum(T.mul(v, v)), x)
    assert err < 1e-6
    assert x.requires_grad is False
    assert x.grad is None


def test_tensor_dtype_and_contiguity():
    x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3)[:, ::-1])
    assert x.data.dtype == np.float64
    assert x.data.flags["C_CONTIGUOUS"]


# ---------------------------------------------------------------------------
# fused ops against the unfused chains they replace


def unfused_linear(x, w, b):
    return T.matmul(x, w) + b


def unfused_attention(q, k, v, bias, heads):
    B, Sq, d = q.shape
    Sk = k.shape[1]
    dh = d // heads

    def split(t, S):
        return T.swapaxes(T.reshape(t, (B, S, heads, dh)), 1, 2)

    q4, k4, v4 = split(q, Sq), split(k, Sk), split(v, Sk)
    scores = T.scale(T.matmul(q4, T.swapaxes(k4, 2, 3)), 1.0 / np.sqrt(dh))
    scores = scores + T.constant(bias.reshape(B, 1, 1, Sk))
    ctx = T.matmul(T.softmax(scores, axis=-1), v4)
    return T.reshape(T.swapaxes(ctx, 1, 2), (B, Sq, d))


def run_op(op, arrays, trainable, extra, upstream):
    """Forward ``op`` on fresh tensors, backward a fixed weighted sum when any
    input requires grad; returns the output and each input's ``.grad``."""
    inputs = [Tensor(a.copy(), requires_grad=i in trainable) for i, a in enumerate(arrays)]
    with Tape() as tape:
        out = op(*inputs, *extra)
        if trainable:
            tape.backward(T.tsum(T.mul(out, T.constant(upstream))))
    return out.data, [x.grad for x in inputs]


def assert_fused_equals_unfused(fused, unfused, arrays, extra, rng):
    upstream = rng.normal(size=run_op(unfused, arrays, (), extra, None)[0].shape)
    for n in range(len(arrays) + 1):
        for trainable in itertools.combinations(range(len(arrays)), n):
            out_f, grads_f = run_op(fused, arrays, trainable, extra, upstream)
            out_u, grads_u = run_op(unfused, arrays, trainable, extra, upstream)
            assert np.array_equal(out_f, out_u)
            for i, (gf, gu) in enumerate(zip(grads_f, grads_u)):
                assert (gf is None) == (i not in trainable)
                assert (gu is None) == (i not in trainable)
                if gf is not None:
                    assert np.array_equal(gf, gu), (trainable, i)


@pytest.mark.parametrize("x_shape", [(9, 6), (3, 7, 6)])
def test_linear_equals_matmul_plus_bias(rng, x_shape):
    arrays = [rng.normal(size=x_shape), rng.normal(size=(6, 3)), rng.normal(size=(3,))]
    assert_fused_equals_unfused(T.linear, unfused_linear, arrays, (), rng)


@pytest.mark.parametrize("sq,sk", [(5, 5), (4, 9)])
def test_attention_equals_unfused_chain(rng, sq, sk):
    B, d, heads = 2, 12, 2                       # head dim 6: the scale is inexact
    arrays = [rng.normal(size=(B, sq, d)), rng.normal(size=(B, sk, d)),
              rng.normal(size=(B, sk, d))]
    key_mask = np.ones((B, sk))
    key_mask[1, -2:] = 0.0                       # masked keys in the second row
    bias = (key_mask - 1.0) * 1e9
    assert_fused_equals_unfused(T.attention, unfused_attention, arrays, (bias, heads), rng)


def test_attention_gives_masked_keys_no_weight(rng):
    q, k, v = (t(rng.normal(size=(1, 3, 4))) for _ in range(3))
    bias = np.array([[0.0, 0.0, -1e9]])
    out = T.attention(q, k, v, bias, 2).data
    trimmed = T.attention(q, T.narrow(k, 1, 0, 2), T.narrow(v, 1, 0, 2),
                          bias[:, :2], 2).data
    assert np.allclose(out, trimmed, rtol=0, atol=1e-12)


def test_grad_check_linear(rng):
    x = t(rng.normal(size=(2, 3, 4)))
    w = t(rng.normal(size=(4, 5)))
    b = t(rng.normal(size=(5,)))
    assert grad_check(lambda v: scalarize(T.linear(v, w, b)), x) < 1e-6
    assert grad_check(lambda v: scalarize(T.linear(x, v, b)), w) < 1e-6
    assert grad_check(lambda v: scalarize(T.linear(x, w, v)), b) < 1e-6


def test_grad_check_attention(rng):
    q = t(rng.normal(size=(2, 3, 4)))
    k = t(rng.normal(size=(2, 5, 4)))
    v = t(rng.normal(size=(2, 5, 4)))
    bias = np.zeros((2, 5))
    bias[0, 0] = -1e9
    w = T.constant(rng.normal(size=(2, 3, 4)))

    def loss(q_, k_, v_):
        return T.tsum(T.mul(T.attention(q_, k_, v_, bias, 2), w))

    assert grad_check(lambda x: loss(x, k, v), q) < 1e-6
    assert grad_check(lambda x: loss(q, x, v), k) < 1e-6
    assert grad_check(lambda x: loss(q, k, x), v) < 1e-6


def test_binary_rules_skip_operands_without_grad(rng):
    a = t(rng.normal(size=(2, 3)))
    frozen = T.constant(rng.normal(size=(3,)))
    g = rng.normal(size=(2, 3))
    for op in (T.add, T.sub, T.mul):
        with Tape() as tape:
            op(a, frozen)
            da, db = tape._records[-1].backward(g)
            assert da is not None and db is None
            op(frozen, a)
            da, db = tape._records[-1].backward(g)
            assert da is None and db is not None


def test_full_ft_training_step_record_count():
    # One record per affine map and per attention core: 12 per encoder
    # layer (layer norms, 6 affine maps, attention, GELU, 2 residual adds),
    # 3 for the embeddings, 8 for the final norm, readout and loss.
    model = AdapterModel(DESK_DIMS, seed=0)
    model.add_prediction_head("h", "classification", 2)
    model.train_full(head="h")
    r = np.random.default_rng(0)
    x = r.integers(0, DESK_DIMS.vocab, size=(16, 32))
    y = r.integers(0, 2, size=16)
    with Tape() as tape:
        tape.backward(task_loss("classification", model.logits(model.encode(x), "h"), y))
        assert len(tape) == 35


def test_shape_errors_of_fused_ops(rng):
    x, w, b = t(rng.normal(size=(2, 4))), t(rng.normal(size=(4, 3))), t(rng.normal(size=(3,)))
    with pytest.raises(T.ShapeError):
        T.linear(x, t(rng.normal(size=(5, 3))), b)
    with pytest.raises(T.ShapeError):
        T.linear(x, w, t(rng.normal(size=(4,))))
    q = t(rng.normal(size=(2, 3, 4)))
    with pytest.raises(T.ShapeError):
        T.attention(q, q, q, np.zeros((2, 3)), 3)
    with pytest.raises(T.ShapeError):
        T.attention(q, q, q, np.zeros((2, 4)), 2)


def test_shape_error_on_bad_matmul(rng):
    with pytest.raises(T.ShapeError):
        T.matmul(t(rng.normal(size=(2, 3))), t(rng.normal(size=(4, 5))))

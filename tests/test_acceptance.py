"""Numbered end-to-end acceptance checks.

Each numbered test prints exactly one ``[criterion N] PASS/FAIL`` verdict
line.  The lines bypass pytest's capture (they go to the real terminal
stream) so a plain ``pytest -v`` run shows every verdict inline.

The ten criteria, in order: exact parameter audits, gradient soundness,
identity at initialization, LoRA merge equivalence, composition routing
oracles, invertibility, parameter freezing, checkpoint persistence,
desk-scale competitiveness against full fine-tuning, and nesting/arithmetic
validation.  Criteria 1-8 and 10 finish in seconds; criterion 9 trains a
full method grid on the parity task and dominates the suite's runtime
(several minutes against a 30-minute budget).
"""

import json
import sys
import time

import numpy as np
import pytest

import peftlab.tensor as T
from peftlab import AdapterModel, parse_config
from peftlab.checkpoint import CheckpointError
from peftlab.cli import main
from peftlab.composition import (Average, BatchSplit, CompositionError,
                                 Parallel, Split, validate_composition)
from peftlab.configs import CONFIG_NAMES
from peftlab.model import DESK_DIMS, HookPoint
from peftlab.tasks import TaskSpec
from peftlab.tensor import grad_check
from peftlab.training import (GridSpec, best_metric, prepare_base, run_cell,
                              run_grid, train_model)

from conftest import SMALL_DIMS, random_tokens
from test_composition import (ALL_KINDS, CONTAINERS, _node_of, _parent_of,
                              make_model, np_delta, run)
from test_lifecycle import IDENTITY_AT_INIT, randomize
from test_model import reference_encode


_capman = None


@pytest.fixture(autouse=True)
def _verdict_console(request):
    """Grab pytest's capture manager so verdict lines reach the terminal.

    Capture works at the file-descriptor level, so plain prints (and even
    ``sys.__stdout__`` writes) from passing tests are swallowed; the capture
    manager's disabled() context is the supported way through."""
    global _capman
    _capman = request.config.pluginmanager.getplugin("capturemanager")
    yield


def report(n: int, desc: str, ok: bool) -> None:
    """One verdict line per criterion, printed to the real terminal."""
    line = f"[criterion {n}] {'PASS' if ok else 'FAIL'} — {desc}\n"
    if _capman is not None:
        with _capman.global_and_fixture_disabled():
            sys.stdout.write(line)
            sys.stdout.flush()
    else:
        sys.stdout.write(line)
    assert ok, line.strip()


# ---------------------------------------------------------------------------
# 1. exact parameter audit


# method -> (min, max) trainable-parameter counts over each method's
# hyperparameter axis grid at the reference 12-layer/768-wide dimensions
AUDIT_EXTREMES = {
    "double_seq_bn": (461_088, 14_183_424),
    "seq_bn": (230_544, 7_091_712),
    "par_bn": (230_544, 7_091_712),
    "compacter": (58_816, 69_184),
    "prefix_tuning": (636_704, 10_002_944),
    "lora": (147_456, 7_372_800),
    "ia3": (55_296, 55_296),
}


def test_criterion_1_parameter_audit(capsys):
    start = time.perf_counter()
    rc = main(["count-params", "--check-paper", "--json"])
    elapsed = time.perf_counter() - start
    rows = {r["method"]: r for r in json.loads(capsys.readouterr().out)}
    exact = all(
        rows[m]["min"] == lo and rows[m]["max"] == hi and rows[m]["ok"]
        for m, (lo, hi) in AUDIT_EXTREMES.items()
    )
    ok = rc == 0 and exact and elapsed < 1.0
    report(1, f"count-params --check-paper reproduces all audit extremes "
              f"integer-exact in {elapsed * 1000:.0f} ms", ok)


# ---------------------------------------------------------------------------
# 2. gradient soundness through the full encoder


def test_criterion_2_gradient_soundness():
    # The loss is a fixed random linear functional of the final hidden state:
    # a quadratic like sum(h**2) is nearly invariant to many parameter
    # directions after the exit layer norm, leaving gradients too small to
    # resolve by finite differences.  eps=1e-4 keeps float64 cancellation
    # noise below the truncation term for the smallest surviving gradients
    # (the Kronecker-factor tensors).
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    tokens = random_tokens(np.random.default_rng(40), 2, 6, DESK_DIMS.vocab)
    worst = {}
    for i, name in enumerate(CONFIG_NAMES):
        m = AdapterModel(DESK_DIMS, seed=11)
        inst = m.add_adapter("x", parse_config(name))
        randomize(inst, seed=300 + i)  # nonzero up-paths exercise every branch
        m.set_active("x")
        probe = m.encode(tokens).hidden.data
        G = T.constant(np.random.default_rng(50 + i).normal(size=probe.shape))

        def loss(_probe):
            return T.tsum(T.mul(m.encode(tokens).hidden, G))

        worst[name] = max(
            grad_check(loss, t, eps=1e-4, sample=4, rng=rng)
            for t in inst.tensors.values()
        )
    elapsed = time.perf_counter() - start
    peak = max(worst.values())
    ok = peak <= 1e-4 and elapsed < 60.0
    report(2, f"finite-difference gradients agree through the encoder for "
              f"{len(worst)} methods (worst rel. err {peak:.2e}, "
              f"{elapsed:.1f}s)", ok)
    assert all(v <= 1e-4 for v in worst.values()), worst


# ---------------------------------------------------------------------------
# 3. identity at initialization


def test_criterion_3_identity_at_init():
    tokens = random_tokens(np.random.default_rng(41), 100, 10, DESK_DIMS.vocab)
    gaps = {}
    for name in IDENTITY_AT_INIT:
        m = AdapterModel(DESK_DIMS, seed=5)
        plain = m.encode(tokens).hidden.data
        m.add_adapter("x", parse_config(name))
        m.set_active("x")
        adapted = m.encode(tokens).hidden.data
        assert adapted.shape == plain.shape
        gaps[name] = float(np.max(np.abs(adapted - plain)))
    peak = max(gaps.values())
    report(3, f"freshly added adapters leave {len(gaps)} methods' outputs "
              f"unchanged on 100 random inputs (max gap {peak:.1e})",
           peak <= 1e-10)


# ---------------------------------------------------------------------------
# 4. LoRA merge equivalence


def test_criterion_4_lora_merge():
    m = AdapterModel(DESK_DIMS, seed=9)
    inst = m.add_adapter("l", parse_config("lora"))
    randomize(inst, seed=90)
    tokens = random_tokens(np.random.default_rng(42), 8, 12, DESK_DIMS.vocab)

    m.set_active("l")
    active = m.encode(tokens).hidden.data
    m.set_active(None)
    before = {k: v.copy() for k, v in m.encoder.state_array().items()}

    m.merge_adapter("l")
    merged = m.encode(tokens).hidden.data
    forward_gap = float(np.max(np.abs(merged - active)))

    m.unmerge_adapter("l")
    after = m.encoder.state_array()
    restore_gap = max(
        float(np.max(np.abs(after[k] - before[k]))) for k in before
    )
    ok = forward_gap <= 1e-10 and restore_gap <= 1e-12
    report(4, f"merged forward matches active adapter (gap {forward_gap:.1e}); "
              f"unmerge restores base weights (gap {restore_gap:.1e})", ok)


# ---------------------------------------------------------------------------
# 5. composition routing oracles (>= 50 randomized trials per block)


TRIALS = 50


def test_criterion_5_composition_oracles():
    rng = np.random.default_rng(43)
    worst = {"Parallel": 0.0, "BatchSplit": 0.0, "Average": 0.0, "Split": 0.0}
    for trial in range(TRIALS):
        m = make_model(("a", "b"), seed=500 + trial)
        da, db = np_delta(m, "a"), np_delta(m, "b")

        tokens = random_tokens(rng, 3, 10, SMALL_DIMS.vocab)
        got = run(m, Parallel("a", "b"), tokens)
        want = np.concatenate([run(m, "a", tokens), run(m, "b", tokens)])
        worst["Parallel"] = max(worst["Parallel"],
                                float(np.max(np.abs(got - want))))

        batch = int(rng.integers(4, 9))
        head = int(rng.integers(1, batch))
        tokens = random_tokens(rng, batch, 10, SMALL_DIMS.vocab)
        got = run(m, BatchSplit("a", "b", batch_sizes=[head, batch - head]),
                  tokens)
        want = np.concatenate([run(m, "a", tokens[:head]),
                               run(m, "b", tokens[head:])])
        worst["BatchSplit"] = max(worst["BatchSplit"],
                                  float(np.max(np.abs(got - want))))

        w = rng.uniform(0.1, 2.0, size=2)
        wn = w / w.sum()
        tokens = random_tokens(rng, 2, 8, SMALL_DIMS.vocab)

        def avg_hook(layer, h, f_in):
            return (wn[0] * (h + da(layer, h)) + wn[1] * (h + db(layer, h)))

        want = reference_encode(m.encoder, tokens, ffn_block_hook=avg_hook)
        got = run(m, Average("a", "b", weights=list(w)), tokens)
        worst["Average"] = max(worst["Average"],
                               float(np.max(np.abs(got - want))))

        seq = 12
        s1 = int(rng.integers(1, seq - 1))
        s2 = int(rng.integers(1, seq - s1 + 1))
        tokens = random_tokens(rng, 2, seq, SMALL_DIMS.vocab)

        def split_hook(layer, h, f_in):
            out = h.copy()
            out[:, :s1] += da(layer, h[:, :s1])
            out[:, s1:s1 + s2] += db(layer, h[:, s1:s1 + s2])
            return out

        want = reference_encode(m.encoder, tokens, ffn_block_hook=split_hook)
        got = run(m, Split("a", "b", splits=[s1, s2]), tokens)
        assert got.shape == want.shape  # position count is preserved
        worst["Split"] = max(worst["Split"],
                             float(np.max(np.abs(got - want))))
    peak = max(worst.values())
    report(5, f"Parallel/BatchSplit/Average/Split match their numpy oracles "
              f"over {TRIALS} randomized trials each (worst gap {peak:.1e})",
           peak <= 1e-10)
    assert all(v <= 1e-10 for v in worst.values()), worst


# ---------------------------------------------------------------------------
# 6. invertibility


def test_criterion_6_invertibility():
    m = AdapterModel(DESK_DIMS, seed=13)
    inst = m.add_adapter("v", parse_config("seq_bn_inv"))
    randomize(inst, seed=77)  # break the zero-init so the map is not identity
    inv = inst.bindings[HookPoint.EMBEDDING_BOUNDARY][0]
    rng = np.random.default_rng(44)
    worst = 0.0
    for _ in range(TRIALS):
        x = rng.normal(size=(3, 7, DESK_DIMS.hidden)) * 2.0
        back = inv.inverse(inv.forward(T.Tensor(x))).data
        there = inv.forward(inv.inverse(T.Tensor(x))).data
        worst = max(worst, float(np.max(np.abs(back - x))),
                    float(np.max(np.abs(there - x))))
    report(6, f"coupling inverse∘forward is the identity both ways over "
              f"{TRIALS} random inputs (worst gap {worst:.1e})",
           worst <= 1e-10)


# ---------------------------------------------------------------------------
# 7. freezing: ten optimizer steps touch every adapter tensor, no base tensor


def test_criterion_7_freezing():
    rng = np.random.default_rng(45)
    x = random_tokens(rng, 160, 8, DESK_DIMS.vocab)
    y = rng.integers(0, 2, size=160)
    stuck = {}
    for name in CONFIG_NAMES:
        m = AdapterModel(DESK_DIMS, seed=21)
        base_fp = m.base_fingerprint()
        m.add_adapter(name, parse_config(name))
        m.add_prediction_head(name, "classification", 2)
        m.train_adapter(name)
        params = m.trainable_parameters()
        before = {k: t.data.copy() for k, t in params.items()}
        result = train_model(m, name, x, y, lr=1e-3, epochs=1, batch_size=16,
                             seed=3)
        assert result.steps == 10 and not result.diverged
        assert m.base_fingerprint() == base_fp, name
        stuck[name] = sorted(k for k, t in params.items()
                             if np.array_equal(t.data, before[k]))
    frozen_ok = all(not v for v in stuck.values())
    report(7, f"after 10 Adam steps per method the base fingerprint is intact "
              f"and every trainable tensor moved ({len(stuck)} methods)",
           frozen_ok)
    assert frozen_ok, {k: v for k, v in stuck.items() if v}


# ---------------------------------------------------------------------------
# 8. persistence


def test_criterion_8_persistence(tmp_path):
    mismatched = []
    for i, name in enumerate(CONFIG_NAMES):
        m = AdapterModel(DESK_DIMS, seed=3)
        randomize(m.add_adapter("x", parse_config(name)), seed=600 + i)
        first = tmp_path / f"{name}-first"
        m.save_adapter("x", first)

        m2 = AdapterModel(DESK_DIMS, seed=4)
        m2.save_adapter(m2.load_adapter(first), tmp_path / f"{name}-second")
        second = tmp_path / f"{name}-second"
        for fname in ("weights.bin", "adapter_config.json"):
            if (first / fname).read_bytes() != (second / fname).read_bytes():
                mismatched.append(f"{name}/{fname}")

    small = AdapterModel(SMALL_DIMS, seed=5)
    with pytest.raises(CheckpointError, match="dims"):
        small.load_adapter(tmp_path / "seq_bn-first")
    clean = small.adapter_names() == []

    ok = not mismatched and clean
    report(8, f"save→load→save is byte-identical for all "
              f"{len(CONFIG_NAMES)} methods; cross-dim load fails cleanly", ok)
    assert not mismatched, mismatched


# ---------------------------------------------------------------------------
# 9. desk-scale competitiveness on the parity task


GRID_TASK = TaskSpec(kind="parity", vocab=1000, seq_len=32, n_train=4000,
                     n_eval=1000, n_pretrain=2000, seed=7)


@pytest.fixture(scope="module")
def parity_grid():
    """One pretrained base + every method trained once at lr 1e-3/5 epochs."""
    grid = GridSpec(methods=CONFIG_NAMES, lrs=(1e-3,), epochs=(5,),
                    batch_size=16, seed=7, pretrain_epochs=4,
                    include_full_ft=True)
    start = time.perf_counter()
    data, base_state = prepare_base(DESK_DIMS, GRID_TASK, grid)
    records = run_grid(DESK_DIMS, GRID_TASK, grid, data=data,
                       base_state=base_state)
    elapsed = time.perf_counter() - start
    return data, base_state, records, elapsed


def test_criterion_9_competitiveness(parity_grid):
    _, _, records, elapsed = parity_grid
    baseline = best_metric(records, "full-ft")
    bests = {name: best_metric(records, name) for name in CONFIG_NAMES}
    laggards = {n: v for n, v in bests.items() if not v >= baseline - 0.05}
    ok = not laggards and elapsed < 1800.0
    report(9, f"every method's best parity accuracy is within 0.05 of the "
              f"full fine-tuning baseline {baseline:.3f} "
              f"(worst {min(bests.values()):.3f}, grid {elapsed / 60:.1f} min)",
           ok)
    assert not laggards, laggards


def test_reference_cell_reaches_high_accuracy(parity_grid):
    """The documented harness reference point: seq_bn at lr 1e-3 for 20
    epochs, seed 7, reaches at least 0.95 parity eval accuracy."""
    data, base_state, _, _ = parity_grid
    rec = run_cell(DESK_DIMS, GRID_TASK, data, base_state, "seq_bn",
                   parse_config("seq_bn"), lr=1e-3, epochs=20, batch_size=16,
                   seed=7)
    assert not rec.diverged
    assert rec.metric >= 0.95, rec


# ---------------------------------------------------------------------------
# 10. nesting and arithmetic validation


def test_criterion_10_nesting_and_validation():
    m = make_model(("a", "b"))
    table_ok = True
    for parent in [k for k in ALL_KINDS if k != "leaf"]:
        for child in ALL_KINDS:
            node = _parent_of(parent, _node_of(child))
            allowed = child == "leaf" or (parent in CONTAINERS
                                          and child in CONTAINERS)
            try:
                validate_composition(node, m.adapter_instance, batch=4, seq=12)
                table_ok &= allowed
            except CompositionError as e:
                table_ok &= (not allowed) and "may not contain" in str(e)

    # the three documented block-arithmetic examples, then their mismatches
    md = AdapterModel(DESK_DIMS, seed=1)
    for n in ("a", "b"):
        md.add_adapter(n, parse_config("seq_bn"))
    rng = np.random.default_rng(46)
    wide = random_tokens(rng, 2, 128, DESK_DIMS.vocab)
    six = random_tokens(rng, 6, 8, DESK_DIMS.vocab)

    run(md, Split("a", "b", splits=[64, 64]), wide)
    run(md, BatchSplit("a", "b", batch_sizes=[2, 4]), six)
    run(md, Average("a", "b", weights=[0.3, 0.7]), six)

    with pytest.raises(CompositionError, match="sum to"):
        run(md, Split("a", "b", splits=[64, 65]), wide)
    with pytest.raises(CompositionError, match="sum to 5"):
        run(md, BatchSplit("a", "b", batch_sizes=[2, 3]), six)
    with pytest.raises(CompositionError, match="weights"):
        run(md, Average("a", "b", weights=[0.3]), six)

    report(10, "nesting rule table is exhaustive and the three block-"
               "arithmetic examples validate while mismatches are rejected",
           table_ok)

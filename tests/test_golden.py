"""Golden values for every preset and for mixed-order unions.

Each case pins, as literals, the initial adapter fingerprint (names plus
the drawn values), a digest of the tensor names and shapes in allocation
order, and a digest of the encoder output after the adapter's weights are
randomized from a fixed seed.  Any change to naming, allocation order,
initialization, hook binding or the order adapters apply within a stage
changes at least one digest.

A second table pins the gradient bits: a digest of every trainable
tensor's ``.grad`` after one backward pass of a fixed scalar of the encoder
output, with one key masked, for every case above and for full fine-tuning
(the base weights' gradients).

A third table pins composed setups: every block kind, nested blocks, a
prepended prompt, a gated prefix before a low-rank adapter and a ``Split``
that covers part of the sequence.  Each entry holds a digest of the encoder
output with its branch list and a digest of every trainable tensor's
gradient, fusion layers included.

A fourth table pins the pretrained base: a digest of every tensor of
``prepare_base``'s snapshot after one epoch of full fine-tuning, for a
classification and a regression task, so every bit of a full training step
(embedding gradients included) is held.
"""

import hashlib

import numpy as np
import pytest

from peftlab import tensor as T
from peftlab.configs import (CONFIG_NAMES, BottleneckConfig, CompacterConfig,
                             ConfigUnion, IA3Config, LoraConfig,
                             PrefixTuningConfig, parse_config)
from peftlab.model import DESK_DIMS
from peftlab.registry import AdapterModel
from peftlab.tasks import MASKED_SUM, PARITY, TaskSpec
from peftlab.training import GridSpec, prepare_base

from test_lifecycle import randomize

PAR_BN = parse_config("par_bn")
SEQ_BN = parse_config("seq_bn")

UNIONS = {
    "union(par_bn,seq_bn)": ConfigUnion(members=(PAR_BN, SEQ_BN)),
    "union(seq_bn,par_bn)": ConfigUnion(members=(SEQ_BN, PAR_BN)),
    "union(ia3,lora)": ConfigUnion(members=(IA3Config(), LoraConfig())),
    "union(lora,ia3)": ConfigUnion(members=(LoraConfig(), IA3Config())),
    # every gateable member kind, with both feed-forward sources interleaved
    "gated-union": ConfigUnion(
        members=(
            IA3Config(),
            BottleneckConfig(placement="parallel", reduction_factor=2),
            CompacterConfig(),
            PrefixTuningConfig(prefix_length=3, flat=True),
            LoraConfig(r=2, targets=("value",)),
            BottleneckConfig(placement="double"),
        ),
        gated=True,
    ),
}

# case -> (initial fingerprint, names/shapes digest, tensor count, output digest)
GOLDEN = {
    "compacter": ("7b6df2f71f7255e0", "cfa5180512e99292", 25, "38540eb256c0d7ac"),
    "double_seq_bn": ("cf0833fa2582e1ad", "4de1cbc854a4e6b6", 16, "a59ab3479bffc18e"),
    "ia3": ("fb364cb64e2172e0", "c13fbd7bee3efefb", 6, "af0481e7976a3f68"),
    "lora": ("a839e22df02f1048", "7c6c401ccc9817e3", 8, "08e731a42042870c"),
    "mam": ("1cd79eef5dfc4f59", "7b87e3f52ddc41b0", 13, "00f8ccf3653ee2f3"),
    "par_bn": ("92a188eea898a73f", "167d5bee640cae92", 8, "cfe3eb963100d646"),
    "prefix_tuning": ("65c692df81f715b0", "c15d370dd52348b6", 5, "85027d72e0fd0859"),
    "prompt_tuning": ("b6b63b7d6af959cd", "8dcf97920f46aeff", 1, "c24ff04d643da35e"),
    "seq_bn": ("b66b991d2cb4216d", "6a378e61db94fbe8", 8, "b501befe007a0800"),
    "seq_bn_inv": ("297c7f369468a0b6", "9874859e1ad7cd51", 16, "8a045a767d19e6ad"),
    "unipelt": ("428db5a311b925f7", "31e07753c02a9753", 29, "f385c68932ccc2c7"),
    "union(par_bn,seq_bn)": ("367dd08bf0f5280b", "11e7ae460a363740", 16, "09ef5cc9d47dd95d"),
    "union(seq_bn,par_bn)": ("ebbdebfce4a3896e", "d071916748dd10e9", 16, "033149a05f57f2d9"),
    "union(ia3,lora)": ("79c3f12b22595e9c", "8b213e54bc8ab2b3", 14, "42c1ded22abeba7f"),
    "union(lora,ia3)": ("8f4af4ba4168469a", "2342f42ce64dad20", 14, "f19401105a242b13"),
    "gated-union": ("abbbe80a1693e719", "fda7d585426e3adb", 80, "dcbe58bc3ad84643"),
}


def _config(case):
    return UNIONS[case] if case in UNIONS else parse_config(case)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def golden_values(case):
    model = AdapterModel(DESK_DIMS, seed=0)
    inst = model.add_adapter("a", _config(case))
    fingerprint = model.adapter_fingerprint("a").hex()[:16]
    layout = ";".join(f"{n}:{t.data.shape}" for n, t in inst.tensors.items())
    randomize(inst, seed=5)
    model.set_active("a")
    tokens = np.random.default_rng(3).integers(0, DESK_DIMS.vocab, size=(2, 6))
    out = model.encode(tokens).hidden.data
    return fingerprint, _digest(layout.encode()), len(inst.tensors), _digest(out.tobytes())


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_adapter_and_forward(case):
    assert golden_values(case) == GOLDEN[case]


def test_golden_covers_every_preset():
    assert set(CONFIG_NAMES) | set(UNIONS) == set(GOLDEN)


# case -> digest of (name, .grad) for every trainable tensor, in order
GRAD_GOLDEN = {
    "compacter": "d0d62ec9a48a3053",
    "double_seq_bn": "2452f987ba620999",
    "full-ft": "aedb4e503f66be5c",
    "gated-union": "86cac267041a49cf",
    "ia3": "f13b2db8f07b1681",
    "lora": "cde731f4ccea08f2",
    "mam": "87e1b0cb163293ff",
    "par_bn": "65342c259a2bb460",
    "prefix_tuning": "1fa33ac5d5cd4ec8",
    "prompt_tuning": "ee60eba3b83553a9",
    "seq_bn": "ab400e4d31442364",
    "seq_bn_inv": "ac5c4968b934296b",
    "union(ia3,lora)": "94d4b065c0616eaf",
    "union(lora,ia3)": "78d50fe4c5f475fe",
    "union(par_bn,seq_bn)": "94ff3ffe6fa1554e",
    "union(seq_bn,par_bn)": "77c4fcc47c7f528e",
    "unipelt": "9b1dfdc6ef9d3737",
}


def gradient_digest(case):
    model = AdapterModel(DESK_DIMS, seed=0)
    if case == "full-ft":
        model.train_full()
        tensors = dict(sorted(model.encoder.params.items()))
    else:
        inst = model.add_adapter("a", _config(case))
        randomize(inst, seed=5)
        model.train_adapter("a")
        tensors = inst.tensors
    tokens = np.random.default_rng(3).integers(0, DESK_DIMS.vocab, size=(2, 6))
    mask = np.ones((2, 6))
    mask[1, 4:] = 0.0
    with T.Tape() as tape:
        out = model.encode(tokens, mask).hidden
        weights = np.random.default_rng(11).normal(size=out.shape)
        tape.backward(T.tsum(T.mul(out, T.constant(weights))))
    h = hashlib.sha256()
    for name, t in tensors.items():
        h.update(name.encode())
        h.update(b"none" if t.grad is None else t.grad.tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(GRAD_GOLDEN))
def test_golden_gradients(case):
    assert gradient_digest(case) == GRAD_GOLDEN[case]


def test_golden_gradients_cover_every_case():
    assert set(GRAD_GOLDEN) == set(GOLDEN) | {"full-ft"}


# ---------------------------------------------------------------------------
# composed setups: every block kind, over one model holding an adapter of
# each kind the serving benchmark composes, plus unipelt and a fusion layer


COMPOSED_ADAPTERS = (("s1", "seq_bn"), ("s2", "seq_bn"), ("pb", "par_bn"), ("lo", "lora"),
                     ("ia", "ia3"), ("cp", "compacter"), ("pf", "prefix_tuning"),
                     ("pr", "prompt_tuning"), ("un", "unipelt"))

# setup text -> (batch rows, forward digest, gradient digest).  The forward
# digest covers the encoder output and the branch list; the gradient digest
# covers every trainable tensor after ``train_adapter`` (fusion layers
# included, fused members frozen).
COMPOSED_GOLDEN = {
    "Average(Parallel(s1, lo), Parallel(pb, ia))": (4, "6f6abeef18f6165b", "9f5da02b1d92292e"),
    "Average(s1, s2, weights=[0.25, 0.75])": (4, "f25aca4307351dc5", "7ae63fdfc90719c5"),
    "BatchSplit(s1, lo, batch_sizes=[2, 2])": (4, "6ebfd319a0e11726", "9992a26760c6bd43"),
    "Fuse(s1, s2)": (4, "0eca30d79e48d6bf", "d249c3045d2e2429"),
    "Parallel(s1, pb)": (4, "e87c9c61dc7ffa92", "ae898cd4693cd26d"),
    "Split(s1, pb, splits=[3, 2])": (4, "88c2fe958c0dc73e", "8d6ffc7045bf472f"),
    "Split(s1, pb, splits=[4, 4])": (4, "b8bfb7a6c7bffe24", "b44a2fe3706cdcae"),
    "Stack(Parallel(s1, pb), BatchSplit(s1, pb, batch_sizes=[3, 3]))": (3, "7579256b67afd9ff", "ce838ec75f73dc98"),
    "Stack(pr, Parallel(s1, lo))": (4, "e1e13734b0169387", "d7af07ba0244667b"),
    "Stack(pr, s1)": (4, "58187fc5aad31211", "21870dab6de03c0f"),
    "Stack(s1, lo)": (4, "2ff349f3fc264280", "46357985812dcbac"),
    "Stack(un, lo)": (4, "a26087f12540d8bb", "5d41ac3a887b9700"),
    "cp": (4, "7bd7f5807e3f311c", "9fb7c624921fcea6"),
    "ia": (4, "c534f6d341b3e671", "5e3399c4b7cd7d57"),
    "lo": (4, "069f36d1ab0bd93c", "a1ea48ee5788c0cc"),
    "pb": (4, "3c96ab204d7ddc85", "91aa6f6805fc47b3"),
    "pf": (4, "7826bf0f511183e4", "562474ef1ad0f98e"),
    "s1": (4, "03e7babf968d8767", "75e9b0f20fc37066"),
}


def composed_model():
    model = AdapterModel(DESK_DIMS, seed=0)
    for i, (name, preset) in enumerate(COMPOSED_ADAPTERS):
        randomize(model.add_adapter(name, preset), seed=20 + i)
    r = np.random.default_rng(40)
    for t in model.add_adapter_fusion(["s1", "s2"]).tensors().values():
        t.data[...] += r.normal(0.0, 0.1, size=t.data.shape)
    return model


def composed_digests(setup, batch):
    model = composed_model()
    tokens = np.random.default_rng(3).integers(0, DESK_DIMS.vocab, size=(batch, 8))
    model.set_active(setup)
    state = model.encode(tokens)
    fwd = _digest(state.hidden.data.tobytes() + repr(state.branches).encode())
    model.train_adapter(setup)
    mask = np.ones((batch, 8))
    mask[1, 6:] = 0.0
    with T.Tape() as tape:
        out = model.encode(tokens, mask).hidden
        weights = np.random.default_rng(11).normal(size=out.shape)
        tape.backward(T.tsum(T.mul(out, T.constant(weights))))
    h = hashlib.sha256()
    for name, t in sorted(model.trainable_parameters().items()):
        h.update(name.encode())
        h.update(b"none" if t.grad is None else t.grad.tobytes())
    return fwd, h.hexdigest()[:16]


@pytest.mark.parametrize("setup", sorted(COMPOSED_GOLDEN))
def test_golden_composed_forward_and_gradients(setup):
    batch, fwd, grad = COMPOSED_GOLDEN[setup]
    assert composed_digests(setup, batch) == (fwd, grad)


# ---------------------------------------------------------------------------
# the pretrained base: one epoch of full fine-tuning on desk dims


# task kind -> digest of (name, values) for every tensor of the base snapshot
BASE_GOLDEN = {
    PARITY: "590aedd9ce9e9192",
    MASKED_SUM: "621d18ead71ae737",
}


def base_digest(kind):
    spec = TaskSpec(kind=kind, vocab=DESK_DIMS.vocab, seq_len=16, n_train=8, n_eval=8,
                    n_pretrain=64, seed=7)
    _, state = prepare_base(DESK_DIMS, spec, GridSpec(pretrain_epochs=1))
    return _digest(b"".join(k.encode() + state[k].tobytes() for k in sorted(state)))


@pytest.mark.parametrize("kind", sorted(BASE_GOLDEN))
def test_golden_pretrained_base(kind):
    assert base_digest(kind) == BASE_GOLDEN[kind]

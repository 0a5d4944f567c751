"""Deterministic synthetic sequence tasks for the training harness.

Three task kinds, all generated from a seeded stream so the same spec always
produces byte-identical arrays:

* ``parity``        classify whether a marker token appears an even or odd
                    number of times (marker counts drawn uniformly from {1,2});
* ``masked-sum``    regress the normalized sum of the token ids sitting at
                    even positions;
* ``position-tag``  tag every position with its index modulo the label count.

Token id 0 is reserved for padding and id 1 is the parity marker; content
tokens are drawn from [2, vocab).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PAD_ID = 0
MARKER_ID = 1

PARITY = "parity"
MASKED_SUM = "masked-sum"
POSITION_TAG = "position-tag"
TASK_KINDS = (PARITY, MASKED_SUM, POSITION_TAG)


@dataclass(frozen=True)
class TaskSpec:
    kind: str = PARITY
    vocab: int = 1000
    seq_len: int = 32
    n_train: int = 4000
    n_eval: int = 1000
    n_pretrain: int = 2000
    num_labels: int = 4          # position-tag only
    seed: int = 0

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise ValueError(f"unknown task kind {self.kind!r}; expected one of {TASK_KINDS}")
        if self.vocab < 3:
            raise ValueError("vocab must leave room for content tokens")
        if self.seq_len < 2 or min(self.n_train, self.n_eval) < 1:
            raise ValueError("degenerate task extents")
        if self.n_pretrain < 0:
            raise ValueError(f"n_pretrain must be >= 0, got {self.n_pretrain}")
        if self.num_labels < 1:
            raise ValueError(f"num_labels must be >= 1, got {self.num_labels}")

    @property
    def head_kind(self) -> str:
        from .model import CLASSIFICATION, REGRESSION, TAGGING
        return {PARITY: CLASSIFICATION, MASKED_SUM: REGRESSION,
                POSITION_TAG: TAGGING}[self.kind]

    @property
    def head_labels(self) -> int:
        return {PARITY: 2, MASKED_SUM: 1, POSITION_TAG: self.num_labels}[self.kind]

    @property
    def metric_name(self) -> str:
        return "mse" if self.kind == MASKED_SUM else "accuracy"


@dataclass
class Dataset:
    train_x: np.ndarray
    train_y: np.ndarray
    eval_x: np.ndarray
    eval_y: np.ndarray
    pretrain_x: np.ndarray
    pretrain_y: np.ndarray


def _gen_block(spec: TaskSpec, rng: np.random.Generator, n: int):
    x = rng.integers(2, spec.vocab, size=(n, spec.seq_len))
    if spec.kind == PARITY:
        # one or two markers per sequence: the label stays `count % 2` but the
        # decision boundary is monotone in marker density, which a two-layer
        # encoder can actually learn at these sample sizes (counts spanning
        # 0..3 plateau near 70% eval accuracy -- memorization, not counting)
        counts = rng.integers(1, 3, size=n)
        for i, c in enumerate(counts):
            pos = rng.choice(spec.seq_len, size=c, replace=False)
            x[i, pos] = MARKER_ID
        y = (counts % 2).astype(np.int64)
    elif spec.kind == MASKED_SUM:
        even = x[:, 0::2]
        y = even.sum(axis=1) / (even.shape[1] * spec.vocab)
    else:  # POSITION_TAG
        y = np.tile(np.arange(spec.seq_len) % spec.num_labels, (n, 1)).astype(np.int64)
    return x, y


def make_task(spec: TaskSpec) -> Dataset:
    """Generate disjoint train/eval/pretrain splits from one seeded stream."""
    rng = np.random.default_rng(spec.seed)
    train = _gen_block(spec, rng, spec.n_train)
    ev = _gen_block(spec, rng, spec.n_eval)
    pre = _gen_block(spec, rng, max(spec.n_pretrain, 1))
    return Dataset(train[0], train[1], ev[0], ev[1], pre[0], pre[1])

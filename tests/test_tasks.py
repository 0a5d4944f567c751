"""Synthetic task generator tests: determinism, split disjointness, and the
label rules of each task kind."""

import numpy as np
import pytest

from peftlab.model import CLASSIFICATION, REGRESSION, TAGGING
from peftlab.tasks import (MARKER_ID, PAD_ID, Dataset, TaskSpec, make_task)

SMALL = TaskSpec(kind="parity", vocab=50, seq_len=8,
                 n_train=300, n_eval=150, n_pretrain=100, seed=3)


def test_same_spec_means_identical_bytes():
    a, b = make_task(SMALL), make_task(SMALL)
    for f in ("train_x", "train_y", "eval_x", "eval_y", "pretrain_x", "pretrain_y"):
        assert np.array_equal(getattr(a, f), getattr(b, f))


def test_different_seeds_mean_different_data():
    a = make_task(SMALL)
    b = make_task(TaskSpec(kind="parity", vocab=50, seq_len=8,
                           n_train=300, n_eval=150, n_pretrain=100, seed=4))
    assert not np.array_equal(a.train_x, b.train_x)


def test_splits_are_disjoint():
    d = make_task(SMALL)
    train = {row.tobytes() for row in d.train_x}
    assert not any(row.tobytes() in train for row in d.eval_x)
    assert not any(row.tobytes() in train for row in d.pretrain_x)


def test_shapes_follow_the_spec():
    d = make_task(SMALL)
    assert d.train_x.shape == (300, 8) and d.train_y.shape == (300,)
    assert d.eval_x.shape == (150, 8) and d.eval_y.shape == (150,)
    assert d.pretrain_x.shape == (100, 8)


def test_parity_labels_count_markers():
    d = make_task(SMALL)
    for x, y in ((d.train_x, d.train_y), (d.eval_x, d.eval_y)):
        counts = (x == MARKER_ID).sum(axis=1)
        assert set(counts.tolist()) <= {1, 2}
        assert np.array_equal(y, counts % 2)


def test_parity_labels_are_roughly_balanced():
    d = make_task(TaskSpec(kind="parity", vocab=50, seq_len=8,
                           n_train=4000, n_eval=10, n_pretrain=10, seed=0))
    rate = d.train_y.mean()
    assert abs(rate - 0.5) < 0.05


def test_content_tokens_avoid_reserved_ids():
    d = make_task(SMALL)
    for x in (d.train_x, d.eval_x, d.pretrain_x):
        assert not np.any(x == PAD_ID)
        assert x.max() < SMALL.vocab


def test_masked_sum_targets_match_the_oracle():
    spec = TaskSpec(kind="masked-sum", vocab=40, seq_len=10,
                    n_train=50, n_eval=20, n_pretrain=10, seed=1)
    d = make_task(spec)
    even = d.train_x[:, 0::2]
    want = even.sum(axis=1) / (even.shape[1] * spec.vocab)
    assert np.allclose(d.train_y, want, atol=0)
    assert d.train_y.min() >= 0.0 and d.train_y.max() <= 1.0


def test_position_tag_targets_are_position_mod_labels():
    spec = TaskSpec(kind="position-tag", vocab=40, seq_len=9, num_labels=4,
                    n_train=20, n_eval=10, n_pretrain=5, seed=1)
    d = make_task(spec)
    want = np.tile(np.arange(9) % 4, (20, 1))
    assert np.array_equal(d.train_y, want)


def test_head_wiring_per_kind():
    assert TaskSpec(kind="parity").head_kind == CLASSIFICATION
    assert TaskSpec(kind="parity").head_labels == 2
    assert TaskSpec(kind="parity").metric_name == "accuracy"
    assert TaskSpec(kind="masked-sum").head_kind == REGRESSION
    assert TaskSpec(kind="masked-sum").head_labels == 1
    assert TaskSpec(kind="masked-sum").metric_name == "mse"
    tag = TaskSpec(kind="position-tag", num_labels=7)
    assert tag.head_kind == TAGGING
    assert tag.head_labels == 7
    assert tag.metric_name == "accuracy"


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown task kind"):
        TaskSpec(kind="sorting")
    with pytest.raises(ValueError, match="vocab"):
        TaskSpec(vocab=2)
    with pytest.raises(ValueError, match="degenerate"):
        TaskSpec(seq_len=1)
    with pytest.raises(ValueError, match="degenerate"):
        TaskSpec(n_eval=0)
    with pytest.raises(ValueError, match="n_pretrain must be >= 0"):
        TaskSpec(n_pretrain=-1)
    with pytest.raises(ValueError, match="num_labels must be >= 1"):
        TaskSpec(kind="position-tag", num_labels=0)

"""CLI tests, run in-process through ``main(argv)``.

One subprocess test at the end checks the installed console script; everything
else avoids process spawns to keep the suite fast.
"""

import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peftlab import cli, training
from peftlab.checkpoint import (BASE_CONFIG_FILE, BASE_WEIGHTS_FILE, CheckpointError,
                                read_weights, write_weights)
from peftlab.cli import main
from peftlab.configs import BottleneckConfig, PrefixTuningConfig, count_params
from peftlab.model import DESK_DIMS
from peftlab.registry import AdapterModel
from peftlab.training import CSV_FIELDS

from conftest import SMALL_DIMS, TINY_DIMS

# small task so training-based tests stay fast; the same flags must be passed
# to train and eval or the regenerated eval split would differ
TASK_ARGS = ["--task", "parity", "--seq-len", "8", "--vocab", "60",
             "--samples", "64", "--eval-samples", "32",
             "--pretrain-samples", "16", "--seed", "3"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# count-params / check-paper


def test_check_paper_passes(capsys):
    code, out, err = run_cli(capsys, "check-paper")
    assert code == 0
    assert "MISMATCH" not in out
    assert out.count(" ok") >= 6


def test_check_paper_json_payload(capsys):
    code, out, _ = run_cli(capsys, "check-paper", "--json")
    assert code == 0
    rows = json.loads(out)
    assert all(r["ok"] for r in rows)
    by_method = {r["method"]: r for r in rows}
    assert by_method["double_seq_bn"]["min"] == 461_088
    assert by_method["double_seq_bn"]["max"] == 14_183_424
    assert by_method["lora"]["min"] == 147_456
    assert by_method["ia3"]["min"] == by_method["ia3"]["max"] == 55_296


def test_count_params_check_paper_flag_is_the_same_audit(capsys):
    code, out, _ = run_cli(capsys, "count-params", "--check-paper", "--json")
    assert code == 0
    _, out2, _ = run_cli(capsys, "check-paper", "--json")
    assert json.loads(out) == json.loads(out2)


def test_count_params_single_config(capsys):
    code, out, _ = run_cli(capsys, "count-params", "--config", "seq_bn", "--json")
    assert code == 0
    (row,) = json.loads(out)
    assert row["config"] == "seq_bn"
    assert row["params"] == 1160          # desk dims by default


def test_count_params_grid_table(capsys):
    code, out, _ = run_cli(capsys, "count-params", "--json")
    assert code == 0
    rows = json.loads(out)
    assert {"method", "min", "max"} <= set(rows[0])
    assert all(r["min"] <= r["max"] for r in rows)


def test_count_params_rejects_unknown_config(capsys):
    code, _, err = run_cli(capsys, "count-params", "--config", "mystery_bn")
    assert code == 1
    assert "error:" in err


def test_check_paper_mismatch_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_count_audit",
                        lambda dims: [("seq_bn", 1, 2, 3, 4, False)])
    code, _, err = run_cli(capsys, "check-paper")
    assert code == 2
    assert "FAILED" in err


def test_bad_flags_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count-params", "--bogus-flag"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["no-such-verb"])
    assert exc.value.code == 1


# ---------------------------------------------------------------------------
# train


def _train(capsys, tmp_path, *extra):
    return run_cli(capsys, "train", *TASK_ARGS, "--pretrain-epochs", "0",
                   "--batch-size", "16", *extra)


def test_train_emits_jsonl_records(capsys, tmp_path):
    code, out, err = _train(capsys, tmp_path,
                            "--config", "seq_bn", "--lr", "1e-3",
                            "--epochs", "1", "--epochs", "2")
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert len(recs) == 2
    assert {r["epochs"] for r in recs} == {1, 2}
    for r in recs:
        assert r["method"] == "seq_bn"
        assert r["metric_name"] == "accuracy"
        assert 0.0 <= r["metric"] <= 1.0
        assert r["n_params"] == 1160
    assert "# best[seq_bn] accuracy=" in err


def test_train_writes_jsonl_and_csv_files(capsys, tmp_path):
    out_f, csv_f = tmp_path / "r.jsonl", tmp_path / "r.csv"
    code, out, _ = _train(capsys, tmp_path,
                          "--config", "seq_bn", "--lr", "1e-3", "--epochs", "1",
                          "--out", str(out_f), "--csv", str(csv_f), "--quiet")
    assert code == 0
    assert out == ""                                  # --quiet
    rec = json.loads(out_f.read_text().splitlines()[0])
    header, row = csv_f.read_text().splitlines()
    assert header.split(",")[0] == "method"
    assert row.split(",")[0] == "seq_bn"
    assert rec["method"] == "seq_bn"


def test_train_grid_rerun_is_identical(capsys, tmp_path):
    args = ("--config", "lora", "--lr", "5e-4", "--epochs", "1")
    _, out1, _ = _train(capsys, tmp_path, *args)
    _, out2, _ = _train(capsys, tmp_path, *args)

    def strip_wall_time(text):
        recs = [json.loads(line) for line in text.splitlines()]
        for r in recs:
            r.pop("seconds")
        return recs

    # identical to all digits, apart from the wall-time field
    assert strip_wall_time(out1) == strip_wall_time(out2)


def test_train_files_are_the_same_from_workers_and_from_one_process(capsys, tmp_path,
                                                                     monkeypatch):
    seconds = CSV_FIELDS.index("seconds")
    files = {}
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        out_f, csv_f = tmp_path / f"{len(cpus)}.jsonl", tmp_path / f"{len(cpus)}.csv"
        # epochs given out of order: the records still come in ascending order
        code, _, _ = _train(capsys, tmp_path, "--config", "seq_bn", "--config", "lora",
                            "--lr", "1e-3", "--lr", "5e-3", "--epochs", "2", "--epochs", "1",
                            "--out", str(out_f), "--csv", str(csv_f), "--quiet")
        assert code == 0
        jsonl = [re.sub(r'"seconds": [^,}]*', '"seconds": 0', line)
                 for line in out_f.read_text().splitlines()]
        rows = csv_f.read_text().splitlines()
        csv = rows[:1] + [",".join(v if i != seconds else "0"
                                   for i, v in enumerate(row.split(",")))
                          for row in rows[1:]]
        files[len(cpus)] = jsonl, csv
    assert files[1] == files[2]
    jsonl, csv = files[2]
    assert len(jsonl) == len(set(jsonl)) == 8 and len(csv) == len(set(csv)) == 9
    assert [(r["method"], r["lr"], r["epochs"]) for r in map(json.loads, jsonl)] == [
        (m, lr, ep) for m in ("seq_bn", "lora") for lr in (1e-3, 5e-3) for ep in (1, 2)]


def test_train_hands_chains_out_longest_first_and_writes_them_in_grid_order(
        capsys, tmp_path, monkeypatch):
    real = training._run_chains
    handed = []

    def spy(chains, run_one, emit, workers, order):
        handed.append((workers, [chains[i][0] for i in order]))
        return real(chains, run_one, emit, workers, order)

    monkeypatch.setattr(training, "_run_chains", spy)
    outputs = {}
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        out_f = tmp_path / f"{len(cpus)}.jsonl"
        code, out, _ = _train(capsys, tmp_path, "--full-ft", "--config", "seq_bn",
                              "--config", "par_bn", "--config", "unipelt", "--lr", "1e-3",
                              "--epochs", "1", "--out", str(out_f))
        assert code == 0
        outputs[len(cpus)] = [re.sub(r'"seconds": [^,}]*', '"seconds": 0', text)
                              for text in (out, out_f.read_text())]
    assert outputs[1] == outputs[2]
    assert outputs[2][0] == outputs[2][1]
    assert [json.loads(line)["method"] for line in outputs[2][0].splitlines()] == [
        "full-ft", "seq_bn", "par_bn", "unipelt"]
    assert handed == [(1, ["full-ft"]), (1, ["seq_bn", "par_bn", "unipelt"]),
                      (1, ["full-ft"]), (2, ["unipelt", "par_bn", "seq_bn"])]


def _summary(err):
    """The ``# best[...]`` lines as (method, best metric, gap text or None)."""
    lines = re.findall(r"^# best\[(.+)\] accuracy=(\S+)(?: \(full-ft (\S+)\))?$", err, re.M)
    return [(m, float(v), gap or None) for m, v, gap in lines]


def test_train_summary_ranks_methods_with_their_gap_to_full_ft(capsys, tmp_path):
    grid = ("--config", "seq_bn", "--config", "lora", "--lr", "1e-3", "--epochs", "1")
    code, out, err = _train(capsys, tmp_path, "--full-ft", *grid)
    assert code == 0
    best = {r["method"]: r["metric"] for r in map(json.loads, out.splitlines())}
    summary = _summary(err)
    assert len(summary) == len(err.splitlines())
    assert sorted(m for m, _, _ in summary) == sorted(best) == ["full-ft", "lora", "seq_bn"]
    values = [v for _, v, _ in summary]
    assert values == sorted(values, reverse=True)
    for m, v, gap in summary:
        assert f"{v:.4f}" == f"{best[m]:.4f}"
        assert gap == (None if m == "full-ft" else f"{best[m] - best['full-ft']:+.4f}")

    code, _, err = _train(capsys, tmp_path, *grid)
    assert code == 0
    summary = _summary(err)
    assert len(summary) == len(err.splitlines()) == 2
    assert all(gap is None for _, _, gap in summary)


def test_train_axis_expansion(capsys, tmp_path):
    code, out, _ = _train(capsys, tmp_path,
                          "--config", "seq_bn", "--lr", "1e-3", "--epochs", "1",
                          "--axis", "reduction_factor=8,16")
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert [r["config"] for r in recs] == [{"reduction_factor": 8}, {}]


def test_train_rejects_inapplicable_axis(capsys, tmp_path):
    code, _, err = _train(capsys, tmp_path, "--config", "lora",
                          "--axis", "reduction_factor=8,16")
    assert code == 1
    assert "does not apply" in err


def test_train_requires_a_method(capsys, tmp_path):
    code, _, err = _train(capsys, tmp_path)
    assert code == 1
    assert "nothing to train" in err


def test_train_save_needs_a_single_cell(capsys, tmp_path):
    code, _, err = _train(capsys, tmp_path, "--config", "seq_bn",
                          "--lr", "1e-3", "--lr", "5e-4", "--epochs", "1",
                          "--save", str(tmp_path / "ck"))
    assert code == 1
    assert "exactly one grid cell" in err


def test_train_save_rejects_full_ft(capsys, tmp_path):
    code, _, err = _train(capsys, tmp_path, "--full-ft",
                          "--lr", "1e-3", "--epochs", "1",
                          "--save", str(tmp_path / "ck"))
    assert code == 1
    assert "--save-base" in err


@pytest.mark.parametrize("flags, message", [
    (("--config", "seq_bn", "--lr", "1e-3", "--lr", "1e-4", "--epochs", "1"),
     "exactly one grid cell"),
    (("--full-ft", "--lr", "1e-3", "--epochs", "1"), "--save-base"),
], ids=["two-cells", "full-ft"])
def test_train_save_refuses_an_unsavable_grid_before_pretraining(capsys, tmp_path, monkeypatch,
                                                                 flags, message):
    called = []
    for module in (cli, training):
        monkeypatch.setattr(module, "prepare_base", lambda *a: called.append("prepare_base"))
        monkeypatch.setattr(module, "make_task", lambda *a: called.append("make_task"))
    base = tmp_path / "base"
    code, stdout, err = run_cli(capsys, "train", *TASK_ARGS, *flags,
                                "--save", str(tmp_path / "ck"), "--save-base", str(base))
    assert code == 1
    assert err.startswith("error: ") and message in err and "Traceback" not in err
    assert stdout == "" and called == []
    assert not base.exists() and not (tmp_path / "ck").exists()


# 10**12 sequences of 32 int64 tokens are 233 TiB, more than a 47-bit
# address space holds, so the allocator refuses them at once
HUGE_SPLIT = ["--seq-len", "32"]


def test_train_with_more_samples_than_memory_exits_one(capsys, tmp_path):
    code, stdout, err = run_cli(capsys, "train", *TASK_ARGS, *HUGE_SPLIT,
                                "--samples", str(10**12), "--config", "seq_bn",
                                "--lr", "1e-3", "--epochs", "1")
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert stdout == ""


def test_train_checks_every_config_against_the_dims_before_pretraining(capsys, tmp_path):
    out = tmp_path / "records.jsonl"
    code, stdout, err = _train(capsys, tmp_path, "--full-ft", "--config", "seq_bn",
                               "--config", "compacter", "--axis", "reduction_factor=4,64",
                               "--lr", "1e-3", "--epochs", "1", "--out", str(out))
    assert code == 1
    assert "phm_dim" in err
    assert stdout == ""
    assert not out.exists() or out.read_text() == ""


@pytest.mark.parametrize("axis, message", [
    ("r=8.0", "must be of type int"),               # used to escape as a TypeError
    ("validate=1", "does not apply"),               # a method, not a field
    ("targets=query", "must be of type tuple"),     # a tuple field cannot be an axis
])
def test_train_rejects_a_mistyped_axis_before_pretraining(capsys, tmp_path, monkeypatch,
                                                          axis, message):
    monkeypatch.setattr(cli, "prepare_base", lambda *a: pytest.fail("pretrained"))
    out = tmp_path / "records.jsonl"
    code, stdout, err = _train(capsys, tmp_path, "--config", "lora", "--axis", axis,
                               "--lr", "1e-3", "--epochs", "1", "--out", str(out))
    assert code == 1
    assert err.startswith("error: ") and message in err
    assert stdout == ""
    assert not out.exists()


def test_train_reads_bool_axes_as_bools(capsys, tmp_path):
    code, out, _ = _train(capsys, tmp_path, "--config", "seq_bn", "--config", "prefix_tuning",
                          "--axis", "with_invertible=false,true", "--axis", "flat=false,true",
                          "--lr", "1e-3", "--epochs", "1")
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    variants = [BottleneckConfig(), BottleneckConfig(with_invertible=True),
                PrefixTuningConfig(), PrefixTuningConfig(flat=True)]
    assert [r["config"] for r in recs] == [{}, {"with_invertible": True}, {}, {"flat": True}]
    assert [r["n_params"] for r in recs] == [count_params(c, DESK_DIMS) for c in variants]
    assert recs[0]["n_params"] == 1160 and recs[1]["n_params"] == 3304


@pytest.fixture
def no_pretraining(monkeypatch):
    """Fail the test if anything is pretrained."""
    for module in (cli, training):
        monkeypatch.setattr(module, "prepare_base", lambda *a: pytest.fail("pretrained"))


UNRUNNABLE = [
    (("--lr", "nan", "--epochs", "0", "--epochs", "-2"), "every lr"),
    (("--lr", "inf"), "every lr"),
    (("--lr=-inf",), "every lr"),
    (("--lr", "0"), "every lr"),
    (("--lr=-1e-3",), "every lr"),
    (("--epochs", "0"), "every epoch count"),
    (("--epochs", "2", "--epochs", "-2"), "every epoch count"),
    (("--batch-size", "-3"), "batch_size"),
    (("--batch-size", "0"), "batch_size"),           # was range()'s own error
    (("--pretrain-epochs", "-1"), "pretrain_epochs"),
    (("--config", "lora", "--axis", "r=1000000000"), "not in 1..hidden"),
    (("--seq-len", "129"), "sequence length 129 exceeds max_seq 128"),
    (("--config", "prompt_tuning", "--seq-len", "119"),
     "sequence 119 + prepended rows 10 exceeds max_seq 128"),
    (("--pretrain-samples", "-1"), "n_pretrain must be >= 0"),
    (("--task", "position-tag", "--num-labels", "0"), "num_labels must be >= 1"),
]


@pytest.mark.parametrize("flags, message", UNRUNNABLE, ids=[" ".join(f) for f, _ in UNRUNNABLE])
def test_train_rejects_values_no_grid_can_run_before_pretraining(capsys, tmp_path,
                                                                   no_pretraining,
                                                                   flags, message):
    out = tmp_path / "records.jsonl"
    code, stdout, err = run_cli(capsys, "train", *TASK_ARGS, "--config", "seq_bn",
                                *flags, "--out", str(out))
    assert code == 1
    assert err.startswith("error: ") and message in err and "Traceback" not in err
    assert stdout == ""
    assert not out.exists()


def test_train_checks_the_sequence_fits_before_writing_the_base(capsys, tmp_path):
    base = tmp_path / "base"
    code, stdout, err = run_cli(capsys, "train", *TASK_ARGS, "--seq-len", "126",
                                "--config", "seq_bn", "--config", "prompt_tuning",
                                "--lr", "1e-3", "--epochs", "1", "--save-base", str(base))
    assert code == 1
    assert err == "error: sequence 126 + prepended rows 10 exceeds max_seq 128 " \
                  "for prompt_tuning\n"
    assert stdout == ""
    assert not base.exists()


def test_train_needs_pretraining_samples_to_pretrain(capsys, tmp_path, monkeypatch):
    for module in (cli, training):
        monkeypatch.setattr(module, "make_task", lambda *a: pytest.fail("made the task"))
    out = tmp_path / "records.jsonl"
    code, stdout, err = run_cli(capsys, "train", *TASK_ARGS, "--pretrain-samples", "0",
                                "--pretrain-epochs", "1", "--config", "seq_bn",
                                "--lr", "1e-3", "--epochs", "1", "--out", str(out))
    assert code == 1
    assert err == "error: pretrain_epochs 1 needs n_pretrain >= 1, got 0\n"
    assert stdout == "" and not out.exists()
    monkeypatch.undo()
    code, stdout, _ = _train(capsys, tmp_path, "--pretrain-samples", "0", "--config", "seq_bn",
                             "--lr", "1e-3", "--epochs", "1")
    assert code == 0 and len(stdout.splitlines()) == 1


def test_train_rejects_zero_labels_without_a_warning(capsys, tmp_path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, stdout, err = run_cli(capsys, "train", *TASK_ARGS, "--task", "position-tag",
                                    "--num-labels", "0", "--config", "seq_bn")
    assert code == 1
    assert err == "error: num_labels must be >= 1, got 0\n"
    assert stdout == "" and caught == []


def test_train_merges_a_repeated_axis(capsys, tmp_path):
    code, out, _ = _train(capsys, tmp_path, "--config", "lora", "--lr", "1e-3",
                          "--epochs", "1", "--axis", "r=2", "--axis", "r=4,2")
    assert code == 0
    assert [json.loads(line)["config"] for line in out.splitlines()] == [{"r": 2}, {"r": 4}]


def test_train_runs_each_distinct_cell_once(capsys, tmp_path):
    code, out, _ = _train(capsys, tmp_path, "--config", "seq_bn", "--config", "seq_bn",
                          "--lr", "1e-3", "--lr", "1e-3",
                          "--epochs", "2", "--epochs", "1", "--epochs", "2")
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert [(r["method"], r["lr"], r["epochs"]) for r in recs] == [
        ("seq_bn", 1e-3, 1), ("seq_bn", 1e-3, 2)]


def test_train_saves_a_single_distinct_cell(capsys, tmp_path):
    ckpt = tmp_path / "ck"
    code, out, _ = _train(capsys, tmp_path, "--config", "seq_bn", "--config", "seq_bn",
                          "--lr", "1e-3", "--lr", "1e-3", "--epochs", "1", "--save", str(ckpt))
    assert code == 0
    assert len(out.splitlines()) == 1
    assert (ckpt / "head.json").exists()


# tiny enough that an example trains in well under a second on desk dims
FUZZ_TASK = ["--task", "parity", "--seq-len", "4", "--vocab", "60", "--samples", "8",
             "--eval-samples", "4", "--pretrain-samples", "4", "--seed", "1"]
# axes that apply to each config, and values no grid can run, per flag
FUZZ_AXES = {"seq_bn": ["reduction_factor=32,16"], "lora": ["r=2", "r=1,2"],
             "prompt_tuning": ["prompt_length=2,3"], "ia3": []}
FUZZ_FLAWS = {
    "lr": st.sampled_from(["nan", "inf", "-inf", "0", "-0.001", "1e400", "true"]),
    "epochs": st.integers(-2, 0),
    "batch-size": st.integers(-3, 0),
    "pretrain-epochs": st.just(-1),
    "axis": st.sampled_from(["r=0", "r=65", "r=2.0", "alpha=nan", "reduction_factor=3",
                             "prompt_length=128", "validate=1"]),
}


@st.composite
def train_argv(draw):
    """A runnable ``train`` grid, repeats included, with up to two flaws
    added as one more flag each."""
    configs = draw(st.lists(st.sampled_from(sorted(FUZZ_AXES)), min_size=1, max_size=3))
    argv = [*FUZZ_TASK, f"--pretrain-epochs={draw(st.integers(0, 1))}",
            f"--batch-size={draw(st.integers(1, 9))}"]
    for name in configs:
        argv += ["--config", name]
    if draw(st.booleans()):
        argv.append("--full-ft")
    argv += [f"--lr={v!r}" for v in draw(st.lists(st.floats(1e-4, 1e-1), min_size=1,
                                                   max_size=2))]
    argv += [f"--epochs={v}" for v in draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))]
    axes = sorted({axis for name in configs for axis in FUZZ_AXES[name]})
    if axes:
        argv += [f"--axis={v}" for v in draw(st.lists(st.sampled_from(axes), max_size=2))]
    for flag in draw(st.sets(st.sampled_from(sorted(FUZZ_FLAWS)), max_size=2)):
        argv.append(f"--{flag}={draw(FUZZ_FLAWS[flag])}")
    return argv


@settings(max_examples=25, deadline=None)
@given(argv=train_argv())
def test_any_train_grid_exits_zero_with_valid_records_or_one_with_an_error(argv):
    """Every ``train`` input either trains each distinct cell once, with a
    finite lr > 0 and epochs >= 1, or exits 1 with ``error:``."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        mp.setattr(os, "sched_getaffinity", lambda pid: {0})
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(["train", *argv])
            except SystemExit as e:          # argparse's own errors, e.g. --lr=true
                code = e.code
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert "error: " in err.getvalue()
        assert out.getvalue() == ""
        return
    assert code == 0
    recs = [json.loads(line) for line in out.getvalue().splitlines()]
    assert recs
    assert all(0 < r["lr"] < np.inf and r["epochs"] >= 1 for r in recs)
    cells = [(r["method"], json.dumps(r["config"]), r["lr"], r["epochs"]) for r in recs]
    assert len(set(cells)) == len(cells)


def test_failed_save_base_leaves_the_previous_manifest(tmp_path):
    AdapterModel(SMALL_DIMS).save_base(tmp_path)
    manifest = (tmp_path / BASE_CONFIG_FILE).read_bytes()
    (tmp_path / BASE_WEIGHTS_FILE).unlink()
    (tmp_path / BASE_WEIGHTS_FILE).mkdir()
    with pytest.raises(OSError):
        AdapterModel(TINY_DIMS).save_base(tmp_path)
    assert (tmp_path / BASE_CONFIG_FILE).read_bytes() == manifest
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [BASE_CONFIG_FILE, BASE_WEIGHTS_FILE])


# ---------------------------------------------------------------------------
# end-to-end: train -> save -> eval -> compose -> average -> merge


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One shared pipeline: a saved base, a trained seq_bn adapter, and a
    trained lora adapter (all on the same tiny parity task)."""
    root = tmp_path_factory.mktemp("cli-e2e")
    base, bn, lo = root / "base", root / "bn", root / "lora"
    argv = ["train", *TASK_ARGS, "--pretrain-epochs", "0", "--batch-size", "16",
            "--quiet", "--lr", "1e-3", "--epochs", "2"]
    code = main(argv + ["--config", "seq_bn", "--save", str(bn),
                        "--save-base", str(base)])
    assert code == 0
    code = main(argv + ["--config", "lora", "--save", str(lo),
                        "--base", str(base)])
    assert code == 0
    return {"root": root, "base": base, "bn": bn, "lora": lo}


def _train_metric(capsys, workspace, method):
    """Re-run the saved single cell to recover its metric from the record."""
    code, out, _ = run_cli(capsys, "train", *TASK_ARGS, "--pretrain-epochs", "0",
                           "--batch-size", "16", "--base", str(workspace["base"]),
                           "--config", method, "--lr", "1e-3", "--epochs", "2")
    assert code == 0
    return json.loads(out.splitlines()[0])["metric"]


def test_saved_checkpoints_have_the_expected_layout(workspace):
    for d in (workspace["bn"], workspace["lora"]):
        assert (d / "adapter_config.json").exists()
        assert (d / "weights.bin").exists()
        assert (d / "head.json").exists()
    assert (workspace["base"] / "base_config.json").exists()
    assert (workspace["base"] / "base_weights.bin").exists()


def test_eval_reproduces_the_training_metric(capsys, workspace):
    want = _train_metric(capsys, workspace, "seq_bn")
    code, out, _ = run_cli(capsys, "eval", *TASK_ARGS,
                           "--base", str(workspace["base"]),
                           "--adapter", str(workspace["bn"]))
    assert code == 0
    doc = json.loads(out)
    assert doc["metric_name"] == "accuracy"
    assert doc["eval_samples"] == 32
    assert doc["metric"] == want


def test_eval_with_a_bare_head(capsys, workspace):
    code, out, _ = run_cli(capsys, "eval", *TASK_ARGS,
                           "--base", str(workspace["base"]),
                           "--head-file", str(workspace["bn"] / "head.json"))
    assert code == 0
    assert 0.0 <= json.loads(out)["metric"] <= 1.0


def test_eval_without_adapter_or_head_fails(capsys, workspace):
    code, _, err = run_cli(capsys, "eval", *TASK_ARGS,
                           "--base", str(workspace["base"]))
    assert code == 1
    assert "--head-file" in err


def test_eval_checks_its_flags_before_reading_the_base(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "make_task", lambda spec: pytest.fail("generated the task"))
    code, _, err = run_cli(capsys, "eval", *TASK_ARGS, "--base", str(tmp_path / "missing"))
    assert code == 1
    assert "--head-file" in err


@pytest.mark.parametrize("command", ["eval", "compose"])
def test_eval_and_compose_generate_no_pretraining_split(capsys, workspace, monkeypatch,
                                                        command):
    specs = []
    make_task = cli.make_task
    monkeypatch.setattr(cli, "make_task", lambda spec: specs.append(spec) or make_task(spec))
    flags = (["--adapter", str(workspace["bn"])] if command == "eval"
             else ["--adapter", f"a1={workspace['bn']}", "--setup", "a1"])
    code, _, _ = run_cli(capsys, command, *TASK_ARGS, "--base", str(workspace["base"]),
                         *flags)
    assert code == 0
    assert [spec.n_pretrain for spec in specs] == [0]
    # the flag is still checked, as train checks it
    code, _, err = run_cli(capsys, command, *TASK_ARGS, "--base", str(workspace["base"]),
                           *flags, "--pretrain-samples", "-1")
    assert code == 1 and "n_pretrain must be >= 0" in err


def test_eval_with_more_samples_than_memory_exits_one(capsys, workspace):
    code, stdout, err = run_cli(capsys, "eval", *TASK_ARGS, *HUGE_SPLIT,
                                "--eval-samples", str(10**12),
                                "--base", str(workspace["base"]),
                                "--adapter", str(workspace["bn"]))
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert stdout == ""


def _compose_a1(workspace):
    return ["compose", *TASK_ARGS, "--samples", "8", "--base", str(workspace["base"]),
            "--adapter", f"a1={workspace['bn']}", "--setup", "a1"]


def test_compose_out_holds_the_report_printed_without_it(capsys, workspace, tmp_path):
    report = tmp_path / "report.json"
    code, printed, _ = run_cli(capsys, *_compose_a1(workspace))
    assert code == 0
    code, stdout, _ = run_cli(capsys, *_compose_a1(workspace), "--out", str(report))
    assert code == 0 and stdout == ""
    assert report.read_text() == printed


def test_a_failed_compose_out_write_keeps_the_old_file(capsys, workspace, tmp_path,
                                                       monkeypatch):
    report = tmp_path / "report.json"
    report.write_text("previous\n")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    code, stdout, err = run_cli(capsys, *_compose_a1(workspace), "--out", str(report))
    assert code == 1
    assert err == "error: disk full\n" and stdout == ""
    assert report.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_compose_reports_branch_outputs(capsys, workspace):
    code, out, _ = run_cli(capsys, "compose", *TASK_ARGS, "--samples", "8",
                           "--base", str(workspace["base"]),
                           "--adapter", f"a1={workspace['bn']}",
                           "--adapter", f"a2={workspace['bn']}",
                           "--setup", "Parallel(a1, a2)")
    assert code == 0
    doc = json.loads(out)
    assert doc["input_rows"] == 8
    assert doc["branches"] == [{"label": "a1", "rows": 8},
                               {"label": "a2", "rows": 8}]
    # identical checkpoints -> identical branch outputs
    assert doc["outputs"]["a1"] == doc["outputs"]["a2"]


def test_compose_stacks_a_lora_adapter_after_a_prefix(capsys, workspace, tmp_path):
    # p carries a copy of l's head, so each order's branch reads the same head
    model = AdapterModel.load_base(workspace["base"])
    model.add_adapter("p", "prefix_tuning")
    model.save_adapter("p", tmp_path / "p")
    shutil.copy(workspace["lora"] / "head.json", tmp_path / "p" / "head.json")
    outputs = []
    for setup, label in (("Stack(p, l)", "l"), ("Stack(l, p)", "p")):
        code, out, err = run_cli(capsys, "compose", *TASK_ARGS, "--samples", "8",
                                 "--base", str(workspace["base"]),
                                 "--adapter", f"p={tmp_path / 'p'}",
                                 "--adapter", f"l={workspace['lora']}", "--setup", setup)
        assert (code, err) == (0, "")
        outputs.append(json.loads(out)["outputs"][label])
    assert outputs[0] == outputs[1]


def test_compose_runs_fusion_setups(capsys, workspace):
    code, out, _ = run_cli(capsys, "compose", *TASK_ARGS, "--samples", "8",
                           "--base", str(workspace["base"]),
                           "--adapter", f"a1={workspace['bn']}",
                           "--adapter", f"a2={workspace['bn']}",
                           "--fuse", "a1,a2",
                           "--setup", "Fuse(a1, a2)")
    assert code == 0
    assert json.loads(out)["branches"] == [{"label": None, "rows": 8}]


def test_compose_accepts_npy_input(capsys, workspace, tmp_path):
    tokens = np.array([[2, 3, 4, 5], [6, 7, 8, 9]], dtype=np.int64)
    np.save(tmp_path / "toks.npy", tokens)
    code, out, _ = run_cli(capsys, "compose",
                           "--base", str(workspace["base"]),
                           "--adapter", f"a1={workspace['bn']}",
                           "--setup", "a1",
                           "--input", str(tmp_path / "toks.npy"))
    assert code == 0
    assert json.loads(out)["input_rows"] == 2


def test_compose_rejects_float_input(capsys, workspace, tmp_path):
    np.save(tmp_path / "bad.npy", np.ones((2, 4)))
    code, _, err = run_cli(capsys, "compose",
                           "--base", str(workspace["base"]),
                           "--adapter", f"a1={workspace['bn']}",
                           "--setup", "a1",
                           "--input", str(tmp_path / "bad.npy"))
    assert code == 1
    assert "integer" in err


@pytest.mark.parametrize("fuse", ["a1,ghost", ",", "a1"])
def test_compose_fuse_of_names_it_cannot_fuse_exits_one(capsys, workspace, fuse):
    code, out, err = run_cli(capsys, *_compose_a1(workspace), "--fuse", fuse)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_compose_unknown_adapter_fails(capsys, workspace):
    code, _, err = run_cli(capsys, "compose", *TASK_ARGS,
                           "--base", str(workspace["base"]),
                           "--adapter", f"a1={workspace['bn']}",
                           "--setup", "Stack(a1, ghost)")
    assert code == 1
    assert "ghost" in err


@pytest.mark.parametrize("setup", [
    "Stack(a1",
    "Stack(a1))",
    "Average(a1, a1, weights=[nan, 1])",
    "Average(a1, a1, weights=[inf, 1])",
    "Average(a1, a1, weights=[1, 1], weights=[2, 1])",
    "Split(a1, a1, splits=[1.5, 2])",
    "Split(a1, a1, splits=[inf, 1])",
    "BatchSplit(a1, a1, batch_sizes=[1, 1])",
    "Fuse(Stack(a1))",
    "Stack(" * 3000 + "a1" + ")" * 3000,
    "Stack(" * 990 + "a1" + ")" * 990,
], ids=lambda s: s if len(s) < 60 else f"nested-{s.count('(')}")
def test_compose_rejects_malformed_setups_with_exit_one(capsys, workspace, setup):
    code, out, err = run_cli(capsys, "compose", *TASK_ARGS, "--samples", "8",
                             "--base", str(workspace["base"]),
                             "--adapter", f"a1={workspace['bn']}",
                             "--setup", setup)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_average_of_an_adapter_with_itself_is_byte_identical(capsys, workspace):
    out_dir = workspace["root"] / "avg"
    code, out, _ = run_cli(capsys, "average",
                           "--base", str(workspace["base"]),
                           "--adapter", str(workspace["bn"]),
                           "--adapter", str(workspace["bn"]),
                           "--weights", "0.5,0.5",
                           "--name", "seq_bn",
                           "--out", str(out_dir))
    assert code == 0
    assert json.loads(out)["name"] == "seq_bn"
    assert ((out_dir / "weights.bin").read_bytes()
            == (workspace["bn"] / "weights.bin").read_bytes())
    assert ((out_dir / "adapter_config.json").read_bytes()
            == (workspace["bn"] / "adapter_config.json").read_bytes())
    assert (out_dir / "head.json").exists()


def test_average_rejects_mismatched_configs(capsys, workspace):
    code, _, err = run_cli(capsys, "average",
                           "--base", str(workspace["base"]),
                           "--adapter", str(workspace["bn"]),
                           "--adapter", str(workspace["lora"]),
                           "--out", str(workspace["root"] / "bad-avg"))
    assert code == 1
    assert "configs differ" in err


def test_merge_then_eval_matches_the_adapter_run(capsys, workspace):
    merged = workspace["root"] / "merged"
    code, out, _ = run_cli(capsys, "merge",
                           "--base", str(workspace["base"]),
                           "--adapter", str(workspace["lora"]),
                           "--out", str(merged))
    assert code == 0
    assert json.loads(out)["merged"] == "lora"

    _, out_a, _ = run_cli(capsys, "eval", *TASK_ARGS,
                          "--base", str(workspace["base"]),
                          "--adapter", str(workspace["lora"]))
    _, out_m, _ = run_cli(capsys, "eval", *TASK_ARGS,
                          "--base", str(merged),
                          "--head-file", str(merged / "head.json"))
    assert json.loads(out_a)["metric"] == json.loads(out_m)["metric"]


def test_merge_rejects_non_lora_checkpoints(capsys, workspace):
    code, _, err = run_cli(capsys, "merge",
                           "--base", str(workspace["base"]),
                           "--adapter", str(workspace["bn"]),
                           "--out", str(workspace["root"] / "nope"))
    assert code == 1
    assert "low-rank" in err


def test_eval_rejects_cross_dim_checkpoints(capsys, workspace):
    # an adapter saved on desk dims must not load against a base whose
    # manifest declares different dims
    base2 = workspace["root"] / "base2"
    shutil.copytree(workspace["base"], base2)
    doc = json.loads((base2 / "base_config.json").read_text())
    doc["dims"]["hidden"] = 32
    (base2 / "base_config.json").write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "eval", *TASK_ARGS,
                           "--base", str(base2),
                           "--adapter", str(workspace["bn"]))
    assert code == 1


def _edited_base(workspace, tag, edit):
    base = workspace["root"] / tag
    shutil.copytree(workspace["base"], base)
    path = base / "base_config.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    return base


def _without_dims(doc):
    del doc["dims"]
    return doc


def _extra_dims_key(doc):
    doc["dims"]["depth"] = 3
    return doc


def _dims_edit(**changes):
    def edit(doc):
        doc["dims"].update(changes)
        return doc
    return edit


BASE_MANIFEST_EDITS = {
    "no-dims": _without_dims,
    "extra-dims-key": _extra_dims_key,
    "not-an-object": lambda doc: [doc],
    "fractional-hidden": _dims_edit(hidden=64.7),
    "float-hidden": _dims_edit(hidden=64.0),
    "string-hidden": _dims_edit(hidden="64"),
    "bool-layers": _dims_edit(num_layers=True),
    "bool-version": lambda doc: {**doc, "format_version": True},
    "nan-hidden": _dims_edit(hidden=float("nan")),
}


@pytest.mark.parametrize("tag", sorted(BASE_MANIFEST_EDITS))
def test_malformed_base_manifest_exits_one(capsys, workspace, tag):
    base = _edited_base(workspace, tag, BASE_MANIFEST_EDITS[tag])
    with pytest.raises(CheckpointError):
        AdapterModel.load_base(base)
    code, _, err = run_cli(capsys, "eval", *TASK_ARGS, "--base", str(base),
                           "--head-file", str(workspace["bn"] / "head.json"))
    assert code == 1
    assert "base" in err


def test_non_finite_base_weights_exit_one(capsys, workspace):
    base = workspace["root"] / "inf-base"
    shutil.copytree(workspace["base"], base)
    path = base / "base_weights.bin"
    blobs = {k: v.copy() for k, v in read_weights(path).items()}
    blobs["layer0.ffn.w1"][0, 0] = np.inf
    write_weights(path, blobs)
    with pytest.raises(CheckpointError, match="layer0.ffn.w1"):
        AdapterModel.load_base(base)
    code, _, err = run_cli(capsys, "eval", *TASK_ARGS, "--base", str(base),
                           "--head-file", str(workspace["bn"] / "head.json"))
    assert code == 1
    assert "layer0.ffn.w1" in err


@pytest.mark.parametrize("key", ["kind", "num_labels", "w", "b"])
def test_head_file_missing_a_key_exits_one(capsys, workspace, key):
    doc = json.loads((workspace["bn"] / "head.json").read_text())
    del doc[key]
    bad = workspace["root"] / f"head-without-{key}.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match=key):
        AdapterModel.load_base(workspace["base"]).load_head("h", bad)
    code, _, err = run_cli(capsys, "eval", *TASK_ARGS,
                           "--base", str(workspace["base"]), "--head-file", str(bad))
    assert code == 1
    assert key in err


BASE_WEIGHT_EDITS = {
    "extra-tensor": lambda blobs: {**blobs, "layer9.extra": np.zeros(3)},
    "missing-tensor": lambda blobs: {k: v for k, v in blobs.items() if k != "final_ln.b"},
    "wrong-shape": lambda blobs: {**blobs, "final_ln.b": np.zeros(5)},
}


@pytest.mark.parametrize("tag", sorted(BASE_WEIGHT_EDITS))
def test_base_weights_must_hold_exactly_the_encoder_tensors(capsys, workspace, tag):
    base = workspace["root"] / f"weights-{tag}"
    shutil.copytree(workspace["base"], base)
    path = base / BASE_WEIGHTS_FILE
    write_weights(path, BASE_WEIGHT_EDITS[tag](read_weights(path)))
    with pytest.raises(CheckpointError, match="final_ln.b|layer9.extra"):
        AdapterModel.load_base(base)
    code, _, err = run_cli(capsys, "eval", *TASK_ARGS, "--base", str(base),
                           "--head-file", str(workspace["bn"] / "head.json"))
    assert code == 1
    assert err.startswith("error: ")


def _set(key, value):
    return lambda doc: doc.update({key: value})


def _set_first(key, value):
    def edit(doc):
        row = doc[key][0] if key == "w" else doc[key]
        row[0] = value
    return edit


HEAD_EDITS = {
    "nan-bias": _set_first("b", float("nan")),
    "infinite-weight": _set_first("w", float("inf")),
    "negative-infinite-weight": _set_first("w", float("-inf")),
    "null-bias": _set_first("b", None),
    "string-weight": _set_first("w", "0.5"),
    "ragged-weights": lambda doc: doc["w"][0].pop(),
    "list-kind": lambda doc: doc.update(kind=[doc["kind"]]),
    "unknown-kind": _set("kind", "ranking"),
    "bool-labels": _set("num_labels", True),
    "float-labels": lambda doc: doc.update(num_labels=float(doc["num_labels"])),
    "zero-labels": _set("num_labels", 0),
    "more-labels": lambda doc: doc.update(num_labels=doc["num_labels"] + 1),
}


@pytest.mark.parametrize("tag", sorted(HEAD_EDITS))
def test_damaged_head_file_exits_one(capsys, workspace, tag):
    doc = json.loads((workspace["bn"] / "head.json").read_text())
    HEAD_EDITS[tag](doc)
    bad = workspace["root"] / f"head-{tag}.json"
    bad.write_text(json.dumps(doc))
    model = AdapterModel.load_base(workspace["base"])
    with pytest.raises(CheckpointError):
        model.load_head("h", bad)
    assert not model.has_head("h")
    code, out, err = run_cli(capsys, "eval", *TASK_ARGS,
                             "--base", str(workspace["base"]), "--head-file", str(bad))
    assert code == 1
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize("kind", ["adapter", "base", "head"])
def test_malformed_file_of_each_kind_exits_one_without_a_traceback(capsys, workspace, kind):
    root = workspace["root"] / f"malformed-{kind}"
    shutil.copytree(workspace["base"], root / "base")
    shutil.copytree(workspace["bn"], root / "bn")
    target = {"adapter": root / "bn" / "adapter_config.json",
              "base": root / "base" / "base_config.json",
              "head": root / "bn" / "head.json"}[kind]
    target.write_text('{"format_version": 1, "name": [], "dims": 8.5, "kind": {}}\n')
    code, out, err = run_cli(capsys, "eval", *TASK_ARGS, "--base", str(root / "base"),
                             "--adapter", str(root / "bn"))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_average_and_merge_rewrite_the_source_head_byte_for_byte(capsys, workspace):
    avg, merged = workspace["root"] / "avg-head", workspace["root"] / "merged-head"
    assert main(["average", "--base", str(workspace["base"]),
                 "--adapter", str(workspace["bn"]), "--out", str(avg)]) == 0
    assert main(["merge", "--base", str(workspace["base"]),
                 "--adapter", str(workspace["lora"]), "--out", str(merged)]) == 0
    capsys.readouterr()
    assert (avg / "head.json").read_bytes() == (workspace["bn"] / "head.json").read_bytes()
    assert ((merged / "head.json").read_bytes()
            == (workspace["lora"] / "head.json").read_bytes())


def test_average_with_a_damaged_source_head_writes_nothing(capsys, workspace):
    source = workspace["root"] / "bn-nan-head"
    shutil.copytree(workspace["bn"], source)
    doc = json.loads((source / "head.json").read_text())
    doc["b"][0] = float("nan")
    (source / "head.json").write_text(json.dumps(doc))
    out_dir = workspace["root"] / "avg-nan-head"
    code, _, err = run_cli(capsys, "average", "--base", str(workspace["base"]),
                           "--adapter", str(source), "--out", str(out_dir))
    assert code == 1
    assert "non-finite" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("weights", ["nan,1", "inf,1", "1e308,1e308"])
def test_average_with_non_finite_weights_writes_nothing(capsys, workspace, weights):
    out_dir = workspace["root"] / "avg-bad-weights"
    code, _, err = run_cli(capsys, "average", "--base", str(workspace["base"]),
                           "--adapter", f"a={workspace['bn']}", "--adapter",
                           f"b={workspace['bn']}", "--weights", weights, "--out", str(out_dir))
    assert code == 1
    assert "finite" in err
    assert not out_dir.exists()


# ---------------------------------------------------------------------------
# every verb that reads checkpoints, over hostile flags and damaged files

# flags besides the checkpoint paths, each with values no run can use and
# values a run can; compose's --input names one of the NPY_INPUTS, or a
# truncated .npy file
HOSTILE_FLAGS = {
    "eval": {"samples": ["-1", "0", "1"], "eval-samples": ["-1", "0", "1", "2"],
             "seq-len": ["-1", "1", "2", "129"], "vocab": ["2", "3"],
             "num-labels": ["0", "1"], "task": ["masked-sum", "position-tag", "nope"],
             "head-file": ["missing.json", "src"]},
    "compose": {"samples": ["-3", "0", "1"], "seq-len": ["1", "2", "129"],
                "setup": ["Stack(a, a)", "Parallel(a, a)", "Fuse(a, a)", "Stack(a", "b",
                          "Split(a, a, splits=[1, 7])", "BatchSplit(a, a, batch_sizes=[1, 7])",
                          "Average(a, a, weights=[nan, 1])"],
                "fuse": ["a,a", "a", "b", ","],
                "input": ["tokens.npy", "float.npy", "empty.npy", "out-of-vocab.npy",
                          "uint8.npy", "3-d.npy", "truncated.npy"]},
    "average": {"weights": ["nan,1", "inf,1", "1", "0,0", "-1,2", "1e308,1e308", "x",
                            "0.3,0.7"],
                "name": ["", "b", "a/b", "seq_bn"]},
    "merge": {},
}
DAMAGED_FILES = ("base/base_config.json", "base/base_weights.bin",
                 "src/adapter_config.json", "src/weights.bin", "src/head.json")
NPY_INPUTS = {
    "tokens.npy": np.arange(2, 18).reshape(2, 8),
    "float.npy": np.ones((2, 8)),
    "empty.npy": np.zeros((0, 8), dtype=np.int64),
    "out-of-vocab.npy": np.full((1, 8), 10**6),
    "uint8.npy": np.full((2, 8), 5, dtype=np.uint8),
    "3-d.npy": np.zeros((1, 2, 8), dtype=np.int64),
}
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _damage(path, kind, at, mask):
    """Truncate ``path``, flip the bits of ``mask`` in one byte, or put a
    NaN in its payload: the last float of a weights file, a number of a
    JSON file."""
    data = path.read_bytes()
    i = at % len(data)
    if kind == "truncate":
        data = data[:i]
    elif kind == "flip":
        data = data[:i] + bytes([data[i] ^ mask]) + data[i + 1:]
    elif path.suffix == ".bin":
        data = data[:-4] + np.float32(np.nan).tobytes()
    else:
        numbers = list(_NUMBER.finditer(data.decode("utf-8")))
        m = numbers[at % len(numbers)]
        data = data[:m.start()] + b"NaN" + data[m.end():]
    path.write_bytes(data)


@pytest.mark.parametrize("verb", sorted(HOSTILE_FLAGS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_any_checkpoint_verb_exits_zero_with_json_or_one_with_an_error(workspace, verb, data):
    """``eval``, ``compose``, ``average`` and ``merge`` over a damaged copy
    of the saved base, adapter and head, with up to two hostile flags,
    either print one JSON document and exit 0 or exit 1 with ``error:``."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        base, src = root / "base", root / "src"
        shutil.copytree(workspace["base"], base)
        shutil.copytree(workspace[data.draw(st.sampled_from(["bn", "lora"]))], src)
        target = data.draw(st.sampled_from((None,) + DAMAGED_FILES))
        if target is not None:
            _damage(root / target, data.draw(st.sampled_from(["truncate", "flip", "nan"])),
                    data.draw(st.integers(0, 1 << 20)), data.draw(st.integers(1, 255)))
        argv = {"eval": ["eval", *TASK_ARGS, "--base", str(base), "--adapter", str(src)],
                "compose": ["compose", *TASK_ARGS, "--base", str(base),
                            "--adapter", f"a={src}", "--setup", "a"],
                "average": ["average", "--base", str(base), "--adapter", f"a={src}",
                            "--adapter", f"b={src}", "--out", str(root / "out")],
                "merge": ["merge", "--base", str(base), "--adapter", str(src),
                          "--out", str(root / "out")]}[verb]
        flaws = HOSTILE_FLAGS[verb]
        for flag in data.draw(st.sets(st.sampled_from(sorted(flaws)), max_size=2)) if flaws else ():
            value = data.draw(st.sampled_from(flaws[flag]))
            if flag == "input":
                np.save(root / value, NPY_INPUTS.get(value, NPY_INPUTS["tokens.npy"]))
                if value == "truncated.npy":
                    (root / value).write_bytes((root / value).read_bytes()[:-5])
            if flag in ("head-file", "input"):
                value = root / value
            argv.append(f"--{flag}={value}")
        out, err = io.StringIO(), io.StringIO()
        with np.errstate(all="ignore"), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:          # argparse's own errors, e.g. --task=nope
                code = e.code
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert "error: " in err.getvalue()
        assert out.getvalue() == ""
        return
    assert code == 0
    assert isinstance(json.loads(out.getvalue()), dict)


def test_console_script_is_installed():
    exe = shutil.which("peftlab")
    assert exe, "console script 'peftlab' not on PATH"
    proc = subprocess.run([exe, "check-paper"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "MISMATCH" not in proc.stdout

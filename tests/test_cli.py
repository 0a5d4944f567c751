"""CLI tests, run in-process through ``main(argv)``.

One subprocess test at the end checks the installed console script; everything
else avoids process spawns to keep the suite fast.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from peftlab import cli
from peftlab.cli import main
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
        (m, lr, ep) for m in ("seq_bn", "lora") for lr in (1e-3, 5e-3) for ep in (2, 1)]


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


def test_failed_save_base_leaves_the_previous_manifest(tmp_path):
    cli.save_base(AdapterModel(SMALL_DIMS), tmp_path)
    manifest = (tmp_path / cli.BASE_CONFIG_FILE).read_bytes()
    (tmp_path / cli.BASE_WEIGHTS_FILE).unlink()
    (tmp_path / cli.BASE_WEIGHTS_FILE).mkdir()
    with pytest.raises(OSError):
        cli.save_base(AdapterModel(TINY_DIMS), tmp_path)
    assert (tmp_path / cli.BASE_CONFIG_FILE).read_bytes() == manifest
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [cli.BASE_CONFIG_FILE, cli.BASE_WEIGHTS_FILE])


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


def test_compose_unknown_adapter_fails(capsys, workspace):
    code, _, err = run_cli(capsys, "compose", *TASK_ARGS,
                           "--base", str(workspace["base"]),
                           "--adapter", f"a1={workspace['bn']}",
                           "--setup", "Stack(a1, ghost)")
    assert code == 1
    assert "ghost" in err


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


BASE_MANIFEST_EDITS = {
    "no-dims": _without_dims,
    "extra-dims-key": _extra_dims_key,
    "not-an-object": lambda doc: [doc],
}


@pytest.mark.parametrize("tag", sorted(BASE_MANIFEST_EDITS))
def test_malformed_base_manifest_exits_one(capsys, workspace, tag):
    base = _edited_base(workspace, tag, BASE_MANIFEST_EDITS[tag])
    with pytest.raises(cli.CheckpointError):
        cli.load_base(base)
    code, _, err = run_cli(capsys, "eval", *TASK_ARGS, "--base", str(base),
                           "--head-file", str(workspace["bn"] / "head.json"))
    assert code == 1
    assert "base" in err


def test_non_finite_base_weights_exit_one(capsys, workspace):
    base = workspace["root"] / "inf-base"
    shutil.copytree(workspace["base"], base)
    path = base / "base_weights.bin"
    blobs = {k: v.copy() for k, v in cli.read_weights(path).items()}
    blobs["layer0.ffn.w1"][0, 0] = np.inf
    cli.write_weights(path, blobs)
    with pytest.raises(cli.CheckpointError, match="layer0.ffn.w1"):
        cli.load_base(base)
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
    with pytest.raises(cli.CheckpointError, match=key):
        cli.load_head_file(cli.load_base(workspace["base"]), "h", bad)
    code, _, err = run_cli(capsys, "eval", *TASK_ARGS,
                           "--base", str(workspace["base"]), "--head-file", str(bad))
    assert code == 1
    assert key in err


def test_console_script_is_installed():
    exe = shutil.which("peftlab")
    assert exe, "console script 'peftlab' not on PATH"
    proc = subprocess.run([exe, "check-paper"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "MISMATCH" not in proc.stdout

"""Tests of the benchmark itself, at a tiny size so they run in seconds."""

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

import make_reference
import run
import tracer
import workloads as W

E2E_UNITS = dict(run.END_TO_END)
LAYER_UNITS = dict(tracer.per_layer_names())
COUNTS = [name for name, unit in tracer.per_layer_names() if unit in ("count", "B")]


@pytest.fixture(autouse=True)
def scratch_dirs(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK_DIR", tmp_path / "work")
    monkeypatch.setattr(run, "OUT_DIR", tmp_path / "out")


def bench(workload, trace=0, seed=0, reference=None):
    out = io.StringIO()
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.3",
            "--trace", str(trace)]
    with redirect_stdout(out):
        assert run.main(argv, size="tiny", reference=reference) == 0
    lines = out.getvalue().strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload, monkeypatch):
    def refuse(self):
        raise AssertionError("the untraced run installed the tracer")

    monkeypatch.setattr(tracer.Tracer, "install", refuse)
    result, info = bench(workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == E2E_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())
    env = info["env"]
    for key in ("nproc", "python", "numpy", "scipy", "blas", "blas_threads", "git_commit",
                "seed"):
        assert key in env
    details = info["details"]
    factor = details["host_factor"]
    assert factor > 0 and details["probe_samples"] >= 4
    raw = details["raw_metrics"]
    assert result["metrics"]["request_p50_ms"]["value"] == pytest.approx(
        raw["request_p50_ms"] * factor)
    assert result["metrics"]["ops_per_s"]["value"] == pytest.approx(raw["ops_per_s"] / factor)
    assert result["metrics"]["peak_rss_mb"]["value"] == raw["peak_rss_mb"]


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_traced_run_reports_per_layer_metrics_and_unwraps(workload, tmp_path):
    result, info = bench(workload, trace=1)
    assert result["correct"], info["details"]["failures"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == LAYER_UNITS
    assert tracer.find_wrappers() == []
    summary = json.loads((tmp_path / "out" / f"trace-{workload}-seed0.json").read_text())
    assert summary["spans"] == info["details"]["spans"] > 0
    encode = summary["measure"].get("registry.encode")
    if encode is not None:     # self time: the wrapper minus the encoder under it
        assert encode["self_s"] < encode["incl_s"]


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_per_layer_counts_repeat_exactly(workload):
    first, _ = bench(workload, trace=1, seed=3)
    second, _ = bench(workload, trace=1, seed=3)
    assert {k: first["metrics"][k] for k in COUNTS} == {k: second["metrics"][k] for k in COUNTS}


@pytest.mark.parametrize("workload", ["sweep-flat", "serve-compose"])
def test_corrupted_reference_fails_the_output_check(workload):
    reference = make_reference.build([workload], [0], size="tiny")
    ref = {"n_params": reference["n_params"], "seeds": reference[workload]["seeds"]}
    result, info = bench(workload, reference=ref)
    assert result["correct"] and info["details"]["reference_checked"]

    entry = ref["seeds"]["0"]
    key = sorted(entry)[0]
    if workload == "sweep-flat":
        entry[key][1] *= 1.01                      # final loss of one cell
    else:
        entry[key][0][2] += 1.0                    # logit sum of one setup
    result, info = bench(workload, reference=ref)
    assert not result["correct"] and result["failed"] >= 1
    assert any(key.split("|")[0] in msg for msg in info["details"]["failures"])


def test_wrong_parameter_count_fails_the_sweep():
    ref = run.load_reference("sweep-flat", "tiny")
    result, _ = bench("sweep-flat", reference=ref)
    assert result["correct"]
    ref["n_params"] = dict(ref["n_params"], seq_bn=ref["n_params"]["seq_bn"] + 1)
    result, info = bench("sweep-flat", reference=ref)
    assert not result["correct"]
    assert any("n_params" in msg for msg in info["details"]["failures"])


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert W.tail(list(range(1, 1001))) == (99, 990)
    assert W.tail(list(range(1, 101))) == (90, 90)
    assert W.tail(list(range(1, 13))) == (100, 12)


def test_without_sources_it_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "lifecycle", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not (tmp_path / ".bench_work").exists()

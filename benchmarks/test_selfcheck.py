"""Self-check of the benchmark at tiny sizes.

    python3 -m pytest -q benchmarks/test_selfcheck.py

Runs every workload once untraced and once traced with ``--tiny`` and
checks what BENCHMARK.json and the per-layer map rely on: the result line's
shape, every named metric with its unit, every expected span firing, and
every per-layer counter firing on at least one workload. Takes about half
a minute on two cores.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

from workloads import EXPECTED_SPANS, TRACED_PAIRS, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMED = {
    "paper_classical": {"setup_s": "s", "lbp_s_p50": "s/image",
                        "tikhonov_s_p50": "s/image", "tikhonov_iters": "count",
                        "lbp_psnr_db": "dB", "tikhonov_psnr_db": "dB"},
    "desk_dar": {"setup_s": "s", "fdunet_s_p50": "s/image",
                 "dar_s_p50": "s/image", "dar_s_tail": "s/image"},
    "desk_train": {"setup_s": "s", "dataset_entries_per_s": "entries/s",
                   "fdunet_train_samples_per_s": "images/s",
                   "denoiser_train_patches_per_s": "patches/s"},
}
COMMON = {"peak_rss_mb": "MB", "error_rate": "failed/attempted"}


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "benchmarks" / "run.py"), "--workload",
           workload, "--seed", "3", "--seconds", "0.5", "--trace",
           str(trace), "--tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          timeout=300)


@pytest.fixture(scope="module")
def runs():
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = _run(workload, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.splitlines()
            out[workload, trace] = (lines, json.loads(lines[-1]))
    return out


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_metric(runs, workload):
    lines, result = runs[workload, 0]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = {ln.split()[1]: ln.split()[3] for ln in lines
               if ln.startswith("metric ")}
    assert printed == {**NAMED[workload], **COMMON}
    env = json.loads(next(ln for ln in lines if ln.startswith("env "))[4:])
    assert env["seed"] == 3 and env["blas_threads"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_fires_expected_spans(runs, workload):
    lines, result = runs[workload, 1]
    assert result["correct"], [ln for ln in lines if ln.startswith("failure")]
    assert "trace silent -" in lines and "trace missing -" in lines
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for name, value in values.items():
        span, stat = name.rsplit(".", 1)
        if stat == "bwd_s":
            span += ".bwd"
        if span in EXPECTED_SPANS[workload]:
            assert value > 0, name
    assert values["trace.traced_items"] == TRACED_PAIRS[workload]
    assert values["trace.expected_silent"] == 0


def test_every_per_layer_counter_fires_somewhere(runs):
    for m in SPEC["per_layer"]:
        if m["name"] in ("trace.overhead", "trace.expected_silent"):
            continue
        assert any(runs[w, 1][1]["metrics"][m["name"]]["value"] > 0
                   for w in WORKLOADS), m["name"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("desk_dar", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""Tiny-size runs of every workload: each prints every metric BENCHMARK.json
names, with its unit, and passes its output checks."""

import json
import math
import shutil
import subprocess
import sys

import pytest

import common
import run
import training

BENCHMARK = json.loads((common.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}

STREAM_FIGURES = {
    "fps": "frames/s", "frame_ms_p50": "ms", "frame_ms_p99": "ms",
    "label_accuracy": "ratio", "skip_rate": "ratio",
    "alarm_latency_ticks": "ticks", "error_rate": "ratio", "setup_s": "s",
    "peak_rss_mb": "MB"}
FIGURES = {
    "stream_day": {**STREAM_FIGURES, "face_hit_rate": "ratio"},
    "stream_night": STREAM_FIGURES,
    "train": {"detect_train_s": "s", "train_s": "s", "eval_s": "s",
              "cv_accuracy": "ratio", "error_rate": "ratio", "setup_s": "s",
              "peak_rss_mb": "MB"},
}


@pytest.fixture
def tiny_training(monkeypatch):
    monkeypatch.setattr(training, "DATASET_FRAMES", 40)
    monkeypatch.setattr(training, "DETECT_TRAIN_ARGS",
                        ["--n-frames", "20", "--stage-rounds", "1,2",
                         "--feature-step", "6"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace, tiny_training):
    out = run.measure(workload, seed=1, seconds=0.01, trace=bool(trace))
    assert out.correct, out.problems
    line = run.result_line(out)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    units = {name: m["unit"] for name, m in line["metrics"].items()}
    assert units == (PER_LAYER if trace else END_TO_END)
    values = [m["value"] for m in line["metrics"].values()]
    assert all(math.isfinite(v) for v in values)
    if not trace:
        assert all(v > 0 for v in values)
        assert {k: u for k, (_, u) in out.report.items()} == FIGURES[workload]


def test_benchmark_file_shape():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in BENCHMARK["end_to_end"])


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(common.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "stream_day",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

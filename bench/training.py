"""Train workload: the wait for new models, as in-process cli.main
calls to detect-train, train and eval --folds 5 on a synthetic set made
from the seed. One cycle runs the three commands in that order. Cycles
rotate over DATASETS sets made from the seed, because the Jacobi sweeps,
the cascade's second-stage negatives and SMO all depend on the data: one
set alone would make a run's timing depend on which set the seed drew.

Sizes are scaled down from the ROADMAP's desk set (400 frames, stage rounds
4,10 at feature step 2, about 70 s a cycle) so that a run holds several
cycles, while each hot spot keeps its share: at 200 frames the Jacobi
eigensolver is still about 70% of train (as at 240), boosting most of
detect-train, and the five SMO fits a large part of eval.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import time
from pathlib import Path
from statistics import median

from fatiguedet import cli, detector, pipeline
from fatiguedet.errors import FatigueDetError
from fatiguedet.synth import SyntheticSpec, write_dataset

from common import Outcome, percentile, timed_setup
from tracing import layer_metrics

DATASET_FRAMES = 200
DATASETS = 3
DETECT_TRAIN_ARGS = ["--n-frames", "60", "--stage-rounds", "3,8",
                     "--feature-step", "3"]
FOLDS = 5
MIN_CV_ACCURACY = 0.90  # C08's floor
MODEL_FILES = ("cascade.txt", "models/model.pca1", "models/model.svm1",
               "models/model.pipe1")


def set_up(seed: int, work: Path) -> list[Path]:
    """Write the run's synthetic sets; returns their manifests."""
    return [write_dataset(SyntheticSpec(n_frames=DATASET_FRAMES,
                                        seed=DATASETS * seed + v),
                          work / f"data{v}")
            for v in range(DATASETS)]


def _reloads(path: Path, loader) -> bool:
    try:
        loader(path.read_text())
    except (OSError, ValueError, FatigueDetError):
        return False
    return True


def _cv_accuracy(path: Path) -> float:
    try:
        return float(json.loads(path.read_text())["mean_fold_accuracy"])
    except (OSError, ValueError, KeyError, TypeError):
        return 0.0


def commands(manifest: Path, work: Path, seed: int):
    """(name, argv, output check) for one cycle."""
    models = work / "models"
    report = work / "report.json"
    return [
        ("detect_train_s",
         ["detect-train", "--out", str(work / "cascade.txt"),
          *DETECT_TRAIN_ARGS, "--seed", str(seed)],
         lambda: _reloads(work / "cascade.txt", detector.load_cascade)),
        ("train_s",
         ["train", "--manifest", str(manifest), "--out-dir", str(models),
          "--seed", str(seed)],
         lambda: _reloads(models / "model.pipe1", pipeline.load_pipeline)),
        ("eval_s",
         ["eval", "--manifest", str(manifest), "--model",
          str(models / "model.pipe1"), "--folds", str(FOLDS), "--seed",
          str(seed), "--json-out", str(report)],
         lambda: _cv_accuracy(report) >= MIN_CV_ACCURACY),
    ]


def run_cycle(manifest: Path, work: Path, seed: int, out: Outcome,
              recorder=None) -> dict[str, float] | None:
    """Wall time of each command of one cycle, or None if one failed;
    `seed` seeds detect-train and the folds."""
    times = {}
    for name, argv, check in commands(manifest, work, seed):
        out.attempted += 1
        if recorder is not None:
            recorder.install()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                code = cli.main(argv)
                times[name] = time.perf_counter() - t0
        except Exception as exc:  # the command crashed
            code = repr(exc)
        finally:
            if recorder is not None:
                recorder.uninstall()
        if not (out.check(code == 0, f"{argv[0]} returned {code}")
                and out.check(check(), f"{argv[0]} output check failed")):
            out.failed += 1
            return None
    return times


def run(seed: int, seconds: float, work: Path, recorder=None) -> Outcome:
    """Build cycles for `seconds`. With a recorder, cycles alternate
    untraced and traced and the outcome holds the per-layer metrics."""
    out = Outcome()
    setup_s, manifests = timed_setup(lambda: set_up(seed, work))
    cycles: dict[bool, list[dict[str, float]]] = {False: [], True: []}
    accuracies: list[float] = []
    digests: dict[str, str] = {}
    deadline = time.perf_counter() + seconds
    for k in itertools.count():
        # a traced cycle repeats the set of the untraced cycle before it,
        # so that the two give the tracing overhead
        v = (k if recorder is None else k // 2) % DATASETS
        traced = recorder is not None and len(cycles[False]) > len(
            cycles[True])
        times = run_cycle(manifests[v], work, DATASETS * seed + v, out,
                          recorder if traced else None)
        if times is not None:
            cycles[traced].append(times)
            accuracies.append(_cv_accuracy(work / "report.json"))
            if k == 0:
                # reported, not gated: a legitimate solver change may
                # change model bytes
                digests = {name: hashlib.sha256(
                    (work / name).read_bytes()).hexdigest()
                    for name in MODEL_FILES}
        if time.perf_counter() >= deadline and (
                out.failed or cycles[False] and (
                    recorder is None or cycles[True])):
            break
    if not cycles[False]:
        return out

    cv_accuracy = sum(accuracies) / len(accuracies)
    out.notes = {"dataset_frames": DATASET_FRAMES,
                 "untraced_cycles": len(cycles[False]),
                 "traced_cycles": len(cycles[True]),
                 "model_sha256_first_cycle": digests}
    walls = {k: [sum(c.values()) for c in v] for k, v in cycles.items()}
    if recorder is not None:
        out.notes["absent_probes"] = recorder.absent
        out.metrics = layer_metrics(recorder,
                                    DATASET_FRAMES * len(walls[True]),
                                    walls[True], walls[False])
        return out

    out.report = {name: (median([c[name] for c in cycles[False]]), "s")
                  for name in ("detect_train_s", "train_s", "eval_s")}
    out.report["cv_accuracy"] = (cv_accuracy, "ratio")
    out.metrics = {
        "ops_per_s": (median([1.0 / w for w in walls[False]]), "1/s"),
        "op_ms_p50": (1e3 * median(walls[False]), "ms"),
        "op_ms_p99": (1e3 * percentile(walls[False], 99.0), "ms"),
        "accuracy": (cv_accuracy, "ratio"),
        "setup_s": (setup_s, "s"),
    }
    return out

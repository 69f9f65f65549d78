#!/usr/bin/env python3
"""Print the sha256 of the model and trace files of the C09 desk run.

Makes the C09 desk set (400 frames, seed 100) in a temporary directory,
then runs `train --seed 7`, `simulate`, `simulate --t-low 3 --water-spray` and
`eval --folds 5 --seed 0 --json-out` through `cli.main`. It then runs the
detector end to end:
`detect-train --n-frames 60 --stage-rounds 3,8 --feature-step 3 --seed 7`,
`train --seed 7 --detector` with that cascade on the same set, and
`simulate` with the resulting PIPE1. Last it prints the sha256 of the
training feature values: the values that `train_stage`'s block scorer
gives the windows `detect-train --n-frames 60 --seed 7` trains on and
`feature_grid(24, 24, 3)`, as an (n windows, F features) array, and then
the trace of `simulate --sample-period 0.1 --alarm-duration 1
--t-low 3` with the first PIPE1, which pins the alert timing off period 1,
and the PIPE1 and trace of `train --seed 7` and `simulate` on a 60-frame
`--light dim` set (seed 101), whose frames take the contrast enhancement
(CLAHE) path of preprocessing that the desk set never reaches. Those runs
pass each manifest box to preprocessing, so the dim lines pin the region
CLAHE path: only the box's tile block is denoised and equalized, and its
pixels must equal those cut from a whole enhanced frame. The dim trace
alone would not pin that path: its labels survive small pixel changes,
while the PCA basis in the PIPE1 does not.
Two commits whose printed digests agree write byte-identical model,
cascade, trace and cross-validation report files and compute the same
training values, which is how a refactor or a scan change shows that it
changed no output.

Model bytes are reproducible for a given BLAS thread count: the
`np.linalg.eigh` call of the PCA fit rounds its last bits differently with
the number of threads. The script therefore pins BLAS and OpenMP to one
thread before numpy is imported, as the benchmark does, so its digests do
not depend on the machine's core count or the caller's environment.

The script imports fatiguedet from its own checkout's `src/` and stops if
the package resolves anywhere else, so it needs no PYTHONPATH:

    python3 scripts/model_digests.py
"""

import contextlib
import hashlib
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (imported after the thread pin)

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))
import fatiguedet  # noqa: E402

if Path(fatiguedet.__file__).resolve().parent != SRC / "fatiguedet":
    raise SystemExit(f"fatiguedet imported from {fatiguedet.__file__}, "
                     f"not from {SRC}")

from fatiguedet.cli import main as cli_main  # noqa: E402
from fatiguedet.detector import (  # noqa: E402
    _CHUNK, _stack_scorer, feature_grid)
from fatiguedet.synth import (  # noqa: E402
    SyntheticSpec, detector_windows, generate, write_dataset)

FILES = ("model.pca1", "model.svm1", "model.pipe1", "trace.txt",
         "trace_spray.txt", "cascade.txt", "detector/model.pipe1",
         "detector/trace.txt", "eval.json")
# printed after the feature_values line
LATER_FILES = ("trace_period.txt", "dim/model.pipe1", "dim/trace.txt")


def _run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(sys.stderr):
        code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"fatiguedet {argv[0]} exited {code}")


def feature_values_digest() -> str:
    """sha256 of the feature values `detect-train --n-frames 60
    --feature-step 3 --seed 7` starts from: its positive and negative
    windows against the whole step-3 pool."""
    records = generate(SyntheticSpec(n_frames=60, fraction_fatigued=0.5,
                                     seed=7))
    pos, neg = detector_windows(records, seed=8)
    score = _stack_scorer(np.concatenate([pos, neg]))
    pool = feature_grid(24, 24, 3)
    values = np.empty((len(pool), len(pos) + len(neg)))
    for lo in range(0, len(pool), _CHUNK):
        values[lo:lo + _CHUNK] = score(pool[lo:lo + _CHUNK])
    # the bytes of the (n, F) layout, one row per window
    return hashlib.sha256(values.T.tobytes()).hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        manifest = write_dataset(
            SyntheticSpec(n_frames=400, fraction_fatigued=0.5,
                          noise_sigma=8.0, seed=100), root / "desk")
        out = root / "out"
        model = str(out / "model.pipe1")
        _run(["train", "--manifest", str(manifest), "--out-dir", str(out),
              "--seed", "7"])
        _run(["simulate", "--manifest", str(manifest), "--model", model,
              "--out", str(out / "trace.txt")])
        _run(["simulate", "--manifest", str(manifest), "--model", model,
              "--t-low", "3", "--water-spray",
              "--out", str(out / "trace_spray.txt")])
        _run(["eval", "--manifest", str(manifest), "--model", model,
              "--folds", "5", "--seed", "0",
              "--json-out", str(out / "eval.json")])
        cascade = str(out / "cascade.txt")
        _run(["detect-train", "--out", cascade, "--n-frames", "60",
              "--stage-rounds", "3,8", "--feature-step", "3", "--seed", "7"])
        det = out / "detector"
        _run(["train", "--manifest", str(manifest), "--out-dir", str(det),
              "--seed", "7", "--detector", cascade])
        _run(["simulate", "--manifest", str(manifest), "--model",
              str(det / "model.pipe1"), "--out", str(det / "trace.txt")])
        _run(["simulate", "--manifest", str(manifest), "--model", model,
              "--sample-period", "0.1", "--alarm-duration", "1",
              "--t-low", "3", "--out", str(out / "trace_period.txt")])
        dim = write_dataset(
            SyntheticSpec(n_frames=60, fraction_fatigued=0.5,
                          light_level="dim", seed=101), root / "dim")
        _run(["train", "--manifest", str(dim), "--out-dir",
              str(out / "dim"), "--seed", "7"])
        _run(["simulate", "--manifest", str(dim), "--model",
              str(out / "dim" / "model.pipe1"),
              "--out", str(out / "dim" / "trace.txt")])
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in FILES + LATER_FILES}
    for name in FILES:
        print(f"{digests[name]}  {name}")
    print(f"{feature_values_digest()}  feature_values")
    for name in LATER_FILES:
        print(f"{digests[name]}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

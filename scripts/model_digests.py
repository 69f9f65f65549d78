#!/usr/bin/env python3
"""Print the sha256 of the model and trace files of the C09 desk run.

Makes the C09 desk set (400 frames, seed 100) in a temporary directory,
then runs `train --seed 7`, `simulate` and `simulate --t-low 3
--water-spray` through `cli.main`. Two commits whose printed digests agree
write byte-identical model and trace files, which is how a refactor shows
that it changed no output.

    PYTHONPATH=src python3 scripts/model_digests.py
"""

import contextlib
import hashlib
import sys
import tempfile
from pathlib import Path

from fatiguedet.cli import main as cli_main
from fatiguedet.synth import SyntheticSpec, write_dataset

FILES = ("model.pca1", "model.svm1", "model.pipe1", "trace.txt",
         "trace_spray.txt")


def _run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(sys.stderr):
        code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"fatiguedet {argv[0]} exited {code}")


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
        for name in FILES:
            digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
            print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""scripts/model_digests.py against the digests it pins, run in a
subprocess so that its one-thread BLAS pin holds whatever this process has
imported."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_model_digests_match_the_pinned_file():
    # all 13 lines: the model, cascade, trace and report files of the C09
    # desk run and the training feature values
    run = subprocess.run([sys.executable, str(SCRIPTS / "model_digests.py")],
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    assert run.stdout == (SCRIPTS / "model_digests.txt").read_text()

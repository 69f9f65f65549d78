"""Helpers shared by the workloads: checkout layout, statistics, repeated
set-up timing, process memory and the environment record."""

from __future__ import annotations

import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
FIXTURES = BENCH_DIR / "fixtures"
WORK = BENCH_DIR / ".work"

# Set-up is repeated this many times per run and its median reported, so
# that work moved out of the timed loop into set-up shows in setup_s.
SETUP_REPEATS = 3

# The program is single-threaded; BLAS and OpenMP are pinned to one thread
# (at most nproc) so that runs on a shared machine do not contend.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
THREADS = 1


def pin_threads() -> None:
    """Pin BLAS/OpenMP threads; call before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)


class CheckoutError(RuntimeError):
    """The checkout does not hold the package sources the benchmark needs."""


def use_checkout_package() -> None:
    """Import fatiguedet from this checkout's src/ and nowhere else."""
    if not (SRC / "fatiguedet" / "__init__.py").is_file():
        raise CheckoutError(f"no package sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fatiguedet

    if Path(fatiguedet.__file__).resolve().parent != SRC / "fatiguedet":
        raise CheckoutError(f"fatiguedet imported from {fatiguedet.__file__}, "
                            f"not from {SRC}")


def work_dir(name: str) -> Path:
    """A fresh scratch directory inside the checkout, removed by the caller."""
    path = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (q in [0, 100]) of a non-empty list."""
    data = sorted(values)
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def timed_setup(build, repeats: int = SETUP_REPEATS):
    """Run build() `repeats` times; return (median seconds, last result)."""
    times = []
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = build()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def peak_rss_mb() -> float:
    """Peak resident set size of this process (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


@dataclass
class Outcome:
    """What one workload run measured and checked.

    attempted/failed count operations: frames for the streams, CLI commands
    for train. `metrics` maps metric name to (value, unit); `report` holds
    the workload's own figures by name with their units.
    """

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    report: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0 and self.attempted > 0

    def check(self, ok: bool, problem: str) -> bool:
        if not ok:
            self.problems.append(problem)
        return ok

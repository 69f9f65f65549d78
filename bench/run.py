"""Benchmark of fatiguedet as a live camera stream and as model building.

Run from the root of a checkout:

    python3 bench/run.py --workload stream_day --seed 1 --seconds 30 --trace 0

Workloads (see README.md for why each exists):
  stream_day    normal-light camera stream, cascade detector on
  stream_night  dim camera stream with ground-truth boxes, detector off
  train         detect-train, train and eval --folds 5 through cli.main
  all           the three above, each in its own process

--trace 0 measures the end-to-end metrics untraced; --trace 1 is the
separate traced run that gives the per-layer metrics. Earlier lines of
standard output give the workload's figures by name with their units; the
last line is one JSON object with the keys correct, attempted, failed and
metrics. Exit status: 0 when every output check passed, 1 when one failed,
2 when the checkout holds no package sources to measure.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys

import common

WORKLOADS = ("stream_day", "stream_night", "train")


def measure(workload: str, seed: int, seconds: float,
            trace: bool) -> common.Outcome:
    common.use_checkout_package()
    import streams
    import tracing
    import training

    recorder = tracing.Recorder() if trace else None
    if workload == "train":
        work = common.work_dir("train")
        try:
            out = training.run(seed, seconds, work, recorder)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    else:
        out = streams.run(workload, seed, seconds, recorder)
    if recorder is not None:
        recorder.write(common.WORK / "spans" / f"{workload}-seed{seed}.jsonl")
    peak = (common.peak_rss_mb(), "MB")
    if out.metrics and not trace:
        out.metrics["peak_rss_mb"] = peak
        out.report["setup_s"] = out.metrics["setup_s"]
    out.report["peak_rss_mb"] = peak
    out.report["error_rate"] = (out.failed / max(out.attempted, 1), "ratio")
    return out


def result_line(out: common.Outcome) -> dict:
    return {"correct": out.correct, "attempted": out.attempted,
            "failed": out.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in out.metrics.items()}}


def run_one(args) -> int:
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, (value, unit) in out.report.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for problem in out.problems:
        print(f"{args.workload} CHECK FAILED: {problem}")
    print(json.dumps({"report": {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": common.environment(),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in out.report.items()},
        "problems": out.problems, **out.notes}}))
    print(json.dumps(result_line(out)))
    return 0 if out.correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process, so peak_rss_mb and setup_s
    belong to that workload alone."""
    common.use_checkout_package()
    combined = common.Outcome()
    for workload in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], stdout=subprocess.PIPE, text=True,
            check=False)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            last = json.loads(lines[-1])
        except (IndexError, ValueError):
            combined.check(False, f"{workload} printed no result")
            continue
        combined.attempted += last["attempted"]
        combined.failed += last["failed"]
        combined.check(child.returncode == 0 and last["correct"],
                       f"{workload} failed its checks")
        for name, m in last["metrics"].items():
            combined.metrics[f"{workload}.{name}"] = (m["value"], m["unit"])
    print(json.dumps(result_line(combined)))
    return 0 if combined.correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except common.CheckoutError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    common.pin_threads()
    sys.exit(main())

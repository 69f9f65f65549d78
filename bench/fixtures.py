"""Rebuild the frozen stream inputs and compare them with fixtures/.

The stream workloads read fixed models instead of training their own, so
their numbers do not move when training code changes:

- stream_night.pipe1: PCA+SVM trained with ground-truth boxes on a mix of
  normal-light and dim frames (a model trained on day frames alone reads
  dim frames at chance).
- stream_day.pipe1: the same classifier plus the C05 cascade
  (120 frames, seed 0, stage rounds 4,10).
- digests.txt: sha256 of the rendered trace of one pass of every stream
  variant, the reference each benchmark run is checked against.

Usage, from the root of a checkout (about ten minutes on two cores):

    python3 bench/fixtures.py           # rebuild into bench/.work, diff
    python3 bench/fixtures.py --write   # rebuild and replace fixtures/
"""

from __future__ import annotations

import argparse
import dataclasses
import difflib
import shutil
import sys

import common

MODEL_FRAMES = 150  # per light level
MODEL_SEEDS = {"normal": 300, "dim": 301}
CASCADE = {"n_frames": 120, "seed": 0, "stage_rounds": (4, 10)}  # C05


def build_models(work) -> dict[str, str]:
    from fatiguedet import pipeline
    from fatiguedet.synth import (SyntheticSpec, train_face_cascade,
                                  write_dataset)

    records = []
    for light, seed in MODEL_SEEDS.items():
        spec = SyntheticSpec(n_frames=MODEL_FRAMES, light_level=light,
                             seed=seed)
        records += pipeline.ingest(write_dataset(spec, work / light))
    model = pipeline.fit_pipeline(records, pipeline.PipelineConfig())
    cascade = train_face_cascade(**CASCADE)
    return {
        "stream_night.pipe1": pipeline.save_pipeline(model),
        "stream_day.pipe1": pipeline.save_pipeline(
            dataclasses.replace(model, cascade=cascade)),
    }


def build_digests(models: dict[str, str]) -> str:
    """Reference digests, with each variant's checked figures logged."""
    import streams

    lines = ["# workload variant sha256-of-one-pass-trace"]
    for name, spec in streams.SPECS.items():
        for variant in range(streams.VARIANTS):
            inputs = streams.set_up(spec, variant, models[spec.model_file])
            stream, _, _ = streams.run_pass(inputs)
            truth = [rec.label for rec in inputs.frames]
            accuracy = streams.label_accuracy(stream, truth)
            hits = ""
            if inputs.model.cascade is not None:
                rate = sum(streams.face_hits(inputs)) / len(truth)
                hits = f" face_hit_rate={rate:.4f}"
            print(f"{name} {variant}: frames={len(truth)} "
                  f"accuracy={accuracy:.4f} skipped={stream.skipped} "
                  f"onsets={streams.onset_latencies(truth, stream)}{hits}",
                  file=sys.stderr)
            lines.append(f"{name} {variant} {streams.trace_digest(stream)}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="replace fixtures/ with the rebuilt files")
    args = parser.parse_args(argv)
    common.use_checkout_package()
    work = common.work_dir("fixtures")
    try:
        built = build_models(work)
        built["digests.txt"] = build_digests(built)
        if args.write:
            common.FIXTURES.mkdir(exist_ok=True)
            for name, text in built.items():
                (common.FIXTURES / name).write_text(text)
            print(f"wrote {len(built)} files to {common.FIXTURES}")
            return 0
        differ = 0
        for name, text in built.items():
            path = common.FIXTURES / name
            old = path.read_text() if path.exists() else ""
            if old != text:
                differ += 1
                diff = list(difflib.unified_diff(
                    old.splitlines(), text.splitlines(), f"fixtures/{name}",
                    f"rebuilt/{name}", lineterm="", n=0))
                print("\n".join(diff[:40]))
        print(f"{differ} of {len(built)} fixture files differ")
        return 1 if differ else 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    common.pin_threads()
    sys.exit(main())

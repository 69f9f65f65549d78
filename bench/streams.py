"""Stream workloads: one camera feeding pipeline.infer_stream in a closed
loop (the next frame is pulled when the previous tick is done).

A pass is a fixed sequence of alternating alert and fatigued episodes. Each
fatigued episode is long enough to climb past t_high and hold there until
StopVehicle, and each alert episode long enough for the running sum to fall
back to 0, so every onset is clean and AlarmOn, ReduceSpeed, StopVehicle
and AlarmOff all fire. A run repeats the pass until its time is up; every
pass must render the same trace bytes as the frozen reference.

The workload seed picks one of VARIANTS stream variants (seed mod
VARIANTS). The reference digest of each variant's trace is frozen in
fixtures/digests.txt, so every run is checked against recorded output.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from statistics import median

import numpy as np
from fatiguedet import fatigue, imaging, pipeline
from fatiguedet.synth import SyntheticSpec, generate

from common import FIXTURES, Outcome, percentile, timed_setup
from tracing import layer_metrics, rebind

VARIANTS = 32
EPISODES = 3  # fatigued episodes per pass, each between two alert episodes
ALERT_LEN = (48, 64)
FATIGUED_LEN = (24, 32)
WARMUP_FRAMES = 10
MIN_LABEL_ACCURACY = 0.90  # C08's accuracy floor
MIN_FACE_HIT_RATE = 0.95  # C05: 95 of 100 held-out faces found
HIT_IOU = 0.4  # C05's match rule
EVENT_KINDS = ("AlarmOn", "ReduceSpeed", "StopVehicle", "AlarmOff")


@dataclass(frozen=True)
class StreamSpec:
    name: str
    light: str  # synth light level
    model_file: str
    gt_boxes: bool  # ground-truth boxes stand in for the detector
    seed_base: int


SPECS = {
    "stream_day": StreamSpec("stream_day", "normal", "stream_day.pipe1",
                             False, 10_000),
    "stream_night": StreamSpec("stream_night", "dim", "stream_night.pipe1",
                               True, 50_000),
}


def episode_labels(variant: int) -> list[int]:
    """Per-frame labels of one pass: alert, (fatigued, alert) x EPISODES."""
    rng = np.random.default_rng([7, variant])
    labels: list[int] = []
    for _ in range(EPISODES):
        labels += [-1] * int(rng.integers(ALERT_LEN[0], ALERT_LEN[1] + 1))
        labels += [1] * int(rng.integers(FATIGUED_LEN[0],
                                         FATIGUED_LEN[1] + 1))
    labels += [-1] * int(rng.integers(ALERT_LEN[0], ALERT_LEN[1] + 1))
    return labels


def make_frames(spec: StreamSpec, variant: int):
    """Synthetic frames of one pass, each with its ground-truth label/box."""
    return [generate(SyntheticSpec(
                n_frames=1, fraction_fatigued=1.0 if label == 1 else 0.0,
                light_level=spec.light,
                seed=spec.seed_base + 1000 * variant + i))[0]
            for i, label in enumerate(episode_labels(variant))]


class CameraFeed:
    """Encoded frames, each decoded with load_pnm when it is pulled; the
    pull time of every frame is stamped."""

    def __init__(self, encoded: list[bytes], clock=time.perf_counter):
        self.encoded = encoded
        self.pulls: list[float] = []
        self._clock = clock

    def __iter__(self):
        for data in self.encoded:
            self.pulls.append(self._clock())
            yield imaging.load_pnm(data)


def frame_latencies(pulls: list[float], dones: list[float]) -> list[float]:
    """Frame i's latency: from its pull to the return of alert_step for
    tick i. A stream that reads ahead or folds the alert unit late shows it
    here. Raises ValueError unless there is one completion per frame."""
    if len(pulls) != len(dones):
        raise ValueError(f"{len(dones)} completion stamps for "
                         f"{len(pulls)} frames")
    return [d - p for p, d in zip(pulls, dones)]


def completion_stamps(stamps: list[float], clock=time.perf_counter):
    """Install a hook that stamps each return of fatigue.alert_step;
    returns the function that removes it."""
    def make(fn):
        def stamped(*args, **kwargs):
            result = fn(*args, **kwargs)
            stamps.append(clock())
            return result
        return stamped

    return rebind("fatigue", "alert_step", make)


def trace_digest(stream) -> str:
    return hashlib.sha256(stream.render().encode()).hexdigest()


def load_digests() -> dict[tuple[str, int], str]:
    table = {}
    for line in (FIXTURES / "digests.txt").read_text().splitlines():
        if line and not line.startswith("#"):
            workload, variant, digest = line.split()
            table[(workload, int(variant))] = digest
    return table


def label_accuracy(stream, truth: list[int]) -> float:
    """Share of non-skipped frames whose label equals the ground truth."""
    scored = [(p, t) for p, t in zip(stream.labels, truth) if p is not None]
    return sum(p == t for p, t in scored) / max(len(scored), 1)


def onset_latencies(labels_truth: list[int], stream) -> list[int]:
    """Ticks from each fatigue onset to the next AlarmOn, counting both."""
    tick_of = {tick.t: i for i, tick in enumerate(stream.trace.ticks)}
    alarm_ticks = sorted(tick_of[ev.t] for ev in stream.trace.events
                         if ev.kind == "AlarmOn")
    out = []
    for i, label in enumerate(labels_truth):
        if label == 1 and (i == 0 or labels_truth[i - 1] == -1):
            later = [t for t in alarm_ticks if t >= i]
            if later:
                out.append(later[0] - i + 1)
    return out


@dataclass
class Inputs:
    model: object
    frames: list
    encoded: list[bytes]
    boxes: list | None


def set_up(spec: StreamSpec, variant: int, model_text: str) -> Inputs:
    model = pipeline.load_pipeline(model_text)
    frames = make_frames(spec, variant)
    encoded = [imaging.save_pnm(rec.image) for rec in frames]
    boxes = [rec.box for rec in frames] if spec.gt_boxes else None
    return Inputs(model, frames, encoded, boxes)


def run_pass(inputs: Inputs, encoded=None):
    """One infer_stream call over the pass; returns (stream, feed, wall)."""
    feed = CameraFeed(inputs.encoded if encoded is None else encoded)
    t0 = time.perf_counter()
    stream = pipeline.infer_stream(inputs.model, feed, fatigue.AlertConfig(),
                                   boxes=inputs.boxes)
    return stream, feed, time.perf_counter() - t0


def face_hits(inputs: Inputs) -> list[bool]:
    """Whether each frame's chosen box matches its ground truth (IoU >= 0.4);
    computed after the timed passes, outside them."""
    model = inputs.model
    hits = []
    for rec in inputs.frames:
        img = imaging.preprocess(rec.image, model.preprocess)
        box = pipeline.frame_box(img, model.cascade, model.scan, None)
        hits.append(box is not None and box.iou(rec.box) >= HIT_IOU)
    return hits


def timed_pass(inputs: Inputs, recorder=None):
    """One pass, traced when a recorder is given and otherwise with the
    completion stamps; returns (stream, latencies or None, wall)."""
    dones: list[float] = []
    if recorder is not None:
        recorder.install()
    else:
        restore = completion_stamps(dones)
    try:
        stream, feed, wall = run_pass(inputs)
    finally:
        if recorder is not None:
            recorder.uninstall()
        else:
            restore()
    if recorder is not None:
        return stream, None, wall
    return stream, frame_latencies(feed.pulls, dones), wall


def run(workload: str, seed: int, seconds: float, recorder=None) -> Outcome:
    """Stream passes for `seconds`. With a recorder, passes alternate
    untraced and traced and the outcome holds the per-layer metrics."""
    spec = SPECS[workload]
    variant = seed % VARIANTS
    out = Outcome()
    setup_s, inputs = timed_setup(lambda: set_up(
        spec, variant, (FIXTURES / spec.model_file).read_text()))
    expected = load_digests().get((workload, variant))
    out.check(expected is not None,
              f"no reference digest for {workload} variant {variant}")
    run_pass(inputs, inputs.encoded[:WARMUP_FRAMES])

    truth = [rec.label for rec in inputs.frames]
    n = len(truth)
    walls: dict[bool, list[float]] = {False: [], True: []}
    latencies: list[float] = []
    first = None
    deadline = time.perf_counter() + seconds
    while True:
        traced = recorder is not None and len(walls[False]) > len(walls[True])
        out.attempted += n
        try:
            stream, lat, wall = timed_pass(inputs,
                                           recorder if traced else None)
        except Exception as exc:  # the program failed the whole pass
            out.check(False, f"pass failed: {exc!r}")
            out.failed += n
        else:
            if out.check(trace_digest(stream) == expected,
                         "trace differs from the reference digest"):
                walls[traced].append(wall)
                latencies += lat or []
                first = first or stream
            else:
                out.failed += n
        if time.perf_counter() >= deadline and (
                out.failed or walls[False] and (
                    recorder is None or walls[True])):
            break
    if first is None:
        return out

    accuracy = label_accuracy(first, truth)
    onsets = onset_latencies(truth, first)
    fired = {ev.kind.value for ev in first.trace.events}
    out.check(accuracy >= MIN_LABEL_ACCURACY,
              f"label accuracy {accuracy:.4f} < {MIN_LABEL_ACCURACY}")
    out.check(len(onsets) == EPISODES,
              f"{len(onsets)} of {EPISODES} fatigue onsets raised AlarmOn")
    out.check(all(k in fired for k in EVENT_KINDS),
              f"events fired: {sorted(fired)}; expected all of {EVENT_KINDS}")
    out.notes = {"variant": variant, "frames_per_pass": n,
                 "untraced_passes": len(walls[False]),
                 "traced_passes": len(walls[True]),
                 "trace_sha256": expected}
    if recorder is not None:
        out.notes["absent_probes"] = recorder.absent
        out.metrics = layer_metrics(recorder, n * len(walls[True]),
                                    walls[True], walls[False])
        return out

    fps = median([n / wall for wall in walls[False]])
    p50 = 1e3 * median(latencies)
    p99 = 1e3 * percentile(latencies, 99.0)
    out.notes["latency_samples"] = len(latencies)
    out.report = {
        "fps": (fps, "frames/s"),
        "frame_ms_p50": (p50, "ms"),
        "frame_ms_p99": (p99, "ms"),
        "label_accuracy": (accuracy, "ratio"),
        "skip_rate": (first.skipped / n, "ratio"),
        "alarm_latency_ticks": (sum(onsets) / max(len(onsets), 1), "ticks"),
    }
    if inputs.model.cascade is not None:
        face_hit_rate = sum(face_hits(inputs)) / n
        out.check(face_hit_rate >= MIN_FACE_HIT_RATE,
                  f"face hit rate {face_hit_rate:.4f} < {MIN_FACE_HIT_RATE}")
        out.report["face_hit_rate"] = (face_hit_rate, "ratio")
    out.metrics = {
        "ops_per_s": (fps, "1/s"),
        "op_ms_p50": (p50, "ms"),
        "op_ms_p99": (p99, "ms"),
        "accuracy": (accuracy, "ratio"),
        "setup_s": (setup_s, "s"),
    }
    return out

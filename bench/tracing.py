"""Traced-run recorder: spans around calls into the package's layers.

Each probed function is replaced, in every fatiguedet module that holds a
reference to it, by a wrapper that records a span (name, start, end,
parent). Replacing every reference matters because callers look functions
up in different places: `pipeline` binds `preprocess` and `detect` at
import, while `imaging.preprocess` finds `denoise` as a module global at
call time. Spans stay in memory and are written out when the run ends.
Nothing under src/ changes.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

LAYERS = ("imaging", "detector", "features", "classifier", "fatigue",
          "synth", "pipeline", "cli")


def _alarm_ons(args, kwargs, result):
    return sum(1 for ev in result[1] if ev.kind == "AlarmOn")


def _negatives(args, kwargs, result):
    return len(args[1] if len(args) > 1 else kwargs["negatives"])


# probe -> optional function of (args, kwargs, result) giving a count or a
# value to keep on the span
PROBES = {
    "imaging.load_pnm": None,
    "imaging.preprocess": None,
    "imaging.denoise": None,
    "imaging.enhance_contrast": None,
    "imaging.integral_image": None,
    "detector.detect": lambda a, k, r: len(r),
    "detector.feature_value_matrix": None,
    "detector.boost": lambda a, k, r: len(r.rounds),
    "detector.train_stage": _negatives,
    "synth.detector_windows": None,
    "features.frame_features": None,
    "features.pca_project": None,
    "features.pca_fit": lambda a, k, r: r.k,
    "features.jacobi_eigh": None,
    "classifier.svm_train": lambda a, k, r: len(r.dual_coef),
    "classifier.svm_predict": None,
    "classifier.svm_decision_many": None,
    "fatigue.alert_step": _alarm_ons,
    "pipeline.ingest": None,
    "pipeline.extract_features": None,
    "pipeline.load_pipeline": None,
    "pipeline.save_pipeline": None,
    "pipeline.infer_stream": None,
    "cli.main": None,
}


def rebind(module_name: str, attr: str, make_wrapper):
    """Replace fatiguedet.<module_name>.<attr> wherever a package module
    refers to it; returns a function that restores the originals, or None
    when the name no longer exists."""
    module = sys.modules.get(f"fatiguedet.{module_name}")
    original = getattr(module, attr, None) if module else None
    if original is None:
        return None
    wrapper = make_wrapper(original)
    replaced = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("fatiguedet"):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
                replaced.append((mod, key))

    def restore():
        for mod, key in replaced:
            setattr(mod, key, original)

    return restore


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    error: bool = False
    value: float | None = None


class Recorder:
    """Collects spans from the probed functions while installed."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._clock = clock
        self._restore: list = []

    def _wrapper(self, name: str, note):
        spans, stack, clock = self.spans, self._stack, self._clock

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                span = Span(name, clock(), 0.0, stack[-1] if stack else -1)
                stack.append(len(spans))
                spans.append(span)
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    span.error = True
                    raise
                finally:
                    span.end = clock()
                    stack.pop()
                if note is not None:
                    try:
                        span.value = note(args, kwargs, result)
                    except (AttributeError, TypeError, IndexError, KeyError):
                        span.value = None
                return result
            return traced
        return make

    def install(self, probes=PROBES) -> None:
        for name, note in probes.items():
            module_name, attr = name.split(".")
            restore = rebind(module_name, attr, self._wrapper(name, note))
            if restore is None:
                if name not in self.absent:
                    self.absent.append(name)
            else:
                self._restore.append(restore)

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "error": s.error}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


@dataclass
class ProbeStats:
    calls: int = 0
    total: float = 0.0
    self_total: float = 0.0
    errors: int = 0
    values: tuple = ()


def probe_stats(spans: list[Span]) -> dict[str, ProbeStats]:
    selfs = self_times(spans)
    stats: dict[str, ProbeStats] = {name: ProbeStats() for name in PROBES}
    values: dict[str, list] = defaultdict(list)
    for s, own in zip(spans, selfs):
        st = stats.setdefault(s.name, ProbeStats())
        st.calls += 1
        st.total += s.end - s.start
        st.self_total += own
        st.errors += s.error
        if s.value is not None:
            values[s.name].append(s.value)
    for name, vals in values.items():
        stats[name].values = tuple(vals)
    return stats


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean(vals) -> float:
    return _per(sum(vals), len(vals))


# stages per detect-train cascade; train_stage calls come in groups of this
TRAIN_STAGES = 2

# (metric, unit, function of (stats, frames, reps)). `frames` counts the
# frames the traced repetitions handled (streamed frames, or dataset frames
# times cycles for train); `reps` counts traced passes or cycles.
PER_LAYER = [
    ("imaging.load_pnm.ms_per_frame", "ms",
     lambda st, f, r: 1e3 * _per(st["imaging.load_pnm"].total, f)),
    ("imaging.preprocess.self_ms_per_frame", "ms",
     lambda st, f, r: 1e3 * _per(st["imaging.preprocess"].self_total, f)),
    ("imaging.denoise.ms_per_frame", "ms",
     lambda st, f, r: 1e3 * _per(st["imaging.denoise"].total, f)),
    ("imaging.enhance_contrast.ms_per_call", "ms",
     lambda st, f, r: 1e3 * _per(st["imaging.enhance_contrast"].total,
                                    st["imaging.enhance_contrast"].calls)),
    ("imaging.enhance_contrast.calls_per_frame", "count",
     lambda st, f, r: _per(st["imaging.enhance_contrast"].calls, f)),
    ("imaging.integral_image.ms_per_frame", "ms",
     lambda st, f, r: 1e3 * _per(st["imaging.integral_image"].total, f)),
    ("detector.detect.self_ms_per_frame", "ms",
     lambda st, f, r: 1e3 * _per(st["detector.detect"].self_total, f)),
    ("detector.detect.boxes_per_frame", "count",
     lambda st, f, r: _per(sum(st["detector.detect"].values), f)),
    ("synth.detector_windows.s", "s",
     lambda st, f, r: _per(st["synth.detector_windows"].total, r)),
    ("detector.feature_value_matrix.s", "s",
     lambda st, f, r: _per(st["detector.feature_value_matrix"].total, r)),
    ("detector.boost.ms_per_round", "ms",
     lambda st, f, r: 1e3 * _per(st["detector.boost"].total,
                                    sum(st["detector.boost"].values))),
] + [
    (f"detector.train_stage.negatives.{i}", "count",
     lambda st, f, r, i=i: _mean(
         st["detector.train_stage"].values[i::TRAIN_STAGES]))
    for i in range(TRAIN_STAGES)
] + [
    ("features.frame_features.ms_per_frame", "ms",
     lambda st, f, r: 1e3 * _per(st["features.frame_features"].total, f)),
    ("features.pca_project.us_per_frame", "us",
     lambda st, f, r: 1e6 * _per(st["features.pca_project"].total, f)),
    ("features.pca_fit.self_s", "s",
     lambda st, f, r: _per(st["features.pca_fit"].self_total, r)),
    ("features.jacobi_eigh.s", "s",
     lambda st, f, r: _per(st["features.jacobi_eigh"].total, r)),
    ("features.pca_fit.k", "count",
     lambda st, f, r: _mean(st["features.pca_fit"].values)),
    ("classifier.svm_train.s", "s",
     lambda st, f, r: _per(st["classifier.svm_train"].total, r)),
    ("classifier.svm_train.calls", "count",
     lambda st, f, r: _per(st["classifier.svm_train"].calls, r)),
    ("classifier.svm_train.support_vectors", "count",
     lambda st, f, r: _mean(st["classifier.svm_train"].values)),
    ("classifier.svm_predict.us_per_frame", "us",
     lambda st, f, r: 1e6 * _per(st["classifier.svm_predict"].total, f)),
    ("classifier.svm_decision_many.ms", "ms",
     lambda st, f, r: 1e3 * _per(st["classifier.svm_decision_many"].total,
                                    r)),
    ("fatigue.alert_step.us_per_tick", "us",
     lambda st, f, r: 1e6 * _per(st["fatigue.alert_step"].total,
                                    st["fatigue.alert_step"].calls)),
    ("fatigue.alarm_on.count", "count",
     lambda st, f, r: _per(sum(st["fatigue.alert_step"].values), r)),
    ("pipeline.ingest.s", "s",
     lambda st, f, r: _per(st["pipeline.ingest"].total, r)),
    ("pipeline.extract_features.s", "s",
     lambda st, f, r: _per(st["pipeline.extract_features"].total, r)),
    ("pipeline.extract_features.calls", "count",
     lambda st, f, r: _per(st["pipeline.extract_features"].calls, r)),
    ("pipeline.load_pipeline.s", "s",
     lambda st, f, r: _per(st["pipeline.load_pipeline"].total, r)),
    ("pipeline.save_pipeline.s", "s",
     lambda st, f, r: _per(st["pipeline.save_pipeline"].total, r)),
    ("pipeline.infer_stream.self_ms_per_frame", "ms",
     lambda st, f, r: 1e3 * _per(st["pipeline.infer_stream"].self_total,
                                    f)),
    ("cli.main.self_s", "s",
     lambda st, f, r: _per(st["cli.main"].self_total, r)),
] + [
    (f"{layer}.errors", "count",
     lambda st, f, r, layer=layer: sum(
         s.errors for name, s in st.items()
         if name.startswith(layer + ".")))
    for layer in LAYERS
]

# Figures the traced run adds about itself.
TRACE_OVERHEAD = ("bench.trace_overhead", "ratio")
SELF_TIME_SHARE = ("bench.self_time_share", "ratio")


def layer_metrics(recorder: Recorder, frames: int, traced_walls: list,
                  untraced_walls: list) -> dict[str, tuple[float, str]]:
    """Every per-layer metric from the spans of the traced repetitions.

    traced_walls[i] and untraced_walls[i] are the wall times of a traced
    and an untraced repetition of the same work.
    """
    stats = probe_stats(recorder.spans)
    reps = len(traced_walls)
    out = {name: (float(fn(stats, frames, reps)), unit)
           for name, unit, fn in PER_LAYER}
    overhead = statistics.median(
        _per(t, u) for t, u in zip(traced_walls, untraced_walls)) - 1.0
    out[TRACE_OVERHEAD[0]] = (overhead, TRACE_OVERHEAD[1])
    covered = sum(self_times(recorder.spans))
    out[SELF_TIME_SHARE[0]] = (_per(covered, sum(traced_walls)),
                               SELF_TIME_SHARE[1])
    return out


def metric_units() -> dict[str, str]:
    units = {name: unit for name, unit, _ in PER_LAYER}
    units.update(dict([TRACE_OVERHEAD, SELF_TIME_SHARE]))
    return units

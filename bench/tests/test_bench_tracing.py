import numpy as np
import pytest

import tracing
from tracing import Recorder, Span, self_times


def test_self_times_on_hand_built_tree():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("a.child", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
        Span("b.x", 5.5, 7.0, 3),
        Span("b.y", 6.5, 8.0, 3),  # overlaps b.x: covered once
        Span("c", 9.5, 11.0, 0),  # runs past root's end: clipped
    ]
    assert self_times(spans) == pytest.approx(
        [10.0 - 3.0 - 4.0 - 0.5, 3.0 - 1.0, 1.0, 4.0 - 2.5, 1.5, 1.5, 1.5])


def test_self_times_sum_to_top_level_wall():
    spans = [Span("top", 0.0, 5.0, -1), Span("mid", 1.0, 4.0, 0),
             Span("leaf", 2.0, 2.5, 1), Span("top", 6.0, 7.0, -1)]
    assert sum(self_times(spans)) == pytest.approx(6.0)


def test_recorder_wraps_callers_bindings_and_restores():
    from fatiguedet import imaging, pipeline

    original = imaging.preprocess
    rec = Recorder()
    rec.install({"imaging.preprocess": None, "imaging.denoise": None,
                 "features.no_such_function": None})
    try:
        # pipeline bound preprocess at import; both names are wrapped
        assert pipeline.preprocess is imaging.preprocess
        assert imaging.preprocess is not original
        img = imaging.Image.from_array(np.full((8, 8), 50, dtype=np.uint8))
        pipeline.preprocess(img)
    finally:
        rec.uninstall()
    assert imaging.preprocess is original and pipeline.preprocess is original
    rec.install({"features.no_such_function": None})
    rec.uninstall()
    assert rec.absent == ["features.no_such_function"]
    names = [(s.name, s.parent) for s in rec.spans]
    assert names == [("imaging.preprocess", -1), ("imaging.denoise", 0)]


def test_recorder_marks_errors_and_keeps_values():
    from fatiguedet import detector, imaging

    rec = Recorder()
    rec.install({"detector.detect": tracing.PROBES["detector.detect"]})
    try:
        rgb = imaging.Image.from_array(np.zeros((30, 30, 3), dtype=np.uint8))
        with pytest.raises(ValueError):
            detector.detect(rgb, None)
    finally:
        rec.uninstall()
    assert rec.spans[0].error and rec.spans[0].value is None
    stats = tracing.probe_stats(rec.spans)
    assert stats["detector.detect"].errors == 1


def test_every_per_layer_metric_reads_zero_without_spans():
    rec = Recorder()
    metrics = tracing.layer_metrics(rec, frames=0, traced_walls=[1.0],
                                    untraced_walls=[1.0])
    assert set(metrics) == set(tracing.metric_units())
    assert all(v == 0.0 for v, _ in metrics.values())

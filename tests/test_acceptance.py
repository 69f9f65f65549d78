"""Acceptance suite: one test per release criterion, each printing a
pass/fail line and enforcing its stated tolerance and time budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import logging
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from fatiguedet import classifier, detector, features
from fatiguedet.classifier import KernelSpec, svm_predict, svm_train
from fatiguedet.cli import main
from fatiguedet.detector import detect, load_cascade, save_cascade
from fatiguedet.fatigue import (
    AlertConfig,
    EventKind,
    FatigueAccumulator,
    simulate,
    step,
)
from fatiguedet.imaging import Image, Rect, crop, integral_image, load_pnm, \
    rect_sum, resize_bilinear, save_pnm
from fatiguedet.pipeline import evaluate, fit_pipeline, ingest, \
    pipeline_predict, PipelineConfig
from fatiguedet.synth import SyntheticSpec, generate, train_face_cascade, \
    write_dataset

from test_classifier import grid_dual_max, kkt_violation, separable_set
from test_fatigue import check_event_discipline


@contextmanager
def criterion(num: int, name: str, limit_s: float):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[acceptance] C{num:02d} {name}: FAIL")
        raise
    dt = time.monotonic() - t0
    assert dt < limit_s, f"C{num:02d} took {dt:.1f}s, budget {limit_s}s"
    print(f"[acceptance] C{num:02d} {name}: PASS ({dt:.2f}s)")


def test_c01_roi_geometry_invariant(rng):
    with criterion(1, "roi-geometry-4000", 1.0):
        for _ in range(5):
            frame = Image.from_array(
                rng.integers(0, 256, size=(160, 160), dtype=np.uint8))
            box = Rect(10, 20, 130, 130)
            face = resize_bilinear(crop(frame, box), 100, 100)
            assert (face.width, face.height) == (100, 100)
            geometry = features.DEFAULT_GEOMETRY
            eye = resize_bilinear(crop(frame, box), 100, 100,
                                  geometry.eye_window)
            mouth = resize_bilinear(crop(frame, box), 100, 100,
                                    geometry.mouth_window)
            assert (eye.width, eye.height) == (80, 30)
            assert (mouth.width, mouth.height) == (40, 40)
            vec = features.frame_features(frame, box)
            assert vec.shape == (4000,)
            assert np.array_equal(vec[:2400] * 255.0,
                                  face.pixels[20:50, 10:90].ravel())
            assert np.array_equal(vec[2400:] * 255.0,
                                  face.pixels[60:100, 30:70].ravel())


def test_c02_integral_image_oracle(rng):
    with criterion(2, "integral-rect-sum-oracle", 5.0):
        checked = 0
        for _ in range(10):
            pixels = rng.integers(0, 256, size=(64, 64))
            ii = integral_image(Image.from_array(pixels.astype(np.uint8)))
            for _ in range(20):
                w = int(rng.integers(1, 65))
                h = int(rng.integers(1, 65))
                x = int(rng.integers(0, 65 - w))
                y = int(rng.integers(0, 65 - h))
                expected = int(pixels[y:y + h, x:x + w].sum())
                assert rect_sum(ii, Rect(x, y, w, h)) == expected
                checked += 1
        assert checked >= 200


def test_c03_pca_oracle_suite(rng):
    with criterion(3, "pca-eigensolver-oracle", 10.0):
        for _ in range(50):
            n = int(rng.integers(3, 11))
            d = int(rng.integers(2, 7))
            x = rng.normal(size=(n, d)) * rng.uniform(0.5, 4.0)
            k_full = min(n - 1, d)
            model = features.pca_fit(x, k=k_full)
            cov = np.cov(x, rowvar=False, ddof=1)
            lam_ref, vec_ref = np.linalg.eigh(np.atleast_2d(cov))
            lam_ref = np.maximum(lam_ref[::-1], 0.0)
            vec_ref = vec_ref[:, ::-1].T
            assert np.allclose(model.eigenvalues, lam_ref[:k_full],
                               atol=1e-6)
            assert np.allclose(model.components @ model.components.T,
                               np.eye(k_full), atol=1e-8)
            for i in range(k_full):
                above = i == 0 or lam_ref[i - 1] - lam_ref[i] > 1e-6
                below = i + 1 >= len(lam_ref) or \
                    lam_ref[i] - lam_ref[i + 1] > 1e-6
                if above and below:
                    assert abs(model.components[i] @ vec_ref[i]) == \
                        pytest.approx(1.0, abs=1e-6)
            prev = math.inf
            for k in range(1, k_full + 1):
                sub = features.pca_fit(x, k=k)
                err = np.mean([np.sum((row - features.pca_reconstruct(
                    sub, features.pca_project(sub, row))) ** 2)
                    for row in x])
                assert err <= prev + 1e-12
                prev = err


def test_c04_svm_oracle_suite(rng):
    with criterion(4, "svm-smo-oracle", 30.0):
        # KKT conditions on 20 random separable sets
        for _ in range(20):
            n = int(rng.integers(6, 16))
            x, y = separable_set(rng, n=n, k=3)
            model = svm_train(x, y, C=5.0, kernel=KernelSpec("linear"),
                              tol=1e-3)
            assert kkt_violation(model, x, y, 1e-3) <= 1e-6
        # dual objective vs brute force, n=4
        for _ in range(5):
            x, y = separable_set(rng, n=4, k=2)
            model = svm_train(x, y, C=1.0, kernel=KernelSpec("linear"),
                              tol=1e-4)
            alpha = np.zeros(4)
            for coef, sv in zip(model.dual_coef, model.support_vectors):
                i = int(np.flatnonzero(
                    np.all(np.isclose(x, sv, atol=0), axis=1))[0])
                alpha[i] = coef * y[i]
            mine = classifier.dual_objective(x, y, alpha,
                                             KernelSpec("linear"))
            _, oracle = grid_dual_max(x, y, 1.0, KernelSpec("linear"))
            assert mine == pytest.approx(oracle, abs=1e-4)
        # XOR with RBF reaches zero training error
        x = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
        y = np.array([1, 1, -1, -1])
        model = svm_train(x, y, C=10.0, kernel=KernelSpec("rbf", 1.0))
        assert [svm_predict(model, row) for row in x] == list(y)
        # symmetric two-point bias
        model = svm_train(np.array([[-1.0, 0.0], [1.0, 0.0]]), [-1, 1],
                          C=10.0, kernel=KernelSpec("linear"))
        assert abs(model.bias) <= 1e-6


def test_c05_detector_fixture():
    with criterion(5, "detector-2stage-fixture", 120.0):
        cascade = train_face_cascade(n_frames=120, seed=0,
                                     stage_rounds=(4, 10))
        assert len(cascade.stages) == 2
        held_out = generate(SyntheticSpec(n_frames=100,
                                          fraction_fatigued=0.5, seed=900))
        detections = 0
        false_positives = 0
        for rec in held_out:
            boxes = detect(rec.image, cascade)
            matched = [b for b in boxes if b.rect.iou(rec.box) >= 0.4]
            if matched:
                detections += 1
            false_positives += len(boxes) - len(matched)
        assert detections >= 95
        assert false_positives <= 100


def test_c06_accumulator_exhaustive_equivalence():
    with criterion(6, "running-sum-exhaustive", 30.0):
        cfg = AlertConfig(t_low=3, t_high=8, alarm_duration=4.0,
                          high_persist=2.0)
        for bits in range(1 << 14):
            labels = [1 if bits & (1 << i) else -1 for i in range(14)]
            trace = simulate(labels, cfg)
            r = 0
            for tick, s in zip(trace.ticks, labels):
                r = max(0, r + s)
                assert tick.r == r
            check_event_discipline(trace)


def test_c07_alert_timing():
    with criterion(7, "alert-escalation-timing", 1.0):
        cfg = AlertConfig(t_low=5, t_high=15, high_persist=5.0,
                          sample_period=1.0)
        trace = simulate([1] * 25, cfg)
        times = {}
        for ev in trace.events:
            times.setdefault(ev.kind, ev.t)
        assert times[EventKind.ALARM_ON] == 5.0
        assert times[EventKind.REDUCE_SPEED] == 15.0
        assert times[EventKind.STOP_VEHICLE] == 20.0
        # clamp law re-anchor: -1 from rest keeps r at zero
        assert step(FatigueAccumulator(), -1).r == 0


@pytest.fixture(scope="module")
def desk_datasets(tmp_path_factory):
    root = tmp_path_factory.mktemp("desk")
    train_spec = SyntheticSpec(n_frames=400, fraction_fatigued=0.5,
                               noise_sigma=8.0, seed=100)
    test_spec = SyntheticSpec(n_frames=100, fraction_fatigued=0.5,
                              noise_sigma=8.0, seed=200)
    train_manifest = write_dataset(train_spec, root / "train")
    test_manifest = write_dataset(test_spec, root / "test")
    return train_manifest, test_manifest


def test_c08_end_to_end_desk_scale(desk_datasets):
    train_manifest, test_manifest = desk_datasets
    with criterion(8, "end-to-end-400-frame-run", 180.0):
        train_records = ingest(train_manifest)
        model = fit_pipeline(train_records, PipelineConfig())
        report = evaluate(model, train_records, folds=5, seed=0)
        assert report.mean_fold_accuracy >= 0.90
        test_records = ingest(test_manifest)
        preds = pipeline_predict(model, test_records)
        truth = np.array([r.label for r in test_records])
        assert float(np.mean(preds == truth)) >= 0.90


def test_c09_cli_determinism(desk_datasets, tmp_path, caplog):
    train_manifest, _ = desk_datasets
    with criterion(9, "train-simulate-determinism", 180.0):
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / run
            with caplog.at_level(logging.WARNING, "fatiguedet.classifier"):
                assert main(["train", "--manifest", str(train_manifest),
                             "--out-dir", str(out), "--seed", "7"]) == 0
            # SMO converges on the desk set instead of hitting its cap
            assert not [r for r in caplog.records
                        if "SMO stopped" in r.getMessage()]
            trace = out / "trace.txt"
            assert main(["simulate", "--manifest", str(train_manifest),
                         "--model", str(out / "model.pipe1"), "--out",
                         str(trace)]) == 0
            outputs.append({
                name: (out / name).read_bytes()
                for name in ("model.pca1", "model.svm1", "model.pipe1",
                             "trace.txt")})
        assert outputs[0] == outputs[1]


def test_c10_codec_roundtrips(rng, face_cascade):
    with criterion(10, "codec-roundtrips", 10.0):
        # PNM
        for shape in ((64, 64), (31, 7), (1, 1)):
            img = Image.from_array(
                rng.integers(0, 256, size=shape, dtype=np.uint8))
            assert load_pnm(save_pnm(img)) == img
        rgb = Image.from_array(
            rng.integers(0, 256, size=(9, 5, 3), dtype=np.uint8))
        assert load_pnm(save_pnm(rgb)) == rgb
        # CASCADE1 (trained instance plus hand-built edge case)
        assert load_cascade(save_cascade(face_cascade)) == face_cascade
        edge = detector.Cascade(24, 24, (detector.Stage(
            ((detector.WeakClassifier(
                detector.HaarFeature("3H", Rect(0, 0, 24, 12)),
                -math.inf, -1), 0.25),), -1.5),))
        assert load_cascade(save_cascade(edge)) == edge
        # PCA1
        pca = features.pca_fit(rng.normal(size=(8, 5)) * 13.7, k=3)
        loaded = features.load_pca(features.save_pca(pca))
        assert features.save_pca(loaded) == features.save_pca(pca)
        assert np.array_equal(loaded.components, pca.components)
        # SVM1
        x, y = separable_set(rng, n=10, k=3)
        svm = svm_train(x, y, C=2.0, kernel=KernelSpec("rbf", 0.4))
        loaded = classifier.load_svm(classifier.save_svm(svm))
        assert classifier.save_svm(loaded) == classifier.save_svm(svm)
        for _ in range(5):
            v = rng.normal(size=3)
            assert classifier.svm_decision(loaded, v) == \
                classifier.svm_decision(svm, v)

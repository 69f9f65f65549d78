import hashlib

import numpy as np
import pytest

from fatiguedet.detector import save_cascade
from fatiguedet.features import DEFAULT_GEOMETRY
from fatiguedet.imaging import crop, load_pnm, resize_bilinear, save_pnm
from fatiguedet.synth import (
    FATIGUE_MODES,
    SyntheticSpec,
    detector_windows,
    generate,
    train_face_cascade,
    write_dataset,
)


class TestSpecValidation:
    def test_minimum_dimensions(self):
        with pytest.raises(ValueError):
            SyntheticSpec(frame_w=100)

    def test_fraction_range(self):
        with pytest.raises(ValueError):
            SyntheticSpec(fraction_fatigued=1.5)


class TestGenerate:
    def test_deterministic_bytes(self):
        spec = SyntheticSpec(n_frames=6, seed=33)
        a = [save_pnm(r.image) for r in generate(spec)]
        b = [save_pnm(r.image) for r in generate(spec)]
        assert a == b

    def test_different_seeds_differ(self):
        a = generate(SyntheticSpec(n_frames=4, seed=1))
        b = generate(SyntheticSpec(n_frames=4, seed=2))
        assert any(x.image != y.image for x, y in zip(a, b))

    def test_exact_label_counts(self):
        recs = generate(SyntheticSpec(n_frames=400, fraction_fatigued=0.5,
                                      seed=7))
        labels = [r.label for r in recs]
        assert labels.count(1) == 200 and labels.count(-1) == 200

    def test_uneven_fraction_rounds(self):
        recs = generate(SyntheticSpec(n_frames=10, fraction_fatigued=0.25,
                                      seed=7))
        assert sum(1 for r in recs if r.label == 1) == 2 or \
            sum(1 for r in recs if r.label == 1) == 3

    def test_boxes_inside_frame(self):
        for rec in generate(SyntheticSpec(n_frames=20, jitter=12, seed=3)):
            b = rec.box
            assert b.x >= 0 and b.y >= 0
            assert b.x2 <= 160 and b.y2 <= 160

    def test_modes_match_labels(self):
        recs = generate(SyntheticSpec(n_frames=60, fraction_fatigued=0.5,
                                      seed=5))
        for rec in recs:
            if rec.label == 1:
                assert rec.mode in FATIGUE_MODES
            else:
                assert rec.mode == "alert"

    def test_eye_roi_margin_separates_eye_states(self):
        # the gap that makes the pipeline learnable: eye window mean differs
        # between open-eye and closed-eye frames by > 2 * noise_sigma
        spec = SyntheticSpec(n_frames=200, fraction_fatigued=0.5,
                             noise_sigma=8.0, seed=11)
        open_means, closed_means = [], []
        for rec in generate(spec):
            eye = resize_bilinear(crop(rec.image, rec.box), 100, 100,
                                  DEFAULT_GEOMETRY.eye_window)
            mean = float(eye.pixels.mean())
            if rec.mode in ("eyes_closed", "both"):
                closed_means.append(mean)
            elif rec.mode == "alert":
                open_means.append(mean)
        gap = np.mean(closed_means) - np.mean(open_means)
        assert gap > 2 * spec.noise_sigma

    def test_mouth_roi_margin_separates_yawns(self):
        spec = SyntheticSpec(n_frames=200, fraction_fatigued=0.5,
                             noise_sigma=8.0, seed=12)
        yawn, closed = [], []
        for rec in generate(spec):
            mouth = resize_bilinear(crop(rec.image, rec.box), 100, 100,
                                    DEFAULT_GEOMETRY.mouth_window)
            mean = float(mouth.pixels.mean())
            if rec.mode in ("yawn", "both"):
                yawn.append(mean)
            elif rec.mode == "alert":
                closed.append(mean)
        assert np.mean(closed) - np.mean(yawn) > 2 * spec.noise_sigma

    def test_dim_mode_triggers_low_light(self):
        recs = generate(SyntheticSpec(n_frames=10, light_level="dim",
                                      seed=2))
        for rec in recs:
            assert float(rec.image.pixels.mean()) < 60

    def test_normal_mode_stays_bright(self):
        recs = generate(SyntheticSpec(n_frames=10, seed=2))
        for rec in recs:
            assert float(rec.image.pixels.mean()) >= 60


class TestWriteDataset:
    def test_files_and_manifest(self, tmp_path):
        spec = SyntheticSpec(n_frames=5, seed=4)
        manifest = write_dataset(spec, tmp_path / "data")
        lines = manifest.read_text().strip().splitlines()
        assert lines[0] == "path,label,group,x,y,w,h"
        assert len(lines) == 6
        recs = generate(spec)
        for i, (line, rec) in enumerate(zip(lines[1:], recs)):
            parts = line.split(",")
            img = load_pnm((manifest.parent / parts[0]).read_bytes())
            assert img == rec.image
            assert int(parts[1]) == rec.label

    def test_rewrites_identically(self, tmp_path):
        spec = SyntheticSpec(n_frames=4, seed=9)
        m1 = write_dataset(spec, tmp_path / "a")
        m2 = write_dataset(spec, tmp_path / "b")
        assert m1.read_text() == m2.read_text()
        for name in ("frame_00000.pgm", "frame_00003.pgm"):
            assert (m1.parent / name).read_bytes() == \
                (m2.parent / name).read_bytes()


class TestDetectorWindows:
    def test_counts_and_shapes(self):
        recs = generate(SyntheticSpec(n_frames=20, seed=6))
        pos, neg = detector_windows(recs, seed=1)
        assert len(pos) == 60  # one crop plus two augmented per frame
        assert len(neg) > 100
        for stack in (pos, neg):
            assert stack.shape[1:] == (24, 24)
            assert stack.dtype == np.uint8

    def test_deterministic(self):
        recs = generate(SyntheticSpec(n_frames=8, seed=6))
        pos1, neg1 = detector_windows(recs, seed=1)
        pos2, neg2 = detector_windows(recs, seed=1)
        assert np.array_equal(pos1, pos2)
        assert np.array_equal(neg1, neg2)


class TestTrainFaceCascade:
    def test_cascade_bytes_are_pinned(self):
        # boosting uses no BLAS, so these bytes hold for any thread count;
        # a change here changes every cascade detect-train writes
        text = save_cascade(train_face_cascade(
            n_frames=20, seed=3, stage_rounds=(2, 3), feature_step=4))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "bfd4f5687a03acee7e530c66bbc736d1e0d9d4631d85b07496e11f93539ea9d2")

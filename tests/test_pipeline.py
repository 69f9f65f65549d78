import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fatiguedet import detector, fatigue, pipeline
from fatiguedet.classifier import group_folds
from fatiguedet.detector import (
    Cascade,
    HaarFeature,
    ScanConfig,
    Stage,
    WeakClassifier,
)
from fatiguedet.errors import (
    BadLabel,
    ConfigError,
    EmptyManifest,
    FatigueDetError,
    ImageTooLarge,
    ManifestError,
    MissingFile,
    ModelMismatch,
    ParseError,
    SingleClass,
    TooFewSamples,
    VersionMismatch,
)
from fatiguedet.fatigue import AlertConfig
from fatiguedet.features import RoiGeometry, frame_features
from fatiguedet.imaging import (
    Image,
    PreprocessConfig,
    Rect,
    preprocess,
    save_pnm,
)
from fatiguedet.pipeline import (
    CONFIG_KEYS,
    ManifestRecord,
    PipelineConfig,
    PipelineModel,
    StreamTrace,
    configure,
    evaluate,
    extract_features,
    fit_pipeline,
    frame_vectors,
    infer_stream,
    ingest,
    load_pipeline,
    onset_latency,
    parse_config,
    pipeline_predict,
    render_config,
    save_pipeline,
)
from fatiguedet.synth import BACKGROUND, SyntheticSpec, write_dataset

CFG = PipelineConfig()

DEFAULT_CONFIG_TEXT = (
    "# face detector ('cascade_path' empty disables detection)\n"
    "cascade_path = \n"
    "scale_factor = 1.25\n"
    "step_frac = 0.08\n"
    "group_iou = 0.3\n"
    "min_neighbors = 3\n"
    "# preprocessing\n"
    "low_light = auto\n"
    "low_light_threshold = 60.0\n"
    "denoise_spatial_sigma = 1.5\n"
    "denoise_range_sigma = 30.0\n"
    "clahe_tiles = 8\n"
    "clahe_clip_limit = 2.0\n"
    "# ROI geometry\n"
    "face_side = 100\n"
    "eye_window = 10 20 80 30\n"
    "mouth_window = 30 60 40 40\n"
    "# PCA ('pca_k' overrides the variance fraction)\n"
    "pca_k = \n"
    "pca_variance = 0.95\n"
    "# SVM ('svm_gamma' empty uses 1/(k*var))\n"
    "svm_c = 1.0\n"
    "svm_kernel = rbf\n"
    "svm_gamma = \n"
    "svm_tol = 0.001\n"
    "svm_max_passes = 200\n"
    "# inference\n"
    "no_face_policy = skip\n"
    "# alert unit\n"
    "t_low = 5\n"
    "t_high = 15\n"
    "alarm_duration = 10.0\n"
    "high_persist = 5.0\n"
    "water_spray = off\n"
    "sample_period = 1.0\n"
    "realarm_on_recheck = off\n"
    "# misc\n"
    "seed = 0\n")


def _floats(lo, hi, exclude_min=False):
    return st.floats(lo, hi, exclude_min=exclude_min, allow_nan=False)


@st.composite
def _rects(draw, side):
    x, y = draw(st.integers(0, side - 1)), draw(st.integers(0, side - 1))
    return Rect(x, y, draw(st.integers(1, side - x)),
                draw(st.integers(1, side - y)))


@st.composite
def configs(draw):
    """Valid PipelineConfigs, with each optional field set or None."""
    side = draw(st.integers(1, 300))
    t_low = draw(st.integers(1, 1000))
    return PipelineConfig(
        cascade_path=draw(st.none() | st.from_regex(r"[\w./-]{1,20}",
                                                    fullmatch=True)),
        scan=ScanConfig(draw(_floats(1.01, 10)),
                        draw(_floats(0, 1, exclude_min=True)),
                        draw(_floats(0, 1, exclude_min=True)),
                        draw(st.integers(1, 50))),
        preprocess=PreprocessConfig(
            draw(st.sampled_from(["auto", "on", "off"])),
            draw(_floats(0, 255)), draw(_floats(0.1, 10)),
            draw(_floats(0.1, 100)), draw(st.integers(1, 16)),
            draw(_floats(1, 10))),
        geometry=RoiGeometry(side, draw(_rects(side)), draw(_rects(side))),
        pca_k=draw(st.none() | st.integers(1, 500)),
        pca_variance=draw(st.none() | _floats(0, 1, exclude_min=True)),
        svm_c=draw(_floats(0, 1e6, exclude_min=True)),
        svm_kernel=draw(st.sampled_from(["linear", "rbf"])),
        svm_gamma=draw(st.none() | _floats(0, 100, exclude_min=True)),
        svm_tol=draw(_floats(0, 1, exclude_min=True)),
        svm_max_passes=draw(st.integers(1, 10_000)),
        no_face_policy=draw(st.sampled_from(["skip", "fatigued"])),
        alert=AlertConfig(
            t_low, draw(st.integers(t_low + 1, 2000)),
            draw(_floats(0, 1e4, exclude_min=True)),
            draw(_floats(0, 1e4)), draw(st.booleans()),
            # down to 1e-300: 1e4 / 1e-300 ticks is still finite
            draw(_floats(1e-300, 100)), draw(st.booleans())),
        seed=draw(st.integers(-2**31, 2**31)))


# manifest fields: names of a file, of a directory and of nothing, labels,
# groups, box values, a name too long for the file system, a NUL and a quote
MANIFEST_TOKENS = ["frame_00000.pgm", "manifest.csv", "", ".", "..", "+1",
                   "-1", "1", "2", "g0", "0", "-4", "120", "x" * 300,
                   "a\0b", '"', "nan"]


@pytest.fixture(scope="module")
def one_frame_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("one_frame")
    write_dataset(SyntheticSpec(n_frames=1, seed=1), root)
    return root


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    spec = SyntheticSpec(n_frames=120, fraction_fatigued=0.5, seed=21)
    manifest = write_dataset(spec, root)
    return ingest(manifest)


@pytest.fixture(scope="module")
def model(dataset):
    return fit_pipeline(dataset, CFG)


def blind_model(model):
    """model with a cascade that rejects every window, so that every frame
    is skipped."""
    never = WeakClassifier(HaarFeature("2H", Rect(0, 0, 12, 12)), math.inf,
                           1)
    reject_all = Cascade(24, 24, (Stage(((never, 1.0),), 0.5),))
    return PipelineModel(geometry=model.geometry, preprocess=model.preprocess,
                         pca=model.pca, svm=model.svm, cascade=reject_all,
                         scan=model.scan)


class TestIngest:
    def test_two_records(self, tmp_path):
        spec = SyntheticSpec(n_frames=2, seed=1)
        write_dataset(spec, tmp_path)
        (tmp_path / "m.csv").write_text(
            "frame_00000.pgm,+1\nframe_00001.pgm,-1\n")
        records = ingest(tmp_path / "m.csv")
        assert len(records) == 2
        assert [r.label for r in records] == [1, -1]
        assert records[0].group is None and records[0].box is None

    def test_bad_label_names_line(self, tmp_path):
        spec = SyntheticSpec(n_frames=2, seed=1)
        write_dataset(spec, tmp_path)
        (tmp_path / "m.csv").write_text(
            "frame_00000.pgm,+1\nframe_00001.pgm,2\n")
        with pytest.raises(BadLabel) as exc:
            ingest(tmp_path / "m.csv")
        assert "line 2" in str(exc.value)

    @pytest.mark.parametrize("label", ["\u0661", "+0_1", "01", "1.0", "+ 1"],
                             ids=["arabic-indic-one", "underscore", "zero",
                                  "float", "inner-space"])
    @pytest.mark.parametrize("line", [1, 2])
    def test_label_outside_ascii_spellings(self, one_frame_dir, label, line):
        rows = (["frame_00000.pgm,-1"] * (line - 1)
                + [f"frame_00000.pgm,{label}"])
        (one_frame_dir / "m.csv").write_text("\n".join(rows) + "\n")
        with pytest.raises(BadLabel) as exc:
            ingest(one_frame_dir / "m.csv")
        assert f"line {line}" in str(exc.value)

    def test_accepted_label_spellings(self, one_frame_dir):
        (one_frame_dir / "m.csv").write_text(
            "path,label\nframe_00000.pgm,1\nframe_00000.pgm, -1 \n"
            "frame_00000.pgm,+1\n")
        assert [r.label for r in ingest(one_frame_dir / "m.csv")] == [1, -1, 1]

    @pytest.mark.parametrize("box", [
        "\u0661\u0660,10,50,50", "1_0,10,50,50", "10,10,\uff15\uff10,50",
        "10,10,50,5_0"],
        ids=["arabic-indic-x", "underscore-x", "fullwidth-w", "underscore-h"])
    def test_box_outside_ascii_is_manifest_error(self, one_frame_dir, box):
        (one_frame_dir / "m.csv").write_text(
            f"frame_00000.pgm,+1,g0,{box}\n")
        with pytest.raises(ManifestError, match="line 1: bad box.*ASCII"):
            ingest(one_frame_dir / "m.csv")

    def test_ascii_box_loads(self, one_frame_dir):
        (one_frame_dir / "m.csv").write_text(
            "frame_00000.pgm,+1,g0,10, 10,+50,50\n")
        assert ingest(one_frame_dir / "m.csv")[0].box == Rect(10, 10, 50, 50)

    def test_relative_path_resolution(self, tmp_path):
        spec = SyntheticSpec(n_frames=1, seed=1)
        write_dataset(spec, tmp_path / "deep")
        (tmp_path / "deep" / "m.csv").write_text("frame_00000.pgm,-1\n")
        records = ingest(tmp_path / "deep" / "m.csv")
        assert records[0].path.parent == tmp_path / "deep"

    def test_missing_file(self, tmp_path):
        (tmp_path / "m.csv").write_text("ghost.pgm,+1\n")
        with pytest.raises(MissingFile):
            ingest(tmp_path / "m.csv")

    def test_empty_manifest(self, tmp_path):
        (tmp_path / "m.csv").write_text("path,label\n")
        with pytest.raises(EmptyManifest):
            ingest(tmp_path / "m.csv")

    def test_header_detection_and_boxes(self, tmp_path, dataset):
        # the generator's manifest carries header, groups, and boxes
        first = dataset[0]
        assert first.group == "g0"
        assert isinstance(first.box, Rect)

    def test_bad_column_count(self, tmp_path):
        spec = SyntheticSpec(n_frames=1, seed=1)
        write_dataset(spec, tmp_path)
        (tmp_path / "m.csv").write_text("frame_00000.pgm,+1,g0,4\n")
        with pytest.raises(ManifestError):
            ingest(tmp_path / "m.csv")

    @pytest.mark.parametrize("body, error", [
        (",+1\n", MissingFile), ("x" * 5000 + ",+1\n", MissingFile),
        ("frame_00000.pgm,+1\n" + "x" * 200_000 + ",+1\n", ManifestError)],
        ids=["directory", "name-too-long", "field-over-csv-limit"])
    def test_unusable_row_is_typed_error(self, one_frame_dir, body, error):
        (one_frame_dir / "m.csv").write_text(body)
        with pytest.raises(error):
            ingest(one_frame_dir / "m.csv")

    @given(st.binary(max_size=64) | st.lists(
        st.lists(st.sampled_from(MANIFEST_TOKENS), max_size=8).map(
            ",".join), max_size=4).map(lambda rows: "\n".join(rows).encode()))
    def test_any_manifest_bytes_raise_only_typed_errors(self, one_frame_dir,
                                                         data):
        (one_frame_dir / "fuzz.csv").write_bytes(data)
        try:
            ingest(one_frame_dir / "fuzz.csv")
        except FatigueDetError:
            pass


class TestConfig:
    def test_roundtrip_defaults(self):
        assert parse_config(render_config(CFG)) == CFG

    def test_every_default_appears(self):
        text = render_config(CFG)
        for key in ("cascade_path", "scale_factor", "low_light",
                    "face_side", "eye_window", "mouth_window",
                    "pca_variance", "svm_c", "t_low", "t_high",
                    "alarm_duration", "high_persist", "sample_period",
                    "no_face_policy", "seed"):
            assert f"{key} =" in text or f"{key} = " in text

    def test_overrides(self):
        cfg = parse_config("t_low = 3\nsvm_kernel = linear\n", CFG)
        assert cfg.alert.t_low == 3
        assert cfg.svm_kernel == "linear"
        assert cfg.alert.t_high == CFG.alert.t_high

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_config("mystery = 1\n")

    def test_comments_ignored(self):
        cfg = parse_config("# a comment\nseed = 4  # trailing\n")
        assert cfg.seed == 4

    def test_repeated_key_is_config_error(self):
        with pytest.raises(ConfigError, match="line 2: repeated key"):
            parse_config("clahe_tiles = 3\nclahe_tiles = 8\n")

    def test_default_text_is_pinned(self):
        assert render_config(CFG) == DEFAULT_CONFIG_TEXT

    @given(configs())
    def test_roundtrip_any_valid_config(self, cfg):
        assert parse_config(render_config(cfg)) == cfg

    @pytest.mark.parametrize("line", [
        "low_light = bogus", "t_low = 20", "eye_window = 0 0 200 10",
        "scale_factor = 0.5", "sample_period = 0", "svm_kernel = cubic",
        "svm_c = -1", "svm_c =", "t_low =", "scale_factor = nan",
        "scale_factor = inf", "sample_period = nan", "alarm_duration = nan",
        "high_persist = nan", "high_persist = inf", "pca_variance = nan",
        "pca_variance = 0", "pca_variance = 1.5",
        "low_light_threshold = nan", "denoise_spatial_sigma = 0",
        "denoise_spatial_sigma = 1e-160", "denoise_range_sigma = 1e-200",
        "denoise_range_sigma = nan", "denoise_range_sigma = inf",
        "clahe_tiles = 0", "clahe_clip_limit = 0.5",
        "clahe_clip_limit = nan", "svm_c = inf", "svm_c = 1e999",
        "svm_gamma = nan", "svm_gamma = inf", "pca_k = 0", "pca_k = -1"])
    def test_bad_value_is_config_error(self, line):
        with pytest.raises(ConfigError):
            parse_config(line + "\n")

    @pytest.mark.parametrize("value", ["c#1.txt", "off\npca_k = 3",
                                       " spaced "])
    def test_configure_takes_each_value_whole(self, value):
        # only a config file's text is cut at '#' and split into lines
        cfg = configure({"cascade_path": value})
        assert cfg.cascade_path == value and cfg.pca_k is None
        with pytest.raises(ConfigError, match="unknown config keys"):
            configure({"pca_k = 3\nseed": "1"})

    @pytest.mark.parametrize("line", [
        "pca_k = \u0661\u0660", "pca_k = 1_0", "pca_k = \uff11\uff10",
        "svm_c = \u0661.\u0665", "svm_c = 1_0.5", "svm_c = \uff11.5",
        "svm_max_passes = 2_00", "eye_window = \u0661\u0660 20 80 30",
        "eye_window = 10 2_0 80 30", "eye_window = 10 20 \uff18\uff10 30"],
        ids=["pca-k-arabic-indic", "pca-k-underscore", "pca-k-fullwidth",
             "svm-c-arabic-indic", "svm-c-underscore", "svm-c-fullwidth",
             "svm-max-passes-underscore", "eye-window-arabic-indic",
             "eye-window-underscore", "eye-window-fullwidth"])
    def test_number_outside_ascii_is_config_error(self, line):
        with pytest.raises(ConfigError, match="not ASCII"):
            parse_config(line + "\n")

    def test_ascii_exponent_and_infinity_parse(self):
        cfg = parse_config("svm_tol = 1e-3\nsvm_c = 2.5E+1\n"
                           "clahe_clip_limit = inf\npca_k = +10\n")
        assert (cfg.svm_tol, cfg.svm_c, cfg.pca_k) == (1e-3, 25.0, 10)
        assert cfg.preprocess.clahe_clip_limit == math.inf

    @pytest.mark.parametrize("text", [
        "sample_period = 5e-324\n",
        "high_persist = 1e308\nsample_period = 1e-10\n"])
    def test_durations_beyond_finite_ticks_are_config_error(self, text):
        with pytest.raises(ConfigError, match="finite in ticks"):
            parse_config(text)

    @given(st.lists(st.tuples(
        st.sampled_from(sorted(CONFIG_KEYS)) | st.text(max_size=8),
        st.text(max_size=20) | st.floats().map(repr)
        | st.integers().map(str)
        | st.lists(st.integers(-9, 10**6), min_size=3, max_size=5).map(
            lambda v: " ".join(map(str, v)))), max_size=6))
    def test_any_key_value_text_raises_only_typed_errors(self, pairs):
        text = "".join(f"{key} = {value}\n" for key, value in pairs)
        try:
            parse_config(text)
        except FatigueDetError:
            pass


class TestFitPipeline:
    def test_detector_off_uses_manifest_boxes(self, dataset, model):
        assert model.cascade is None
        assert model.pca.d == 4000

    def test_training_accuracy(self, dataset, model):
        preds = pipeline_predict(model, dataset)
        truth = np.array([r.label for r in dataset])
        assert float(np.mean(preds == truth)) >= 0.98

    def test_single_class_rejected(self, dataset):
        only_pos = [r for r in dataset if r.label == 1]
        with pytest.raises(SingleClass):
            fit_pipeline(only_pos, CFG)

    def test_rerun_is_bit_identical(self, dataset):
        a = save_pipeline(fit_pipeline(dataset, CFG))
        b = save_pipeline(fit_pipeline(dataset, CFG))
        assert a == b

    def test_feature_matrix_has_4000_columns(self, dataset):
        x, y, groups, skipped = extract_features(
            dataset[:6], CFG.geometry, CFG.preprocess, None, CFG.scan)
        assert x.shape == (6, 4000)
        assert not skipped

    def test_full_frame_fallback_without_boxes(self, dataset):
        stripped = [ManifestRecord(r.path, r.label) for r in dataset[:8]]
        x, _, _, _ = extract_features(stripped, CFG.geometry,
                                      CFG.preprocess, None, CFG.scan)
        assert x.shape == (8, 4000)

    @pytest.mark.parametrize("low_light", ["auto", "on", "off"])
    def test_box_only_preprocessing_matches_whole_frame(self, dataset,
                                                        low_light):
        prep = PreprocessConfig(low_light=low_light)
        frames = [r.load_image() for r in dataset[:4]]
        boxes = [dataset[0].box, None, Rect(0, 0, 50, 40),
                 Rect(110, 120, 50, 40)]
        vectors = frame_vectors(frames, boxes, CFG.geometry, prep, None,
                                CFG.scan)
        for img, box, vec in zip(frames, boxes, vectors, strict=True):
            whole = preprocess(img, prep)
            box = box or Rect(0, 0, whole.width, whole.height)
            assert np.array_equal(vec, frame_features(whole, box,
                                                      CFG.geometry))

    def test_over_cap_frame_is_refused_before_preprocessing(
            self, face_cascade, monkeypatch):
        # a 160 x 160 frame needs 12,445 windows; the cap is one fewer
        calls = []

        def spy(*args):
            calls.append(args)
            return preprocess(*args)

        monkeypatch.setattr(pipeline, "preprocess", spy)
        monkeypatch.setattr(detector, "MAX_SCAN_WINDOWS", 12_444)
        detector._scan_plan.cache_clear()
        frame = Image.from_array(np.full((160, 160), 90, dtype=np.uint8))
        with pytest.raises(ImageTooLarge, match="12445 scan windows"):
            next(frame_vectors([frame], None, CFG.geometry, CFG.preprocess,
                               face_cascade, CFG.scan))
        assert calls == []
        detector._scan_plan.cache_clear()

    def test_4000_columns_regardless_of_frame_size(self, tmp_path):
        spec = SyntheticSpec(frame_w=220, frame_h=140, n_frames=4, seed=2)
        records = ingest(write_dataset(spec, tmp_path))
        x, _, _, _ = extract_features(records, CFG.geometry,
                                      CFG.preprocess, None, CFG.scan)
        assert x.shape == (4, 4000)


class TestInferStream:
    def test_alert_stream_stays_quiet(self, dataset, model):
        picked = [r for r in dataset if r.label == -1][:20]
        stream = infer_stream(model, [r.load_image() for r in picked],
                              boxes=[r.box for r in picked])
        assert all(t.r <= 1 for t in stream.trace.ticks)
        assert stream.trace.events == []

    def test_onset_latency(self, dataset, model):
        alert = [r for r in dataset if r.label == -1][:20]
        tired = [r for r in dataset if r.label == 1][:15]
        picked = alert + tired
        stream = infer_stream(model, [r.load_image() for r in picked],
                              boxes=[r.box for r in picked])
        assert len(stream.trace.ticks) == 35
        lat = onset_latency(stream, onset_tick=20)
        # near-perfect classifier: alarm ~t_low ticks after onset
        assert lat is not None and abs(lat - 5) <= 2

    def test_onset_latency_is_whole_ticks(self):
        # AlarmOn on tick 3 at t = 3 * 0.1, which is not 0.3
        cfg = AlertConfig(t_low=3, t_high=10, sample_period=0.1)
        stream = StreamTrace(fatigue.simulate([1] * 5, cfg), skipped=0)
        latency = onset_latency(stream, onset_tick=0)
        assert latency == 3 and type(latency) is int

    def test_empty_frame_list(self, model):
        stream = infer_stream(model, [])
        assert stream.trace.ticks == [] and stream.labels == []

    def test_skip_policy_keeps_r_unchanged(self, dataset, model):
        blind = blind_model(model)
        frames = [r.load_image() for r in dataset[:5]]
        stream = infer_stream(blind, frames)
        assert stream.skipped == 5
        assert stream.labels == [None] * 5
        assert all(t.r == 0 for t in stream.trace.ticks)
        assert [t.t for t in stream.trace.ticks] == [1.0, 2.0, 3.0, 4.0,
                                                     5.0]
        fatigued = infer_stream(blind, frames, no_face_policy="fatigued")
        assert [t.r for t in fatigued.trace.ticks] == [1, 2, 3, 4, 5]

    def test_unknown_no_face_policy_is_refused(self, model):
        with pytest.raises(ValueError, match="no_face_policy 'ignore'"):
            infer_stream(model, [], no_face_policy="ignore")

    def test_render_includes_labels(self, dataset, model):
        frames = [dataset[0].load_image()]
        text = infer_stream(model, frames).render()
        assert "LABEL 1 " in text

    def test_render_golden(self, dataset, model):
        # skipped frames under both policies; the fatigued run's ticks
        # carry events, pinning the TICK, LABEL, EVENT line order
        blind = blind_model(model)
        frames = [r.load_image() for r in dataset[:4]]
        skip = infer_stream(blind, frames[:2]).render()
        assert skip == (
            "# t_low=5 t_high=15 alarm_duration=10 high_persist=5 "
            "water_spray=0 sample_period=1\n"
            "TICK 1 0 None Idle\n"
            "LABEL 1 skip\n"
            "TICK 2 0 None Idle\n"
            "LABEL 2 skip\n")
        cfg = AlertConfig(t_low=2, t_high=3, alarm_duration=2.0,
                          high_persist=1.0, water_spray=True,
                          sample_period=0.5)
        fatigued = infer_stream(blind, frames, cfg,
                                no_face_policy="fatigued").render()
        assert fatigued == (
            "# t_low=2 t_high=3 alarm_duration=2 high_persist=1 "
            "water_spray=1 sample_period=0.5\n"
            "TICK 0.5 1 None Idle\n"
            "LABEL 0.5 +1\n"
            "TICK 1 2 Low LowAlarm(2)\n"
            "LABEL 1 +1\n"
            "EVENT 1 AlarmOn\n"
            "TICK 1.5 3 High HighAlert(0,0)\n"
            "LABEL 1.5 +1\n"
            "EVENT 1.5 ReduceSpeed\n"
            "EVENT 1.5 WaterSpray\n"
            "TICK 2 4 High HighAlert(0.5,0)\n"
            "LABEL 2 +1\n")

    def test_labels_match_batch_detector_off(self, dataset, model):
        records = dataset[:40]
        stream = infer_stream(model, [r.load_image() for r in records],
                              boxes=[r.box for r in records])
        assert stream.skipped == 0
        assert stream.labels == pipeline_predict(model, records).tolist()

    def test_labels_match_batch_detector_on(self, dataset, model,
                                            face_cascade, tmp_path):
        # a faceless frame, which the cascade skips, sits among the faces
        blank = tmp_path / "blank.pgm"
        blank.write_bytes(save_pnm(Image.from_array(
            np.full((160, 160), BACKGROUND, dtype=np.uint8))))
        records = dataset[:20] + [ManifestRecord(blank, -1)] + dataset[20:40]
        detecting = replace(model, cascade=face_cascade)
        stream = infer_stream(detecting, [r.load_image() for r in records])
        assert stream.labels[20] is None
        kept = [label for label in stream.labels if label is not None]
        assert kept == pipeline_predict(detecting, records).tolist()

    def test_alert_unit_runs_per_frame(self, dataset, model, monkeypatch):
        # the alert step for frame i returns before frame i + 1 is pulled
        log = []
        real_step = fatigue.alert_step

        def logged_step(*args, **kwargs):
            out = real_step(*args, **kwargs)
            log.append("alert_step")
            return out

        def feed():
            for rec in dataset[:4]:
                log.append("pull")
                yield rec.load_image()

        monkeypatch.setattr(fatigue, "alert_step", logged_step)
        stream = infer_stream(model, feed(),
                              boxes=[r.box for r in dataset[:4]])
        assert len(stream.trace.ticks) == 4
        assert log == ["pull", "alert_step"] * 4


class TestEvaluate:
    def test_metrics_on_separable_synthetic(self, dataset, model):
        report = evaluate(model, dataset, folds=5, seed=0)
        assert report.mean_fold_accuracy >= 0.95
        assert report.tp + report.fp + report.tn + report.fn == len(dataset)

    def test_determinism(self, dataset, model):
        a = evaluate(model, dataset, folds=4, seed=3)
        b = evaluate(model, dataset, folds=4, seed=3)
        assert a.fold_test_indices == b.fold_test_indices
        assert a.fold_accuracies == b.fold_accuracies

    def test_groups_never_straddle_folds(self, dataset, model):
        report = evaluate(model, dataset, folds=4, seed=1)
        groups = [r.group for r in dataset]
        for fold in report.fold_test_indices:
            test_groups = {groups[i] for i in fold}
            train_groups = {groups[i] for i in range(len(dataset))
                            if i not in fold}
            assert not (test_groups & train_groups)

    def test_no_test_sample_in_training(self, dataset, model):
        report = evaluate(model, dataset, folds=4, seed=1)
        seen = sorted(i for f in report.fold_test_indices for i in f)
        assert seen == list(range(len(dataset)))

    def test_too_few_samples(self, dataset, model):
        with pytest.raises(TooFewSamples):
            evaluate(model, dataset[:3], folds=4)

    def test_one_sample_of_a_class_is_too_few(self, dataset, model):
        alert = [r for r in dataset if r.label == -1][:9]
        tired = next(r for r in dataset if r.label == 1)
        with pytest.raises(TooFewSamples, match="2 samples per class"):
            evaluate(model, alert + [tired], folds=2)

    def test_group_folds_balanced(self):
        groups = [f"s{i % 7}" for i in range(70)]
        folds = group_folds(groups, 5, seed=2)
        sizes = [len(f) for f in folds]
        assert sum(sizes) == 70
        assert max(sizes) - min(sizes) <= 10  # one group's worth


class TestPipe1Codec:
    def test_roundtrip_bit_exact(self, model):
        text = save_pipeline(model)
        loaded = load_pipeline(text)
        assert save_pipeline(loaded) == text
        assert np.array_equal(loaded.pca.components, model.pca.components)
        assert np.array_equal(loaded.svm.dual_coef, model.svm.dual_coef)
        assert loaded.svm.bias == model.svm.bias

    def test_roundtrip_with_cascade(self, model, face_cascade):
        with_detector = PipelineModel(
            geometry=model.geometry, preprocess=model.preprocess,
            pca=model.pca, svm=model.svm, cascade=face_cascade)
        text = save_pipeline(with_detector)
        loaded = load_pipeline(text)
        assert loaded.cascade == face_cascade
        assert save_pipeline(loaded) == text

    def test_roundtrip_non_default_settings(self, model, face_cascade):
        tuned = PipelineModel(
            geometry=RoiGeometry(100, Rect(5, 15, 80, 30),
                                 Rect(25, 55, 40, 40)),
            preprocess=PreprocessConfig("on", 42.5, 2.25, 17.0, 4, 3.5),
            pca=model.pca, svm=model.svm, cascade=face_cascade,
            scan=ScanConfig(1.5, 0.1, 0.45, 2))
        text = save_pipeline(tuned)
        loaded = load_pipeline(text)
        assert (loaded.geometry, loaded.preprocess, loaded.scan) == \
            (tuned.geometry, tuned.preprocess, tuned.scan)
        assert save_pipeline(loaded) == text

    @pytest.mark.parametrize("old, new", [
        ("face_side = 100\n", ""),
        ("clahe_tiles = 8\n", ""),
        ("min_neighbors = 3\n", ""),
        ("face_side = 100\n", "face_side = 100\nmystery = 1\n"),
        ("clahe_tiles = 8\n", "clahe_tiles = 8\nmystery = 1\n"),
        ("min_neighbors = 3\n", "min_neighbors = 3\nmystery = 1\n"),
        ("low_light = auto\n", "low_light = bogus\n"),
        ("min_neighbors = 3\n", "min_neighbors = 0\n"),
        ("clahe_tiles = 8\n", "clahe_tiles = 3\nclahe_tiles = 8\n"),
        ("clahe_tiles = 8\n", "clahe_tiles = \u0668\n"),
        ("face_side = 100\n", "face_side = 1_00\n"),
        ("min_neighbors = 3\n", "min_neighbors = \uff13\n")],
        ids=["missing-geometry", "missing-preprocess", "missing-scan",
             "unknown-geometry", "unknown-preprocess", "unknown-scan",
             "bad-low-light", "bad-min-neighbors", "repeated-preprocess",
             "arabic-indic-preprocess", "underscore-geometry",
             "fullwidth-scan"])
    def test_bad_section_key_is_parse_error(self, model, face_cascade,
                                            old, new):
        text = save_pipeline(PipelineModel(
            geometry=model.geometry, preprocess=model.preprocess,
            pca=model.pca, svm=model.svm, cascade=face_cascade))
        assert old in text
        with pytest.raises(ParseError):
            load_pipeline(text.replace(old, new))

    def test_version_mismatch(self):
        with pytest.raises(VersionMismatch):
            load_pipeline("PIPE2\n")

    def test_missing_section(self, model):
        text = save_pipeline(model)
        truncated = text[:text.index("SECTION svm")]
        with pytest.raises(ParseError):
            load_pipeline(truncated)

    def test_mismatched_submodels_rejected(self, model, dataset):
        from fatiguedet import features as F
        small = F.pca_fit(np.random.default_rng(0).normal(size=(6, 4000)),
                          k=model.pca.k + 1)
        with pytest.raises(ModelMismatch):
            PipelineModel(geometry=model.geometry,
                          preprocess=model.preprocess, pca=small,
                          svm=model.svm)

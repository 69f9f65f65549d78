import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fatiguedet import fatigue
from fatiguedet.cli import main
from fatiguedet.detector import load_cascade, save_cascade
from fatiguedet.imaging import Image, save_pnm
from fatiguedet.pipeline import (
    ManifestRecord,
    PipelineConfig,
    ingest,
    load_pipeline,
    pipeline_predict,
    render_config,
)
from fatiguedet.synth import BACKGROUND
from test_textmodel import CASCADE_TEXT, PIPE_TEXT, mutations


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    rc = main(["synth", "--out", str(root / "data"), "--n-frames", "60",
               "--seed", "3"])
    assert rc == 0
    rc = main(["train", "--manifest", str(root / "data" / "manifest.csv"),
               "--out-dir", str(root / "models"), "--seed", "1"])
    assert rc == 0
    return root


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """An 8-frame set and a model trained on it."""
    root = tmp_path_factory.mktemp("small")
    assert main(["synth", "--out", str(root / "data"), "--n-frames", "8",
                 "--seed", "4"]) == 0
    assert main(["train", "--manifest", str(root / "data" / "manifest.csv"),
                 "--out-dir", str(root / "models")]) == 0
    return root


class TestSynth:
    def test_writes_frames_and_manifest(self, workdir):
        assert (workdir / "data" / "manifest.csv").exists()
        assert (workdir / "data" / "frame_00000.pgm").exists()
        assert (workdir / "data" / "frame_00059.pgm").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--frame-w", "100"), ("--n-frames", "0"), ("--jitter", "-1"),
        ("--fraction-fatigued", "2"), ("--noise-sigma", "nan"),
        ("--noise-sigma", "inf"), ("--seed", "-1")])
    def test_bad_spec_is_usage_error(self, tmp_path, flag, value, capsys):
        out = tmp_path / "never"
        assert main(["synth", "--out", str(out), flag, value]) == 1
        assert "synth: error" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_zero_noise_is_zero_noise(self, tmp_path):
        # -0.0 passes the >= 0 check; it is stored as +0.0, not refused
        for name, sigma in (("neg", "-0"), ("pos", "0")):
            assert main(["synth", "--out", str(tmp_path / name), "--n-frames",
                         "2", "--noise-sigma", sigma]) == 0
        for name in ("manifest.csv", "frame_00000.pgm", "frame_00001.pgm"):
            assert (tmp_path / "neg" / name).read_bytes() == \
                (tmp_path / "pos" / name).read_bytes()


class TestTrain:
    def test_writes_all_model_files(self, workdir):
        for name in ("model.pca1", "model.svm1", "model.pipe1"):
            assert (workdir / "models" / name).exists()
        pipe = (workdir / "models" / "model.pipe1").read_text()
        assert pipe.startswith("PIPE1\n")
        assert "SECTION pca" in pipe and "SECTION svm" in pipe

    def test_deterministic_outputs(self, workdir):
        manifest = str(workdir / "data" / "manifest.csv")
        assert main(["train", "--manifest", manifest, "--out-dir",
                     str(workdir / "m2"), "--seed", "1"]) == 0
        for name in ("model.pca1", "model.svm1", "model.pipe1"):
            assert (workdir / "models" / name).read_bytes() == \
                (workdir / "m2" / name).read_bytes()

    @pytest.mark.parametrize("value", ["off", "none"])
    def test_detector_off_trains_without_a_cascade(self, workdir, value):
        # "off" and "none" are the same model as no --detector at all
        out = workdir / f"detector-{value}"
        assert main(["train", "--manifest",
                     str(workdir / "data" / "manifest.csv"), "--out-dir",
                     str(out), "--seed", "1", "--detector", value]) == 0
        assert (out / "model.pipe1").read_bytes() == \
            (workdir / "models" / "model.pipe1").read_bytes()

    def test_accuracy_counts_only_kept_frames(self, workdir, face_cascade,
                                              tmp_path, capsys):
        # a faceless first frame is skipped by the cascade; the accuracy
        # must not pair the remaining predictions with shifted labels
        cascade = tmp_path / "cascade.txt"
        cascade.write_text(save_cascade(face_cascade))
        blank = tmp_path / "blank.pgm"
        blank.write_bytes(save_pnm(Image.from_array(
            np.full((160, 160), BACKGROUND, dtype=np.uint8))))
        data = workdir / "data"
        rows = [f"{blank},-1"]
        for line in (data / "manifest.csv").read_text().splitlines()[1:]:
            name, label = line.split(",")[:2]
            rows.append(f"{data / name},{label}")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("\n".join(rows) + "\n")
        capsys.readouterr()
        assert main(["train", "--manifest", str(manifest), "--out-dir",
                     str(tmp_path / "models"), "--detector",
                     str(cascade)]) == 0
        out = capsys.readouterr().out
        assert "trained on 60 frames" in out
        assert "training accuracy 1.0000" in out

    def test_tiny_svm_c_labels_both_classes(self, tmp_path):
        # with C = 1e-9 every multiplier is at most 1e-9: all nonzero ones
        # are support vectors, so the model is no constant classifier
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--n-frames", "30",
                     "--seed", "4"]) == 0
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text("svm_c = 1e-9\n")
        assert main(["train", "--manifest", str(data / "manifest.csv"),
                     "--out-dir", str(tmp_path / "models"), "--config",
                     str(cfg)]) == 0
        records = ingest(data / "manifest.csv")
        model = load_pipeline((tmp_path / "models" / "model.pipe1")
                              .read_text())
        labels = pipeline_predict(model, records)
        assert sorted(set(labels.tolist())) == [-1, 1]
        assert model.svm.support_vectors.shape[0] > 1


class TestEval:
    def test_report_and_json(self, workdir, capsys):
        json_out = workdir / "report.json"
        rc = main(["eval", "--manifest",
                   str(workdir / "data" / "manifest.csv"), "--model",
                   str(workdir / "models" / "model.pipe1"), "--folds", "4",
                   "--json-out", str(json_out)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "accuracy" in out and "confusion" in out
        report = json.loads(json_out.read_text())
        counts = report["confusion"]
        assert sum(counts.values()) == 60


class TestSimulate:
    def test_trace_output(self, workdir):
        trace_path = workdir / "trace.txt"
        rc = main(["simulate", "--manifest",
                   str(workdir / "data" / "manifest.csv"), "--model",
                   str(workdir / "models" / "model.pipe1"), "--out",
                   str(trace_path)])
        assert rc == 0
        lines = trace_path.read_text().splitlines()
        assert lines[0].startswith("# t_low=5 t_high=15")
        assert sum(1 for ln in lines if ln.startswith("TICK")) == 60
        assert sum(1 for ln in lines if ln.startswith("LABEL")) == 60

    def test_alert_flags_flow_into_header(self, workdir, capsys):
        rc = main(["simulate", "--manifest",
                   str(workdir / "data" / "manifest.csv"), "--model",
                   str(workdir / "models" / "model.pipe1"), "--t-low", "2",
                   "--t-high", "6", "--water-spray"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("# t_low=2 t_high=6")
        assert "water_spray=1" in out

    def test_frames_are_decoded_as_the_alert_unit_asks(self, small,
                                                       monkeypatch):
        calls = []
        load, alert_step = ManifestRecord.load_image, fatigue.alert_step

        def logged_load(record):
            calls.append("load")
            return load(record)

        def logged_step(*args, **kwargs):
            calls.append("step")
            return alert_step(*args, **kwargs)

        monkeypatch.setattr(ManifestRecord, "load_image", logged_load)
        monkeypatch.setattr(fatigue, "alert_step", logged_step)
        assert main(["simulate", "--manifest",
                     str(small / "data" / "manifest.csv"), "--model",
                     str(small / "models" / "model.pipe1"), "--out",
                     str(small / "alternating.txt")]) == 0
        assert calls == ["load", "step"] * 8


class TestDetectTrain:
    def test_writes_cascade(self, workdir):
        out = workdir / "cascade.txt"
        rc = main(["detect-train", "--out", str(out), "--n-frames", "40",
                   "--stage-rounds", "2,4", "--feature-step", "4",
                   "--seed", "5"])
        assert rc == 0
        cascade = load_cascade(out.read_text())
        assert len(cascade.stages) == 2
        assert (cascade.base_w, cascade.base_h) == (24, 24)

    def test_target_rate_is_applied(self, tmp_path):
        out = tmp_path / "cascade.txt"
        argv = ["detect-train", "--out", str(out), "--n-frames", "10",
                "--stage-rounds", "1", "--feature-step", "6", "--seed", "5"]
        assert main(argv + ["--target-rate", "0.5"]) == 0
        half = load_cascade(out.read_text())
        assert main(argv) == 0
        default = load_cascade(out.read_text())
        # the same stump; the lower rate keeps the half-vote threshold,
        # which some positives fail, where 0.99 lowers it to pass them
        assert half.stages[0].weak == default.stages[0].weak
        assert half.stages[0].threshold > default.stages[0].threshold


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main(["bogus-command"]) == 1
        assert main(["train", "--manifest"]) == 1

    @pytest.mark.parametrize("flag, value", [
        pytest.param("--stage-rounds", v, id=v)
        for v in ("a,b", "3,", "4,0", "-2")] + [
        ("--feature-step", "0"), ("--n-frames", "0"),
        ("--target-rate", "0"), ("--target-rate", "1.5")] + [
        ("--folds", v) for v in ("1", "0", "-2")])
    def test_bad_stage_rounds_is_usage_error(self, workdir, flag, value,
                                             capsys):
        out = workdir / "never.txt"
        if flag == "--folds":
            argv = ["eval", "--manifest",
                    str(workdir / "data" / "manifest.csv"), "--model",
                    str(workdir / "models" / "model.pipe1"), "--json-out",
                    str(out)]
        else:
            argv = ["detect-train", "--out", str(out)]
        assert main(argv + [flag, value]) == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--t-low", "30"], ["train", "--svm-c", "-1"],
        ["train", "--svm-gamma", "0"], ["simulate", "--sample-period", "nan"],
        ["simulate", "--alarm-duration", "nan"],
        ["train", "--pca-variance", "nan"],
        ["simulate", "--sample-period", "5e-324"],
        ["simulate", "--sample-period", "1e308"]],
        ids=["t-low-above-t-high", "svm-c-negative", "svm-gamma-zero",
             "sample-period-nan", "alarm-duration-nan", "pca-variance-nan",
             "durations-infinite-in-ticks", "tick-times-overflow"])
    def test_bad_config_value_is_data_error(self, workdir, argv, capsys):
        manifest = str(workdir / "data" / "manifest.csv")
        extra = (["--model", str(workdir / "models" / "model.pipe1")]
                 if argv[0] == "simulate" else
                 ["--out-dir", str(workdir / "never")])
        assert main(argv[:1] + ["--manifest", manifest] + extra
                    + argv[1:]) == 2
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--svm-gamma", "nan", "gamma must be positive and finite"),
        ("--svm-gamma", "inf", "gamma must be positive and finite"),
        ("--svm-c", "inf", "svm_c must be positive and finite"),
        ("--svm-c", "1e999", "svm_c must be positive and finite"),
        ("--pca-k", "0", "pca_k must be >= 1")])
    def test_setting_outside_its_range_is_data_error(
            self, workdir, tmp_path, monkeypatch, flag, value, message,
            capsys):
        # refused as the config is built, before a frame is read: a NaN or
        # infinite gamma failed SMO's feasibility assert, and an infinite C
        # saved an SVM1 that load_svm refuses
        def no_frame(record):
            raise AssertionError("a frame was read")

        monkeypatch.setattr(ManifestRecord, "load_image", no_frame)
        out = tmp_path / "never"
        assert main(["train", "--manifest",
                     str(workdir / "data" / "manifest.csv"), "--out-dir",
                     str(out), flag, value]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("no_face_policy = sometimes", "expected skip or fatigued"),
        ("svm_max_passes = 0", "svm_max_passes must be >= 1"),
        ("water_spray = maybe", "expected on/off"),
        ("eye_window = 10 20 80", "expected 'x y w h'"),
        ("svm_gamma = nan", "gamma must be positive and finite"),
        ("denoise_spatial_sigma = 1e-200", "denoise_spatial_sigma must be"),
        ("denoise_spatial_sigma = 1e-160", "denoise_spatial_sigma must be"),
        ("denoise_range_sigma = 1e-200", "denoise_range_sigma must be"),
        ("denoise_range_sigma = 1e-160", "denoise_range_sigma must be")],
        ids=["no-face-policy", "svm-max-passes", "bool", "rect",
             "svm-gamma-nan", "spatial-sigma-zero", "spatial-sigma-subnormal",
             "range-sigma-zero", "range-sigma-subnormal"])
    def test_refused_config_line_is_data_error(self, workdir, tmp_path,
                                               line, message, capsys):
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text(line + "\n")
        assert main(["train", "--manifest",
                     str(workdir / "data" / "manifest.csv"), "--out-dir",
                     str(tmp_path / "never"), "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "never").exists()

    def test_flag_value_is_taken_whole(self, workdir, face_cascade, tmp_path,
                                       capsys):
        # a config file's value ends at '#' and its line at a newline; a
        # flag's value is a value, not config text
        manifest = str(workdir / "data" / "manifest.csv")
        cascade = tmp_path / "c#1.txt"
        cascade.write_text(save_cascade(face_cascade))
        out = tmp_path / "models"
        assert main(["train", "--manifest", manifest, "--out-dir", str(out),
                     "--detector", str(cascade)]) == 0
        model = load_pipeline((out / "model.pipe1").read_text())
        assert save_cascade(model.cascade) == save_cascade(face_cascade)
        capsys.readouterr()
        value = "off\npca_k = 3"
        assert main(["train", "--manifest", manifest, "--out-dir",
                     str(tmp_path / "never"), "--detector", value]) == 3
        assert f"cannot read {value}" in capsys.readouterr().err
        assert not (tmp_path / "never").exists()

    @pytest.mark.parametrize("header, message", [
        (b"P5 4 4", "truncated header"), (b"P5 4 4 # 255\n", "truncated"),
        (b"P5 4 4 255", "missing whitespace before raster")])
    def test_malformed_frame_header_is_data_error(self, tmp_path, header,
                                                  message, capsys):
        frame = tmp_path / "bad.pgm"
        frame.write_bytes(header)
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(f"{frame},-1\n{frame},+1\n")
        out = tmp_path / "never"
        assert main(["train", "--manifest", str(manifest), "--out-dir",
                     str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("width", [b"1" * 5000, b"0" * 5000 + b"2"],
                             ids=["5000-digits", "5000-zeros-then-2"])
    def test_overlong_header_number_is_data_error(self, tmp_path, width,
                                                  capsys):
        # Python's int() refuses either token past 4,300 digits; the first
        # is refused as malformed, the second reads as 2 and its short
        # raster is the data error
        frame = tmp_path / "long.pgm"
        frame.write_bytes(b"P5 " + width + b" 2 255\n" + bytes(3))
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(f"{frame},-1\n{frame},+1\n")
        out = tmp_path / "never"
        assert main(["train", "--manifest", str(manifest), "--out-dir",
                     str(out)]) == 2
        err = capsys.readouterr().err
        assert ("header number of more than 9 digits" if b"1" in width
                else "raster has 3 bytes, expected 4") in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_pca_off_the_roi_layout_is_model_error(self, workdir, tmp_path,
                                                   capsys):
        # PIPE_TEXT's PCA takes 3 values: an eye window of 2 and a mouth
        # window of 1 pixel; a 2-pixel mouth window makes the layout 4
        model = tmp_path / "model.pipe1"
        model.write_text(PIPE_TEXT.replace("mouth_window = 0 2 1 1",
                                           "mouth_window = 0 2 2 1"))
        assert main(["eval", "--manifest",
                     str(workdir / "data" / "manifest.csv"), "--model",
                     str(model)]) == 3
        assert "PCA dimension 3 does not match the 4-entry ROI layout" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "detect-train"])
    def test_negative_seed_is_usage_error(self, small, command, capsys):
        out = small / "never.txt"
        argv = (["eval", "--manifest", str(small / "data" / "manifest.csv"),
                 "--model", str(small / "models" / "model.pipe1"),
                 "--json-out", str(out)] if command == "eval" else
                ["detect-train", "--out", str(out)])
        assert main(argv + ["--seed", "-1"]) == 1
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["\u0661\u0660", "\uff11\uff10", "1_0"],
                             ids=["arabic-indic", "fullwidth", "underscore"])
    @pytest.mark.parametrize("command, flag", [
        ("train", "--pca-k"), ("simulate", "--t-low"), ("eval", "--folds"),
        ("synth", "--n-frames"), ("detect-train", "--stage-rounds")])
    def test_number_outside_ascii_is_usage_error(self, small, command, flag,
                                                 value, capsys):
        # numbers on the command line follow the rule config files follow
        out = small / "never"
        manifest = str(small / "data" / "manifest.csv")
        model = str(small / "models" / "model.pipe1")
        argv = {"train": ["--manifest", manifest, "--out-dir", str(out)],
                "simulate": ["--manifest", manifest, "--model", model,
                             "--out", str(out)],
                "eval": ["--manifest", manifest, "--model", model,
                         "--json-out", str(out)],
                "synth": ["--out", str(out)],
                "detect-train": ["--out", str(out)]}[command]
        assert main([command] + argv + [flag, value]) == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, code", [
        ("--detector", 3), ("--model", 3), ("--config", 2)])
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_file_is_typed_error(self, small, tmp_path, flag,
                                            code, kind, capsys):
        # model and cascade files are model files (3), config files data (2)
        path = tmp_path / "ghost" if kind == "missing" else tmp_path
        manifest = str(small / "data" / "manifest.csv")
        never = tmp_path / "never"
        if flag == "--model":
            argv = ["eval", "--manifest", manifest, "--model", str(path)]
        else:
            argv = ["train", "--manifest", manifest, "--out-dir", str(never),
                    flag, str(path)]
        assert main(argv) == code
        assert f"cannot read {path}" in capsys.readouterr().err
        assert not never.exists()

    def test_data_error(self, workdir):
        assert main(["train", "--manifest", str(workdir / "ghost.csv"),
                     "--out-dir", str(workdir / "x")]) == 2

    @pytest.mark.parametrize("case, message", [
        ("out-dir-under-a-file", "i/o error"),
        ("no-face-in-any-frame", "every frame was skipped")])
    def test_failed_train_is_data_error(self, small, face_cascade, tmp_path,
                                        case, message, capsys):
        manifest = small / "data" / "manifest.csv"
        out = tmp_path / "models"
        extra = []
        if case == "out-dir-under-a-file":
            (tmp_path / "file").write_text("")
            out = tmp_path / "file" / "sub"
        else:
            blank = tmp_path / "blank.pgm"
            blank.write_bytes(save_pnm(Image.from_array(
                np.full((160, 160), BACKGROUND, dtype=np.uint8))))
            manifest = tmp_path / "manifest.csv"
            manifest.write_text(f"{blank},-1\n{blank},+1\n")
            cascade = tmp_path / "cascade.txt"
            cascade.write_text(save_cascade(face_cascade))
            extra = ["--detector", str(cascade)]
        capsys.readouterr()
        assert main(["train", "--manifest", str(manifest), "--out-dir",
                     str(out)] + extra) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_cascade_rect_outside_window_is_model_error(self, workdir,
                                                       tmp_path, capsys):
        cascade = tmp_path / "cascade.txt"
        cascade.write_text("CASCADE1 24 24 1\nSTAGE 1 0.5\n"
                           "WEAK 2H -4 -2 30 10 0.25 1 1.0\n")
        assert main(["train", "--manifest",
                     str(workdir / "data" / "manifest.csv"), "--out-dir",
                     str(tmp_path / "never"), "--detector",
                     str(cascade)]) == 3
        assert "line 3" in capsys.readouterr().err

    def test_negative_pca_count_is_model_error(self, workdir, tmp_path,
                                               capsys):
        text = (workdir / "models" / "model.pipe1").read_text()
        head = next(line for line in text.splitlines()
                    if line.startswith("PCA1 "))
        model = tmp_path / "model.pipe1"
        model.write_text(text.replace(head, head.split()[0] + " 4000 -1"))
        assert main(["eval", "--manifest",
                     str(workdir / "data" / "manifest.csv"), "--model",
                     str(model)]) == 3
        assert "negative count" in capsys.readouterr().err

    def test_nan_cascade_alpha_is_model_error(self, workdir, tmp_path,
                                              capsys):
        cascade = tmp_path / "cascade.txt"
        cascade.write_text("CASCADE1 24 24 1\nSTAGE 1 0.5\n"
                           "WEAK 2H 0 0 12 12 0.25 1 nan\n")
        assert main(["train", "--manifest",
                     str(workdir / "data" / "manifest.csv"), "--out-dir",
                     str(tmp_path / "never"), "--detector",
                     str(cascade)]) == 3
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("factor", ["1.001", "1.000001", "1"])
    def test_scan_factor_below_floor_is_refused(self, workdir, tmp_path,
                                                factor, capsys):
        # a factor just above 1 would compile about 1 / ln(factor) scan
        # levels: refused from a config file (data) and a PIPE1 (model)
        manifest = str(workdir / "data" / "manifest.csv")
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text(f"scale_factor = {factor}\n")
        assert main(["train", "--manifest", manifest, "--out-dir",
                     str(tmp_path / "never"), "--config", str(cfg)]) == 2
        assert "scale_factor must be finite and at least 1.01" in \
            capsys.readouterr().err
        assert not (tmp_path / "never").exists()
        model = tmp_path / "model.pipe1"
        model.write_text(PIPE_TEXT.replace("scale_factor = 1.25",
                                           f"scale_factor = {factor}"))
        assert main(["eval", "--manifest", manifest, "--model",
                     str(model)]) == 3
        assert "scale_factor must be finite and at least 1.01" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "simulate"])
    def test_frame_over_scan_cap_is_data_error(self, tmp_path, command,
                                               capsys):
        # step_frac 0.01 steps 1 px until the window reaches 50 px: a
        # 600 x 600 frame needs 2,662,181 scan windows, over the cap
        frame = tmp_path / "big.pgm"
        frame.write_bytes(save_pnm(Image.from_array(
            np.full((600, 600), BACKGROUND, dtype=np.uint8))))
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(f"{frame},-1\n{frame},+1\n")
        out = tmp_path / "never"
        if command == "train":
            cascade, cfg = tmp_path / "cascade.txt", tmp_path / "scan.cfg"
            cascade.write_text(CASCADE_TEXT)
            cfg.write_text("step_frac = 0.01\n")
            argv = ["--out-dir", str(out), "--config", str(cfg),
                    "--detector", str(cascade)]
        else:
            model = tmp_path / "model.pipe1"
            model.write_text(PIPE_TEXT.replace("step_frac = 0.08",
                                               "step_frac = 0.01"))
            argv = ["--model", str(model), "--out", str(out)]
        capsys.readouterr()
        assert main([command, "--manifest", str(manifest)] + argv) == 2
        assert "600x600 image needs 2662181 scan windows" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_repeated_config_key_is_data_error(self, workdir, tmp_path,
                                               capsys):
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text("clahe_tiles = 3\nclahe_tiles = 8\n")
        assert main(["train", "--manifest",
                     str(workdir / "data" / "manifest.csv"), "--out-dir",
                     str(tmp_path / "never"), "--config", str(cfg)]) == 2
        assert "repeated key 'clahe_tiles'" in capsys.readouterr().err
        assert not (tmp_path / "never").exists()

    def test_repeated_section_key_is_model_error(self, workdir, tmp_path,
                                                 capsys):
        text = (workdir / "models" / "model.pipe1").read_text()
        model = tmp_path / "model.pipe1"
        model.write_text(text.replace("clahe_tiles = 8\n",
                                      "clahe_tiles = 3\nclahe_tiles = 8\n"))
        assert main(["eval", "--manifest",
                     str(workdir / "data" / "manifest.csv"), "--model",
                     str(model)]) == 3
        assert "repeated key 'clahe_tiles'" in capsys.readouterr().err

    def test_overflowing_svm_is_model_error(self, workdir, tmp_path, capsys):
        text = (workdir / "models" / "model.pipe1").read_text()
        head, rest = text.split("SECTION svm\n")
        k = int(rest.split()[1])
        rows = "".join(f"{coef} {' '.join(['1e308'] * k)}\n"
                       for coef in (0.5, -0.5))
        model = tmp_path / "model.pipe1"
        model.write_text(f"{head}SECTION svm\nSVM1 {k} 2 1.0 linear\n0.0\n"
                         f"{rows}{rest[rest.index('END'):]}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["eval", "--manifest",
                         str(workdir / "data" / "manifest.csv"), "--model",
                         str(model)]) == 3
        assert "not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, code", [
        ("--manifest", 2), ("--config", 2), ("--model", 3),
        ("--detector", 3)])
    def test_undecodable_file_is_typed_error(self, workdir, tmp_path, flag,
                                             code, capsys):
        manifest = workdir / "data" / "manifest.csv"
        text = {"--manifest": manifest.read_bytes(),
                "--config": b"clahe_tiles = 8\nseed = 1\n",
                "--model": (workdir / "models" / "model.pipe1").read_bytes(),
                "--detector": b"CASCADE1 24 24 1\nSTAGE 1 0.5\n"}[flag]
        bad = tmp_path / "bad.txt"
        bad.write_bytes(text[:12] + b"\xff" + text[12:])
        never = tmp_path / "never"
        if flag == "--model":
            argv = ["eval", "--manifest", str(manifest), "--model", str(bad)]
        elif flag == "--manifest":
            argv = ["train", "--manifest", str(bad), "--out-dir", str(never)]
        else:
            argv = ["train", "--manifest", str(manifest), "--out-dir",
                    str(never), flag, str(bad)]
        assert main(argv) == code
        assert "is not text" in capsys.readouterr().err
        assert not never.exists()

    @pytest.mark.parametrize("command, flag", [
        ("train", "--config"), ("train", "--out-dir"), ("eval", "--model"),
        ("eval", "--json-out"), ("simulate", "--config"),
        ("simulate", "--out")])
    def test_nul_in_an_argument_is_usage_error(self, small, command, flag,
                                               tmp_path, capsys):
        argv = {"train": ["--out-dir", str(tmp_path / "out")],
                "eval": ["--model", str(small / "models" / "model.pipe1")],
                "simulate": ["--model",
                             str(small / "models" / "model.pipe1")]}[command]
        assert main([command, "--manifest",
                     str(small / "data" / "manifest.csv"), *argv, flag,
                     str(tmp_path / "a\0b")]) == 1
        assert "NUL byte" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_nul_in_config_cascade_path_is_data_error(self, workdir,
                                                      tmp_path, capsys):
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text("cascade_path = cas\0cade.txt\n")
        assert main(["train", "--manifest",
                     str(workdir / "data" / "manifest.csv"), "--out-dir",
                     str(tmp_path / "never"), "--config", str(cfg)]) == 2
        assert "NUL byte" in capsys.readouterr().err
        assert not (tmp_path / "never").exists()

    @pytest.mark.parametrize("tol", ["2", "5"])
    def test_svm_tol_outside_0_2_is_data_error(self, workdir, tmp_path, tol,
                                               capsys):
        # at tol >= 2 SMO stops before its first step: a constant model
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text(f"svm_tol = {tol}\n")
        assert main(["train", "--manifest",
                     str(workdir / "data" / "manifest.csv"), "--out-dir",
                     str(tmp_path / "never"), "--config", str(cfg)]) == 2
        assert "svm_tol must be in (0, 2)" in capsys.readouterr().err
        assert not (tmp_path / "never").exists()

    @pytest.mark.parametrize("line", [
        "pca_k = \u0661", "svm_c = 1_0", "eye_window = \uff11\uff10 20 80 30"],
        ids=["arabic-indic", "underscore", "fullwidth"])
    def test_config_number_outside_ascii_is_data_error(self, workdir,
                                                       tmp_path, line,
                                                       capsys):
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text(line + "\n")
        assert main(["train", "--manifest",
                     str(workdir / "data" / "manifest.csv"), "--out-dir",
                     str(tmp_path / "never"), "--config", str(cfg)]) == 2
        assert "not ASCII" in capsys.readouterr().err
        assert not (tmp_path / "never").exists()

    @pytest.mark.parametrize("x", ["\u0661\u0660", "1_0", "\uff11\uff10"],
                             ids=["arabic-indic", "underscore", "fullwidth"])
    def test_box_outside_ascii_is_data_error(self, workdir, tmp_path, x,
                                             capsys):
        data = workdir / "data"
        header, first = (data / "manifest.csv").read_text().splitlines()[:2]
        fields = first.split(",")
        fields[0], fields[3] = str(data / fields[0]), x
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(f"{header}\n{','.join(fields)}\n")
        assert main(["train", "--manifest", str(manifest), "--out-dir",
                     str(tmp_path / "never")]) == 2
        assert "line 2: bad box" in capsys.readouterr().err
        assert not (tmp_path / "never").exists()

    def test_model_error(self, workdir):
        bad_model = workdir / "data" / "manifest.csv"  # not a PIPE1 file
        assert main(["eval", "--manifest",
                     str(workdir / "data" / "manifest.csv"), "--model",
                     str(bad_model)]) == 3

    def test_config_file_round_trip(self, workdir, capsys):
        assert main(["default-config"]) == 0
        text = capsys.readouterr().out
        cfg_path = workdir / "pipeline.cfg"
        cfg_path.write_text(text)
        rc = main(["train", "--manifest",
                   str(workdir / "data" / "manifest.csv"), "--out-dir",
                   str(workdir / "m3"), "--config", str(cfg_path),
                   "--seed", "1"])
        assert rc == 0
        assert (workdir / "m3" / "model.pipe1").read_bytes() == \
            (workdir / "models" / "model.pipe1").read_bytes()


# Any number argparse reads as a number, plus text it may not
NUMBER_TEXT = (st.integers().map(str) | st.floats().map(repr)
               | st.sampled_from(["1e400", "-0", "0x10", "1_0", " 7", ""]))


def _flags(draw, names):
    """Some of the flags, each with a drawn value."""
    chosen = draw(st.lists(st.sampled_from(names), unique=True, max_size=4))
    return [part for flag in chosen for part in (flag, draw(NUMBER_TEXT))]


class TestNumericFlags:
    """cli.main returns an exit code from 0 to 3 whatever the numbers."""

    @settings(deadline=None)
    @given(st.data())
    def test_synth(self, tmp_path_factory, data):
        # frame count and size only cost time, so they stay small
        size = data.draw(st.lists(st.sampled_from(
            [("--n-frames", st.integers(-2, 3)),
             ("--frame-w", st.integers(-5, 300)),
             ("--frame-h", st.integers(-5, 300))]), unique=True))
        argv = ["synth", "--out", str(tmp_path_factory.mktemp("synth"))]
        for flag, values in size:
            argv += [flag, str(data.draw(values))]
        argv += _flags(data.draw, ["--fraction-fatigued", "--jitter",
                                   "--noise-sigma", "--seed"])
        assert main(argv) in (0, 1, 2, 3)

    @settings(deadline=None)
    @given(st.data())
    def test_simulate(self, small, data):
        argv = ["simulate", "--manifest", str(small / "data" / "manifest.csv"),
                "--model", str(small / "models" / "model.pipe1"),
                "--out", str(small / "trace.txt")]
        argv += _flags(data.draw, ["--t-low", "--t-high", "--alarm-duration",
                                   "--high-persist", "--sample-period"])
        assert main(argv) in (0, 1, 2, 3)

    @settings(deadline=None)
    @given(st.data())
    def test_eval(self, small, data):
        argv = ["eval", "--manifest", str(small / "data" / "manifest.csv"),
                "--model", str(small / "models" / "model.pipe1")]
        argv += _flags(data.draw, ["--folds", "--seed"])
        assert main(argv) in (0, 1, 2, 3)


def _sets_output(token: str) -> bool:
    """Whether argparse would read the token as an output flag; it accepts
    any unambiguous prefix, and a value after "="."""
    name = token.split("=", 1)[0]
    return len(name) > 2 and name.startswith("--") and any(
        flag.startswith(name) for flag in ("--out", "--out-dir", "--json-out"))


# Any argv token but one that moves an output out of the test's directory;
# small numbers and choice values let some runs pass the parser
ARG_TEXT = (NUMBER_TEXT | st.text(max_size=8) | st.integers(0, 12).map(str)
            | st.sampled_from(["\u0663", "\uff13", "_", "1_0", "nan", "-0",
                               "9" * 40, "-" + "9" * 40, "", "-q", "0.5",
                               "off", "linear", "rbf", "fatigued", "a\0"])
            ).filter(lambda token: not _sets_output(token))

# Each command's flags that the fuzz may add, and those that read a file it
# writes mutated; the output flags are always the test's own
FLAGS = {
    "train": ["--manifest", "--config", "--detector", "--pca-k",
              "--pca-variance", "--svm-c", "--svm-kernel", "--svm-gamma",
              "--seed"],
    "eval": ["--manifest", "--model", "--folds", "--seed"],
    "simulate": ["--manifest", "--model", "--config", "--t-low", "--t-high",
                 "--alarm-duration", "--high-persist", "--water-spray",
                 "--sample-period", "--no-face-policy"],
    "default-config": [],
}
FILE_FLAGS = {"train": ["--config", "--detector"], "eval": ["--model"],
              "simulate": ["--model", "--config"], "default-config": []}

# Values by flag kind, so that more runs get past argparse: numbers at and
# past the edges of every setting's range, names holding a '#' or a newline
# (which a config file would cut), choices and a wrong one, and no value
# for a switch
EDGE_NUMBERS = st.sampled_from(["0", "-1", "nan", "inf", "1e999", "1e-320",
                                "\u0663", "\uff13", "1", "3", "0.5", "50"])
NAMES = st.sampled_from(["c#1.txt", "a\nb", "off\npca_k = 3", "off", ""])
NAME_SUFFIXES = st.sampled_from(["", "#1.txt", "\n1", " # x"])
CHOICES = st.sampled_from(["linear", "rbf", "skip", "fatigued", "cubic"])
PATHS = ("--manifest", "--config", "--detector", "--model")


def _values(flag: str):
    """The argv tokens that follow flag."""
    if flag == "--water-spray":
        return st.just([])
    kind = CHOICES if flag in ("--svm-kernel", "--no-face-policy") else \
        NAMES if flag in PATHS else EDGE_NUMBERS | NUMBER_TEXT
    return kind.map(lambda token: [token])


@st.composite
def cli_flags(draw):
    """A command, then up to three of its flags with values drawn by kind,
    and at times a stray token or an unknown flag."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    tokens = []
    flags = FLAGS[command]
    for flag in draw(st.lists(st.sampled_from(flags), max_size=3)) \
            if flags else ():
        tokens += [flag] + draw(_values(flag))
    if draw(st.integers(0, 9)) == 0:
        tokens.append(draw(ARG_TEXT | st.just("--bogus")))
    return command, tokens


class TestWholeCli:
    """cli.main returns an exit code from 0 to 3 whatever its argv tokens
    and whatever the bytes and names of the model, cascade and config
    files."""

    @settings(max_examples=60, deadline=None)
    @example(case=("train", ["--svm-gamma", "nan"]), data=None)
    @given(case=cli_flags(), data=st.data())
    def test_any_argv_and_file_bytes(self, small, face_cascade,
                                     tmp_path_factory, case, data):
        out = tmp_path_factory.mktemp("fuzz")
        manifest = str(small / "data" / "manifest.csv")
        command, tokens = case
        argv = [command] + {
            "train": ["--manifest", manifest, "--out-dir", str(out / "m")],
            "eval": ["--manifest", manifest, "--model",
                     str(small / "models" / "model.pipe1"),
                     "--json-out", str(out / "report.json")],
            "simulate": ["--manifest", manifest, "--model",
                         str(small / "models" / "model.pipe1"),
                         "--out", str(out / "trace.txt")],
            "default-config": []}[command] + tokens
        bases = {"--model": [(small / "models" / "model.pipe1").read_text(),
                             PIPE_TEXT],
                 "--detector": [save_cascade(face_cascade), CASCADE_TEXT],
                 "--config": [render_config(PipelineConfig())]}
        # an explicit example (data None) writes no file
        for flag in FILE_FLAGS[command] if data is not None else ():
            if data.draw(st.booleans()):
                text, _ = data.draw(mutations(data.draw(st.sampled_from(
                    bases[flag]))))
                path = out / (flag.strip("-") + data.draw(NAME_SUFFIXES))
                path.write_text(text)
                argv += [flag, str(path)]
        assert main(argv) in (0, 1, 2, 3)

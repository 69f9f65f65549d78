"""The rules the four text model formats share: pinned texts of tiny models
built from literal arrays, the faults every loader refuses, and a mutation
fuzz over saved texts of all four formats."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatiguedet.classifier import KernelSpec, SvmModel, load_svm, save_svm
from fatiguedet.detector import (
    Cascade,
    HaarFeature,
    ScanConfig,
    Stage,
    WeakClassifier,
    load_cascade,
    save_cascade,
)
from fatiguedet.errors import ModelError, ParseError
from fatiguedet.features import PcaModel, RoiGeometry, load_pca, save_pca
from fatiguedet.imaging import PreprocessConfig, Rect
from fatiguedet.pipeline import PipelineModel, load_pipeline, save_pipeline


def tiny_cascade(stages=2):
    return Cascade(24, 24, (
        Stage(((WeakClassifier(HaarFeature("2H", Rect(0, 0, 12, 12)),
                               0.25, 1), 1.5),
               (WeakClassifier(HaarFeature("3V", Rect(1, 2, 9, 9)),
                               -math.inf, -1), 0.1)), 1.0),
        Stage(((WeakClassifier(HaarFeature("4", Rect(4, 4, 16, 8)),
                               -3e-05, -1), 2.0),), 2.0))[:stages])


def tiny_pca():
    return PcaModel(mean=np.array([0.5, -1.25, 1e-05]),
                    components=np.array([[0.6, 0.8, 0.0], [0.0, 0.0, 1.0]]),
                    eigenvalues=np.array([123456789.0, 0.1]))


def tiny_svm(kernel=KernelSpec("rbf", 0.5), C=1.0):
    return SvmModel(support_vectors=np.array([[1.0, 2.0], [-1.0, -0.5]]),
                    dual_coef=np.array([0.75, -0.75]), bias=-0.125,
                    kernel=kernel, C=C)


def tiny_pipeline():
    return PipelineModel(
        geometry=RoiGeometry(4, Rect(0, 0, 2, 1), Rect(0, 2, 1, 1)),
        preprocess=PreprocessConfig(), pca=tiny_pca(), svm=tiny_svm(),
        cascade=tiny_cascade(stages=1), scan=ScanConfig())


CASCADE_TEXT = """\
CASCADE1 24 24 2
STAGE 2 1.0
WEAK 2H 0 0 12 12 0.25 1 1.5
WEAK 3V 1 2 9 9 -inf -1 0.1
STAGE 1 2.0
WEAK 4 4 4 16 8 -3e-05 -1 2.0
"""

PCA_TEXT = """\
PCA1 3 2
0.5 -1.25 1e-05
123456789.0 0.6 0.8 0.0
0.1 0.0 0.0 1.0
"""

SVM_TEXT = """\
SVM1 2 2 1.0 rbf 0.5
-0.125
0.75 1.0 2.0
-0.75 -1.0 -0.5
"""

SVM_LINEAR_TEXT = SVM_TEXT.replace("1.0 rbf 0.5", "2.5 linear")

PIPE_TEXT = """\
PIPE1
SECTION geometry
face_side = 4
eye_window = 0 0 2 1
mouth_window = 0 2 1 1
END
SECTION preprocess
low_light = auto
low_light_threshold = 60.0
denoise_spatial_sigma = 1.5
denoise_range_sigma = 30.0
clahe_tiles = 8
clahe_clip_limit = 2.0
END
SECTION scan
scale_factor = 1.25
step_frac = 0.08
group_iou = 0.3
min_neighbors = 3
END
SECTION cascade
CASCADE1 24 24 1
STAGE 2 1.0
WEAK 2H 0 0 12 12 0.25 1 1.5
WEAK 3V 1 2 9 9 -inf -1 0.1
END
SECTION pca
PCA1 3 2
0.5 -1.25 1e-05
123456789.0 0.6 0.8 0.0
0.1 0.0 0.0 1.0
END
SECTION svm
SVM1 2 2 1.0 rbf 0.5
-0.125
0.75 1.0 2.0
-0.75 -1.0 -0.5
END
"""


class TestGoldenText:
    def test_cascade(self):
        assert save_cascade(tiny_cascade()) == CASCADE_TEXT
        assert save_cascade(load_cascade(CASCADE_TEXT)) == CASCADE_TEXT

    def test_pca(self):
        assert save_pca(tiny_pca()) == PCA_TEXT
        assert save_pca(load_pca(PCA_TEXT)) == PCA_TEXT

    @pytest.mark.parametrize("kernel, C, text", [
        (KernelSpec("rbf", 0.5), 1.0, SVM_TEXT),
        (KernelSpec("linear"), 2.5, SVM_LINEAR_TEXT)],
        ids=["rbf", "linear"])
    def test_svm(self, kernel, C, text):
        assert save_svm(tiny_svm(kernel, C)) == text
        assert save_svm(load_svm(text)) == text

    def test_pipeline(self):
        assert save_pipeline(tiny_pipeline()) == PIPE_TEXT
        assert save_pipeline(load_pipeline(PIPE_TEXT)) == PIPE_TEXT


WEAK = "WEAK 2H 0 0 12 12 0.25 1 1.0\n"


class TestMalformed:
    @pytest.mark.parametrize("load, text", [
        (load_pca, "PCA1 4 -1\n0 0 0 0\n"),
        (load_svm, "SVM1 1 -2 1.0 linear\n0.0\n"),
        (load_pca, "PCA1 2 1 7\n0.0 0.0\n1.0 1.0 0.0\n"),
        (load_pca, PCA_TEXT + "0.1 0.0 0.0 1.0\n"),
        (load_svm, SVM_LINEAR_TEXT.replace("linear", "linear 0.5")),
        (load_svm, SVM_TEXT.replace("rbf 0.5", "rbf")),
        (load_svm, SVM_TEXT + "junk\n"),
        (load_cascade, "CASCADE1 24 24 1 9\nSTAGE 1 0.5\n" + WEAK),
        (load_cascade, "CASCADE1 24 24 1\nSTAGE 1 0.5\n" + WEAK + WEAK),
        (load_cascade, "CASCADE1 24 24 1\nSTAGE 1 nan\n" + WEAK),
        (load_cascade, "CASCADE1 24 24 1\nSTAGE 1 0.5\n"
                       + WEAK.replace("0.25", "nan")),
        (load_cascade, "CASCADE1 24 24 1\nSTAGE 1 0.5\n"
                       + WEAK.replace("1.0\n", "nan\n")),
        (load_cascade, "CASCADE1 24 24 1\nSTAGE 1 0.5\n"
                       + WEAK.replace("1.0\n", "inf\n")),
        (load_cascade, "CASCADE1 24 24 1\nSTAGE -1 0.5\n"),
        (load_pipeline, PIPE_TEXT.replace("PIPE1", "PIPE1 extra")),
        (load_pipeline, PIPE_TEXT.replace("PCA1 3 2", "PCA1 3 -1")),
        (load_pipeline, PIPE_TEXT + "SECTION mystery\nEND\n"),
        (load_pipeline, PIPE_TEXT + "SECTION scan\nscale_factor = 1.25\n"
                        "step_frac = 0.08\ngroup_iou = 0.3\nmin_neighbors = 3\n"
                        "END\n"),
        (load_pipeline, PIPE_TEXT.replace("STAGE 2", "STAGE 1")),
        (load_pipeline, PIPE_TEXT.replace("min_neighbors = 3\nEND\n",
                                          "min_neighbors = 3\n")),
        (load_pca, PCA_TEXT.replace("PCA1 3 2", "PCA1 \u0663 2")),
        (load_svm, SVM_TEXT.replace("1.0 rbf", "1_0.0 rbf")),
        (load_cascade, "CASCADE1 2_4 24 1\nSTAGE 1 0.5\n" + WEAK),
        (load_cascade, "CASCADE1 24 24 1\nSTAGE 1 0.5\n"
                       + WEAK.replace("12 12", "\uff11\uff12 12")),
        (load_pipeline, PIPE_TEXT.replace("face_side = 4",
                                          "face_side = \u0664"))],
        ids=["pca-negative-count", "svm-negative-count", "pca-extra-field",
             "pca-extra-row", "svm-linear-with-gamma",
             "svm-rbf-without-gamma", "svm-trailing-line",
             "cascade-extra-field", "cascade-extra-weak",
             "cascade-nan-stage-threshold", "cascade-nan-weak-threshold",
             "cascade-nan-alpha", "cascade-inf-alpha",
             "cascade-negative-weak-count", "pipe-extra-field",
             "pipe-negative-pca-count", "pipe-unknown-section",
             "pipe-repeated-section", "pipe-cascade-trailing-weak",
             "pipe-scan-swallows-cascade", "pca-arabic-indic-count",
             "svm-underscore-float", "cascade-underscore-width",
             "cascade-fullwidth-rect", "pipe-arabic-indic-setting"])
    def test_parse_error(self, load, text):
        with pytest.raises(ParseError):
            load(text)

    def test_inf_weak_threshold_loads(self):
        text = ("CASCADE1 24 24 1\nSTAGE 1 0.5\n"
                + WEAK.replace("0.25", "-inf"))
        assert load_cascade(text).stages[0].weak[0][0].threshold == -math.inf
        assert load_cascade(text + "\n  \n") == load_cascade(text)

    @pytest.mark.parametrize("load, head", [
        (load_cascade, "CASCADE 24 24 1"), (load_pca, "PCAX 3 2"),
        (load_svm, "SVM 2 2 1.0 rbf 0.5"), (load_pipeline, "PIPE")])
    def test_stem_without_version_number_is_parse_error(self, load, head):
        with pytest.raises(ParseError):
            load(head + "\n")


BASES = {load_cascade: CASCADE_TEXT, load_pca: PCA_TEXT, load_svm: SVM_TEXT,
         load_pipeline: PIPE_TEXT}


@st.composite
def mutations(draw, text):
    """text with one token replaced, or one line dropped, duplicated or
    appended; the flag says whether every loader must refuse it."""
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(["replace", "drop", "duplicate", "append"]))
    must_fail = kind in ("drop", "append")
    if kind == "replace":
        tokens = lines[i].split()
        bad = draw(st.sampled_from(["-1", "nan", "inf", "-inf", "x", ""]))
        tokens[draw(st.integers(0, len(tokens) - 1))] = bad
        lines[i] = " ".join(tokens)
        must_fail = bad in ("nan", "x", "")
    elif kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        must_fail = "=" in lines[i]  # a PIPE1 settings key named twice
        lines.insert(i, lines[i])
    else:
        lines.append(draw(st.sampled_from(lines + ["x", "-1", "nan"])))
    return "\n".join(lines) + "\n", must_fail


class TestFuzz:
    @pytest.mark.parametrize("load", list(BASES),
                             ids=lambda load: load.__name__)
    @settings(max_examples=150)
    @given(data=st.data())
    def test_mutated_text_loads_or_is_model_error(self, load, data):
        text, must_fail = data.draw(mutations(BASES[load]))
        try:
            load(text)
        except ModelError:
            return
        assert not must_fail, text

"""End-to-end orchestration: manifest ingestion, pipeline fitting,
streaming inference into the alert unit, cross-validated evaluation, and
the PIPE1 composite model file.

A fitted pipeline bundles the ROI geometry, preprocessing settings, an
optional face-detection cascade with its scan settings, the PCA basis, and
the SVM. Training and inference are byte-reproducible from the inputs and
config for a given BLAS thread count (the PCA fit's `np.linalg.eigh` rounds
differently with it). No step is random, so nothing reads the config `seed`
key, which stays so that existing config files and `train --seed` parse.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import os
from dataclasses import dataclass, replace
from functools import cache
from pathlib import Path
from typing import Iterable, Iterator, Sequence, get_args, get_type_hints

import numpy as np

from . import classifier, fatigue, features
from .classifier import KernelSpec, SvmModel
from .detector import Cascade, ScanConfig, check_scan, detect, \
    load_cascade, save_cascade
from .errors import (
    BadLabel,
    ConfigError,
    EmptyManifest,
    FatigueDetError,
    ManifestError,
    MissingFile,
    ModelMismatch,
    NoFacesFound,
    ParseError,
    SingleClass,
)
from .features import PcaModel, RoiGeometry, load_pca, save_pca
from .imaging import Image, PreprocessConfig, Rect, load_pnm, paste, \
    preprocess
from .textmodel import ModelText, format_floats, integer, real, render

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Input files

def read_text(path: str | Path, error: type[FatigueDetError]) -> str:
    """The text of a file; a file that cannot be read or whose bytes do not
    decode raises `error`."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not text: {exc}") from None
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror}") from None


@dataclass(frozen=True)
class ManifestRecord:
    path: Path
    label: int  # +1 fatigued, -1 alert
    group: str | None = None
    box: Rect | None = None

    def load_image(self) -> Image:
        return load_pnm(self.path.read_bytes())


# The accepted label spellings, after surrounding whitespace is stripped.
_LABELS = {"1": 1, "+1": 1, "-1": -1}


def _parse_label(token: str, line_no: int) -> int:
    if token not in _LABELS:
        raise BadLabel(f"line {line_no}: label {token!r} is not +1/-1")
    return _LABELS[token]


def ingest(manifest_path: str | Path) -> list[ManifestRecord]:
    """Read a manifest CSV: path,label[,group[,x,y,w,h]] per record.

    A label is 1, +1 or -1. An optional first line whose label field holds
    no digit is a header. Paths resolve relative to the manifest's directory
    and must name files.
    """
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise MissingFile(f"manifest {manifest_path} does not exist")
    base = manifest_path.parent
    records: list[ManifestRecord] = []
    text = io.StringIO(read_text(manifest_path, ManifestError), newline="")
    try:
        rows = list(csv.reader(text))
    except csv.Error as exc:  # e.g. a field over the csv size limit
        raise ManifestError(f"{manifest_path}: {exc}") from None
    for line_no, row in enumerate(rows, start=1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) < 2:
            raise ManifestError(f"line {line_no}: expected at least "
                                f"path,label")
        if line_no == 1 and not any(c.isdigit() for c in row[1]):
            continue  # header line
        if len(row) not in (2, 3, 7):
            raise ManifestError(
                f"line {line_no}: expected 2, 3, or 7 fields, "
                f"got {len(row)}")
        label = _parse_label(row[1].strip(), line_no)
        group = row[2].strip() or None if len(row) >= 3 else None
        box = None
        if len(row) == 7:
            try:
                x, y, w, h = (integer(v) for v in row[3:7])
                box = Rect(x, y, w, h)
            except ValueError as exc:
                raise ManifestError(f"line {line_no}: bad box: {exc}") \
                    from None
        path = base / row[0].strip()
        if not os.path.isfile(path):  # False for a name the OS rejects
            raise MissingFile(f"line {line_no}: {path} is not a file")
        records.append(ManifestRecord(path, label, group, box))
    if not records:
        raise EmptyManifest(f"{manifest_path} holds no records")
    return records


# ---------------------------------------------------------------------------
# Configuration

@dataclass(frozen=True)
class PipelineConfig:
    cascade_path: str | None = None
    scan: ScanConfig = ScanConfig()
    preprocess: PreprocessConfig = PreprocessConfig()
    geometry: RoiGeometry = features.DEFAULT_GEOMETRY
    pca_k: int | None = None
    pca_variance: float | None = 0.95
    svm_c: float = 1.0
    svm_kernel: str = "rbf"
    svm_gamma: float | None = None
    svm_tol: float = 1e-3
    svm_max_passes: int = 200
    no_face_policy: str = "skip"  # "skip" or "fatigued"
    alert: fatigue.AlertConfig = fatigue.AlertConfig()
    seed: int = 0

    def __post_init__(self):
        if "\0" in (self.cascade_path or ""):
            raise ValueError("cascade_path holds a NUL byte")
        if self.no_face_policy not in ("skip", "fatigued"):
            raise ValueError(f"no_face_policy: expected skip or fatigued, "
                             f"got {self.no_face_policy!r}")
        self.kernel()  # rejects an unknown kernel or a gamma outside (0, inf)
        if not 0 < self.svm_c < math.inf:  # SVM1 holds finite floats
            raise ValueError("svm_c must be positive and finite")
        if not 0 < self.svm_tol < 2:
            raise ValueError("svm_tol must be in (0, 2)")
        if self.svm_max_passes < 1:
            raise ValueError("svm_max_passes must be >= 1")
        if self.pca_k is not None and self.pca_k < 1:
            raise ValueError("pca_k must be >= 1")
        if self.pca_variance is not None and not 0 < self.pca_variance <= 1:
            raise ValueError("pca_variance must be in (0, 1]")

    def kernel(self) -> KernelSpec:
        return KernelSpec(self.svm_kernel, self.svm_gamma)


# The key = value codec of config files and PIPE1 settings sections. Each
# entry: the '#' heading line before its keys (or None), the PipelineConfig
# field whose dataclass holds the keys (None: the config itself; a PIPE1
# section is named after its field), and the keys in file order. A key
# names its field; a value is parsed by its field's type, and only an
# `X | None` field may be left empty.
_CONFIG_TABLE = (
    ("# face detector ('cascade_path' empty disables detection)", None,
     ("cascade_path",)),
    (None, "scan",
     ("scale_factor", "step_frac", "group_iou", "min_neighbors")),
    ("# preprocessing", "preprocess",
     ("low_light", "low_light_threshold", "denoise_spatial_sigma",
      "denoise_range_sigma", "clahe_tiles", "clahe_clip_limit")),
    ("# ROI geometry", "geometry",
     ("face_side", "eye_window", "mouth_window")),
    ("# PCA ('pca_k' overrides the variance fraction)", None,
     ("pca_k", "pca_variance")),
    ("# SVM ('svm_gamma' empty uses 1/(k*var))", None,
     ("svm_c", "svm_kernel", "svm_gamma", "svm_tol", "svm_max_passes")),
    ("# inference", None, ("no_face_policy",)),
    ("# alert unit", "alert",
     ("t_low", "t_high", "alarm_duration", "high_persist", "water_spray",
      "sample_period", "realarm_on_recheck")),
    ("# misc", None, ("seed",)),
)
_KEYS_OF = {attr: tuple(k for _, a, keys in _CONFIG_TABLE if a == attr
                        for k in keys) for _, attr, _ in _CONFIG_TABLE}
CONFIG_KEYS = frozenset(k for keys in _KEYS_OF.values() for k in keys)
# cached: get_type_hints evaluates the annotation strings on every call
_type_hints = cache(get_type_hints)


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "on" if value else "off"
    if isinstance(value, float):
        return format_floats(value)
    if isinstance(value, Rect):
        return f"{value.x} {value.y} {value.w} {value.h}"
    return str(value)


def _key_lines(obj, keys: Sequence[str]) -> list[str]:
    return [f"{key} = {_format_value(getattr(obj, key))}" for key in keys]


def render_config(cfg: PipelineConfig) -> str:
    """Line-oriented key = value form holding every tunable default."""
    lines = []
    for heading, attr, keys in _CONFIG_TABLE:
        if heading is not None:
            lines.append(heading)
        lines += _key_lines(cfg if attr is None else getattr(cfg, attr), keys)
    return "\n".join(lines) + "\n"


def _parse_bool(token: str) -> bool:
    low = token.lower()
    if low in ("on", "true", "1", "yes"):
        return True
    if low in ("off", "false", "0", "no"):
        return False
    raise ValueError(f"expected on/off, got {token!r}")


def _parse_rect(token: str) -> Rect:
    parts = token.split()
    if len(parts) != 4:
        raise ValueError(f"expected 'x y w h', got {token!r}")
    return Rect(*(integer(v) for v in parts))


def _parse_value(hint, token: str):
    optional = get_args(hint)  # (X, NoneType) for `X | None`
    if optional:
        if token == "":
            return None
        hint = optional[0]
    return {bool: _parse_bool, Rect: _parse_rect, int: integer,
            float: real}.get(hint, hint)(token)


def _update(obj, keys: Sequence[str], values: dict[str, str]):
    """obj with each of keys found in values parsed into its field; a bad
    value raises ConfigError."""
    hints = _type_hints(type(obj))
    changes = {}
    for key in keys:
        if key in values:
            try:
                changes[key] = _parse_value(hints[key], values[key])
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from None
    try:
        return replace(obj, **changes)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _key_values(lines: Sequence[str]) -> dict[str, str]:
    values: dict[str, str] = {}
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in values:
            raise ConfigError(f"line {line_no}: repeated key {key!r}")
        values[key] = value.strip()
    return values


def parse_config(text: str, base: PipelineConfig | None = None,
                 ) -> PipelineConfig:
    """Parse key = value lines ('#' comments allowed) over base defaults."""
    return configure(_key_values(text.splitlines()), base)


def configure(values: dict[str, str], base: PipelineConfig | None = None,
              ) -> PipelineConfig:
    """base (else the defaults) with each config key of values parsed, as
    a whole string, into its field."""
    cfg = base if base is not None else PipelineConfig()
    unknown = values.keys() - CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    parts = {attr: _update(getattr(cfg, attr), keys, values)
             for attr, keys in _KEYS_OF.items() if attr is not None}
    return _update(replace(cfg, **parts), _KEYS_OF[None], values)


# ---------------------------------------------------------------------------
# Pipeline model

@dataclass(frozen=True, eq=False)
class PipelineModel:
    geometry: RoiGeometry
    preprocess: PreprocessConfig
    pca: PcaModel
    svm: SvmModel
    cascade: Cascade | None = None
    scan: ScanConfig = ScanConfig()

    def __post_init__(self):
        if self.svm.n_features != self.pca.k:
            raise ModelMismatch(
                f"SVM expects {self.svm.n_features} inputs but PCA "
                f"produces {self.pca.k}")
        if self.pca.d != self.geometry.vector_length:
            raise ModelMismatch(
                f"PCA dimension {self.pca.d} does not match the "
                f"{self.geometry.vector_length}-entry ROI layout")


def _largest_box(boxes) -> Rect | None:
    if not boxes:
        return None
    return max(boxes, key=lambda b: (b.rect.area, -b.rect.y, -b.rect.x)).rect


def frame_box(img: Image, cascade: Cascade | None, scan: ScanConfig,
              fallback: Rect | None) -> Rect | None:
    """Face box for one preprocessed frame.

    With a cascade, the largest detected box wins (the driver sits nearest
    the camera); without one, the fallback (the manifest ground-truth box)
    or else the whole frame is used.
    """
    if cascade is not None:
        return _largest_box(detect(img, cascade, scan))
    if fallback is not None:
        return fallback
    return Rect(0, 0, img.width, img.height)


def frame_vectors(frames: Iterable[Image],
                  boxes: Sequence[Rect | None] | None,
                  geometry: RoiGeometry, prep: PreprocessConfig,
                  cascade: Cascade | None, scan: ScanConfig,
                  ) -> Iterator[np.ndarray | None]:
    """Each frame's feature vector, or None where no face box is found, one
    frame at a time on one path: preprocess a region, paste it into a zero
    frame, frame_box, frame_features. With a cascade the region is the
    whole frame, which the cascade scans. Without one, boxes[i] (else the
    whole frame) is frame i's face box, and the region is its roi_block:
    the only pixels frame_features reads."""
    for i, frame in enumerate(frames):
        fallback = boxes[i] if boxes is not None else None
        region = whole = Rect(0, 0, frame.width, frame.height)
        if cascade is None:
            region = features.roi_block(
                whole if fallback is None else fallback, geometry)
        else:  # an over-cap frame is refused before it is preprocessed
            check_scan(cascade, frame.width, frame.height, scan)
        img = paste(preprocess(frame, prep, region), region, frame.width,
                    frame.height)
        box = frame_box(img, cascade, scan, fallback)
        yield None if box is None else \
            features.frame_features(img, box, geometry)


def extract_features(records: Sequence[ManifestRecord],
                     geometry: RoiGeometry, prep: PreprocessConfig,
                     cascade: Cascade | None, scan: ScanConfig,
                     ) -> tuple[np.ndarray, np.ndarray, list, list[int]]:
    """Feature matrix for a dataset: (X, labels, groups, skipped indices)."""
    vectors = []
    kept: list[ManifestRecord] = []
    skipped: list[int] = []
    frames = (rec.load_image() for rec in records)
    for i, vec in enumerate(frame_vectors(frames, [r.box for r in records],
                                          geometry, prep, cascade, scan)):
        if vec is None:
            logger.warning("no face found in %s; frame skipped",
                           records[i].path)
            skipped.append(i)
        else:
            vectors.append(vec)
            kept.append(records[i])
    if not vectors:
        raise NoFacesFound("every frame was skipped")
    return (np.array(vectors), np.array([r.label for r in kept]),
            [r.group for r in kept], skipped)


def fit_pipeline(records: Sequence[ManifestRecord],
                 config: PipelineConfig = PipelineConfig(),
                 ) -> PipelineModel:
    """Train PCA + SVM over the extracted ROI features of a dataset."""
    return fit_and_score(records, config)[0]


def fit_and_score(records: Sequence[ManifestRecord],
                  config: PipelineConfig = PipelineConfig(),
                  ) -> tuple[PipelineModel, float, int]:
    """fit_pipeline, plus the model's accuracy on the training frames it
    kept (frames without a face are left out), from the projections the
    fit already made, and the number of frames kept."""
    cascade = None
    if config.cascade_path:
        cascade = load_cascade(read_text(config.cascade_path, ParseError))
    x, y, _, skipped = extract_features(records, config.geometry,
                                        config.preprocess, cascade,
                                        config.scan)
    if skipped:
        logger.warning("%d of %d frames skipped during training",
                       len(skipped), len(records))
    if np.all(y == 1) or np.all(y == -1):
        raise SingleClass("training data contains a single class")
    pca = features.pca_fit(x, k=config.pca_k,
                           variance=None if config.pca_k is not None else
                           config.pca_variance)
    z = features.pca_project_many(pca, x)
    svm = classifier.svm_train(z, y, C=config.svm_c, kernel=config.kernel(),
                               tol=config.svm_tol,
                               max_passes=config.svm_max_passes)
    model = PipelineModel(geometry=config.geometry,
                          preprocess=config.preprocess, pca=pca, svm=svm,
                          cascade=cascade, scan=config.scan)
    preds = classifier.decision_labels(classifier.svm_decision_many(svm, z))
    return model, float(np.mean(preds == y)), len(y)


def pipeline_predict(model: PipelineModel,
                     records: Sequence[ManifestRecord]) -> np.ndarray:
    """Labels for the frames of a dataset in which a face box is found;
    frames the cascade skips are left out (ground-truth boxes allowed)."""
    x, _, _, _ = extract_features(records, model.geometry, model.preprocess,
                                  model.cascade, model.scan)
    z = features.pca_project_many(model.pca, x)
    return classifier.decision_labels(
        classifier.svm_decision_many(model.svm, z))


# ---------------------------------------------------------------------------
# Streaming inference

@dataclass
class StreamTrace:
    trace: fatigue.Trace
    skipped: int  # frames without a face box

    @property
    def labels(self) -> list[int | None]:
        """Per-frame label; None marks a skipped (no-face) frame."""
        return self.trace.labels

    def render(self) -> str:
        return self.trace.render()


def infer_stream(model: PipelineModel, frames: Iterable[Image],
                 alert_config: fatigue.AlertConfig = fatigue.AlertConfig(),
                 no_face_policy: str = "skip",
                 boxes: Sequence[Rect | None] | None = None) -> StreamTrace:
    """Classify frames in order and drive the alert unit, one frame at a
    time.

    Frames with no detected face leave the running sum unchanged under the
    "skip" policy, or count as fatigued under "fatigued"; time advances
    either way. With the detector disabled, per-frame fallback boxes (e.g.
    from a manifest) stand in for detections, matching the training-side
    box policy; otherwise the whole frame is used.
    """
    if no_face_policy not in ("skip", "fatigued"):
        raise ValueError(f"bad no_face_policy {no_face_policy!r}")
    skipped = 0

    def frame_labels():
        nonlocal skipped
        for vec in frame_vectors(frames, boxes, model.geometry,
                                 model.preprocess, model.cascade,
                                 model.scan):
            if vec is None:
                skipped += 1
                yield 1 if no_face_policy == "fatigued" else None
            else:
                z = features.pca_project(model.pca, vec)
                yield classifier.svm_predict(model.svm, z)

    trace = fatigue.simulate(frame_labels(), alert_config)
    return StreamTrace(trace, skipped)


# ---------------------------------------------------------------------------
# Evaluation

def evaluate(model: PipelineModel, records: Sequence[ManifestRecord],
             folds: int, seed: int = 0) -> classifier.MetricsReport:
    """Cross-validate the classifier stage over a dataset's features.

    Features are extracted with the model's preprocessing/geometry and
    projected through its PCA basis; classifier.cross_validate then
    retrains an SVM per fold with the model's C and kernel. Folds train
    with svm_train's default tol and max_passes, not the configured ones:
    PIPE1 stores neither. When every frame names a subject group, folds
    are group-aware: no subject appears in both train and test.
    """
    x, y, groups, _ = extract_features(records, model.geometry,
                                       model.preprocess, model.cascade,
                                       model.scan)
    return classifier.cross_validate(
        features.pca_project_many(model.pca, x), y, folds, C=model.svm.C,
        kernel=model.svm.kernel, seed=seed, groups=groups)


def onset_latency(trace: StreamTrace, onset_tick: int) -> int | None:
    """Ticks from a fatigue onset to the first tick whose events hold an
    AlarmOn, or None when no tick does; ticks count from 1."""
    for n, tick in enumerate(trace.trace.ticks, 1):
        if any(ev.kind == fatigue.EventKind.ALARM_ON for ev in tick.events):
            return n - onset_tick
    return None


# ---------------------------------------------------------------------------
# PIPE1 composite format

# Sections in file order, each named after its PipelineModel field: a
# settings section holds that object's config keys, the others embed its
# model file. A pipeline without a detector has no scan or cascade section.
_SECTIONS = ("geometry", "preprocess", "scan", "cascade", "pca", "svm")
_MODEL_CODECS = {"cascade": (save_cascade, load_cascade),
                 "pca": (save_pca, load_pca),
                 "svm": (classifier.save_svm, classifier.load_svm)}


def save_pipeline(model: PipelineModel) -> str:
    out = ["PIPE1\n"]
    for name in _SECTIONS:
        if name in ("scan", "cascade") and model.cascade is None:
            continue
        value = getattr(model, name)
        body = (_MODEL_CODECS[name][0](value) if name in _MODEL_CODECS
                else render(_key_lines(value, _KEYS_OF[name])))
        out.append(f"SECTION {name}\n{body}END\n")
    return "".join(out)


def _split_sections(src: ModelText) -> dict[str, list[str]]:
    """The body lines of each `SECTION <name>` ... `END` block."""
    sections: dict[str, list[str]] = {}
    while src.pos < len(src.lines):
        if src.lines[src.pos].strip():
            (name,) = src.record("SECTION", str)
            if name not in _SECTIONS or name in sections:
                raise src.error(src.pos, f"unexpected section {name!r}")
            end = next((i for i in range(src.pos, len(src.lines))
                        if src.lines[i].strip() == "END"), None)
            if end is None:
                raise src.error(None, f"section {name!r} is not terminated")
            sections[name], src.pos = src.lines[src.pos:end], end
        src.pos += 1
    return sections


def _load_section(src: ModelText, name: str, lines: list[str]):
    """The model or settings object of a PIPE1 section; a settings section
    must hold exactly its keys."""
    if name in _MODEL_CODECS:
        return _MODEL_CODECS[name][1](render(lines))
    keys = _KEYS_OF[name]
    try:
        values = _key_values(lines)
        if values.keys() != set(keys):
            raise ConfigError(f"expected keys {list(keys)}, "
                              f"got {list(values)}")
        return _update(getattr(PipelineConfig(), name), keys, values)
    except ConfigError as exc:
        raise src.error(None, f"section {name!r}: {exc}") from None


def load_pipeline(text: str) -> PipelineModel:
    src = ModelText(text, "PIPE1")
    src.header()
    sections = _split_sections(src)
    for required in ("geometry", "preprocess", "pca", "svm"):
        if required not in sections:
            raise src.error(None, f"missing section {required!r}")
    if "scan" in sections and "cascade" not in sections:
        raise src.error(None, "scan section without a cascade section")
    return PipelineModel(**{name: _load_section(src, name, lines)
                            for name, lines in sections.items()})

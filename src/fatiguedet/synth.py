"""Synthetic labeled face-frame generator.

Frames show a light head ellipse on a dark ground. Alert frames get two
open eyes (filled dark ellipses) and a thin closed mouth; fatigued frames
get closed eyes (thin lines) and/or a tall open-mouth ellipse, per-frame
from {eyes_closed, yawn, both}. Everything is seed-deterministic, and every
frame carries its ground-truth face box.

Feature placement is tied to the face box so that, after the box is
normalized to 100x100, the eyes land inside the 80x30 eye window at (10, 20)
and the mouth inside the 40x40 window at (30, 60). The cascade trains on
WINDOW x WINDOW crops of these frames, cut as uint8 pixel stacks.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .detector import feature_grid, train_cascade
from .imaging import Image, Rect, crop, iround, resize_bilinear, save_pnm

BACKGROUND = 40.0
HEAD = 200.0
FEATURE = 40.0
DIM_FACTOR = 0.35

FACE_FRACTION = 0.55  # face box side relative to min frame dimension
FATIGUE_MODES = ("eyes_closed", "yawn", "both")
WINDOW = 24  # side of the square cascade-training windows

# positions/sizes as fractions of the face box side
_EYE_CENTERS = ((0.30, 0.35), (0.70, 0.35))
_EYE_OPEN_AXES = (0.10, 0.08)
_EYE_CLOSED_AXES = (0.10, 0.018)
_MOUTH_CENTER = (0.50, 0.80)
_MOUTH_CLOSED_AXES = (0.10, 0.018)
_MOUTH_YAWN_AXES = (0.10, 0.14)
_HEAD_AXES = (0.42, 0.50)


@dataclass(frozen=True)
class SyntheticSpec:
    frame_w: int = 160
    frame_h: int = 160
    n_frames: int = 100
    fraction_fatigued: float = 0.5
    jitter: int = 6
    noise_sigma: float = 8.0
    light_level: str = "normal"
    seed: int = 0

    def __post_init__(self):
        if self.frame_w < 120 or self.frame_h < 120:
            raise ValueError("frames must be at least 120 px per side")
        if not 0.0 <= self.fraction_fatigued <= 1.0:
            raise ValueError("fraction_fatigued must be in [0, 1]")
        if self.n_frames < 1:
            raise ValueError("n_frames must be >= 1")
        if not (self.jitter >= 0 and 0 <= self.noise_sigma < math.inf):
            raise ValueError("jitter and noise_sigma must be >= 0 and "
                             "finite")
        # -0.0 passes the check above but numpy refuses it as a scale; it is
        # the same noise level as 0, so it is stored as +0.0
        object.__setattr__(self, "noise_sigma", abs(self.noise_sigma))
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.light_level not in ("normal", "dim"):
            raise ValueError("light_level must be 'normal' or 'dim'")


@dataclass(frozen=True)
class FrameRecord:
    image: Image
    label: int  # +1 fatigued, -1 alert
    box: Rect
    mode: str  # "alert" or a fatigue sub-mode


def _fill_ellipse(canvas: np.ndarray, cx: float, cy: float, rx: float,
                  ry: float, value: float) -> None:
    h, w = canvas.shape
    yy, xx = np.ogrid[0:h, 0:w]
    mask = ((xx - cx) / rx) ** 2 + ((yy - cy) / ry) ** 2 <= 1.0
    canvas[mask] = value


def draw_face(canvas: np.ndarray, box: Rect, fatigued: bool,
              mode: str = "both") -> None:
    """Render one face into a float canvas; box positions every feature."""
    s = box.w
    bx, by = box.x, box.y

    def at(fx: float, fy: float) -> tuple[float, float]:
        return bx + fx * s, by + fy * s

    hx, hy = at(0.5, 0.5)
    _fill_ellipse(canvas, hx, hy, _HEAD_AXES[0] * s, _HEAD_AXES[1] * s, HEAD)

    eyes_closed = fatigued and mode in ("eyes_closed", "both")
    eye_axes = _EYE_CLOSED_AXES if eyes_closed else _EYE_OPEN_AXES
    for fx, fy in _EYE_CENTERS:
        ex, ey = at(fx, fy)
        _fill_ellipse(canvas, ex, ey, eye_axes[0] * s,
                      max(eye_axes[1] * s, 1.0), FEATURE)

    yawning = fatigued and mode in ("yawn", "both")
    mouth_axes = _MOUTH_YAWN_AXES if yawning else _MOUTH_CLOSED_AXES
    mx, my = at(*_MOUTH_CENTER)
    _fill_ellipse(canvas, mx, my, mouth_axes[0] * s,
                  max(mouth_axes[1] * s, 1.0), FEATURE)


def face_box(spec: SyntheticSpec, jx: int, jy: int) -> Rect:
    side = iround(FACE_FRACTION * min(spec.frame_w, spec.frame_h))
    cx = spec.frame_w // 2 + jx
    cy = spec.frame_h // 2 + jy
    return Rect(cx - side // 2, cy - side // 2, side, side)


def generate(spec: SyntheticSpec) -> list[FrameRecord]:
    """Render all frames in memory; byte-deterministic for a given spec."""
    rng = np.random.default_rng(spec.seed)
    n_fat = iround(spec.n_frames * spec.fraction_fatigued)
    labels = np.array([1] * n_fat + [-1] * (spec.n_frames - n_fat))
    rng.shuffle(labels)
    side = iround(FACE_FRACTION * min(spec.frame_w, spec.frame_h))
    max_jx = min(spec.jitter, (spec.frame_w - side) // 2 - 1)
    max_jy = min(spec.jitter, (spec.frame_h - side) // 2 - 1)
    records: list[FrameRecord] = []
    for label in labels:
        jx = int(rng.integers(-max_jx, max_jx + 1)) if max_jx > 0 else 0
        jy = int(rng.integers(-max_jy, max_jy + 1)) if max_jy > 0 else 0
        box = face_box(spec, jx, jy)
        if label == 1:
            mode = FATIGUE_MODES[int(rng.integers(0, len(FATIGUE_MODES)))]
        else:
            mode = "alert"
        canvas = np.full((spec.frame_h, spec.frame_w), BACKGROUND)
        draw_face(canvas, box, label == 1, mode)
        if spec.light_level == "dim":
            canvas *= DIM_FACTOR
        canvas += rng.normal(0.0, spec.noise_sigma, canvas.shape)
        records.append(FrameRecord(Image.from_float(canvas), int(label),
                                   box, mode))
    return records


def detector_windows(records: list[FrameRecord],
                     seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Positive and negative cascade-training windows, each an
    (n, WINDOW, WINDOW) uint8 stack of crops resized to WINDOW x WINDOW.

    Positives are each ground-truth face box plus two jittered/rescaled
    copies (so stump thresholds tolerate scan-grid quantization). Negatives
    mix up to three background crops per frame, up to eight small windows
    scattered over the face region (head-rim and part patterns, the main
    false-positive source), and flat fills.
    """
    rng = np.random.default_rng(seed)
    pos, neg = [], []

    def window(img: Image, rect: Rect) -> np.ndarray:
        return resize_bilinear(crop(img, rect), WINDOW, WINDOW).pixels

    for rec in records:
        img, b = rec.image, rec.box
        fw, fh = img.width, img.height

        def clamped(x: int, y: int, side: int) -> Rect:
            return Rect(max(0, min(x, fw - side)),
                        max(0, min(y, fh - side)), side, side)

        pos.append(window(img, b))
        for _ in range(2):
            scale = float(rng.uniform(0.92, 1.12))
            side = iround(b.w * scale)
            dx = int(rng.integers(-4, 5))
            dy = int(rng.integers(-4, 5))
            pos.append(window(img, clamped(
                b.x + dx + (b.w - side) // 2,
                b.y + dy + (b.h - side) // 2, side)))
        for _ in range(3):
            side = int(rng.integers(WINDOW, min(fw, fh) * 2 // 3))
            rect = Rect(int(rng.integers(0, fw - side + 1)),
                        int(rng.integers(0, fh - side + 1)), side, side)
            if rect.iou(b) < 0.2:
                neg.append(window(img, rect))
        for _ in range(8):
            side = int(rng.integers(max(12, WINDOW * 3 // 4),
                                    max(20, b.w * 3 // 5)))
            fx = float(rng.uniform(0.0, 1.0))
            fy = float(rng.uniform(0.0, 1.0))
            rect = clamped(iround(b.x + fx * b.w - side / 2),
                           iround(b.y + fy * b.h - side / 2), side)
            if rect.iou(b) < 0.25:
                neg.append(window(img, rect))
    for value in (0, 60, 128, 200, 255):
        neg.append(np.full((WINDOW, WINDOW), value, dtype=np.uint8))
    shape = (-1, WINDOW, WINDOW)  # keeps an empty stack three-dimensional
    return (np.array(pos, dtype=np.uint8).reshape(shape),
            np.array(neg, dtype=np.uint8).reshape(shape))


def train_face_cascade(n_frames: int = 120, seed: int = 0,
                       stage_rounds: tuple[int, ...] = (4, 10),
                       target_detection_rate: float = 0.99,
                       feature_step: int = 2):
    """Train the desk-scale synthetic face cascade end to end."""
    records = generate(SyntheticSpec(n_frames=n_frames, fraction_fatigued=0.5,
                                     seed=seed))
    pos, neg = detector_windows(records, seed=seed + 1)
    return train_cascade(pos, neg, stage_rounds=list(stage_rounds),
                         target_detection_rate=target_detection_rate,
                         features=feature_grid(WINDOW, WINDOW, feature_step))


def write_dataset(spec: SyntheticSpec, out_dir: str | Path) -> Path:
    """Write frames as PGM files plus a manifest.csv; returns the manifest
    path. Manifest rows are path,label,group,x,y,w,h with paths relative to
    the manifest directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = generate(spec)
    manifest = out / "manifest.csv"
    with open(manifest, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path", "label", "group", "x", "y", "w", "h"])
        for i, rec in enumerate(records):
            name = f"frame_{i:05d}.pgm"
            with open(out / name, "wb") as img_fh:
                img_fh.write(save_pnm(rec.image))
            writer.writerow([name, f"{rec.label:+d}", f"g{i % 8}",
                             rec.box.x, rec.box.y, rec.box.w, rec.box.h])
    return manifest

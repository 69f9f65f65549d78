"""ROI geometry (eye/mouth windows of the face normalized to a square),
feature vector assembly, and PCA compression.

The feature vector layout is eye ROI pixels row-major (2400 entries for the
default 80x30 window) followed by mouth ROI pixels row-major (1600 for
40x40), each scaled into [0, 1]. With the default geometry that is exactly
4000 entries. The windows are cut from the face box resized to
face_side x face_side; only the windows themselves are resized.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadK, DegenerateData, DimensionMismatch, WrongDimensions
from .imaging import Image, Rect, crop, resize_bilinear, resize_block
from .textmodel import ModelText, count, format_floats, render


@dataclass(frozen=True)
class RoiGeometry:
    """Fixed windows cut from the normalized face image."""

    face_side: int = 100
    eye_window: Rect = Rect(10, 20, 80, 30)
    mouth_window: Rect = Rect(30, 60, 40, 40)

    def __post_init__(self):
        for name, r in (("eye", self.eye_window),
                        ("mouth", self.mouth_window)):
            if not r.inside(self.face_side, self.face_side):
                raise ValueError(f"{name} window {r} does not fit in "
                                 f"{self.face_side}x{self.face_side} face")

    @property
    def vector_length(self) -> int:
        return self.eye_window.area + self.mouth_window.area


DEFAULT_GEOMETRY = RoiGeometry()
assert DEFAULT_GEOMETRY.vector_length == 4000


def assemble(eye: Image, mouth: Image,
             geometry: RoiGeometry = DEFAULT_GEOMETRY) -> np.ndarray:
    """Concatenate eye then mouth pixels row-major, scaled by 1/255."""
    for name, roi, window in (("eye", eye, geometry.eye_window),
                              ("mouth", mouth, geometry.mouth_window)):
        if (roi.width, roi.height) != (window.w, window.h):
            raise WrongDimensions(f"{name} ROI must be {window.w}x{window.h}, "
                                  f"got {roi.width}x{roi.height}")
    return np.concatenate([eye.pixels.ravel(), mouth.pixels.ravel()]) / 255.0


def frame_features(img: Image, box: Rect,
                   geometry: RoiGeometry = DEFAULT_GEOMETRY) -> np.ndarray:
    """The feature vector of the face in box: the eye and mouth windows of
    the box resized to face_side x face_side, assembled. Only the windows
    are resized, so only the pixels of roi_block(box, geometry) are read."""
    face = crop(img, box)
    side = geometry.face_side
    return assemble(resize_bilinear(face, side, side, geometry.eye_window),
                    resize_bilinear(face, side, side, geometry.mouth_window),
                    geometry)


def roi_block(box: Rect, geometry: RoiGeometry = DEFAULT_GEOMETRY) -> Rect:
    """The frame pixels frame_features reads for the face in box: the
    bounding rect of the eye and mouth windows' resize_block."""
    side = geometry.face_side
    eye, mouth = (resize_block(box.w, box.h, side, side, window)
                  for window in (geometry.eye_window, geometry.mouth_window))
    x, y = min(eye.x, mouth.x), min(eye.y, mouth.y)
    return Rect(box.x + x, box.y + y, max(eye.x2, mouth.x2) - x,
                max(eye.y2, mouth.y2) - y)


# ---------------------------------------------------------------------------
# PCA

@dataclass(frozen=True, eq=False)
class PcaModel:
    """Mean vector plus k orthonormal components (rows) with eigenvalues."""

    mean: np.ndarray = field(repr=False)
    components: np.ndarray = field(repr=False)
    eigenvalues: np.ndarray = field(repr=False)

    def __post_init__(self):
        k, d = self.components.shape
        if k < 1 or self.mean.shape != (d,) or self.eigenvalues.shape != (k,):
            raise ValueError("inconsistent PCA model shapes")
        if np.any(self.eigenvalues < 0):
            raise ValueError("eigenvalues must be non-negative")
        if np.any(np.diff(self.eigenvalues) > 1e-12):
            raise ValueError("eigenvalues must be non-increasing")
        gram = self.components @ self.components.T
        if not np.allclose(gram, np.eye(k), atol=1e-8):
            raise ValueError("components are not orthonormal")
        self.mean.setflags(write=False)
        self.components.setflags(write=False)
        self.eigenvalues.setflags(write=False)

    @property
    def k(self) -> int:
        return self.components.shape[0]

    @property
    def d(self) -> int:
        return self.components.shape[1]


def _fix_signs(components: np.ndarray) -> np.ndarray:
    # largest-magnitude entry of each component made positive, so model
    # files are reproducible
    out = components.copy()
    for row in out:
        idx = int(np.argmax(np.abs(row)))
        if row[idx] < 0:
            row *= -1.0
    return out


def pca_fit(samples: np.ndarray, k: int | None = None,
            variance: float | None = None) -> PcaModel:
    """Fit a PCA basis to rows of `samples`.

    Exactly one of k (component count) or variance (fraction of total
    variance to retain, in (0, 1]) selects the output dimension; with
    neither given, variance defaults to 0.95. For n <= d the n x n Gram
    eigenproblem is solved and eigenvectors mapped back to d-space; the
    covariance convention divides by n - 1 throughout.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("need a 2-D sample matrix with at least 2 rows")
    if k is not None and variance is not None:
        raise BadK("give either k or variance, not both")
    if k is None and variance is None:
        variance = 0.95
    n, d = x.shape
    k_max = min(n - 1, d)
    if k is not None and not 1 <= k <= k_max:
        raise BadK(f"k must be in [1, {k_max}], got {k}")
    if variance is not None and not 0.0 < variance <= 1.0:
        raise BadK(f"variance fraction must be in (0, 1], got {variance}")

    mean = x.mean(axis=0)
    centered = x - mean
    if not np.any(centered):
        raise DegenerateData("all samples are identical")

    if n <= d:
        sym = centered @ centered.T / (n - 1)  # Gram matrix
    else:
        sym = centered.T @ centered / (n - 1)  # covariance matrix
    scale = float(np.abs(sym).max())
    lam, vecs = np.linalg.eigh(sym / scale)
    lam = lam * scale

    order = np.argsort(lam)[::-1]
    lam = np.maximum(lam[order], 0.0)
    vecs = vecs[:, order]
    cutoff = lam[0] * 1e-12
    rank = int(np.count_nonzero(lam > cutoff))

    if k is not None and k > rank:
        raise BadK(f"k={k} exceeds the data rank {rank}")
    if k is None:
        cum = np.cumsum(lam[:rank])
        total = cum[-1] if len(cum) else 0.0
        if total <= 0:
            raise DegenerateData("total variance is zero")
        k = min(int(np.searchsorted(cum, variance * total) + 1), rank)

    if n <= d:
        # Gram trick: only eigenvectors with positive eigenvalue map back
        # to unit d-space directions, and only the k kept ones are mapped
        back = centered.T @ vecs[:, :k]
        back /= np.sqrt((back * back).sum(axis=0))
        components = back.T
    else:
        components = vecs.T[:k]
    return PcaModel(mean=mean.copy(), components=_fix_signs(components),
                    eigenvalues=lam[:k].copy())


def pca_project(model: PcaModel, v: np.ndarray) -> np.ndarray:
    """The pca_project_many coordinates of one vector."""
    return pca_project_many(model, np.asarray(v)[None])[0]


def pca_project_many(model: PcaModel, x: np.ndarray) -> np.ndarray:
    """Coordinates of each row in the component basis:
    (x - mean) @ components.T."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.d:
        raise DimensionMismatch(f"expected (n, {model.d}), got {x.shape}")
    return (x - model.mean) @ model.components.T


def pca_reconstruct(model: PcaModel, z: np.ndarray) -> np.ndarray:
    """Back-projection into d-space: mean + components.T @ z."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (model.k,):
        raise DimensionMismatch(f"expected length {model.k}, got {z.shape}")
    return model.mean + model.components.T @ z


# ---------------------------------------------------------------------------
# PCA1 text format

def save_pca(model: PcaModel) -> str:
    lines = [f"PCA1 {model.d} {model.k}", format_floats(*model.mean)]
    for lam, comp in zip(model.eigenvalues, model.components):
        lines.append(format_floats(lam, *comp))
    return render(lines)


def load_pca(text: str) -> PcaModel:
    src = ModelText(text, "PCA1")
    d, k = src.header(count, count)
    mean = src.rows(1, d)[0]
    rows = src.rows(k, d + 1)
    src.end()
    with src.checked():
        return PcaModel(mean=mean, components=rows[:, 1:].copy(),
                        eigenvalues=rows[:, 0].copy())

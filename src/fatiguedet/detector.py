"""Face detection: Haar-like features over integral images, decision-stump
weak learners, AdaBoost-trained attentional cascade stages, multi-scale
sliding-window scanning, and the CASCADE1 text format.

Feature values are variance-normalized by the window's pixel standard
deviation (floored at 1), the standard guard against lighting changes.
One table of flat corner offsets (`y * stride + x`) per feature set, scale
and integral-image row stride serves the scan and training alike, and one
scorer turns the corner reads into feature values. `detect` compiles the
cascade once per frame size into one scan plan whose columns are the
windows of every scale, and scores each stage in at most two batches of
stumps: after the first batch it drops every window whose total can no
longer reach the stage threshold (_reach), which leaves the same windows
as scoring every stump. Each batch reads all its corners with one `take`,
a bounded slice of windows at a time.
Training takes its windows as an (n, h, w) uint8 stack, sums the whole
stack with the window on the last axis and reads a row of windows per
offset. A stage scores and presorts its feature pool one block of
features at a time and keeps no value matrix: boosting runs from the
presorted order, and only the features it picks are scored again. The
corner reads index the integral image without bounds checks, so they need
every window inside the image (`detect` only scans such windows) and every
feature rect inside the base window (`load_cascade` rejects any other).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import EmptyInput, ImageTooLarge, ImageTooSmall, NoFeatures
from .imaging import Image, IntegralImage, Rect, integral_image, iround, \
    summed_areas
from .textmodel import ModelText, count, finite, finite_or_inf, \
    format_floats, integer, render

# kind -> (columns, rows, weights row by row): the rect is cut into
# columns x rows equal cells, so its sides must divide by them
_KIND_CELLS = {
    "2H": (2, 1, (1, -1)),
    "2V": (1, 2, (1, -1)),
    "3H": (3, 1, (-1, 2, -1)),
    "3V": (1, 3, (-1, 2, -1)),
    "4": (2, 2, (1, -1, -1, 1)),
}
KINDS = tuple(_KIND_CELLS)
# _KIND_CELLS by a kind's index in KINDS, weights zero-padded to 4 cells
_KIND_INDEX = {kind: i for i, kind in enumerate(KINDS)}
_COLS, _ROWS = np.array([cells[:2] for cells in _KIND_CELLS.values()]).T
_WEIGHTS = np.array([w + (0,) * (4 - len(w))
                     for _, _, w in _KIND_CELLS.values()])

_MIN_NEGATIVES = 50  # train_cascade tops a stage's survivors up to this


@dataclass(frozen=True)
class HaarFeature:
    """One rectangular feature inside the base detection window.

    kind picks the sub-rectangle split: 2H/2V halve the rect, 3H/3V cut it
    in thirds (center counted twice so a constant image cancels to zero),
    and 4 is the checkerboard of quadrants.
    """

    kind: str
    rect: Rect

    def __post_init__(self):
        if self.kind not in _KIND_CELLS:
            raise ValueError(f"unknown feature kind {self.kind!r}")
        cols, rows, _ = _KIND_CELLS[self.kind]
        if self.rect.w % cols or self.rect.h % rows:
            raise ValueError(f"{self.kind} needs width divisible by {cols} "
                             f"and height by {rows}")


@dataclass(frozen=True)
class WeakClassifier:
    feature: HaarFeature
    threshold: float
    polarity: int

    def __post_init__(self):
        if self.polarity not in (1, -1):
            raise ValueError("polarity must be +1 or -1")


@dataclass(frozen=True)
class Stage:
    weak: tuple[tuple[WeakClassifier, float], ...]  # (classifier, alpha)
    threshold: float

    def __post_init__(self):
        if not self.weak:
            raise ValueError("stage needs at least one weak classifier")
        if any(alpha < 0 for _, alpha in self.weak):
            raise ValueError("weak classifier weights must be >= 0")

    @functools.cached_property
    def votes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Thresholds, polarities and alphas of the weak classifiers."""
        return (np.array([weak.threshold for weak, _ in self.weak]),
                np.array([float(weak.polarity) for weak, _ in self.weak]),
                np.array([alpha for _, alpha in self.weak]))


@dataclass(frozen=True)
class Cascade:
    base_w: int
    base_h: int
    stages: tuple[Stage, ...]

    def __post_init__(self):
        if self.base_w <= 0 or self.base_h <= 0:
            raise ValueError("base window must be positive")
        if not self.stages:
            raise ValueError("cascade needs at least one stage")


@dataclass(frozen=True)
class FaceBox:
    rect: Rect
    score: int  # count of grouped raw detections


@dataclass(frozen=True)
class ScanConfig:
    scale_factor: float = 1.25
    step_frac: float = 0.08
    group_iou: float = 0.3
    min_neighbors: int = 3

    def __post_init__(self):
        # the floor bounds the scan plan: 1.01 gives 191 levels on a
        # 160 x 160 frame, and the levels grow as 1 / ln(scale_factor)
        if not 1.01 <= self.scale_factor < math.inf:
            raise ValueError("scale_factor must be finite and at least 1.01")
        if not 0 < self.step_frac <= 1:
            raise ValueError("step_frac must be in (0, 1]")
        if not 0 < self.group_iou <= 1:
            raise ValueError("group_iou must be in (0, 1]")
        if self.min_neighbors < 1:
            raise ValueError("min_neighbors must be >= 1")


# ---------------------------------------------------------------------------
# Feature evaluation

@dataclass(frozen=True, eq=False)
class _FeatureTable:
    """The sub-rects of some features at one scale and integral-image row
    stride, one row per sub-rect in the order the scorer adds them: the
    first sub-rect of every feature, then every second one, then the third
    of each feature in `third` (3H, 3V, 4), then the fourth of each feature
    in `fourth` (4)."""

    n: int  # features
    # at one scale offsets is (4 * rows,) and actual and coeff (rows, 1); a
    # scan plan gives each one column per level, and _at one per window,
    # taken by the window's level, with its origin added to the offsets
    offsets: np.ndarray  # flat corners in _flat_offsets order
    actual: np.ndarray  # scaled areas
    coeff: np.ndarray  # weight * ideal area
    third: np.ndarray
    fourth: np.ndarray


def _flat_offsets(corners: np.ndarray, stride: int) -> np.ndarray:
    """Flat corner offsets of rects whose x1, y1, x2 and y2 are the four
    rows of corners, in four blocks: x2y2, x2y1, x1y2, x1y1."""
    x1, y1, x2, y2 = corners
    return np.concatenate([y2 * stride + x2, y1 * stride + x2,
                           y2 * stride + x1, y1 * stride + x1])


def _feature_table(features: Sequence[HaarFeature], scale,
                   stride: int) -> _FeatureTable:
    """The table of features at scale, or with one column per scale at an
    array of scales. Each sub-rect corner scales and
    rounds half up on its own, so adjacent sub-rects keep tiling; the
    rect's sum is divided by its scaled area and multiplied by weight times
    its unrounded area at scale, so on a constant image the weighted areas
    cancel to exactly zero at every scale."""
    kind, x, y, w, h = np.array(
        [(_KIND_INDEX[f.kind], f.rect.x, f.rect.y, f.rect.w, f.rect.h)
         for f in features], dtype=np.intp).reshape(-1, 5).T
    n = len(kind)
    cols, rows = _COLS[kind], _ROWS[kind]
    cw, ch = w // cols, h // rows
    third, fourth = np.flatnonzero(cols * rows > 2), \
        np.flatnonzero(cols * rows > 3)
    # one row per sub-rect: cell k of feature f
    f = np.concatenate([np.arange(n), np.arange(n), third, fourth])
    k = np.repeat(np.arange(4), [n, n, len(third), len(fourth)])
    cw, ch = cw[f], ch[f]
    x1 = x[f] + k % cols[f] * cw
    y1 = y[f] + k // cols[f] * ch
    scales = np.reshape(scale, -1)
    corners = np.floor(np.stack([x1, y1, x1 + cw, y1 + ch])[..., None]
                       * scales + 0.5).astype(np.intp)  # iround
    actual = (corners[2] - corners[0]) * (corners[3] - corners[1])
    if np.any(actual <= 0):
        raise ValueError(f"degenerate sub-rect at scale {scale}")
    ideal = (cw * ch)[:, None] * scales * scales
    return _FeatureTable(n, _flat_offsets(corners, stride).reshape(
                             -1, *np.shape(scale)),
                         actual.astype(np.float64),
                         _WEIGHTS[kind[f], k][:, None] * ideal, third, fourth)


def _rect_sums(corners: np.ndarray) -> np.ndarray:
    """Rect sums from the corners read at _flat_offsets, one row per rect
    and one column per window."""
    c = corners.reshape(4, -1, corners.shape[-1])
    out = c[0] - c[1]
    out -= c[2]
    out += c[3]
    return out


def _window_divisor(c1: np.ndarray, c2: np.ndarray, n: int) -> np.ndarray:
    """max(pixel standard deviation, 1) of windows of n pixels, from the
    corners c1 of their pixel sums and c2 of their squared-pixel sums read
    at the window's _flat_offsets."""
    mean = _rect_sums(c1)[0].astype(np.float64) / n
    var = _rect_sums(c2)[0].astype(np.float64) / n - mean * mean
    return np.maximum(np.sqrt(np.maximum(var, 0.0)), 1.0)


def _feature_values(rect_sums: np.ndarray, table: _FeatureTable,
                    div: np.ndarray) -> np.ndarray:
    """The one scorer: feature values from the integer sums of table's
    sub-rects (one row per sub-rect, one column per window), one row per
    feature. Each sub-rect's sum over its actual area times its weighted
    ideal area, added left to right per feature, over div."""
    terms = rect_sums / table.actual
    terms *= table.coeff
    n = table.n
    k = 2 * n + len(table.third)
    raw = terms[:n] + terms[n:2 * n]
    if len(table.third):
        raw[table.third] += terms[2 * n:k]
    if len(table.fourth):
        raw[table.fourth] += terms[k:]
    raw /= div
    return raw


# ---------------------------------------------------------------------------
# Weak classifier training

@dataclass(frozen=True)
class StumpFit:
    threshold: float
    polarity: int
    error: float


def stump_predict(values: np.ndarray, threshold: float,
                  polarity: int) -> np.ndarray:
    """+1 where polarity * (value - threshold) >= 0, else -1."""
    return np.where(polarity * (values - threshold) >= 0, 1, -1)


@dataclass(frozen=True)
class BoostRound:
    feature_index: int
    threshold: float
    polarity: int
    alpha: float
    error: float


@dataclass
class BoostResult:
    rounds: list[BoostRound]
    weights: np.ndarray  # final (unnormalized) sample weights


_EPS_CLAMP = 1e-10
_CHUNK = 64  # features per scored, presorted and searched block


def _presort_rows(blocks, n: int, nf: int) -> tuple[np.ndarray, np.ndarray]:
    """The stable ascending order of each of nf rows of n values, given as
    blocks of rows, one row per feature (int16 when n <= 32,768, else
    int32), and the (nf, n + 1) mask of split positions that fall between
    equal values and so are not threshold candidates. A block may be
    dropped once it is sorted.

    Each block is sorted once with numpy's default sort, which need not
    keep ties in index order, and then sorted again by run * n + index,
    where run counts the value changes before a position (NaNs, sorted
    last, count as one value). That keeps each run of equal values where
    it is and puts it in index order: the stable order, whatever the first
    sort did with ties.
    """
    index_type = np.int16 if n <= 1 << 15 else np.int32
    order = np.empty((nf, n), dtype=index_type)
    tied = np.zeros((nf, n + 1), dtype=bool)
    # keys reach n * n - 1; int32 keys sort about 4x faster than int64
    key_type = np.int32 if n * n <= np.iinfo(np.int32).max else np.int64
    lo = 0
    for block in blocks:
        hi = lo + len(block)
        first = np.argsort(block, axis=1)
        v = np.take_along_axis(block, first, axis=1)
        same = v[:, 1:] <= v[:, :-1]
        tied[lo:hi, 1:n] = same
        if np.isnan(v[:, -1]).any():
            same |= np.isnan(v[:, 1:]) & np.isnan(v[:, :-1])
        run = np.zeros(block.shape, dtype=key_type)
        np.cumsum(~same, axis=1, out=run[:, 1:])
        run *= n
        key = first.astype(key_type)
        key += run
        key.sort(axis=1)
        key -= run
        order[lo:hi] = key
        lo = hi
    return order, tied


def _split_weights(labels: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The sample weights as _split_errors reads them: the positives'
    weights in the real part, the negatives' in the imaginary part."""
    out = np.empty(len(weights), dtype=np.complex128)
    out.real = np.where(labels == 1, weights, 0.0)
    out.imag = np.where(labels == -1, weights, 0.0)
    return out


def _split_errors(order: np.ndarray, weights: np.ndarray,
                  out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weighted error of the polarity +1 stump at every split (column) of
    each presorted row, and each row's total weight. Split i puts the i
    smallest values below the threshold. weights come from _split_weights;
    one complex cumsum gives the running positive and negative weight at
    once, each part added on its own, so both keep the bits of a float64
    cumsum. out is complex scratch with n + 1 columns, the first zero."""
    np.cumsum(weights.take(order), axis=1, out=out[:, 1:])
    cpos, cneg = out.real, out.imag
    total_neg = cneg[:, -1:]
    return cpos + (total_neg - cneg), cpos[:, -1] + total_neg[:, 0]


def _best_feature_errors(order: np.ndarray, tied: np.ndarray,
                         labels: np.ndarray,
                         weights: np.ndarray) -> np.ndarray:
    """Per-feature minimal stump error over presorted rows.

    Polarity -1 errs where +1 is right, so its error is total - err_p.
    Rounding is monotone, so the smallest total - err_p over the valid
    splits is total - (the largest valid err_p), bit for bit.
    """
    nf, n = order.shape
    split_weights = _split_weights(labels, weights)
    scratch = np.zeros((min(nf, _CHUNK), n + 1), dtype=np.complex128)
    out = np.empty(nf)
    for lo in range(0, nf, _CHUNK):
        mask = tied[lo:lo + _CHUNK]
        m = len(mask)
        err_p, total = _split_errors(order[lo:lo + _CHUNK], split_weights,
                                     scratch[:m])
        np.copyto(err_p, np.inf, where=mask)
        best_p = err_p.min(axis=1)
        np.copyto(err_p, -np.inf, where=mask)
        out[lo:lo + m] = np.minimum(best_p, total - err_p.max(axis=1))
    return out


def _best_stump(values: np.ndarray, order: np.ndarray, tied: np.ndarray,
                labels: np.ndarray, weights: np.ndarray) -> StumpFit:
    """Best stump on one feature's values, presorted order and tied mask.
    The candidate thresholds are the midpoints between consecutive
    distinct values and the -inf and +inf sentinels; the first minimum in
    split order wins, polarity +1 before -1 at each split. Its error is
    the feature's entry in _best_feature_errors."""
    n = len(order)
    err_p, total = _split_errors(order[None], _split_weights(labels, weights),
                                 np.zeros((1, n + 1), dtype=np.complex128))
    err = np.stack([err_p[0], total[0] - err_p[0]], axis=1)
    err[tied] = np.inf
    split, minus = divmod(int(np.argmin(err)), 2)
    v = np.concatenate([[-math.inf], values[order], [math.inf]])
    threshold = float(v[split] + v[split + 1]) / 2.0
    return StumpFit(threshold, -1 if minus else 1, float(err[split, minus]))


def _boost_rounds(order: np.ndarray, tied: np.ndarray, labels: np.ndarray,
                 rounds: int, row) -> tuple[BoostResult, np.ndarray]:
    """Discrete AdaBoost over presorted features: weights start uniform and
    are renormalized each round; correctly classified samples are scaled by
    beta = eps / (1 - eps) with eps clamped away from 0 and 1. row(f) gives
    feature f's values, read only for the feature a round picks. Returns
    the result and the picked values, one column per round."""
    n = order.shape[1]
    w = np.full(n, 1.0 / n)
    picked: list[BoostRound] = []
    columns = []
    for _ in range(rounds):
        w = w / w.sum()
        f = int(np.argmin(_best_feature_errors(order, tied, labels, w)))
        values = row(f)
        fit = _best_stump(values, order[f], tied[f], labels, w)
        eps = min(max(fit.error, _EPS_CLAMP), 1.0 - _EPS_CLAMP)
        beta = eps / (1.0 - eps)
        alpha = math.log(1.0 / beta)
        h = stump_predict(values, fit.threshold, fit.polarity)
        w = np.where(h == labels, w * beta, w)
        picked.append(BoostRound(f, fit.threshold, fit.polarity, alpha,
                                 fit.error))
        columns.append(values)
    return BoostResult(picked, w), np.stack(columns, axis=1)


# ---------------------------------------------------------------------------
# Stage and cascade training

def feature_grid(base_w: int, base_h: int, step: int) -> list[HaarFeature]:
    """Coarse feature pool: all kinds, positions and sizes in `step` px."""
    pool: list[HaarFeature] = []
    for kind, (cols, rows, _) in _KIND_CELLS.items():
        for y in range(0, base_h, step):
            for x in range(0, base_w, step):
                for h in range(step, base_h - y + 1, step):
                    for w in range(step, base_w - x + 1, step):
                        if w % cols == 0 and h % rows == 0:
                            pool.append(HaarFeature(kind, Rect(x, y, w, h)))
    return pool


def _stack_scorer(windows: np.ndarray):
    """The scorer of an (n, h, w) window stack: it maps a block of up to
    _CHUNK features to their variance-normalized values, one row per
    feature. The stack's summed areas (one row of windows per flat offset)
    and window divisors are built once, here."""
    n, h, w = windows.shape
    sums, squares = summed_areas(windows.transpose(1, 2, 0)).reshape(
        2, (h + 1) * (w + 1), n)
    stride = w + 1
    window = _flat_offsets(np.array([[0], [0], [w], [h]]), stride)
    div = _window_divisor(sums[window], squares[window], w * h)
    sums = sums.copy()  # frees the squares table

    def score(features: Sequence[HaarFeature]) -> np.ndarray:
        table = _feature_table(features, 1.0, stride)
        return _feature_values(_rect_sums(sums[table.offsets]), table, div)
    return score


def _add_votes(total: np.ndarray, stage: Stage, lo: int,
               values: np.ndarray) -> np.ndarray:
    """Add to total, in place and one stump after another, the alpha of
    each of stage's stumps lo, lo + 1, ... that votes +1 on its row of
    values (one row per stump, one column per window)."""
    thresholds, polarities, alphas = stage.votes
    for j, row in enumerate(values, lo):
        total += np.where(polarities[j] * (row - thresholds[j]) >= 0,
                          alphas[j], 0.0)
    return total


def stage_scores(stage: Stage, values_by_weak: np.ndarray) -> np.ndarray:
    """Sum of alphas over weak classifiers voting +1, added in the order of
    stage.weak (a numpy reduction could reorder the sum).

    values_by_weak holds one column per weak classifier, aligned with
    stage.weak.
    """
    return _add_votes(np.zeros(len(values_by_weak)), stage, 0,
                      values_by_weak.T)


def train_stage(positives: np.ndarray, negatives: np.ndarray, rounds: int,
                target_detection_rate: float,
                features: Sequence[HaarFeature]) -> tuple[Stage, np.ndarray]:
    """Boost `rounds` decision stumps on two (n, h, w) window stacks, then
    lower the stage threshold from half the total vote until the stage
    passes the target share of positives; returns (stage, negatives'
    scores).

    The pool is scored and presorted one block of features at a time, and
    each block's values are dropped once sorted, so no (n, F) value matrix
    is held. A round re-scores only the feature it picks, and those values
    give the stage scores."""
    if not len(positives) or not len(negatives):
        raise EmptyInput("need both positive and negative windows")
    if not 0 < target_detection_rate <= 1:
        raise ValueError("target_detection_rate must be in (0, 1]")
    if not features:
        raise NoFeatures("empty feature pool")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    labels = np.array([1] * len(positives) + [-1] * len(negatives))
    score = _stack_scorer(np.concatenate([positives, negatives]))
    order, tied = _presort_rows(
        (score(features[lo:lo + _CHUNK])
         for lo in range(0, len(features), _CHUNK)), len(labels),
        len(features))
    result, values = _boost_rounds(order, tied, labels, rounds,
                                   lambda f: score(features[f:f + 1])[0])
    weak = tuple(
        (WeakClassifier(features[r.feature_index], r.threshold, r.polarity),
         r.alpha)
        for r in result.rounds)
    scores = stage_scores(Stage(weak, 0.0), values)
    need = math.ceil(target_detection_rate * len(positives))
    passing = np.sort(scores[:len(positives)])[len(positives) - need]
    threshold = min(0.5 * sum(alpha for _, alpha in weak), float(passing))
    return Stage(weak, threshold), scores[len(positives):]


def train_cascade(positives: np.ndarray, negatives: np.ndarray,
                  stage_rounds: Sequence[int], target_detection_rate: float,
                  features: Sequence[HaarFeature]) -> Cascade:
    """Train stages in sequence on the negatives each cascade prefix still
    accepts, by the scores train_stage gives them. When too few survive,
    the pool is topped up with the rejected negatives scoring closest to
    the stage threshold, so later stages keep refining the boundary. The
    windows are (n, h, w) stacks; the cascade's base window is h x w."""
    remaining = np.arange(len(negatives))  # indices into negatives
    stages: list[Stage] = []
    for rounds in stage_rounds:
        stage, scores = train_stage(positives, negatives[remaining], rounds,
                                    target_detection_rate, features)
        stages.append(stage)
        accepted = np.flatnonzero(scores >= stage.threshold)
        if len(accepted) < _MIN_NEGATIVES:
            accepted = np.sort(np.argsort(-scores, kind="stable")
                               [:_MIN_NEGATIVES])
        remaining = remaining[accepted]
    _, base_h, base_w = positives.shape
    return Cascade(base_w, base_h, tuple(stages))


# ---------------------------------------------------------------------------
# Scanning

# detect refuses a frame whose scan plan holds more windows: 1920 x 1080
# holds 1,559,176 with the default ScanConfig and a 24 x 24 base window.
# The plan's origins and the integral image grow with the frame; the
# corner gathers do not (_GATHER_BUDGET).
MAX_SCAN_WINDOWS = 2_000_000
# detect scans a plan's windows in slices of at most this many corner reads
# at the cascade's largest stage, so no batch gathers more than 32 MB of
# intp indices and 32 MB of int64 sums (16 MB of int32) at once
_GATHER_BUDGET = 1 << 22
# a plan keeps the reads, areas and coefficients of the window divisor and
# of the first batch for all its windows while they fit in this many bytes
# (3.6 MB for a 160 x 160 frame and the stream_day cascade); a larger plan
# builds them per slice and frame
_PLAN_CACHE_BYTES = 1 << 22


def _reach(total, rest: np.ndarray):
    """The largest stage total that a window holding total after some
    stumps can end with: total plus every later alpha, added left to right.
    Float addition is monotone in each operand, so no window ends above it,
    and one whose reach is below the threshold cannot pass the stage."""
    for alpha in rest:
        total = total + alpha
    return total


@dataclass(frozen=True, eq=False)
class _Batch:
    """The stumps lo.. of a stage that are scored together: their feature
    table with one column per scan level, and the alphas of the stage's
    later stumps."""

    stage: Stage
    lo: int
    table: _FeatureTable
    rest: np.ndarray


@dataclass(frozen=True, eq=False)
class _ScanPlan:
    """A cascade compiled for one frame size and scan. Every window of every
    level is a column, level by level and x-major within a level: origin
    holds its flat origin y * stride + x and level its level. window is
    the window rect as a one-row table whose area is its pixel count and
    whose coefficient is scale^2, one column per level; each stage is one
    or two batches. slices are the column ranges scanned at once, each
    with its divisor and first-batch tables at its windows when the plan
    keeps them."""

    stride: int
    origin: np.ndarray
    level: np.ndarray  # int16: scale_factor >= 1.01 keeps levels < 2^15
    sizes: np.ndarray  # (2, levels) window width and height
    window: _FeatureTable
    stages: tuple[tuple[_Batch, ...], ...]
    slices: tuple = ()


def _batches(stage: Stage, scales: np.ndarray,
             stride: int) -> tuple[_Batch, ...]:
    """stage as one or two batches: it splits at the first stump after
    which a window holding the least total, 0, could fail, since before it
    no window can."""
    alphas = stage.votes[2]
    m = len(alphas)
    k = next((k for k in range(1, m)
              if _reach(0.0, alphas[k:]) < stage.threshold), m)
    features = [weak.feature for weak, _ in stage.weak]
    return tuple(_Batch(stage, lo, _feature_table(features[lo:hi], scales,
                                                  stride), alphas[hi:])
                 for lo, hi in ((0, k), (k, m)) if lo < hi)


def _at(table: _FeatureTable, plan: _ScanPlan, cols) -> _FeatureTable:
    """table (one column per level) at the plan's windows cols, a slice or
    an index array: one column per window, with the window's origin added
    to the offsets."""
    level = plan.level[cols]
    offsets = table.offsets.take(level, axis=1)
    offsets += plan.origin[cols]  # in place: no second rows x windows array
    return _FeatureTable(table.n, offsets, table.actual.take(level, axis=1),
                         table.coeff.take(level, axis=1), table.third,
                         table.fourth)


def _slice_tables(plan: _ScanPlan, cols: slice) -> tuple:
    """The divisor's and the first batch's tables at the windows cols."""
    return tuple(_at(table, plan, cols)
                 for table in (plan.window, plan.stages[0][0].table))


def _compile(cascade: Cascade, stride: int, grids: list) -> _ScanPlan:
    """The scan plan of windows on an integral image of row stride, given
    as (scale, origin columns, origin rows) per level."""
    scales = np.array([scale for scale, _, _ in grids])
    win_w, win_h = sizes = np.array(
        [(iround(cascade.base_w * s), iround(cascade.base_h * s))
         for s in scales]).T
    origin = np.concatenate([(xs[:, None] + ys * stride).ravel()
                             for _, xs, ys in grids])
    window = _FeatureTable(
        1, _flat_offsets(np.stack([0 * win_w, 0 * win_h, win_w, win_h]),
                         stride).reshape(4, -1),
        (win_w * win_h)[None].astype(np.float64), (scales * scales)[None],
        np.empty(0, np.intp), np.empty(0, np.intp))
    level = np.repeat(np.arange(len(grids), dtype=np.int16),
                      [len(xs) * len(ys) for _, xs, ys in grids])
    plan = _ScanPlan(stride, origin, level, sizes, window,
                     tuple(_batches(stage, scales, stride)
                           for stage in cascade.stages))
    reads = max(sum(4 * len(b.table.actual) for b in batches)
                for batches in plan.stages)
    size, n = max(1, _GATHER_BUDGET // reads), len(origin)
    # 4 intp reads and 2 floats a row: the window and the first batch's
    keep = n * 48 * (1 + len(plan.stages[0][0].table.actual)) \
        <= _PLAN_CACHE_BYTES
    cuts = [slice(lo, min(lo + size, n)) for lo in range(0, n, size)]
    return replace(plan, slices=tuple(
        (cols, _slice_tables(plan, cols) if keep else None) for cols in cuts))


@functools.lru_cache(maxsize=8)
def _scan_plan(cascade: Cascade, width: int, height: int,
               scale_factor: float, step_frac: float) -> _ScanPlan:
    """The scan plan of a width x height frame: every scale from 1 up, by
    scale_factor, whose window fits, at a step of step_frac windows.

    Keyed by the cascade's value, never its id (a freed cascade's id can
    be reused), and by the image size, which fixes the stride.
    """
    grids = []  # (scale, origin columns, origin rows) per level
    scale = 1.0
    while True:
        win_w = iround(cascade.base_w * scale)
        win_h = iround(cascade.base_h * scale)
        if win_w > width or win_h > height:
            break
        step = max(1, iround(step_frac * win_w))
        grids.append((scale, np.arange(0, width - win_w + 1, step),
                      np.arange(0, height - win_h + 1, step)))
        scale *= scale_factor
    windows = sum(len(xs) * len(ys) for _, xs, ys in grids)
    if windows > MAX_SCAN_WINDOWS:
        raise ImageTooLarge(f"{width}x{height} image needs {windows} scan "
                            f"windows, over the limit of {MAX_SCAN_WINDOWS}")
    return _compile(cascade, width + 1, grids)


def check_scan(cascade: Cascade, width: int, height: int,
               scan: ScanConfig) -> None:
    """Raise ImageTooLarge where detect would refuse a width x height
    frame; the plan it counts is cached for detect. A frame smaller than
    the base window has no plan (detect raises ImageTooSmall)."""
    if width >= cascade.base_w and height >= cascade.base_h:
        _scan_plan(cascade, width, height, scan.scale_factor, scan.step_frac)


def _scaled_divisor(ii: IntegralImage, window: _FeatureTable) -> np.ndarray:
    """scale^2 * max(pixel standard deviation, 1) of the windows of a
    _slice_tables window table.

    Dividing by scale^2 as well as the standard deviation brings values
    from any scale into base window units, so stump thresholds transfer
    across scales.
    """
    return window.coeff[0] * _window_divisor(
        ii.sums.ravel().take(window.offsets),
        ii.squares.ravel().take(window.offsets), window.actual[0])


def _cascade_pass(plan: _ScanPlan, ii: IntegralImage, cols: slice,
                  tables: tuple) -> np.ndarray:
    """The plan's windows among cols that pass every stage; tables are the
    divisor's and the first batch's at those windows (_slice_tables).

    A window leaves after the first batch whose reach it falls short of.
    """
    sums = ii.sums.ravel()
    window, table = tables
    div = _scaled_divisor(ii, window)
    alive = np.arange(cols.start, cols.stop)
    for batches in plan.stages:
        total = np.zeros(len(alive))
        for batch in batches:
            table = table or _at(batch.table, plan, alive)
            values = _feature_values(_rect_sums(sums.take(table.offsets)),
                                     table, div)
            _add_votes(total, batch.stage, batch.lo, values)
            keep = _reach(total, batch.rest) >= batch.stage.threshold
            alive, div, total = alive[keep], div[keep], total[keep]
            table = None
            if not len(alive):
                return alive
    return alive


def _mean_rect(rects: Sequence[Rect]) -> Rect:
    """Rounded-half-up mean x, y, w and h (w, h >= 1 when every side is)."""
    x = y = w = h = 0
    for r in rects:
        x, y, w, h = x + r.x, y + r.y, w + r.w, h + r.h
    n = len(rects)
    return Rect(iround(x / n), iround(y / n), iround(w / n), iround(h / n))


def _group_rects(raw: list[Rect], iou_threshold: float) -> list[tuple]:
    """Greedy clustering into (members, mean) pairs: each hit joins the
    first group whose mean box it overlaps at >= iou_threshold, otherwise
    starts a group of its own. Anchoring on the mean keeps dense scan grids
    from chaining into one blob."""
    groups: list[tuple[list[Rect], Rect]] = []
    for rect in raw:
        for i, (members, mean) in enumerate(groups):
            if rect.iou(mean) >= iou_threshold:
                members.append(rect)
                groups[i] = (members, _mean_rect(members))
                break
        else:
            groups.append(([rect], rect))
    return groups


def detect(img: Image, cascade: Cascade,
           scan: ScanConfig = ScanConfig()) -> list[FaceBox]:
    """Multi-scale scan: raw cascade hits are grouped by overlap and groups
    below min_neighbors discarded; each surviving group reports its mean
    box with the group size as score, sorted by (y, x).

    The scan plan of a cascade and image size is built on the first frame
    that needs it and reused after that; a frame of over MAX_SCAN_WINDOWS
    windows raises ImageTooLarge first. The windows of all levels are
    scanned together, in slices of at most _GATHER_BUDGET corner reads."""
    if img.channels != 1:
        raise ValueError("detect expects a grayscale image")
    if img.width < cascade.base_w or img.height < cascade.base_h:
        raise ImageTooSmall(
            f"{img.width}x{img.height} image is smaller than the "
            f"{cascade.base_w}x{cascade.base_h} base window")
    plan = _scan_plan(cascade, img.width, img.height, scan.scale_factor,
                      scan.step_frac)
    ii = integral_image(img)
    raw: list[Rect] = []
    for cols, tables in plan.slices:
        hits = _cascade_pass(plan, ii, cols,
                             tables or _slice_tables(plan, cols))
        ys, xs = np.divmod(plan.origin[hits], plan.stride)
        raw.extend(Rect(int(x), int(y), int(w), int(h)) for x, y, w, h
                   in zip(xs, ys, *plan.sizes[:, plan.level[hits]]))
    raw.sort(key=lambda r: (r.y, r.x, r.w, r.h))
    boxes: list[FaceBox] = []
    for members, m in _group_rects(raw, scan.group_iou):
        if len(members) < scan.min_neighbors:
            continue
        boxes.append(FaceBox(Rect(m.x, m.y, min(m.w, img.width - m.x),
                                  min(m.h, img.height - m.y)), len(members)))
    boxes.sort(key=lambda b: (b.rect.y, b.rect.x))
    return boxes


# ---------------------------------------------------------------------------
# CASCADE1 text format

def save_cascade(cascade: Cascade) -> str:
    lines = [f"CASCADE1 {cascade.base_w} {cascade.base_h} "
             f"{len(cascade.stages)}"]
    for stage in cascade.stages:
        lines.append(f"STAGE {len(stage.weak)} "
                     + format_floats(stage.threshold))
        for weak, alpha in stage.weak:
            r = weak.feature.rect
            lines.append(
                f"WEAK {weak.feature.kind} {r.x} {r.y} {r.w} {r.h} "
                f"{format_floats(weak.threshold)} {weak.polarity} "
                f"{format_floats(alpha)}")
    return render(lines)


def load_cascade(text: str) -> Cascade:
    src = ModelText(text, "CASCADE1")
    base_w, base_h, n_stages = src.header(integer, integer, count)
    stages: list[Stage] = []
    for _ in range(n_stages):
        n_weak, threshold = src.record("STAGE", count, finite)
        weak: list[tuple[WeakClassifier, float]] = []
        for _ in range(n_weak):
            kind, x, y, w, h, weak_threshold, polarity, alpha = src.record(
                "WEAK", str, integer, integer, integer, integer, finite_or_inf,
                integer, finite)
            with src.checked(src.pos):
                rect = Rect(x, y, w, h)
                if not rect.inside(base_w, base_h):
                    raise ValueError(f"{rect} outside the {base_w}x{base_h} "
                                     f"base window")
                weak.append((WeakClassifier(HaarFeature(kind, rect),
                                            weak_threshold, polarity),
                             alpha))
        with src.checked(src.pos):
            stages.append(Stage(tuple(weak), threshold))
    src.end()
    with src.checked(1):
        return Cascade(base_w, base_h, tuple(stages))

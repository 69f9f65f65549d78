import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fatiguedet import detector
from fatiguedet.detector import (
    KINDS,
    BoostResult,
    BoostRound,
    Cascade,
    HaarFeature,
    ScanConfig,
    Stage,
    StumpFit,
    WeakClassifier,
    _group_rects,
    detect,
    feature_grid,
    load_cascade,
    save_cascade,
    stage_scores,
    stump_predict,
    train_cascade,
    train_stage,
)
from fatiguedet.errors import (
    EmptyInput,
    ImageTooLarge,
    ImageTooSmall,
    ParseError,
    VersionMismatch,
)
from fatiguedet.imaging import Image, Rect, integral_image, iround
from fatiguedet.synth import (
    BACKGROUND,
    SyntheticSpec,
    detector_windows,
    draw_face,
    generate,
)


def gray(arr):
    return Image.from_array(np.asarray(arr, dtype=np.uint8))


# (x, y) size units of each kind: the rect sides must be multiples of them
UNITS = {"2H": (2, 1), "2V": (1, 2), "3H": (3, 1), "3V": (1, 3), "4": (2, 2)}


def any_feature(kind, x, y, w, h):
    # snap dims to the kind's divisibility requirement
    if kind in ("2H", "4"):
        w -= w % 2
    if kind == "3H":
        w -= w % 3
    if kind in ("2V", "4"):
        h -= h % 2
    if kind == "3V":
        h -= h % 3
    return HaarFeature(kind, Rect(x, y, max(w, 6), max(h, 6)))


def sub_rects(feature):
    """(x1, y1, x2, y2, weight) of the cells of feature's kind, row by row;
    weighted areas sum to 0."""
    cols, rows, weights = detector._KIND_CELLS[feature.kind]
    r = feature.rect
    cw, ch = r.w // cols, r.h // rows
    cells = []
    for k, wgt in enumerate(weights):
        x, y = r.x + k % cols * cw, r.y + k // cols * ch
        cells.append((x, y, x + cw, y + ch, wgt))
    return tuple(cells)


# train_stage's search rebuilt over a whole (n samples, F features) value
# matrix from its parts: the block scorer, the presort, the stump search
# and the boosting rounds. Stage training never holds such a matrix.

def feature_value_matrix(windows, features):
    """The block scorer of an (n, h, w) window stack looped over features:
    the (n, F) values, the transpose of a C-ordered array with one row per
    feature."""
    score = detector._stack_scorer(windows)
    chunk = detector._CHUNK
    out = np.empty((len(features), len(windows)))
    for lo in range(0, len(features), chunk):
        out[lo:lo + chunk] = score(features[lo:lo + chunk])
    return out.T


def presort(values):
    """_presort_rows of the feature columns of an (n, F) matrix, fed as
    train_stage feeds it: blocks of _CHUNK rows, one row per feature."""
    n, nf = values.shape
    rows, chunk = values.T, detector._CHUNK
    return detector._presort_rows(
        (rows[lo:lo + chunk] for lo in range(0, nf, chunk)), n, nf)


def train_weak(values, labels, weights):
    """The best stump on one feature's values."""
    values = np.asarray(values, dtype=np.float64)
    order, tied = presort(values[:, None])
    return detector._best_stump(values, order[0], tied[0], labels, weights)


def boost(values, labels, rounds):
    """The boosting rounds over an (n, F) value matrix."""
    values = np.asarray(values, dtype=np.float64)
    return detector._boost_rounds(*presort(values), labels, rounds,
                                  values.T.__getitem__)[0]


# Scalar reference for the cascade scorer, one window at a time: its own
# corner gathering, area renormalization and window divisor, in the same
# floating-point operations as the vectorized scorer, so the two agree bit
# for bit.

def corner_sum(sums, ox, oy, x1, y1, x2, y2):
    return (sums[oy + y2, ox + x2] - sums[oy + y1, ox + x2]
            - sums[oy + y2, ox + x1] + sums[oy + y1, ox + x1])


def eval_feature(ii, feature, origin, scale, base_w=24, base_h=24):
    """Variance-normalized value of feature in the window at origin."""
    ox, oy = origin
    win_w, win_h = iround(base_w * scale), iround(base_h * scale)
    n = win_w * win_h
    mean = float(corner_sum(ii.sums, ox, oy, 0, 0, win_w, win_h)) / n
    var = float(corner_sum(ii.squares, ox, oy, 0, 0, win_w, win_h)) / n \
        - mean * mean
    div = (scale * scale) * max(math.sqrt(max(var, 0.0)), 1.0)
    raw = None
    for x1, y1, x2, y2, wgt in sub_rects(feature):
        sx1, sy1, sx2, sy2 = (iround(c * scale) for c in (x1, y1, x2, y2))
        actual = float((sx2 - sx1) * (sy2 - sy1))
        ideal = (x2 - x1) * (y2 - y1) * scale * scale
        term = (corner_sum(ii.sums, ox, oy, sx1, sy1, sx2, sy2) / actual) \
            * (wgt * ideal)
        raw = term if raw is None else raw + term
    return raw / div


def classify_window(ii, cascade, origin, scale):
    """True when the window passes every stage of the cascade."""
    for stage in cascade.stages:
        score = 0.0
        for weak, alpha in stage.weak:
            value = eval_feature(ii, weak.feature, origin, scale,
                                 cascade.base_w, cascade.base_h)
            if weak.polarity * (value - weak.threshold) >= 0:
                score += alpha
        if score < stage.threshold:
            return False
    return True


def reference_detect(img, cascade, scan):
    """detect's boxes as (x, y, w, h, score), from classify_window at every
    scan origin of every scale, one window at a time."""
    ii = integral_image(img)
    raw = []
    scale = 1.0
    while True:
        win_w = iround(cascade.base_w * scale)
        win_h = iround(cascade.base_h * scale)
        if win_w > img.width or win_h > img.height:
            break
        step = max(1, iround(scan.step_frac * win_w))
        for ox in range(0, img.width - win_w + 1, step):
            for oy in range(0, img.height - win_h + 1, step):
                if classify_window(ii, cascade, (ox, oy), scale):
                    raw.append(Rect(ox, oy, win_w, win_h))
        scale *= scan.scale_factor
    raw.sort(key=lambda r: (r.y, r.x, r.w, r.h))
    expected = []
    for group, _ in _group_rects(raw, scan.group_iou):
        if len(group) < scan.min_neighbors:
            continue
        x = iround(sum(r.x for r in group) / len(group))
        y = iround(sum(r.y for r in group) / len(group))
        w = iround(sum(r.w for r in group) / len(group))
        h = iround(sum(r.h for r in group) / len(group))
        expected.append((x, y, min(w, img.width - x), min(h, img.height - y),
                         len(group)))
    expected.sort(key=lambda t: (t[1], t[0]))
    return expected


def box_tuples(boxes):
    return [(b.rect.x, b.rect.y, b.rect.w, b.rect.h, b.score) for b in boxes]


def window_plan(ii, cascade, origin, scale):
    """detect's scan plan of the one window at origin and scale of ii."""
    return detector._compile(cascade, ii.width + 1,
                             [(scale, np.array([origin[0]]),
                               np.array([origin[1]]))])


def scorer_value(ii, feature, origin, scale):
    """The scan's value of feature for the window at origin, through the
    compiled plan of a one-stump cascade."""
    stump = WeakClassifier(feature, 0.0, 1)
    cascade = Cascade(24, 24, (Stage(((stump, 1.0),), 0.0),))
    plan = window_plan(ii, cascade, origin, scale)
    window, table = detector._slice_tables(plan, slice(0, 1))
    rect_sums = detector._rect_sums(ii.sums.ravel().take(table.offsets))
    div = detector._scaled_divisor(ii, window)
    return float(detector._feature_values(rect_sums, table, div)[0, 0])


def passes(ii, cascade, origin, scale):
    """Whether detect's cascade pass accepts the window at origin."""
    plan = window_plan(ii, cascade, origin, scale)
    cols = slice(0, 1)
    return len(detector._cascade_pass(
        plan, ii, cols, detector._slice_tables(plan, cols))) == 1


def random_feature(draw, kind, base_w, base_h):
    """A feature of kind at a drawn size and place inside the base window."""
    ux, uy = UNITS[kind]
    w = ux * draw(st.integers(1, base_w // ux))
    h = uy * draw(st.integers(1, base_h // uy))
    return HaarFeature(kind, Rect(draw(st.integers(0, base_w - w)),
                                  draw(st.integers(0, base_h - h)), w, h))


class TestHaarFeature:
    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            HaarFeature("2H", Rect(0, 0, 5, 4))
        with pytest.raises(ValueError):
            HaarFeature("3V", Rect(0, 0, 6, 8))
        for kind, (ux, uy) in UNITS.items():
            HaarFeature(kind, Rect(0, 0, 4 * ux, 4 * uy))
            for unit, (dw, dh) in ((ux, (1, 0)), (uy, (0, 1))):
                for off in range(1, unit):
                    with pytest.raises(ValueError):
                        HaarFeature(kind, Rect(0, 0, 4 * ux + off * dw,
                                               4 * uy + off * dh))

    def test_sub_rects_golden(self):
        rect = Rect(2, 3, 12, 6)
        assert {kind: sub_rects(HaarFeature(kind, rect))
                for kind in KINDS} == {
            "2H": ((2, 3, 8, 9, 1), (8, 3, 14, 9, -1)),
            "2V": ((2, 3, 14, 6, 1), (2, 6, 14, 9, -1)),
            "3H": ((2, 3, 6, 9, -1), (6, 3, 10, 9, 2), (10, 3, 14, 9, -1)),
            "3V": ((2, 3, 14, 5, -1), (2, 5, 14, 7, 2), (2, 7, 14, 9, -1)),
            "4": ((2, 3, 8, 6, 1), (8, 3, 14, 6, -1), (2, 6, 8, 9, -1),
                  (8, 6, 14, 9, 1)),
        }

    @pytest.mark.parametrize("base_w, base_h, step",
                             [(12, 12, 1), (24, 24, 3), (13, 8, 1)])
    def test_feature_grid_is_every_accepted_rect(self, base_w, base_h,
                                                 step):
        expected = []
        for kind in KINDS:
            for y in range(0, base_h, step):
                for x in range(0, base_w, step):
                    for h in range(step, base_h - y + 1, step):
                        for w in range(step, base_w - x + 1, step):
                            try:
                                feat = HaarFeature(kind, Rect(x, y, w, h))
                            except ValueError:
                                continue
                            expected.append(feat)
        assert feature_grid(base_w, base_h, step) == expected

    @pytest.mark.parametrize("kind", ["2H", "2V", "3H", "3V", "4"])
    def test_weighted_areas_cancel(self, kind):
        feat = any_feature(kind, 2, 4, 12, 12)
        total = sum(w * (x2 - x1) * (y2 - y1)
                    for x1, y1, x2, y2, w in sub_rects(feat))
        assert total == 0

    @pytest.mark.parametrize("kind", ["2H", "2V", "3H", "3V", "4"])
    @given(value=st.integers(0, 255), scale=st.floats(1.0, 3.0))
    def test_constant_image_evaluates_to_zero(self, kind, value, scale):
        img = gray(np.full((80, 80), value))
        ii = integral_image(img)
        feat = any_feature(kind, 0, 0, 24, 24)
        assert scorer_value(ii, feat, (1, 2), scale) == 0.0
        assert eval_feature(ii, feat, (1, 2), scale) == 0.0

    @pytest.mark.parametrize("kind", ["2H", "2V", "3H", "3V", "4"])
    @given(scale=st.floats(1.0, 3.0), data=st.data())
    def test_scorer_matches_scalar_reference(self, kind, scale, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32)))
        ii = integral_image(gray(rng.integers(0, 256, size=(80, 80))))
        win = iround(24 * scale)
        origin = (data.draw(st.integers(0, 80 - win)),
                  data.draw(st.integers(0, 80 - win)))
        feat = any_feature(kind, 2, 3, 15, 17)
        assert scorer_value(ii, feat, origin, scale) == \
            eval_feature(ii, feat, origin, scale)


class TestEvalFeature:
    @given(data=st.data())
    def test_stacked_non_square_windows_match_scalar_reference(self, data):
        base_w, base_h = data.draw(st.integers(6, 12)), \
            data.draw(st.integers(6, 12))
        kinds = data.draw(st.permutations(KINDS)) + data.draw(
            st.lists(st.sampled_from(KINDS), max_size=6))
        feats = [random_feature(data.draw, kind, base_w, base_h)
                 for kind in kinds]
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32)))
        windows = np.stack([rng.integers(0, 256, size=(base_h, base_w))
                            for _ in range(data.draw(st.integers(1, 8)))]
                           ).astype(np.uint8)
        values = feature_value_matrix(windows, feats)
        assert values.shape == (len(windows), len(feats))
        assert values.T.flags.c_contiguous  # one row per feature
        for i, window in enumerate(windows):
            ii = integral_image(gray(window))
            for j, feat in enumerate(feats):
                assert values[i, j] == eval_feature(ii, feat, (0, 0), 1.0,
                                                    base_w, base_h)

    def test_half_contrast_hand_value(self):
        # 24x24 window, left half 255 / right half 0. Raw 2H value is
        # 255 * 12 * 24 = 73440; mean 127.5, E[x^2] = 32512.5, so
        # std = sqrt(32512.5 - 127.5^2) = 127.5 and 73440 / 127.5 = 576.
        arr = np.zeros((24, 24), dtype=np.uint8)
        arr[:, :12] = 255
        feat = HaarFeature("2H", Rect(0, 0, 24, 24))
        assert feature_value_matrix(arr[None], [feat])[0, 0] == 576.0
        assert eval_feature(integral_image(gray(arr)), feat, (0, 0),
                            1.0) == 576.0

    def test_matches_pixel_loop_oracle(self, rng):
        pixels = rng.integers(0, 256, size=(40, 40))
        ii = integral_image(gray(pixels))
        crop = pixels[None, 7:31, 5:29].astype(np.uint8)
        for kind in ("2H", "2V", "3H", "3V", "4"):
            feat = any_feature(kind, 2, 2, 18, 18)
            got = eval_feature(ii, feat, (5, 7), 1.0)
            assert feature_value_matrix(crop, [feat])[0, 0] == got
            raw = 0.0
            for x1, y1, x2, y2, w in sub_rects(feat):
                for yy in range(7 + y1, 7 + y2):
                    for xx in range(5 + x1, 5 + x2):
                        raw += w * float(pixels[yy, xx])
            window = pixels[7:31, 5:29].astype(np.float64)
            std = math.sqrt(max((window ** 2).mean() - window.mean() ** 2,
                                0.0))
            assert got == pytest.approx(raw / max(std, 1.0), rel=1e-12)


def oracle_best_stump(values, labels, weights):
    """Exhaustive scan over all midpoint candidates and both polarities,
    with the same tie rules (smallest threshold, then polarity +1)."""
    sv = sorted(set(values))
    candidates = [-math.inf]
    candidates += [(a + b) / 2 for a, b in zip(sv, sv[1:])]
    candidates += [math.inf]
    best = None
    for thr in candidates:
        for pol in (1, -1):
            err = 0.0
            for v, lab, w in zip(values, labels, weights):
                pred = 1 if pol * (v - thr) >= 0 else -1
                if pred != lab:
                    err += w
            if best is None or err < best[2]:
                best = (thr, pol, err)
    return best


class TestTrainWeak:
    def test_separable_midpoint(self):
        fit = train_weak(np.array([1.0, 2.0, 9.0, 10.0]),
                         np.array([-1, -1, 1, 1]), np.full(4, 0.25))
        assert fit == StumpFit(5.5, 1, 0.0)

    def test_all_labels_identical(self):
        # degenerate: a sentinel threshold reaches zero error; the smallest
        # one (-inf) wins the tie
        fit = train_weak(np.array([3.0, 1.0, 2.0]), np.array([1, 1, 1]),
                         np.full(3, 1 / 3))
        assert fit.error == 0.0
        assert fit.threshold == -math.inf and fit.polarity == 1
        fit = train_weak(np.array([3.0, 1.0, 2.0]), np.array([-1, -1, -1]),
                         np.full(3, 1 / 3))
        assert fit.error == 0.0
        assert math.isinf(fit.threshold) and fit.polarity == -1

    def test_exhaustive_oracle_agreement(self, rng):
        for _ in range(25):
            n = 20
            values = rng.integers(0, 12, size=n).astype(float)
            labels = rng.choice([1, -1], size=n)
            # dyadic weights keep every candidate error exact, so the
            # oracle's tie-breaking matches bit for bit
            weights = rng.integers(1, 64, size=n) / 64.0
            fit = train_weak(values, labels, weights)
            thr, pol, err = oracle_best_stump(values, labels, weights)
            assert fit.error == err
            assert (fit.threshold, fit.polarity) == (thr, pol)

    def test_returned_error_at_most_any_candidate(self, rng):
        values = rng.normal(size=15)
        labels = rng.choice([1, -1], size=15)
        weights = rng.uniform(0.1, 1.0, size=15)
        fit = train_weak(values, labels, weights)
        _, _, best_err = oracle_best_stump(values, labels, weights)
        assert fit.error <= best_err + 1e-12


# Reference stump search: argsorts every column in every round. Kept word
# for word as it stood before boosting presorted its columns; the presorted
# rounds must pick exactly the rounds this search picks.
_CHUNK = 4096


def _best_feature_errors(values: np.ndarray, labels: np.ndarray,
                         weights: np.ndarray) -> np.ndarray:
    """Per-feature minimal stump error; matches train_weak arithmetic."""
    n, nf = values.shape
    out = np.empty(nf)
    for lo in range(0, nf, _CHUNK):
        block = values[:, lo:lo + _CHUNK]
        order = np.argsort(block, axis=0, kind="stable")
        v = np.take_along_axis(block, order, axis=0)
        lab = labels[order]
        w = weights[order]
        wpos = np.where(lab == 1, w, 0.0)
        wneg = np.where(lab == -1, w, 0.0)
        cpos = np.vstack([np.zeros(block.shape[1]), np.cumsum(wpos, axis=0)])
        cneg = np.vstack([np.zeros(block.shape[1]), np.cumsum(wneg, axis=0)])
        total_pos = cpos[-1]
        total_neg = cneg[-1]
        err_p = cpos + (total_neg - cneg)
        # splits at equal consecutive values are not candidates
        invalid = np.vstack([np.zeros(block.shape[1], bool),
                             v[1:] <= v[:-1],
                             np.zeros(block.shape[1], bool)])
        err_p = np.where(invalid, np.inf, err_p)
        err_m = np.where(invalid, np.inf,
                         (total_pos + total_neg) - err_p)
        out[lo:lo + _CHUNK] = np.minimum(err_p.min(axis=0), err_m.min(axis=0))
    return out


def argsort_boost(values, labels, rounds):
    """boost's loop over the reference search above."""
    n = len(labels)
    w = np.full(n, 1.0 / n)
    picked = []
    for _ in range(rounds):
        w = w / w.sum()
        per_feature = _best_feature_errors(values, labels, w)
        f = int(np.argmin(per_feature))
        fit = train_weak(values[:, f], labels, w)
        eps = min(max(fit.error, 1e-10), 1.0 - 1e-10)
        beta = eps / (1.0 - eps)
        alpha = math.log(1.0 / beta)
        h = stump_predict(values[:, f], fit.threshold, fit.polarity)
        w = np.where(h == labels, w * beta, w)
        picked.append(BoostRound(f, fit.threshold, fit.polarity, alpha,
                                 fit.error))
    return BoostResult(picked, w)


def order_type(n):
    """_presort_rows's index type: int16 holds every index of n <= 32,768
    samples, int32 the rest."""
    return np.int16 if n <= 32_768 else np.int32


def tied_matrix(rng, n, nf):
    """Random values where many columns hold repeated values."""
    values = rng.normal(size=(n, nf))
    coarse = rng.random(nf) < 0.5
    values[:, coarse] = rng.integers(0, 4, size=(n, int(coarse.sum())))
    return values


def reference_table(features, scale, stride):
    """A _FeatureTable's arrays built one feature at a time: each sub-rect
    corner rounded half up on its own, rows in scorer order (every first
    sub-rect, every second, then the third and fourth of the features that
    have them)."""
    cells = [[], [], [], []]
    for feature in features:
        for k, (x1, y1, x2, y2, wgt) in enumerate(sub_rects(feature)):
            sx1, sy1, sx2, sy2 = (iround(c * scale) for c in (x1, y1, x2, y2))
            actual = (sx2 - sx1) * (sy2 - sy1)
            if actual <= 0:
                raise ValueError("degenerate")
            ideal = (x2 - x1) * (y2 - y1) * scale * scale
            cells[k].append((sx1, sy1, sx2, sy2, float(actual), wgt * ideal))
    rows = [row for cell in cells for row in cell]
    x1, y1, x2, y2 = (np.array([r[i] for r in rows], dtype=np.intp)
                      for i in range(4))
    return {"offsets": np.concatenate([y2 * stride + x2, y1 * stride + x2,
                                       y2 * stride + x1, y1 * stride + x1]),
            "actual": np.array([[r[4]] for r in rows]),
            "coeff": np.array([[r[5]] for r in rows]),
            "third": np.array([i for i, f in enumerate(features)
                               if len(sub_rects(f)) > 2], dtype=np.intp),
            "fourth": np.array([i for i, f in enumerate(features)
                                if len(sub_rects(f)) > 3], dtype=np.intp)}


class TestFeatureTable:
    @settings(max_examples=60)
    @given(data=st.data())
    def test_matches_per_feature_reference(self, data):
        kinds = data.draw(st.lists(st.sampled_from(KINDS), min_size=1,
                                   max_size=12))
        feats = [random_feature(data.draw, kind, 24, 24) for kind in kinds]
        scale = data.draw(st.sampled_from([1.0, 1.25, 1.5625, 2.0, 3.0, 6.0])
                          | st.floats(0.1, 6.0))
        stride = data.draw(st.integers(25, 200))
        try:
            want = reference_table(feats, scale, stride)
        except ValueError:
            with pytest.raises(ValueError, match="degenerate sub-rect"):
                detector._feature_table(feats, scale, stride)
            return
        table = detector._feature_table(feats, scale, stride)
        assert table.n == len(feats)
        for name, expected in want.items():
            got = getattr(table, name)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected), name

    def test_degenerate_sub_rect_is_refused(self):
        # at scale 0.3 the 1 px rows round to 0 px
        feat = HaarFeature("2H", Rect(0, 0, 2, 1))
        with pytest.raises(ValueError,
                           match="degenerate sub-rect at scale 0.3"):
            detector._feature_table([feat], 0.3, 25)


class TestBoost:
    def test_single_round_separable(self):
        values = np.array([[1.0], [2.0], [9.0], [10.0]])
        labels = np.array([-1, -1, 1, 1])
        result = boost(values, labels, rounds=1)
        (r,) = result.rounds
        assert (r.feature_index, r.threshold, r.polarity) == (0, 5.5, 1)
        # clamped: eps = 1e-10, alpha = ln((1 - eps) / eps)
        assert r.alpha == pytest.approx(math.log((1 - 1e-10) / 1e-10))

    def test_two_rounds_hand_executed(self):
        # 8 samples, y = [+ + + + - - - -], uniform weights 1/8 (exact).
        # Feature A errs only on sample 2 at theta (5+7)/2 = 6; feature B
        # errs only on sample 4 at theta (2+6)/2 = 4. Round 1 ties at
        # exactly 1/8 and picks A (lower index); beta = 1/7 reweights to
        # [1/14 ... 1/2 (sample 2) ... 1/14]. In round 2 feature A's best
        # candidate costs 3/14 while B still errs only on sample 4 (1/14),
        # so B wins with eps = 1/14, alpha = ln 13.
        values = np.array([
            [9.0, 9.0],
            [8.0, 8.0],
            [1.0, 7.0],
            [7.0, 6.0],
            [5.0, 8.5],
            [4.0, 2.0],
            [3.0, 1.0],
            [0.0, 0.0],
        ])
        labels = np.array([1, 1, 1, 1, -1, -1, -1, -1])
        result = boost(values, labels, rounds=2)
        r1, r2 = result.rounds
        assert (r1.feature_index, r1.threshold, r1.polarity) == (0, 6.0, 1)
        assert r1.error == 0.125
        assert r1.alpha == pytest.approx(math.log(7), rel=1e-9)
        assert (r2.feature_index, r2.threshold, r2.polarity) == (1, 4.0, 1)
        assert r2.error == pytest.approx(1 / 14, rel=1e-9)
        assert r2.alpha == pytest.approx(math.log(13), rel=1e-9)

    def test_training_error_bound(self, rng):
        # stage error at the half-vote threshold stays under the classic
        # AdaBoost product bound
        for _ in range(5):
            n, f = 20, 12
            values = rng.normal(size=(n, f))
            labels = rng.choice([1, -1], size=n)
            result = boost(values, labels, rounds=4)
            bound = 1.0
            total_alpha = sum(r.alpha for r in result.rounds)
            scores = np.zeros(n)
            for r in result.rounds:
                eps = min(max(r.error, 1e-10), 1 - 1e-10)
                bound *= 2 * math.sqrt(eps * (1 - eps))
                votes = stump_predict(values[:, r.feature_index],
                                      r.threshold, r.polarity)
                scores += np.where(votes == 1, r.alpha, 0.0)
            err = float(np.mean((scores >= 0.5 * total_alpha) != (labels == 1)))
            assert err <= bound + 1e-12

    def test_presorted_errors_match_argsort_search(self, rng):
        # feature counts span several presort blocks and a partial one
        for _ in range(20):
            n = int(rng.integers(1, 40))
            values = tied_matrix(rng, n, int(rng.integers(1, 200)))
            labels = rng.choice([1, -1], size=n)
            w = rng.random(n)
            w /= w.sum()
            order, tied = presort(values)
            assert order.dtype == order_type(n)
            assert np.array_equal(
                detector._best_feature_errors(order, tied, labels, w),
                _best_feature_errors(values, labels, w))

    @settings(max_examples=100)
    @given(data=st.data())
    def test_presort_is_the_stable_argsort(self, data):
        # few distinct values, so ties everywhere; -0.0 ties with 0.0 and
        # NaNs sort last, in index order
        pool = data.draw(st.lists(
            st.sampled_from([0.0, -0.0, 1.0, -2.5, math.inf, math.nan])
            | st.floats(allow_nan=True), min_size=1, max_size=6))
        n, nf = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 150))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32)))
        values = rng.choice(np.array(pool), size=(n, nf))
        constant = rng.random(nf) < 0.2
        values[:, constant] = values[0, constant]
        order, tied = presort(values)
        stable = np.argsort(values, axis=0, kind="stable")
        v = np.take_along_axis(values, stable, axis=0)
        assert order.dtype == order_type(n)
        assert np.array_equal(order, stable.T)
        assert tied.shape == (nf, n + 1)
        assert not tied[:, 0].any() and not tied[:, n].any()
        assert np.array_equal(tied[:, 1:n], (v[1:] <= v[:-1]).T)

    def test_presort_keys_past_int32(self, rng):
        # about 63,000 runs of equal values times n = 100,000 passes the
        # int32 range, so the tie keys must be int64
        n = 100_000
        values = rng.integers(0, n, size=(n, 1)).astype(np.float64)
        order, _ = presort(values)
        assert np.array_equal(order[0], np.argsort(values[:, 0],
                                                   kind="stable"))

    @pytest.mark.parametrize("n", [32_768, 32_769])
    def test_presort_index_type_at_the_int16_edge(self, rng, n):
        # the last index, n - 1, is the int16 maximum at n = 32,768
        values = tied_matrix(rng, n, 3)
        labels = rng.choice([1, -1], size=n)
        order, _ = presort(values)
        assert order.dtype == order_type(n)
        assert np.array_equal(order, np.argsort(values, axis=0,
                                                kind="stable").T)
        got = boost(values, labels, 2)
        want = argsort_boost(values, labels, 2)
        assert got.rounds == want.rounds
        assert np.array_equal(got.weights, want.weights)

    def test_complex_split_errors_match_two_cumsums(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 60))
            nf = int(rng.integers(1, 80))
            values = tied_matrix(rng, n, nf)
            labels = rng.choice([1, -1], size=n)
            w = rng.random(n) ** 8  # weights over many binades
            w /= w.sum()
            order, _ = presort(values)
            err_p, total = detector._split_errors(
                order, detector._split_weights(labels, w),
                np.zeros((nf, n + 1), dtype=np.complex128))
            # one float64 cumsum per class, down each presorted column
            cpos = np.zeros((n + 1, nf))
            cneg = np.zeros((n + 1, nf))
            np.cumsum(np.where(labels == 1, w, 0.0)[order.T], axis=0,
                      out=cpos[1:])
            np.cumsum(np.where(labels == -1, w, 0.0)[order.T], axis=0,
                      out=cneg[1:])
            assert np.array_equal(err_p, (cpos + (cneg[-1] - cneg)).T)
            assert np.array_equal(total, cpos[-1] + cneg[-1])

    def test_rounds_match_argsort_boost(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 60))
            values = tied_matrix(rng, n, int(rng.integers(1, 150)))
            labels = rng.choice([1, -1], size=n)
            rounds = int(rng.integers(1, 8))
            got = boost(values, labels, rounds)
            want = argsort_boost(values, labels, rounds)
            assert got.rounds == want.rounds
            assert np.array_equal(got.weights, want.weights)


def toy_windows(rng, n, bright):
    """An (n, 24, 24) uint8 stack of noise windows, with a bright block in
    each when bright."""
    out = np.empty((n, 24, 24), dtype=np.uint8)
    for window in out:
        arr = rng.integers(0, 60, size=(24, 24))
        if bright:
            arr[4:20, 4:12] += 150
        window[:] = np.clip(arr, 0, 255)
    return out


class TestTrainStage:
    def test_target_rate_one_passes_every_positive(self, rng):
        pos = toy_windows(rng, 30, True)
        neg = toy_windows(rng, 30, False)
        pool = feature_grid(24, 24, 4)
        stage, _ = train_stage(pos, neg, rounds=3, target_detection_rate=1.0,
                               features=pool)
        values = feature_value_matrix(pos, [w.feature for w, _ in stage.weak])
        assert np.all(stage_scores(stage, values) >= stage.threshold)

    def test_threshold_starts_at_half_vote_sum(self, rng):
        pos = toy_windows(rng, 25, True)
        neg = toy_windows(rng, 25, False)
        pool = feature_grid(24, 24, 4)
        stage, _ = train_stage(pos, neg, rounds=2, target_detection_rate=0.5,
                               features=pool)
        total = sum(alpha for _, alpha in stage.weak)
        # separable toy: every positive already clears the half-vote bar,
        # so no lowering happens
        assert stage.threshold == pytest.approx(0.5 * total)

    def test_empty_inputs(self, rng):
        with pytest.raises(EmptyInput):
            train_stage(toy_windows(rng, 0, True), toy_windows(rng, 2, False),
                        rounds=1, target_detection_rate=0.995,
                        features=feature_grid(24, 24, 4))

    def test_empty_input(self, rng):
        # no negatives, and no windows at all
        pool = feature_grid(24, 24, 4)
        for n_pos in (2, 0):
            with pytest.raises(EmptyInput):
                train_stage(toy_windows(rng, n_pos, True),
                            toy_windows(rng, 0, False), rounds=1,
                            target_detection_rate=0.995, features=pool)

    def test_negative_scores_match_their_own_values(self, rng):
        neg = toy_windows(rng, 40, False)
        stage, scores = train_stage(toy_windows(rng, 30, True), neg,
                                    rounds=3, target_detection_rate=0.99,
                                    features=feature_grid(24, 24, 4))
        values = feature_value_matrix(neg, [w.feature for w, _ in stage.weak])
        assert np.array_equal(scores, stage_scores(stage, values))

    def test_stack_tables_once_and_each_feature_once_per_stage(
            self, rng, monkeypatch):
        # per stage: the stack's tables built once, the pool scored in
        # blocks of _CHUNK in pool order, then one single-feature block per
        # boosting round
        calls = []
        stack_scorer = detector._stack_scorer

        def counted_scorer(windows):
            calls.append(None)
            score = stack_scorer(windows)

            def counted(features):
                calls.append(list(features))
                return score(features)
            return counted

        monkeypatch.setattr(detector, "_stack_scorer", counted_scorer)
        pool = feature_grid(24, 24, 4)
        blocks = -(-len(pool) // detector._CHUNK)
        assert blocks > 1 and len(pool) % detector._CHUNK
        cascade = train_cascade(toy_windows(rng, 30, True),
                                toy_windows(rng, 80, False), (2, 3), 0.99,
                                pool)
        assert len(cascade.stages) == 2
        assert calls.count(None) == 2
        for stage in cascade.stages:
            rounds = len(stage.weak)
            assert calls[0] is None
            scored = calls[1:1 + blocks]
            assert all(len(b) <= detector._CHUNK for b in scored)
            assert [f for block in scored for f in block] == pool
            picked = calls[1 + blocks:1 + blocks + rounds]
            assert picked == [[weak.feature] for weak, _ in stage.weak]
            calls = calls[1 + blocks + rounds:]
        assert calls == []

    def test_matches_the_matrix_reference(self, rng):
        # the stage that boosting over the whole value matrix trains, on a
        # pool whose last block is partial
        pool = feature_grid(24, 24, 4)[:150]
        assert len(pool) % detector._CHUNK
        pos, neg = toy_windows(rng, 25, True), toy_windows(rng, 35, False)
        labels = np.array([1] * len(pos) + [-1] * len(neg))
        values = feature_value_matrix(np.concatenate([pos, neg]), pool)
        for rounds, rate in ((1, 1.0), (4, 0.9), (6, 0.99)):
            result = boost(values, labels, rounds)
            weak = tuple((WeakClassifier(pool[r.feature_index], r.threshold,
                                         r.polarity), r.alpha)
                         for r in result.rounds)
            scores = stage_scores(
                Stage(weak, 0.0),
                values[:, [r.feature_index for r in result.rounds]])
            need = math.ceil(rate * len(pos))
            passing = np.sort(scores[:len(pos)])[len(pos) - need]
            want = Stage(weak, min(0.5 * sum(a for _, a in weak),
                                   float(passing)))
            stage, neg_scores = train_stage(pos, neg, rounds, rate, pool)
            assert stage == want
            assert np.array_equal(neg_scores, scores[len(pos):])

    def test_stage_holds_no_value_matrix(self):
        # the windows detect-train --n-frames 60 --seed 7 trains its first
        # stage on, against the feature-step 3 pool: the (n, F) float64
        # matrix alone would take 8 bytes a value, and the presorted order
        # and tie mask take 3
        records = generate(SyntheticSpec(n_frames=60, fraction_fatigued=0.5,
                                         seed=7))
        pos, neg = detector_windows(records, seed=8)
        pool = feature_grid(24, 24, 3)
        n = len(pos) + len(neg)
        tracemalloc.start()
        try:
            train_stage(pos, neg, 3, 0.99, pool)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * len(pool) * 10


class TestClassifyWindow:
    def test_always_pass_stage(self, rng):
        stump = WeakClassifier(HaarFeature("2H", Rect(0, 0, 12, 12)),
                               -math.inf, 1)
        cascade = Cascade(24, 24, (Stage(((stump, 1.0),), 0.5),))
        img = gray(rng.integers(0, 256, size=(24, 24)))
        assert detect(img, cascade, ScanConfig(min_neighbors=1)) == [
            detector.FaceBox(Rect(0, 0, 24, 24), 1)]
        assert classify_window(integral_image(img), cascade, (0, 0), 1.0)

    def test_short_circuit_counts_stages(self, rng, monkeypatch):
        always = WeakClassifier(HaarFeature("2H", Rect(0, 0, 12, 12)),
                                -math.inf, 1)
        never = WeakClassifier(HaarFeature("2H", Rect(0, 0, 12, 12)),
                               math.inf, 1)
        reject_first = Cascade(24, 24, (
            Stage(((never, 1.0),), 0.5),
            Stage(((always, 1.0),), 0.5),
            Stage(((always, 1.0),), 0.5),
        ))
        calls = []
        add_votes = detector._add_votes

        def counted(total, stage, lo, values):
            calls.append(len(total))
            return add_votes(total, stage, lo, values)

        monkeypatch.setattr(detector, "_add_votes", counted)
        img = gray(rng.integers(0, 256, size=(24, 24)))
        assert detect(img, reject_first, ScanConfig(min_neighbors=1)) == []
        assert calls == [1]

    def test_adding_stage_only_shrinks_acceptance(self, face_cascade, rng):
        prefix = Cascade(face_cascade.base_w, face_cascade.base_h,
                         face_cascade.stages[:1])
        spec = SyntheticSpec(n_frames=6, fraction_fatigued=0.5, seed=55)
        for rec in generate(spec):
            ii = integral_image(rec.image)
            for _ in range(25):
                scale = float(rng.uniform(1.0, 4.0))
                win = iround(24 * scale)
                if win > 160:
                    continue
                ox = int(rng.integers(0, 160 - win + 1))
                oy = int(rng.integers(0, 160 - win + 1))
                full = passes(ii, face_cascade, (ox, oy), scale)
                assert full == classify_window(ii, face_cascade, (ox, oy),
                                               scale)
                if full:
                    assert passes(ii, prefix, (ox, oy), scale)

    def test_trained_cascade_accepts_known_positive(self, face_cascade):
        rec = generate(SyntheticSpec(n_frames=1, fraction_fatigued=0.0,
                                     seed=123))[0]
        ii = integral_image(rec.image)
        scale = rec.box.w / face_cascade.base_w
        assert passes(ii, face_cascade, (rec.box.x, rec.box.y), scale)


class TestDetect:
    def test_blank_image_is_empty(self, face_cascade):
        blank = gray(np.full((160, 160), 90))
        assert detect(blank, face_cascade) == []

    def test_single_face_single_box(self, face_cascade):
        for rec in generate(SyntheticSpec(n_frames=6, fraction_fatigued=0.5,
                                          seed=4242)):
            boxes = detect(rec.image, face_cascade)
            assert len(boxes) == 1
            box = boxes[0].rect
            gt = rec.box
            assert abs(box.x + box.w / 2 - (gt.x + gt.w / 2)) <= 0.1 * gt.w
            assert abs(box.y + box.h / 2 - (gt.y + gt.h / 2)) <= 0.1 * gt.h
            assert boxes[0].score >= 3

    def test_two_separated_faces(self, face_cascade, rng):
        canvas = np.full((170, 340), BACKGROUND)
        left = Rect(20, 40, 88, 88)
        right = Rect(220, 45, 88, 88)
        draw_face(canvas, left, False)
        draw_face(canvas, right, True, "both")
        canvas += rng.normal(0, 8.0, canvas.shape)
        boxes = detect(Image.from_float(canvas), face_cascade)
        assert len(boxes) == 2
        assert boxes[0].rect.iou(left) >= 0.4
        assert boxes[1].rect.iou(right) >= 0.4

    def test_translation_consistency(self, face_cascade, rng):
        # moving the face by one scan step moves the box by the same
        # amount, within one step
        base = Rect(20, 36, 88, 88)
        step = max(1, iround(0.08 * iround(
            24 * 1.25 ** 6)))  # step at the face's operating scale
        noise = rng.normal(0, 8.0, (160, 160))
        boxes = []
        for shift in (0, step):
            canvas = np.full((160, 160), BACKGROUND)
            draw_face(canvas, Rect(base.x + shift, base.y, base.w, base.h),
                      False)
            found = detect(Image.from_float(canvas + noise), face_cascade)
            assert len(found) == 1
            boxes.append(found[0].rect)
        dx = boxes[1].x - boxes[0].x
        assert abs(dx - step) <= step
        assert abs(boxes[1].y - boxes[0].y) <= step

    def test_matches_sequential_classify_window_scan(self, face_cascade,
                                                     rng):
        # the vectorized scan must agree with the scalar reference
        canvas = np.full((100, 100), BACKGROUND)
        draw_face(canvas, Rect(18, 8, 60, 60), False)
        img = Image.from_float(canvas + rng.normal(0, 8.0, canvas.shape))
        scan = ScanConfig(min_neighbors=1)
        assert box_tuples(detect(img, face_cascade, scan)) == \
            reference_detect(img, face_cascade, scan)

    def test_image_too_small(self, face_cascade):
        with pytest.raises(ImageTooSmall):
            detect(gray(np.zeros((20, 20))), face_cascade)


def reference_groups(raw, iou_threshold):
    """_group_rects by its definition: each hit joins the first group whose
    mean, recomputed exactly from the members before every comparison, it
    overlaps at >= iou_threshold."""
    def mean(members):
        return Rect(*(math.floor(Fraction(sum(getattr(r, side)
                                              for r in members),
                                          len(members)) + Fraction(1, 2))
                      for side in "xywh"))

    groups = []
    for rect in raw:
        for members in groups:
            if rect.iou(mean(members)) >= iou_threshold:
                members.append(rect)
                break
        else:
            groups.append([rect])
    return [(members, mean(members)) for members in groups]


class TestGroupRects:
    @settings(max_examples=300)
    @given(st.lists(st.builds(Rect, st.integers(0, 40), st.integers(0, 40),
                              st.just(1) | st.integers(1, 30),
                              st.just(1) | st.integers(1, 30)),
                    max_size=40),
           st.floats(0.01, 1.0) | st.sampled_from([0.3, 1.0]))
    def test_matches_means_recomputed_from_members(self, raw, iou):
        raw.sort(key=lambda r: (r.y, r.x, r.w, r.h))  # as detect sorts
        assert _group_rects(raw, iou) == reference_groups(raw, iou)


class TestScanCap:
    @pytest.mark.parametrize("width, height, windows", [
        (160, 160, 12_445), (640, 480, 211_903), (1920, 1080, 1_559_176)])
    def test_working_sizes_fit(self, face_cascade, width, height, windows):
        plan = detector._scan_plan(face_cascade, width, height, 1.25, 0.08)
        assert len(plan.origin) == windows
        assert windows <= detector.MAX_SCAN_WINDOWS
        detector._scan_plan.cache_clear()

    def test_over_the_cap_is_refused_before_allocating(self, face_cascade):
        img = Image.from_array(np.zeros((4000, 4000), dtype=np.uint8))
        tracemalloc.start()
        try:
            with pytest.raises(ImageTooLarge, match="12486972 scan windows"):
                detect(img, face_cascade)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the integral image alone would take 256 MB, the plan 100 MB
        assert peak < 2 ** 20

    def test_the_cap_admits_exactly_its_count(self, face_cascade,
                                              monkeypatch):
        img = gray(np.full((160, 160), 90))
        for cap, admitted in ((12_445, True), (12_444, False)):
            monkeypatch.setattr(detector, "MAX_SCAN_WINDOWS", cap)
            detector._scan_plan.cache_clear()
            if admitted:
                assert detect(img, face_cascade) == []
            else:
                with pytest.raises(ImageTooLarge):
                    detect(img, face_cascade)
        detector._scan_plan.cache_clear()


@st.composite
def small_cascades(draw):
    """1-3 stages of 1-4 stumps over a small base window; the first stage
    holds one stump of each of the five kinds too."""
    base_w, base_h = draw(st.integers(6, 12)), draw(st.integers(6, 12))

    def stump(kind):
        return (WeakClassifier(random_feature(draw, kind, base_w, base_h),
                               draw(st.floats(-20, 20)),
                               draw(st.sampled_from([1, -1]))),
                draw(st.floats(0.1, 3.0)))

    stages = []
    for i in range(draw(st.integers(1, 3))):
        kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1,
                              max_size=4))
        if i == 0:
            kinds = draw(st.permutations(KINDS)) + kinds
        weak = tuple(stump(kind) for kind in kinds)
        total = sum(alpha for _, alpha in weak)
        stages.append(Stage(weak, draw(st.floats(0.0, 1.0)) * total))
    return Cascade(base_w, base_h, tuple(stages))


class TestCompiledScan:
    @settings(max_examples=30)
    @given(cascade=small_cascades(), data=st.data())
    def test_detect_matches_scalar_reference(self, cascade, data):
        width = data.draw(st.integers(cascade.base_w, 40))
        height = data.draw(st.integers(cascade.base_h, 40))
        scan = ScanConfig(scale_factor=data.draw(st.floats(1.1, 2.0)),
                          step_frac=data.draw(st.floats(0.05, 1.0)),
                          min_neighbors=1)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32)))
        img = gray(rng.integers(0, 256, size=(height, width)))
        assert box_tuples(detect(img, cascade, scan)) == \
            reference_detect(img, cascade, scan)

    @settings(max_examples=30)
    @given(cascade=small_cascades(), data=st.data())
    def test_sliced_scan_matches_one_slice_per_level(self, cascade, data):
        if data.draw(st.booleans()):
            # the first stage, with one stump of every kind, last: the
            # budget binds a later stage, not only the first
            cascade = Cascade(cascade.base_w, cascade.base_h,
                              cascade.stages[::-1])
        width = data.draw(st.integers(cascade.base_w, 40))
        height = data.draw(st.integers(cascade.base_h, 40))
        scan = ScanConfig(scale_factor=data.draw(st.floats(1.1, 2.0)),
                          step_frac=data.draw(st.floats(0.05, 1.0)),
                          min_neighbors=1)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32)))
        img = gray(rng.integers(0, 256, size=(height, width)))
        whole = detect(img, cascade, scan)
        reads = max(len(detector._feature_table(
            [weak.feature for weak, _ in stage.weak], 1.0, width + 1).offsets)
            for stage in cascade.stages)
        budget = reads * data.draw(st.integers(1, 5)) + data.draw(
            st.integers(0, reads - 1))
        slices = []
        cascade_pass = detector._cascade_pass

        def recorded(plan, ii, cols, tables):
            slices.append(cols)
            return cascade_pass(plan, ii, cols, tables)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(detector, "_GATHER_BUDGET", budget)
            patch.setattr(detector, "_cascade_pass", recorded)
            detector._scan_plan.cache_clear()  # the plan holds the slices
            assert detect(img, cascade, scan) == whole
        detector._scan_plan.cache_clear()
        assert max(c.stop - c.start for c in slices) * reads <= budget
        plan = detector._scan_plan(cascade, width, height, scan.scale_factor,
                                   scan.step_frac)
        # every window of every level, once
        assert np.array_equal(
            np.concatenate([np.arange(c.start, c.stop) for c in slices]),
            np.arange(len(plan.origin)))

    def test_tables_follow_the_cascade_and_the_image_size(self,
                                                         face_cascade):
        first = face_cascade.stages[0]
        raised = Cascade(face_cascade.base_w, face_cascade.base_h,
                         (Stage(first.weak, first.threshold + 2.0),)
                         + face_cascade.stages[1:])
        texts = [save_cascade(face_cascade), save_cascade(raised)]
        frames = [generate(SyntheticSpec(frame_w=w, frame_h=h, n_frames=1,
                                         fraction_fatigued=0.0, seed=31))[0]
                  .image for w, h in ((160, 160), (136, 124))]
        expected = {}
        for c, text in enumerate(texts):
            for f, img in enumerate(frames):
                detector._scan_plan.cache_clear()
                expected[c, f] = detect(img, load_cascade(text))
        assert expected[0, 0] != expected[1, 0]
        assert expected[0, 1] != expected[1, 1]
        for i in range(12):
            c, f = i % 2, (i // 2) % 2
            # a fresh object every call, so a freed cascade's id can recur
            assert detect(frames[f], load_cascade(texts[c])) == \
                expected[c, f]

    def test_stage_votes_add_left_to_right(self, rng):
        # 1e16 + 1 rounds back to 1e16, so summed left to right the big
        # alpha first swallows every 1 and the stage rejects; a pairwise
        # sum (numpy's, from 8 terms) would reach the threshold
        always = WeakClassifier(HaarFeature("2H", Rect(0, 0, 12, 12)),
                                -math.inf, 1)
        img = gray(rng.integers(0, 256, size=(24, 24)))
        big_first = (1e16,) + (1.0,) * 9
        assert np.sum(big_first) >= 1e16 + 2
        for alphas, found in ((big_first, False), (big_first[::-1], True)):
            stage = Stage(tuple((always, a) for a in alphas), 1e16 + 2)
            cascade = Cascade(24, 24, (stage,))
            assert classify_window(integral_image(img), cascade, (0, 0),
                                   1.0) is found
            assert bool(detect(img, cascade,
                               ScanConfig(min_neighbors=1))) is found
            scores = stage_scores(stage, np.zeros((1, len(alphas))))
            assert bool(scores[0] >= stage.threshold) is found


def scan_windows(img, cascade, scan):
    """(origin, scale) of every window detect scans, in its plan's column
    order: level by level, x-major within a level."""
    windows = []
    scale = 1.0
    while True:
        win_w = iround(cascade.base_w * scale)
        win_h = iround(cascade.base_h * scale)
        if win_w > img.width or win_h > img.height:
            return windows
        step = max(1, iround(scan.step_frac * win_w))
        windows += [((ox, oy), scale)
                    for ox in range(0, img.width - win_w + 1, step)
                    for oy in range(0, img.height - win_h + 1, step)]
        scale *= scan.scale_factor


def plan_survivors(ii, plan):
    """The plan's windows that pass every stage, from _cascade_pass."""
    return np.concatenate([
        detector._cascade_pass(plan, ii, cols,
                               tables or detector._slice_tables(plan, cols))
        for cols, tables in plan.slices])


ALWAYS = WeakClassifier(HaarFeature("2H", Rect(0, 0, 12, 12)), -math.inf, 1)
NEVER = WeakClassifier(HaarFeature("2H", Rect(0, 0, 12, 12)), math.inf, 1)


class TestStageReach:
    @settings(max_examples=30)
    @given(cascade=small_cascades(), data=st.data())
    def test_each_stage_keeps_what_scoring_every_stump_keeps(self, cascade,
                                                             data):
        width = data.draw(st.integers(cascade.base_w, 40))
        height = data.draw(st.integers(cascade.base_h, 40))
        scan = ScanConfig(scale_factor=data.draw(st.floats(1.1, 2.0)),
                          step_frac=data.draw(st.floats(0.05, 1.0)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32)))
        img = gray(rng.integers(0, 256, size=(height, width)))
        ii = integral_image(img)
        windows = scan_windows(img, cascade, scan)
        for s in range(1, len(cascade.stages) + 1):
            prefix = Cascade(cascade.base_w, cascade.base_h,
                             cascade.stages[:s])
            plan = detector._scan_plan(prefix, width, height,
                                       scan.scale_factor, scan.step_frac)
            assert len(plan.origin) == len(windows)
            expect = [i for i, (origin, scale) in enumerate(windows)
                      if classify_window(ii, prefix, origin, scale)]
            assert plan_survivors(ii, plan).tolist() == expect

    def test_a_total_at_the_threshold_is_kept(self, rng):
        # 1e16 + 1 rounds back to 1e16, so after the first stump a window's
        # reach is 1e16 however many 1s follow: it ends exactly at a 1e16
        # threshold and is kept, and falls one ulp short of the next one
        img = gray(rng.integers(0, 256, size=(24, 24)))
        ii = integral_image(img)
        alphas = (1e16,) + (1.0,) * 9
        for threshold, found in ((1e16, True),
                                 (np.nextafter(1e16, math.inf), False)):
            stage = Stage(tuple((ALWAYS, a) for a in alphas), threshold)
            cascade = Cascade(24, 24, (stage,))
            plan = window_plan(ii, cascade, (0, 0), 1.0)
            assert [batch.lo for batch in plan.stages[0]] == [0, 1]
            assert passes(ii, cascade, (0, 0), 1.0) is found
            assert classify_window(ii, cascade, (0, 0), 1.0) is found
            assert bool(detect(img, cascade,
                               ScanConfig(min_neighbors=1))) is found

    @settings(max_examples=300)
    @given(stumps=st.lists(
        st.tuples(st.booleans(),
                  st.sampled_from([1e16, 1.0, 0.5, 3.0, 0.0])
                  | st.floats(0.0, 1e17)), min_size=1, max_size=10),
        side=st.sampled_from([-1, 0, 1]))
    def test_no_window_is_dropped_that_the_stage_passes(self, stumps, side):
        img = gray(np.arange(576).reshape(24, 24) % 251)
        ii = integral_image(img)
        total = 0.0
        for votes, alpha in stumps:
            total += alpha if votes else 0.0
        threshold = np.nextafter(total, side * math.inf) if side else total
        stage = Stage(tuple((ALWAYS if votes else NEVER, alpha)
                            for votes, alpha in stumps), float(threshold))
        assert passes(ii, Cascade(24, 24, (stage,)), (0, 0), 1.0) is \
            bool(total >= threshold)


class TestPlanCache:
    def test_a_plan_over_the_cap_finds_the_same_boxes(self, face_cascade,
                                                      monkeypatch):
        frames = [rec.image for rec in generate(SyntheticSpec(
            n_frames=6, fraction_fatigued=0.5, seed=57))]
        detector._scan_plan.cache_clear()
        kept = [detect(img, face_cascade) for img in frames]
        assert all(kept)
        plan = detector._scan_plan(face_cascade, 160, 160, 1.25, 0.08)
        assert len(plan.slices) == 1 and plan.slices[0][1] is not None
        # over the cap, and in several slices, each built on its own
        monkeypatch.setattr(detector, "_PLAN_CACHE_BYTES", 0)
        monkeypatch.setattr(detector, "_GATHER_BUDGET", 100_000)
        detector._scan_plan.cache_clear()
        assert [detect(img, face_cascade) for img in frames] == kept
        plan = detector._scan_plan(face_cascade, 160, 160, 1.25, 0.08)
        assert len(plan.slices) > 1
        assert all(tables is None for _, tables in plan.slices)
        detector._scan_plan.cache_clear()


class TestCascadeCodec:
    def test_roundtrip_bit_exact(self, face_cascade):
        text = save_cascade(face_cascade)
        loaded = load_cascade(text)
        assert loaded == face_cascade
        assert save_cascade(loaded) == text

    def test_roundtrip_with_infinite_threshold(self):
        stump = WeakClassifier(HaarFeature("3V", Rect(1, 0, 9, 9)),
                               -math.inf, -1)
        cascade = Cascade(24, 24, (Stage(((stump, 2.5),), 1.25),))
        assert load_cascade(save_cascade(cascade)) == cascade

    def test_version_mismatch(self):
        with pytest.raises(VersionMismatch):
            load_cascade("CASCADE2 24 24 0\n")

    def test_truncated_stage_names_line(self):
        text = ("CASCADE1 24 24 1\n"
                "STAGE 2 0.5\n"
                "WEAK 2H 0 0 12 12 0.25 1 1.0\n")
        with pytest.raises(ParseError) as exc:
            load_cascade(text)
        assert "line 4" in str(exc.value)

    def test_garbage_header(self):
        with pytest.raises(ParseError):
            load_cascade("not a cascade\n")

    @pytest.mark.parametrize("rect", [
        "-4 -2 30 10", "-2 0 12 12", "0 -1 12 12", "14 0 12 12",
        "0 13 12 12"])
    def test_rect_outside_base_window(self, rect):
        text = ("CASCADE1 24 24 1\n"
                "STAGE 1 0.5\n"
                f"WEAK 2H {rect} 0.25 1 1.0\n")
        with pytest.raises(ParseError, match="line 3"):
            load_cascade(text)
        inside = load_cascade(text.replace(rect, "12 12 12 12"))
        assert inside.stages[0].weak[0][0].feature.rect == \
            Rect(12, 12, 12, 12)

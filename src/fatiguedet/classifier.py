"""Soft-margin SVM trained by sequential minimal optimization on maximal
violating pairs (second-order choice of the second index, stop on the
gradient gap, at most max_passes * n steps), with kernel evaluation,
prediction, and the one cross-validation runner:
`cross_validate` checks its inputs, assigns group-aware or seeded
stratified folds, trains and tests an SVM per fold, and returns a
MetricsReport.

Labels are +1 (fatigued) and -1 (alert). A decision value of exactly zero,
or one that is not finite, classifies as fatigued: in a safety system a
false alarm beats a missed detection.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatch, NonFinite, SingleClass, TooFewSamples
from .textmodel import ModelText, count, finite, format_floats, render

logger = logging.getLogger(__name__)

FATIGUED = 1
ALERT = -1

_KERNEL_CACHE_LIMIT = 4096


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family: "linear" (dot product) or "rbf" (exp(-gamma ||u-v||^2)).

    gamma may be None for rbf, meaning "resolve at training time" with the
    scale heuristic 1 / (n_features * var(X)).
    """

    kind: str = "rbf"
    gamma: float | None = None

    def __post_init__(self):
        if self.kind not in ("linear", "rbf"):
            raise ValueError(f"unknown kernel {self.kind!r}")
        if self.gamma is not None and not 0 < self.gamma < math.inf:
            raise ValueError("gamma must be positive and finite")


def _resolve_gamma(kernel: KernelSpec, x: np.ndarray) -> KernelSpec:
    if kernel.kind != "rbf" or kernel.gamma is not None:
        return kernel
    var = float(x.var())
    gamma = 1.0 / (x.shape[1] * var) if var > 0 else 1.0 / x.shape[1]
    return KernelSpec("rbf", gamma)


def kernel_matrix(kernel: KernelSpec, a: np.ndarray,
                  b: np.ndarray) -> np.ndarray:
    """Pairwise kernel values, shape (len(a), len(b))."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if kernel.kind == "linear":
        return a @ b.T
    sq = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] \
        - 2.0 * (a @ b.T)
    return np.exp(-kernel.gamma * np.maximum(sq, 0.0))


@dataclass(frozen=True, eq=False)
class SvmModel:
    support_vectors: np.ndarray = field(repr=False)
    dual_coef: np.ndarray = field(repr=False)  # alpha_i * y_i
    bias: float
    kernel: KernelSpec
    C: float

    def __post_init__(self):
        m, _ = self.support_vectors.shape
        if m < 1 or self.dual_coef.shape != (m,):
            raise ValueError("support vectors and dual coefficients disagree")
        if self.C <= 0:
            raise ValueError("C must be positive")
        if np.any(np.abs(self.dual_coef) > self.C + 1e-9):
            raise ValueError("dual coefficients exceed the box constraint")
        if abs(float(self.dual_coef.sum())) > 1e-6:
            raise ValueError("dual coefficients do not satisfy the "
                             "equality constraint")
        self.support_vectors.setflags(write=False)
        self.dual_coef.setflags(write=False)

    @property
    def n_features(self) -> int:
        return self.support_vectors.shape[1]


def dual_objective(x: np.ndarray, y: np.ndarray, alpha: np.ndarray,
                   kernel: KernelSpec) -> float:
    """Soft-margin dual value: sum(a) - 0.5 a^T (yy^T * K) a."""
    k = kernel_matrix(kernel, x, x)
    ay = alpha * y
    return float(alpha.sum() - 0.5 * ay @ k @ ay)


def _bias(v: np.ndarray, up: np.ndarray, low: np.ndarray) -> float:
    """Mean of -yG over the free vectors (those in both index sets), or
    the midpoint of [M, m] when every multiplier sits on a box bound."""
    free = up & low
    if np.any(free):
        return float(np.mean(v[free]))
    return float((np.max(v[up]) + np.min(v[low])) / 2.0)


def svm_train(x: np.ndarray, y: Sequence[int], C: float = 1.0,
              kernel: KernelSpec = KernelSpec(), tol: float = 1e-3,
              max_passes: int = 200,
              on_step: Callable[[np.ndarray, float], None] | None = None,
              ) -> SvmModel:
    """Solve the soft-margin dual with SMO on maximal violating pairs.

    The solver keeps the dual gradient G = Q alpha - e, with Q = yy^T K.
    Each step optimizes one pair: i maximizes -yG over the indices whose
    y alpha may grow, and j, among those whose y alpha may shrink, gives
    the largest second-order gain (Keerthi et al. 2001; Fan, Chen & Lin
    2005). Ties go to the first index. Training stops when the gap m - M,
    the largest -yG that may grow minus the smallest that may shrink, is at
    most tol, or after max_passes * n steps (logged as a warning). The gap
    is 2 at alpha = 0, so tol lies in (0, 2); every step raises the dual,
    so some multiplier is nonzero, and the nonzero ones are the support
    vectors (as in LIBSVM). The bias is the mean of -yG over the free
    vectors, or the midpoint of [M, m] when none is free; on_step gets
    alpha and that bias after every step.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise ValueError("x must be (n, k) with matching labels")
    if not np.all(np.isfinite(x)):
        raise NonFinite("training data contains non-finite values")
    if not np.all(np.isin(y, (1.0, -1.0))):
        raise ValueError("labels must be +1 or -1")
    if np.all(y > 0) or np.all(y < 0):
        raise SingleClass("training data contains a single class")
    if not (0 < C < math.inf and 0 < tol < 2):  # SVM1 holds finite floats
        raise ValueError("need C in (0, inf) and tol in (0, 2)")

    n = x.shape[0]
    kernel = _resolve_gamma(kernel, x)
    if n <= _KERNEL_CACHE_LIMIT:
        kmat = kernel_matrix(kernel, x, x)

        def krow(i: int) -> np.ndarray:
            return kmat[i]
    else:
        def krow(i: int) -> np.ndarray:
            return kernel_matrix(kernel, x[i:i + 1], x)[0]
    # K(x_t, x_t) without the n x n matrix
    diag = (x * x).sum(axis=1) if kernel.kind == "linear" else np.ones(n)

    alpha = np.zeros(n)
    g = -np.ones(n)  # G = Q alpha - e
    steps = 0
    while True:
        v = -y * g
        up = np.where(y > 0, alpha < C, alpha > 0)  # y alpha may grow
        low = np.where(y > 0, alpha > 0, alpha < C)  # y alpha may shrink
        i = int(np.argmax(np.where(up, v, -np.inf)))
        gap = v[i] - np.min(v[low])
        if steps and on_step is not None:
            on_step(alpha.copy(), _bias(v, up, low))
        if gap <= tol:
            break
        if steps >= max_passes * n:
            logger.warning("SMO stopped after max_passes=%d passes (%d "
                           "steps) without converging", max_passes, steps)
            break
        steps += 1
        ki = krow(i)
        viol = v[i] - v  # > 0 where the pair (i, t) violates the KKT rule
        curv = np.maximum(diag[i] + diag - 2.0 * ki, 1e-12)
        j = int(np.argmax(np.where(low & (viol > 0), viol * viol / curv,
                                   -np.inf)))
        room_i = C - alpha[i] if y[i] > 0 else alpha[i]
        room_j = alpha[j] if y[j] > 0 else C - alpha[j]
        lam = min(viol[j] / curv[j], room_i, room_j)
        a_i = alpha[i] + y[i] * lam
        a_j = alpha[j] - y[j] * lam
        if lam == room_i:  # land exactly on the bound
            a_i = C if y[i] > 0 else 0.0
        if lam == room_j:
            a_j = 0.0 if y[j] > 0 else C
        g += y * ((a_i - alpha[i]) * y[i] * ki
                  + (a_j - alpha[j]) * y[j] * krow(j))
        alpha[i], alpha[j] = a_i, a_j
        assert np.all(alpha >= -1e-12) and np.all(alpha <= C + 1e-9)
        assert abs(float(alpha @ y)) <= 1e-6
    b = _bias(v, up, low)

    sv = alpha > 0
    coef = (alpha * y)[sv]
    coef -= coef.sum() / len(coef)  # remove roundoff drift in the constraint
    return SvmModel(support_vectors=x[sv].copy(), dual_coef=coef,
                    bias=b, kernel=kernel, C=C)


def svm_decision(model: SvmModel, x: np.ndarray) -> float:
    """The svm_decision_many value of one vector."""
    return float(svm_decision_many(model, np.asarray(x)[None])[0])


def svm_decision_many(model: SvmModel, x: np.ndarray) -> np.ndarray:
    """Signed distance surrogate of each row: sum_i coef_i K(sv_i, x) + b."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.n_features:
        raise DimensionMismatch(
            f"expected (n, {model.n_features}), got {x.shape}")
    k = kernel_matrix(model.kernel, x, model.support_vectors)
    return k @ model.dual_coef + model.bias


def decision_labels(dec) -> np.ndarray:
    """FATIGUED where a decision value is >= 0 or not finite, else ALERT:
    a tie and a broken value both fail safe, as a false alarm."""
    dec = np.asarray(dec)
    return np.where((dec < 0) & np.isfinite(dec), ALERT, FATIGUED)


def svm_predict(model: SvmModel, x: np.ndarray) -> int:
    """The decision_labels label of one vector."""
    return int(decision_labels(svm_decision(model, x)))


# ---------------------------------------------------------------------------
# Cross-validation

@dataclass
class MetricsReport:
    accuracy: float
    precision: float | None
    recall: float | None
    tp: int
    fp: int
    tn: int
    fn: int
    fold_accuracies: list[float]
    mean_fold_accuracy: float
    fold_test_indices: list[list[int]]

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "confusion": {"tp": self.tp, "fp": self.fp, "tn": self.tn,
                          "fn": self.fn},
            "fold_accuracies": self.fold_accuracies,
            "mean_fold_accuracy": self.mean_fold_accuracy,
        }

    def to_text(self) -> str:
        def opt(v):
            return "n/a" if v is None else f"{v:.4f}"

        return "\n".join([
            f"accuracy  {self.accuracy:.4f}",
            f"precision {opt(self.precision)}",
            f"recall    {opt(self.recall)}",
            f"confusion tp={self.tp} fp={self.fp} tn={self.tn} "
            f"fn={self.fn}",
            "folds     " + " ".join(f"{a:.4f}"
                                    for a in self.fold_accuracies),
            f"mean fold {self.mean_fold_accuracy:.4f}",
        ]) + "\n"


def stratified_folds(y: np.ndarray, folds: int,
                     seed: int) -> list[list[int]]:
    """Seeded stratified fold assignment.

    Each class is shuffled and split into chunks whose sizes differ by at
    most one; remainders rotate across folds so overall fold sizes also
    differ by at most one.
    """
    rng = np.random.default_rng(seed)
    assignments: list[list[int]] = [[] for _ in range(folds)]
    start = 0
    for label in (1, -1):
        idx = np.flatnonzero(y == label)
        rng.shuffle(idx)
        base, rem = divmod(len(idx), folds)
        pos = 0
        for i in range(folds):
            size = base + (1 if i < rem else 0)
            fold = (start + i) % folds
            assignments[fold].extend(int(v) for v in idx[pos:pos + size])
            pos += size
        start = (start + rem) % folds
    return [sorted(fold) for fold in assignments]


def group_folds(groups: Sequence[str], folds: int,
                seed: int) -> list[list[int]]:
    """Whole groups assigned to folds, largest first onto the lightest
    fold, after a seeded shuffle of equal-size orderings."""
    rng = np.random.default_rng(seed)
    names = sorted(set(groups))
    rng.shuffle(names)
    members = {g: [i for i, x in enumerate(groups) if x == g] for g in names}
    assignment: list[list[int]] = [[] for _ in range(folds)]
    for name in sorted(names, key=lambda g: -len(members[g])):
        min(assignment, key=len).extend(members[name])  # first lightest
    return [sorted(f) for f in assignment]


def cross_validate(x: np.ndarray, y: Sequence[int], folds: int,
                   C: float = 1.0, kernel: KernelSpec = KernelSpec(),
                   seed: int = 0,
                   groups: Sequence[str | None] | None = None,
                   ) -> MetricsReport:
    """k-fold cross-validation of an SVM; deterministic for a given seed.

    Folds are group-aware (no group in both train and test) when every
    sample names a group and there are at least `folds` groups; otherwise
    they are seeded stratified folds. Each fold trains on its complement
    with svm_train's default tol and max_passes, and the counts are pooled
    over the folds.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    if folds < 2:
        raise ValueError("folds must be >= 2")
    if n < folds:
        raise TooFewSamples(f"{n} samples cannot fill {folds} folds")
    n_pos, n_neg = int(np.sum(y == 1)), int(np.sum(y == -1))
    if n_pos == 0 or n_neg == 0:
        raise SingleClass("cross-validation needs both classes")
    if n_pos < 2 or n_neg < 2:
        raise TooFewSamples("need at least 2 samples per class")
    named = [g for g in groups or () if g]
    if len(named) == n and len(set(named)) >= folds:  # folds >= 2
        fold_indices = group_folds(named, folds, seed)
    else:
        fold_indices = stratified_folds(y, folds, seed)
    accs: list[float] = []
    pred = np.empty(n)
    for test in fold_indices:
        mask = np.ones(n, dtype=bool)
        mask[test] = False
        model = svm_train(x[mask], y[mask], C=C, kernel=kernel)
        pred[test] = decision_labels(svm_decision_many(model, x[test]))
        accs.append(float(np.mean(pred[test] == y[test])))
    tp, fp, tn, fn = (int(np.sum((pred == p) & (y == t)))
                      for p, t in ((1, 1), (1, -1), (-1, -1), (-1, 1)))
    return MetricsReport(
        accuracy=(tp + tn) / n,
        precision=tp / (tp + fp) if tp + fp else None,
        recall=tp / (tp + fn) if tp + fn else None,
        tp=tp, fp=fp, tn=tn, fn=fn, fold_accuracies=accs,
        mean_fold_accuracy=float(np.mean(accs)),
        fold_test_indices=fold_indices)


# ---------------------------------------------------------------------------
# SVM1 text format

def save_svm(model: SvmModel) -> str:
    head = f"SVM1 {model.n_features} {len(model.dual_coef)} " \
           f"{format_floats(model.C)} {model.kernel.kind}"
    if model.kernel.kind == "rbf":
        head += f" {format_floats(model.kernel.gamma)}"
    lines = [head, format_floats(model.bias)]
    for coef, sv in zip(model.dual_coef, model.support_vectors):
        lines.append(format_floats(coef, *sv))
    return render(lines)


def load_svm(text: str) -> SvmModel:
    src = ModelText(text, "SVM1")
    rbf = "".join(src.lines[:1]).split()[4:5] == ["rbf"]  # gamma follows
    k, m, c, kind, *gamma = src.header(count, count, finite, str,
                                       *((finite,) if rbf else ()))
    bias = float(src.rows(1, 1)[0, 0])
    rows = src.rows(m, k + 1)
    src.end()
    with src.checked():
        model = SvmModel(support_vectors=rows[:, 1:].copy(),
                         dual_coef=rows[:, 0].copy(), bias=bias,
                         kernel=KernelSpec(kind, *gamma), C=c)
        # finite entries can still overflow the kernel or the decision
        try:
            with np.errstate(over="raise", invalid="raise"):
                dec = svm_decision_many(model, model.support_vectors)
        except FloatingPointError:
            dec = np.array([np.nan])
        if not np.isfinite(dec).all():
            raise ValueError("the decision on the support vectors is not "
                             "finite")
    return model

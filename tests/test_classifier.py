import logging
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fatiguedet import classifier
from fatiguedet.classifier import (
    KernelSpec,
    SvmModel,
    cross_validate,
    decision_labels,
    dual_objective,
    kernel_matrix,
    load_svm,
    save_svm,
    svm_decision,
    svm_decision_many,
    svm_predict,
    svm_train,
)
from fatiguedet.errors import (
    DimensionMismatch,
    NonFinite,
    ParseError,
    SingleClass,
    TooFewSamples,
    VersionMismatch,
)

LINEAR = KernelSpec("linear")


def separable_set(rng, n=12, k=2, margin=1.0):
    """Random linearly separable sample with labels by a random hyperplane."""
    w = rng.normal(size=k)
    w /= np.linalg.norm(w)
    x = rng.normal(size=(n, k)) * 2.0
    y = np.where(x @ w >= 0, 1, -1)
    x += np.outer(y, w) * margin / 2.0  # push classes apart
    if np.all(y == y[0]):  # force both classes
        x[0] = -x[1]
        y[0] = -y[1]
    return x, y


def kkt_violation(model, x, y, tol):
    """Largest KKT violation over the training set, recovered from alphas."""
    dec = svm_decision_many(model, x)
    # map support vectors back to training rows
    worst = 0.0
    for i in range(len(y)):
        match = np.flatnonzero(
            np.all(np.isclose(model.support_vectors, x[i], atol=0), axis=1))
        alpha = abs(model.dual_coef[match[0]]) if len(match) else 0.0
        m = y[i] * dec[i]
        if alpha <= 1e-8:
            worst = max(worst, (1 - tol) - m)
        elif alpha >= model.C - 1e-8:
            worst = max(worst, m - (1 + tol))
        else:
            worst = max(worst, abs(m - 1) - tol)
    return worst


class TestTwoPointSymmetric:
    def test_midpoint_hyperplane(self):
        x = np.array([[-1.0, 0.0], [1.0, 0.0]])
        y = [-1, 1]
        model = svm_train(x, y, C=10.0, kernel=LINEAR)
        assert abs(model.bias) < 1e-6
        assert len(model.dual_coef) == 2
        assert abs(svm_decision(model, np.zeros(2))) < 1e-6
        assert svm_decision(model, np.array([0.5, 0.0])) > 0
        assert svm_decision(model, np.array([-0.5, 0.0])) < 0


class TestXor:
    def test_rbf_fits_xor(self):
        x = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
        y = np.array([1, 1, -1, -1])  # label = sign of coordinate product
        model = svm_train(x, y, C=10.0, kernel=KernelSpec("rbf", gamma=1.0))
        preds = [svm_predict(model, row) for row in x]
        assert preds == list(y)


def grid_dual_max(x, y, C, kernel, levels=3, steps=41):
    """Brute-force dual maximization for n=4 by iteratively refined grid
    search over the feasible box intersected with the equality constraint."""
    k = kernel_matrix(kernel, x, x)
    q = np.outer(y, y) * k

    def objective(a):  # a: (m, 4)
        return a.sum(axis=1) - 0.5 * np.einsum("mi,ij,mj->m", a, q, a)

    lo = np.zeros(3)
    hi = np.full(3, C)
    best_a, best_val = None, -np.inf
    for _ in range(levels):
        axes = [np.linspace(lo[d], hi[d], steps) for d in range(3)]
        g = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        a4 = -y[3] * (g * y[:3]).sum(axis=1)
        ok = (a4 >= 0) & (a4 <= C)
        if not np.any(ok):
            break
        full = np.concatenate([g[ok], a4[ok, None]], axis=1)
        vals = objective(full)
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val = float(vals[i])
            best_a = full[i]
        span = (hi - lo) / (steps - 1)
        center = best_a[:3]
        lo = np.maximum(center - 2 * span, 0.0)
        hi = np.minimum(center + 2 * span, C)
    return best_a, best_val


class TestDualOptimality:
    def test_objective_matches_grid_oracle_n4(self, rng):
        for _ in range(5):
            x, y = separable_set(rng, n=4, k=2)
            model = svm_train(x, y, C=1.0, kernel=LINEAR, tol=1e-4)
            # recover full alpha vector from the model
            alpha = np.zeros(4)
            for coef, sv in zip(model.dual_coef, model.support_vectors):
                i = int(np.flatnonzero(
                    np.all(np.isclose(x, sv, atol=0), axis=1))[0])
                alpha[i] = coef * y[i]
            mine = dual_objective(x, y, alpha, LINEAR)
            _, oracle = grid_dual_max(x, y, 1.0, LINEAR)
            assert mine == pytest.approx(oracle, abs=1e-4)

    def test_kkt_on_random_separable_sets(self, rng):
        for _ in range(20):
            n = int(rng.integers(6, 16))
            x, y = separable_set(rng, n=n, k=3)
            model = svm_train(x, y, C=5.0, kernel=LINEAR, tol=1e-3)
            assert kkt_violation(model, x, y, 1e-3) <= 1e-6

    def test_objective_non_decreasing(self, rng):
        x, y = separable_set(rng, n=10, k=2)
        history = []

        def hook(alpha, bias):
            history.append(dual_objective(x, y, alpha, LINEAR))

        svm_train(x, y, C=1.0, kernel=LINEAR, on_step=hook)
        assert len(history) > 1
        assert all(b >= a - 1e-9 for a, b in zip(history, history[1:]))

    def test_dual_feasibility_throughout(self, rng):
        x, y = separable_set(rng, n=8, k=2)

        def hook(alpha, bias):
            assert np.all(alpha >= -1e-12) and np.all(alpha <= 1.0 + 1e-9)
            assert abs(float(alpha @ y)) <= 1e-6

        svm_train(x, y, C=1.0, kernel=LINEAR, on_step=hook)


class TestUncachedKernel:
    @pytest.mark.parametrize("kernel", [LINEAR, KernelSpec("rbf", 0.5)])
    def test_row_path_matches_cached_path(self, rng, monkeypatch, kernel):
        x, y = separable_set(rng, n=36, k=3)
        y[:3] = -y[:3]  # mislabeled points, so multipliers can reach C
        cached = svm_train(x, y, C=5.0, kernel=kernel)
        shapes = []

        def rows_only(kern, a, b):
            shapes.append((len(a), len(b)))
            return kernel_matrix(kern, a, b)

        monkeypatch.setattr(classifier, "_KERNEL_CACHE_LIMIT", 10)
        monkeypatch.setattr(classifier, "kernel_matrix", rows_only)
        uncached = svm_train(x, y, C=5.0, kernel=kernel)
        assert shapes and all(rows == 1 for rows, _ in shapes)
        monkeypatch.undo()
        assert kkt_violation(uncached, x, y, 1e-3) <= 1e-6
        assert np.array_equal(
            decision_labels(svm_decision_many(uncached, x)),
            decision_labels(svm_decision_many(cached, x)))


class TestDecision:
    @pytest.fixture
    def model(self, rng):
        x, y = separable_set(rng, n=10, k=3)
        return svm_train(x, y, C=2.0, kernel=KernelSpec("rbf", 0.7)), x, y

    def test_matches_naive_kernel_sum(self, model, rng):
        m, _, _ = model
        v = rng.normal(size=3)
        expect = m.bias
        for coef, sv in zip(m.dual_coef, m.support_vectors):
            expect += coef * np.exp(-0.7 * np.sum((sv - v) ** 2))
        assert abs(svm_decision(m, v) - expect) < 1e-10

    def test_free_support_vector_on_margin(self, model):
        m, x, y = model
        for coef, sv in zip(m.dual_coef, m.support_vectors):
            alpha = abs(coef)
            if 1e-6 < alpha < m.C - 1e-6:
                lab = 1 if coef > 0 else -1
                assert lab * svm_decision(m, sv) == pytest.approx(1.0,
                                                                  abs=1e-3)
                break
        else:
            pytest.skip("no free support vector in fixture")

    def test_dimension_mismatch(self, model):
        with pytest.raises(DimensionMismatch):
            svm_decision(model[0], np.zeros(5))


class TestPredict:
    def test_sign_rule(self):
        sv = np.array([[1.0], [-1.0]])
        model = SvmModel(support_vectors=sv,
                         dual_coef=np.array([0.5, -0.5]), bias=0.7,
                         kernel=LINEAR, C=1.0)
        # decision(0) = 0.7 -> fatigued; decision(-1.4) = -0.7 -> alert
        assert svm_predict(model, np.array([0.0])) == 1
        assert svm_predict(model, np.array([-1.4])) == -1

    def test_exact_zero_is_fatigued(self):
        sv = np.array([[1.0], [-1.0]])
        model = SvmModel(support_vectors=sv,
                         dual_coef=np.array([0.5, -0.5]), bias=0.0,
                         kernel=LINEAR, C=1.0)
        assert svm_decision(model, np.array([0.0])) == 0.0
        assert svm_predict(model, np.array([0.0])) == 1

    def test_non_finite_decision_is_fatigued(self):
        # load_svm refuses this model; built directly, it must still fail
        # safe
        model = SvmModel(support_vectors=np.full((2, 2), 1e308),
                         dual_coef=np.array([0.5, -0.5]), bias=0.0,
                         kernel=LINEAR, C=1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(svm_decision(model, np.array([1.0, 1.0])))
            assert svm_predict(model, np.array([1.0, 1.0])) == 1

    def test_decision_labels(self):
        dec = np.array([-2.0, -5e-324, 0.0, -0.0, 3.0, np.nan, np.inf,
                        -np.inf])
        assert decision_labels(dec).tolist() == [-1, -1, 1, 1, 1, 1, 1, 1]

    @given(st.floats(0.1, 50.0))
    def test_positive_rescaling_preserves_predictions(self, c):
        sv = np.array([[1.0, 0.0], [-0.5, 1.0], [0.0, -1.0]])
        coef = np.array([0.8, -0.5, -0.3])
        m1 = SvmModel(support_vectors=sv, dual_coef=coef, bias=0.2,
                      kernel=LINEAR, C=1.0)
        m2 = SvmModel(support_vectors=sv, dual_coef=coef * c, bias=0.2 * c,
                      kernel=LINEAR, C=max(1.0, c))
        rng = np.random.default_rng(5)
        for _ in range(20):
            v = rng.normal(size=2)
            assert svm_predict(m1, v) == svm_predict(m2, v)


class TestTrainValidation:
    def test_single_class(self):
        with pytest.raises(SingleClass):
            svm_train(np.zeros((3, 2)), [1, 1, 1])

    def test_non_finite(self):
        x = np.array([[0.0, np.nan], [1.0, 2.0]])
        with pytest.raises(NonFinite):
            svm_train(x, [1, -1])

    @pytest.mark.parametrize("tol", [0.0, -1e-3, 2.0, 5.0, np.nan])
    def test_tol_outside_open_interval_0_2(self, rng, tol):
        # the KKT gap is 2 at alpha = 0: a tol of 2 or more stops before
        # the first step and would leave every multiplier at zero
        x, y = separable_set(rng, n=14, k=3)
        with pytest.raises(ValueError, match="tol in \\(0, 2\\)"):
            svm_train(x, y, tol=tol)

    @pytest.mark.parametrize("C", [0.0, -1.0, np.inf, np.nan])
    def test_c_outside_open_interval_0_inf(self, rng, C):
        # SVM1 holds finite floats: a model trained at C = inf would save
        # a file that load_svm refuses
        x, y = separable_set(rng, n=14, k=3)
        with pytest.raises(ValueError, match="C in \\(0, inf\\)"):
            svm_train(x, y, C=C)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, np.inf, np.nan])
    def test_gamma_outside_open_interval_0_inf(self, gamma):
        # a NaN or infinite gamma made every kernel value NaN or 0, and SMO
        # failed its feasibility assert
        with pytest.raises(ValueError, match="positive and finite"):
            KernelSpec("rbf", gamma)

    @pytest.mark.parametrize("kernel", [LINEAR, KernelSpec()],
                             ids=["linear", "rbf"])
    @pytest.mark.parametrize("C", [1e-9, 1e-300])
    def test_tiny_c_keeps_every_nonzero_multiplier(self, rng, kernel, C):
        # every multiplier ends at the tiny C; all are support vectors,
        # and the balanced set is not labelled one class
        x = np.concatenate([rng.normal(2.0, 0.3, size=(8, 2)),
                            rng.normal(-2.0, 0.3, size=(8, 2))])
        y = np.array([1] * 8 + [-1] * 8)
        model = svm_train(x, y, C=C, kernel=kernel)
        assert len(model.dual_coef) == 16
        assert np.all(np.abs(model.dual_coef) > 0)
        assert np.array_equal(decision_labels(svm_decision_many(model, x)),
                              y)

    def test_deterministic(self, rng):
        x, y = separable_set(rng, n=14, k=3)
        a = svm_train(x, y, C=1.0)
        b = svm_train(x, y, C=1.0)
        assert np.array_equal(a.support_vectors, b.support_vectors)
        assert np.array_equal(a.dual_coef, b.dual_coef)
        assert a.bias == b.bias

    def test_stop_at_max_passes_is_logged(self, rng, caplog):
        x, y = separable_set(rng, n=14, k=3)
        with caplog.at_level(logging.WARNING, "fatiguedet.classifier"):
            svm_train(x, y, C=1.0)
            assert caplog.records == []
            svm_train(x, y, C=1.0, max_passes=1)
        (record,) = caplog.records
        assert record.levelno == logging.WARNING
        assert "max_passes=1" in record.getMessage()


class TestCrossValidate:
    def test_separable_data_full_accuracy(self, rng):
        base = np.array([[2.0, 2.0], [-2.0, -2.0]])
        x = np.concatenate([base[0] + rng.normal(0, 0.1, size=(10, 2)),
                            base[1] + rng.normal(0, 0.1, size=(10, 2))])
        y = np.array([1] * 10 + [-1] * 10)
        report = cross_validate(x, y, folds=4, C=1.0, kernel=LINEAR, seed=3)
        assert report.mean_fold_accuracy == 1.0
        assert report.tp + report.fp + report.tn + report.fn == 20

    @given(st.integers(4, 30), st.integers(2, 6), st.integers(0, 99))
    def test_fold_sizes_pigeonhole(self, n_pos, folds, seed):
        n_neg = n_pos + 3
        y = np.array([1] * n_pos + [-1] * n_neg)
        n = len(y)
        if n < folds:
            return
        report = cross_validate(y[:, None], y, folds=folds, kernel=LINEAR,
                                seed=seed)
        fold_sizes = [len(f) for f in report.fold_test_indices]
        assert sum(fold_sizes) == n
        assert set(fold_sizes) <= {n // folds, n // folds + 1}
        # per-class sizes also differ by at most one
        for label, count in ((1, n_pos), (-1, n_neg)):
            sizes = [sum(1 for i in f if y[i] == label)
                     for f in report.fold_test_indices]
            assert set(sizes) <= {count // folds, count // folds + 1}

    def test_each_sample_tested_once(self, rng):
        x, y = separable_set(rng, n=13, k=2)
        report = cross_validate(x, y, folds=3, kernel=LINEAR, seed=1)
        seen = sorted(i for f in report.fold_test_indices for i in f)
        assert seen == list(range(13))

    def test_seed_determinism_and_variation(self, rng):
        x, y = separable_set(rng, n=16, k=2)
        r1 = cross_validate(x, y, folds=4, kernel=LINEAR, seed=7)
        r2 = cross_validate(x, y, folds=4, kernel=LINEAR, seed=7)
        r3 = cross_validate(x, y, folds=4, kernel=LINEAR, seed=8)
        assert r1.fold_test_indices == r2.fold_test_indices
        assert r1.fold_accuracies == r2.fold_accuracies
        assert r1.fold_test_indices != r3.fold_test_indices

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            cross_validate(np.zeros((3, 1)), [1, -1, 1], folds=4)
        with pytest.raises(TooFewSamples):
            cross_validate(np.zeros((5, 1)), [1, -1, -1, -1, -1], folds=2)

    def test_single_class(self):
        with pytest.raises(SingleClass):
            cross_validate(np.zeros((6, 1)), [1] * 6, folds=2)


class TestSvmCodec:
    def test_roundtrip_identical_decisions(self, rng):
        x, y = separable_set(rng, n=9, k=3)
        model = svm_train(x, y, C=3.0, kernel=KernelSpec("rbf", 0.31))
        loaded = load_svm(save_svm(model))
        for _ in range(10):
            v = rng.normal(size=3)
            assert svm_decision(loaded, v) == svm_decision(model, v)
        assert save_svm(loaded) == save_svm(model)

    def test_linear_roundtrip(self, rng):
        x, y = separable_set(rng, n=6, k=2)
        model = svm_train(x, y, C=1.0, kernel=LINEAR)
        loaded = load_svm(save_svm(model))
        assert loaded.kernel == LINEAR
        assert loaded.bias == model.bias

    @pytest.mark.parametrize("line, col", [(0, 3), (0, 5), (1, 0), (2, 0),
                                           (3, 2)])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_rejected(self, rng, line, col, bad):
        # header C and gamma, the bias, a dual coefficient, an SV entry
        x, y = separable_set(rng, n=6, k=2)
        text = save_svm(svm_train(x, y, kernel=KernelSpec("rbf", 0.5)))
        lines = text.splitlines()
        row = lines[line].split()
        row[col] = bad
        lines[line] = " ".join(row)
        with pytest.raises(ParseError):
            load_svm("\n".join(lines) + "\n")

    @pytest.mark.parametrize("text", [
        "SVM1 2 2 1.0 linear\n0.0\n0.5 1e308 1e308\n-0.5 1e308 1e308\n",
        "SVM1 1 2 1.0 linear\n1e308\n0.5 1e154\n-0.5 -1e154\n"],
        ids=["kernel-overflows", "decision-overflows"])
    def test_overflowing_model_rejected_without_warning(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match="not finite"):
                load_svm(text)

    def test_bad_kernel_token(self):
        with pytest.raises(ParseError):
            load_svm("SVM1 1 2 1.0 sigmoid\n0.0\n1.0 0.0\n-1.0 1.0\n")

    def test_version_mismatch(self):
        with pytest.raises(VersionMismatch):
            load_svm("SVM9 1 1 1.0 linear\n0.0\n1.0 0.0\n")

    def test_dimension_mismatch_after_load(self, rng):
        x, y = separable_set(rng, n=6, k=2)
        loaded = load_svm(save_svm(svm_train(x, y, kernel=LINEAR)))
        with pytest.raises(DimensionMismatch):
            svm_predict(loaded, np.zeros(3))

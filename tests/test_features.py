import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fatiguedet.errors import (
    BadK,
    DegenerateData,
    DimensionMismatch,
    OutOfBounds,
    ParseError,
    VersionMismatch,
    WrongDimensions,
)
from fatiguedet.features import (
    DEFAULT_GEOMETRY,
    RoiGeometry,
    assemble,
    frame_features,
    load_pca,
    pca_fit,
    pca_project,
    pca_reconstruct,
    roi_block,
    save_pca,
)
from fatiguedet.imaging import Image, Rect, crop, resize_bilinear


def gray(arr):
    return Image.from_array(np.asarray(arr, dtype=np.uint8))


class TestGeometry:
    def test_default_constants(self):
        g = DEFAULT_GEOMETRY
        assert g.face_side == 100
        assert g.eye_window == Rect(10, 20, 80, 30)
        assert g.mouth_window == Rect(30, 60, 40, 40)
        assert g.vector_length == 4000

    def test_override_must_fit(self):
        with pytest.raises(ValueError):
            RoiGeometry(eye_window=Rect(30, 20, 80, 30))


def rois_of_resized_face(img, box):
    """The eye and mouth windows cut from the whole face box resized to
    100 x 100: what frame_features must assemble."""
    face = resize_bilinear(crop(img, box), 100, 100)
    return (crop(face, DEFAULT_GEOMETRY.eye_window),
            crop(face, DEFAULT_GEOMETRY.mouth_window))


class TestNormalizeFace:
    """frame_features reads the face box as if resized to face_side."""

    def test_pure_crop_when_already_sized(self, rng):
        pixels = rng.integers(0, 256, size=(150, 150))
        vec = frame_features(gray(pixels), Rect(20, 30, 100, 100))
        assert np.array_equal(vec[:2400] * 255.0,
                              pixels[50:80, 30:110].ravel())
        assert np.array_equal(vec[2400:] * 255.0,
                              pixels[90:130, 50:90].ravel())

    def test_matches_crop_then_resize(self, rng):
        img = gray(rng.integers(0, 256, size=(250, 250)))
        box = Rect(10, 25, 200, 200)
        assert np.array_equal(frame_features(img, box),
                              assemble(*rois_of_resized_face(img, box)))

    def test_out_of_bounds_box(self):
        with pytest.raises(OutOfBounds):
            frame_features(gray(np.zeros((120, 120))), Rect(40, 40, 100, 100))


class TestExtractRois:
    """The eye and mouth windows in the vector of a face_side box."""

    def test_marker_at_eye_origin(self):
        canvas = np.zeros((100, 100), dtype=np.uint8)
        canvas[20, 10] = 201
        vec = frame_features(gray(canvas), Rect(0, 0, 100, 100))
        assert vec[0] * 255.0 == 201

    def test_marker_at_mouth_origin(self):
        canvas = np.zeros((100, 100), dtype=np.uint8)
        canvas[60, 30] = 117
        vec = frame_features(gray(canvas), Rect(0, 0, 100, 100))
        assert vec[2400] * 255.0 == 117

    def test_dimensions_and_vector_length(self, rng):
        face = gray(rng.integers(0, 256, size=(100, 100)))
        eye = resize_bilinear(face, 100, 100, DEFAULT_GEOMETRY.eye_window)
        mouth = resize_bilinear(face, 100, 100, DEFAULT_GEOMETRY.mouth_window)
        assert (eye.width, eye.height) == (80, 30)
        assert (mouth.width, mouth.height) == (40, 40)
        assert frame_features(face, Rect(0, 0, 100, 100)).shape == (4000,)

    def test_wrong_input_size(self):
        with pytest.raises(WrongDimensions):
            assemble(gray(np.zeros((30, 80))), gray(np.zeros((40, 39))))


class TestFrameFeatures:
    @settings(deadline=None, max_examples=40)
    @given(st.data())
    def test_reads_only_roi_block(self, data):
        side = data.draw(st.integers(20, 140))
        x, y = data.draw(st.integers(0, 10)), data.draw(st.integers(0, 10))
        box = Rect(x, y, side, side)
        seed = data.draw(st.integers(0, 2**32 - 1))
        pixels = np.random.default_rng(seed).integers(
            0, 256, size=(y + side + 3, x + side + 3), dtype=np.uint8)
        img = gray(pixels)
        expect = assemble(*rois_of_resized_face(img, box))
        assert np.array_equal(frame_features(img, box), expect)
        block = roi_block(box)
        assert block.x >= box.x and block.y >= box.y
        assert block.x2 <= box.x2 and block.y2 <= box.y2
        # every pixel outside the block changed; the vector not
        scrambled = 255 - pixels
        scrambled[block.y:block.y2, block.x:block.x2] = \
            pixels[block.y:block.y2, block.x:block.x2]
        assert np.array_equal(frame_features(gray(scrambled), box), expect)

    def test_roi_block_of_working_box(self):
        # the eye and mouth windows of an 88 px box read 66% of it
        assert roi_block(Rect(36, 36, 88, 88)) == Rect(44, 53, 72, 71)


class TestAssemble:
    def test_zero_rois(self):
        v = assemble(gray(np.zeros((30, 80))), gray(np.zeros((40, 40))))
        assert v.shape == (4000,) and not v.any()

    def test_layout_contract(self):
        eye = np.zeros((30, 80), dtype=np.uint8)
        mouth = np.zeros((40, 40), dtype=np.uint8)
        eye[0, 0] = 255
        mouth[0, 0] = 255
        v = assemble(gray(eye), gray(mouth))
        assert v[0] == 1.0 and v[2400] == 1.0
        assert np.count_nonzero(v) == 2

    def test_index_arithmetic_exhaustive(self, rng):
        eye = rng.integers(0, 256, size=(30, 80), dtype=np.uint8)
        mouth = rng.integers(0, 256, size=(40, 40), dtype=np.uint8)
        v = assemble(gray(eye), gray(mouth))
        for r in range(30):
            for c in range(80):
                assert v[r * 80 + c] == eye[r, c] / 255.0
        for r in range(40):
            for c in range(40):
                assert v[2400 + r * 40 + c] == mouth[r, c] / 255.0

    def test_wrong_dims(self):
        with pytest.raises(WrongDimensions):
            assemble(gray(np.zeros((30, 79))), gray(np.zeros((40, 40))))


def oracle_eig(samples):
    """Independent dense eigensolve of the sample covariance."""
    x = np.asarray(samples, dtype=np.float64)
    cov = np.cov(x, rowvar=False, ddof=1)
    lam, vecs = np.linalg.eigh(np.atleast_2d(cov))
    order = np.argsort(lam)[::-1]
    return np.maximum(lam[order], 0.0), vecs[:, order].T


class TestPcaFit:
    def test_two_points(self):
        x1 = np.array([1.0, 2.0, 3.0])
        x2 = np.array([3.0, 2.0, 7.0])
        model = pca_fit(np.stack([x1, x2]), k=1)
        assert np.allclose(model.mean, (x1 + x2) / 2)
        direction = (x2 - x1) / np.linalg.norm(x2 - x1)
        assert np.allclose(np.abs(model.components[0] @ direction), 1.0)

    def test_oracle_suite_small_random(self, rng):
        for _ in range(50):
            n = int(rng.integers(3, 11))
            d = int(rng.integers(2, 7))
            x = rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0)
            k = min(n - 1, d)
            model = pca_fit(x, k=k)
            lam_ref, vecs_ref = oracle_eig(x)
            assert np.allclose(model.eigenvalues, lam_ref[:k], atol=1e-6)
            gram = model.components @ model.components.T
            assert np.allclose(gram, np.eye(k), atol=1e-8)
            for i in range(k):
                # compare up to sign, skipping near-degenerate pairs
                gap_ok = (i + 1 >= len(lam_ref)
                          or lam_ref[i] - lam_ref[i + 1] > 1e-6)
                if gap_ok and (i == 0 or lam_ref[i - 1] - lam_ref[i] > 1e-6):
                    dot = abs(model.components[i] @ vecs_ref[i])
                    assert dot == pytest.approx(1.0, abs=1e-6)

    def test_components_are_orthonormal_eigenvectors(self, rng):
        # checked against the sample covariance A itself, not against
        # another eigensolver: ||A v - lambda v|| <= 1e-8 ||A|| for each
        # component; n <= d takes the Gram path, n > d the covariance path
        for n, d in [(4, 9), (12, 40), (30, 30), (9, 3), (40, 12)] * 4:
            x = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3)
            k = min(n - 1, d)
            model = pca_fit(x, k=k)
            centered = x - x.mean(axis=0)
            a = centered.T @ centered / (n - 1)
            norm_a = np.sqrt((a * a).sum())
            for lam, v in zip(model.eigenvalues, model.components):
                residual = a @ v - lam * v
                assert np.sqrt((residual * residual).sum()) <= 1e-8 * norm_a
            gram = model.components @ model.components.T
            assert np.allclose(gram, np.eye(k), atol=1e-8)

    def test_covariance_path_when_n_exceeds_d(self, rng):
        x = rng.normal(size=(12, 3))
        model = pca_fit(x, k=3)
        lam_ref, _ = oracle_eig(x)
        assert np.allclose(model.eigenvalues, lam_ref[:3], atol=1e-8)

    def test_variance_one_recovers_rank(self, rng):
        base = rng.normal(size=(3, 6))
        # 5 samples spanning a 2-D affine subspace -> centered rank 2
        coeff = rng.normal(size=(5, 2))
        x = base[0] + coeff @ base[1:]
        model = pca_fit(x, variance=1.0)
        assert model.k == 2

    def test_variance_fraction_selects_smallest_k(self, rng):
        x = rng.normal(size=(8, 5)) * np.array([10.0, 3.0, 1.0, 0.3, 0.1])
        model = pca_fit(x, variance=0.9)
        lam_ref, _ = oracle_eig(x)
        cum = np.cumsum(lam_ref) / lam_ref.sum()
        expected_k = int(np.argmax(cum >= 0.9)) + 1
        assert model.k == expected_k

    def test_degenerate_data(self):
        with pytest.raises(DegenerateData):
            pca_fit(np.ones((4, 3)))

    def test_bad_k(self, rng):
        x = rng.normal(size=(4, 3))
        with pytest.raises(BadK):
            pca_fit(x, k=4)
        with pytest.raises(BadK):
            pca_fit(x, k=0)
        with pytest.raises(BadK):
            pca_fit(x, variance=1.5)
        with pytest.raises(BadK):
            pca_fit(x, k=1, variance=0.5)

    def test_k_exceeding_rank(self, rng):
        row = rng.normal(size=3)
        x = np.stack([row, row + 1.0, row + 2.0, row + 3.0])  # rank 1
        with pytest.raises(BadK):
            pca_fit(x, k=2)

    def test_sample_permutation_invariance(self, rng):
        x = rng.normal(size=(7, 4))
        a = pca_fit(x, k=3)
        b = pca_fit(x[rng.permutation(7)], k=3)
        assert np.allclose(a.eigenvalues, b.eigenvalues, atol=1e-9)
        assert np.allclose(np.abs(a.components @ b.components.T),
                           np.eye(3), atol=1e-7)


class TestProjectReconstruct:
    @pytest.fixture
    def model(self, rng):
        return pca_fit(rng.normal(size=(9, 5)), k=3)

    def test_project_mean_is_zero(self, model):
        assert np.allclose(pca_project(model, model.mean), 0.0, atol=1e-12)

    def test_project_component_gives_basis_vector(self, model):
        z = pca_project(model, model.mean + model.components[0])
        assert np.allclose(z, np.eye(3)[0], atol=1e-10)

    def test_project_matches_naive_loops(self, model, rng):
        v = rng.normal(size=5)
        z = pca_project(model, v)
        for i in range(3):
            expect = sum(model.components[i, j] * (v[j] - model.mean[j])
                         for j in range(5))
            assert abs(z[i] - expect) < 1e-10

    def test_reconstruct_zero_is_mean(self, model):
        assert np.allclose(pca_reconstruct(model, np.zeros(3)), model.mean)

    def test_roundtrip_at_full_rank(self, rng):
        x = rng.normal(size=(5, 4))
        model = pca_fit(x, k=4)
        for row in x:
            rec = pca_reconstruct(model, pca_project(model, row))
            assert np.allclose(rec, row, atol=1e-6)

    def test_mean_residual_matches_truncated_spectrum(self, rng):
        x = rng.normal(size=(10, 6))
        lam_ref, _ = oracle_eig(x)
        n = x.shape[0]
        for k in (1, 2, 4):
            model = pca_fit(x, k=k)
            errs = [np.sum((row - pca_reconstruct(
                model, pca_project(model, row))) ** 2) for row in x]
            expect = lam_ref[k:].sum() * (n - 1) / n
            assert np.mean(errs) == pytest.approx(expect, abs=1e-5)

    def test_residual_non_increasing_in_k(self, rng):
        x = rng.normal(size=(8, 5))
        prev = np.inf
        for k in range(1, 5):
            model = pca_fit(x, k=k)
            err = np.mean([np.sum((row - pca_reconstruct(
                model, pca_project(model, row))) ** 2) for row in x])
            assert err <= prev + 1e-12
            prev = err

    def test_dimension_mismatch(self, model):
        with pytest.raises(DimensionMismatch):
            pca_project(model, np.zeros(4))
        with pytest.raises(DimensionMismatch):
            pca_reconstruct(model, np.zeros(5))


class TestPcaCodec:
    def test_roundtrip_bit_exact(self, rng):
        model = pca_fit(rng.normal(size=(6, 4)) * 17.3, k=2)
        text = save_pca(model)
        loaded = load_pca(text)
        assert np.array_equal(loaded.mean, model.mean)
        assert np.array_equal(loaded.components, model.components)
        assert np.array_equal(loaded.eigenvalues, model.eigenvalues)
        assert save_pca(loaded) == text

    def test_version_mismatch(self):
        with pytest.raises(VersionMismatch):
            load_pca("PCA2 4 1\n0 0 0 0\n1 1 0 0 0\n")

    def test_truncated(self, rng):
        text = save_pca(pca_fit(rng.normal(size=(5, 3)), k=2))
        with pytest.raises(ParseError):
            load_pca("\n".join(text.splitlines()[:-1]))

    @pytest.mark.parametrize("line, col", [(0, 0), (1, 0), (2, 3)])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_rejected(self, rng, line, col, bad):
        # line 0 is the mean; component rows start with their eigenvalue
        text = save_pca(pca_fit(rng.normal(size=(5, 3)), k=2))
        lines = text.splitlines()
        row = lines[1 + line].split()
        row[col] = bad
        lines[1 + line] = " ".join(row)
        with pytest.raises(ParseError):
            load_pca("\n".join(lines) + "\n")

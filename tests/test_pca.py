"""Unit tests for SketchPCA."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.frequent_directions import FrequentDirections
from repro.embed.pca import SketchPCA
from repro.linalg.random_matrices import matrix_with_spectrum
from repro.linalg.svd import thin_svd


class TestConstruction:
    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            SketchPCA(np.ones(5))

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError, match="nonzero"):
            SketchPCA(np.zeros((3, 5)))

    def test_zero_rows_ignored(self, rng):
        b = rng.standard_normal((3, 6))
        padded = np.vstack([b, np.zeros((2, 6))])
        p1 = SketchPCA(b)
        p2 = SketchPCA(padded)
        np.testing.assert_allclose(np.abs(p1.components_), np.abs(p2.components_))

    def test_components_clamped_to_rank(self, rng):
        b = matrix_with_spectrum(np.array([3.0, 1.0]), 6, 10, rng)
        pca = SketchPCA(b, n_components=8)
        assert pca.n_components == 2

    def test_bad_n_components(self, rng):
        with pytest.raises(ValueError, match="n_components"):
            SketchPCA(rng.standard_normal((3, 5)), n_components=0)

    def test_mean_shape_checked(self, rng):
        with pytest.raises(ValueError, match="mean"):
            SketchPCA(rng.standard_normal((3, 5)), mean=np.zeros(4))


class TestProjection:
    def test_components_orthonormal(self, small_lowrank):
        fd = FrequentDirections(80, 15).fit(small_lowrank)
        pca = SketchPCA(fd.sketch, n_components=6)
        np.testing.assert_allclose(
            pca.components_ @ pca.components_.T, np.eye(6), atol=1e-10
        )

    def test_transform_shape(self, small_lowrank):
        fd = FrequentDirections(80, 15).fit(small_lowrank)
        pca = SketchPCA(fd.sketch, n_components=4)
        assert pca.transform(small_lowrank[:9]).shape == (9, 4)

    def test_transform_flattens_images(self, rng):
        imgs = rng.random((5, 8, 8))
        pca = SketchPCA(rng.standard_normal((4, 64)), n_components=2)
        assert pca.transform(imgs).shape == (5, 2)

    def test_dimension_mismatch(self, rng):
        pca = SketchPCA(rng.standard_normal((4, 10)))
        with pytest.raises(ValueError, match="feature dimension"):
            pca.transform(rng.standard_normal((3, 9)))

    def test_mean_subtracted(self, rng):
        b = rng.standard_normal((4, 6))
        mean = rng.standard_normal(6)
        pca_c = SketchPCA(b, mean=mean)
        pca_u = SketchPCA(b)
        x = rng.standard_normal((3, 6))
        np.testing.assert_allclose(
            pca_c.transform(x), pca_u.transform(x - mean), atol=1e-12
        )

    def test_explained_variance_sums_below_one(self, small_lowrank):
        fd = FrequentDirections(80, 20).fit(small_lowrank)
        pca = SketchPCA(fd.sketch, n_components=5)
        ratios = pca.explained_variance_ratio_
        assert np.all(np.diff(ratios) <= 1e-12)
        assert 0 < ratios.sum() <= 1.0 + 1e-12


class TestReconstruction:
    def test_roundtrip_on_lowrank(self, rng):
        a = matrix_with_spectrum(np.array([5.0, 2.0, 1.0]), 60, 20, rng)
        fd = FrequentDirections(20, 8).fit(a)
        pca = SketchPCA(fd.sketch, n_components=3)
        recon = pca.inverse_transform(pca.transform(a))
        rel = np.sum((a - recon) ** 2) / np.sum(a * a)
        assert rel < 1e-6

    def test_reconstruction_error_monotone_in_k(self, small_lowrank):
        fd = FrequentDirections(80, 30).fit(small_lowrank)
        errs = [
            SketchPCA(fd.sketch, n_components=k).reconstruction_error(small_lowrank)
            for k in (2, 10, 25)
        ]
        assert errs[0] >= errs[1] >= errs[2]

    def test_inverse_shape_checked(self, rng):
        pca = SketchPCA(rng.standard_normal((4, 10)), n_components=3)
        with pytest.raises(ValueError, match="dimension"):
            pca.inverse_transform(np.zeros((2, 4)))


class TestSpectrumMatchesThinSVD:
    """The basis read through ``sketch_spectrum`` agrees with a full thin
    SVD of the same sketch: singular values to 1e-10 relative, and the
    same principal subspace."""

    @staticmethod
    def _check(sketch, k):
        pca = SketchPCA(sketch, n_components=k)
        _, s, vt = thin_svd(sketch[np.any(sketch != 0.0, axis=1)])
        np.testing.assert_allclose(pca.singular_values_, s[:k], rtol=1e-10)
        np.testing.assert_allclose(
            pca.explained_variance_ratio_, s[:k] ** 2 / np.sum(s**2), rtol=1e-10
        )
        proj = pca.components_.T @ pca.components_
        np.testing.assert_allclose(proj, vt[:k].T @ vt[:k], atol=1e-10)

    @pytest.fixture
    def x(self, rng):
        return rng.standard_normal((400, 256)) * np.linspace(6.0, 0.5, 256)

    def test_finalized_sketch(self, x):
        """Orthogonal ``diag(s) @ Vt`` rows: the spectrum is read off."""
        self._check(FrequentDirections(d=256, ell=16).fit(x).sketch, 8)

    def test_raw_unrotated_buffer(self, x):
        """Raw data rows are not orthogonal: the Gram path runs."""
        assert abs(x[0] @ x[1]) > 1e-6 * np.linalg.norm(x[0]) * np.linalg.norm(x[1])
        self._check(x[:12], 6)

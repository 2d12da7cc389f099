"""Unit tests for fast angle-based outlier detection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.abod import abod_outliers, abod_scores
from repro.embed.knn import knn_graph


def _abod_scores_loop(x, n_neighbors=10):
    """Reference: the pre-vectorization per-point loop (BLAS ``@`` dots)."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    idx, _ = knn_graph(x, n_neighbors)
    scores = np.empty(n)
    iu, ju = np.triu_indices(n_neighbors, k=1)
    for i in range(n):
        vecs = x[idx[i]] - x[i]
        norms2 = np.einsum("ij,ij->i", vecs, vecs)
        norms2[norms2 == 0] = np.finfo(np.float64).tiny
        norms = np.sqrt(norms2)
        dots = vecs @ vecs.T
        vals = dots[iu, ju] / (norms2[iu] * norms2[ju])
        weights = 1.0 / (norms[iu] * norms[ju])
        wsum = weights.sum()
        if wsum == 0:
            scores[i] = 0.0
            continue
        mean = float(np.sum(weights * vals) / wsum)
        scores[i] = float(np.sum(weights * (vals - mean) ** 2) / wsum)
    return scores


class TestScores:
    def test_shape(self, rng):
        x = rng.standard_normal((50, 3))
        assert abod_scores(x, n_neighbors=8).shape == (50,)

    def test_interior_point_scores_higher_than_outlier(self, rng):
        cluster = rng.normal(0, 1, size=(80, 2))
        outlier = np.array([[30.0, 30.0]])
        x = np.vstack([cluster, outlier])
        scores = abod_scores(x, n_neighbors=10)
        assert scores[-1] < np.median(scores[:-1])

    def test_validation(self, rng):
        with pytest.raises(ValueError, match="2-D"):
            abod_scores(rng.standard_normal(10))
        with pytest.raises(ValueError, match="n_neighbors"):
            abod_scores(rng.standard_normal((5, 2)), n_neighbors=10)

    def test_scores_nonnegative(self, rng):
        scores = abod_scores(rng.standard_normal((60, 4)), n_neighbors=10)
        assert np.all(scores >= 0)


class TestMatchesLoopOracle:
    """Batched scores equal the per-point loop to rounding.  Relative
    error is measured against the largest score: a point whose angles
    all coincide has a variance of pure rounding noise near zero."""

    @staticmethod
    def _check(x, k):
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            out, ref = abod_scores(x, n_neighbors=k), _abod_scores_loop(x, k)
        np.testing.assert_array_equal(np.isnan(out), np.isnan(ref))
        scale = np.nanmax(np.abs(ref))
        np.testing.assert_allclose(out, ref, rtol=1e-13, atol=1e-13 * scale)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_data(self, seed):
        gen = np.random.default_rng(seed)
        n, d = int(gen.integers(15, 80)), int(gen.integers(1, 12))
        x = gen.standard_normal((n, d)) * gen.choice([1e-3, 1.0, 1e3])
        self._check(x, int(gen.integers(3, 11)))

    @pytest.mark.parametrize("copies", [2, 4, 12])
    def test_duplicate_rows(self, copies):
        gen = np.random.default_rng(copies)
        x = gen.standard_normal((50, 3))
        x[1:copies] = x[0]
        self._check(x, 10)


class TestOutliers:
    def test_flags_injected_outliers(self):
        gen = np.random.default_rng(0)
        inliers = np.vstack([
            gen.normal(0, 0.5, size=(100, 2)),
            gen.normal(8, 0.5, size=(100, 2)),
        ])
        injected = gen.uniform(-20, 28, size=(8, 2))
        # Keep only injected points far from both clusters.
        keep = (np.linalg.norm(injected, axis=1) > 5) & (
            np.linalg.norm(injected - 8, axis=1) > 5
        )
        injected = injected[keep]
        x = np.vstack([inliers, injected])
        mask, scores = abod_outliers(x, contamination=len(injected) / len(x),
                                     n_neighbors=10)
        assert mask[len(inliers):].mean() > 0.7
        assert mask[: len(inliers)].mean() < 0.05

    def test_contamination_controls_count(self, rng):
        x = rng.standard_normal((100, 3))
        mask, _ = abod_outliers(x, contamination=0.1, n_neighbors=8)
        assert mask.sum() == 10

    def test_contamination_validated(self, rng):
        x = rng.standard_normal((30, 2))
        with pytest.raises(ValueError, match="contamination"):
            abod_outliers(x, contamination=0.0)
        with pytest.raises(ValueError, match="contamination"):
            abod_outliers(x, contamination=0.9)

    def test_returns_scores_too(self, rng):
        x = rng.standard_normal((40, 2))
        mask, scores = abod_outliers(x, contamination=0.1)
        assert scores.shape == (40,)
        # Flagged points must be exactly the lowest scorers.
        assert scores[mask].max() <= scores[~mask].min() + 1e-12

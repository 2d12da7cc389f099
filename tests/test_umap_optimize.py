"""Unit tests for the UMAP SGD optimizer and curve fitting."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse

from repro.embed.knn import knn_brute
from repro.embed.umap_fuzzy import fuzzy_simplicial_set
from repro.embed.umap_optimize import (
    _GRAD_CLIP,
    fit_ab_params,
    make_epochs_per_sample,
    optimize_layout,
)


def _optimize_layout_add_at(
    embedding, graph, n_epochs, a, b, rng, learning_rate=1.0,
    negative_sample_rate=5, move_other=True, fixed_embedding=None,
):
    """Reference: the pre-bincount epoch loop scattering with ``np.add.at``."""
    graph = graph.tocoo()
    weights = graph.data.copy()
    cutoff = weights.max() / float(n_epochs)
    keep = weights >= cutoff
    heads, tails, weights = graph.row[keep], graph.col[keep], weights[keep]
    epochs_per_sample = make_epochs_per_sample(weights, n_epochs)
    epoch_of_next_sample = epochs_per_sample.copy()
    other = fixed_embedding if fixed_embedding is not None else embedding
    n_other = other.shape[0]
    dim = embedding.shape[1]
    for epoch in range(n_epochs):
        alpha = learning_rate * (1.0 - epoch / float(n_epochs))
        due = epoch_of_next_sample <= epoch + 1.0
        if not np.any(due):
            continue
        h = heads[due]
        t = tails[due]
        diff = embedding[h] - other[t]
        d2 = np.einsum("ij,ij->i", diff, diff)
        nz = d2 > 0.0
        coeff = np.zeros_like(d2)
        coeff[nz] = (-2.0 * a * b * d2[nz] ** (b - 1.0)) / (a * d2[nz] ** b + 1.0)
        grad = np.clip(coeff[:, None] * diff, -_GRAD_CLIP, _GRAD_CLIP)
        np.add.at(embedding, h, alpha * grad)
        if move_other and fixed_embedding is None:
            np.add.at(embedding, t, -alpha * grad)
        n_due = h.shape[0]
        reps = negative_sample_rate
        if reps > 0:
            h_rep = np.repeat(h, reps)
            neg = rng.integers(0, n_other, size=n_due * reps)
            diff_n = embedding[h_rep] - other[neg]
            d2n = np.einsum("ij,ij->i", diff_n, diff_n)
            coeff_n = np.zeros_like(d2n)
            pos = d2n > 0.0
            coeff_n[pos] = (2.0 * b) / ((0.001 + d2n[pos]) * (a * d2n[pos] ** b + 1.0))
            grad_n = np.where(
                coeff_n[:, None] > 0.0,
                np.clip(coeff_n[:, None] * diff_n, -_GRAD_CLIP, _GRAD_CLIP),
                _GRAD_CLIP * np.ones((1, dim)),
            )
            same = neg == h_rep
            if np.any(same):
                grad_n[same] = 0.0
            np.add.at(embedding, h_rep, alpha * grad_n)
        epoch_of_next_sample[due] += epochs_per_sample[due]
    return embedding


class TestABParams:
    def test_reference_defaults(self):
        a, b = fit_ab_params(spread=1.0, min_dist=0.1)
        # umap-learn's canonical values for these settings.
        assert a == pytest.approx(1.577, abs=0.05)
        assert b == pytest.approx(0.895, abs=0.03)

    def test_zero_min_dist(self):
        a, b = fit_ab_params(spread=1.0, min_dist=0.0)
        assert a > 0 and b > 0

    def test_curve_matches_target_at_extremes(self):
        a, b = fit_ab_params(1.0, 0.1)
        # Near zero the kernel is ~1; far away it decays toward 0.
        assert 1.0 / (1.0 + a * 0.01 ** (2 * b)) > 0.9
        assert 1.0 / (1.0 + a * 3.0 ** (2 * b)) < 0.1

    def test_validation(self):
        with pytest.raises(ValueError, match="spread"):
            fit_ab_params(spread=0.0)
        with pytest.raises(ValueError, match="min_dist"):
            fit_ab_params(min_dist=-0.1)


class TestEpochSchedule:
    def test_strongest_edge_every_epoch(self):
        eps = make_epochs_per_sample(np.array([1.0, 0.5, 0.25]), 100)
        assert eps[0] == pytest.approx(1.0)
        assert eps[1] == pytest.approx(2.0)
        assert eps[2] == pytest.approx(4.0)

    def test_zero_weight_never_fires(self):
        eps = make_epochs_per_sample(np.array([1.0, 0.0]), 10)
        assert eps[1] == np.inf

    def test_n_epochs_validated(self):
        with pytest.raises(ValueError, match="n_epochs"):
            make_epochs_per_sample(np.ones(3), 0)


class TestOptimizeLayout:
    @pytest.fixture(scope="class")
    def two_cluster_graph(self):
        gen = np.random.default_rng(0)
        x = np.vstack([gen.normal(0, 0.3, (40, 5)), gen.normal(8, 0.3, (40, 5))])
        idx, dst = knn_brute(x, 8)
        return fuzzy_simplicial_set(idx, dst)

    def test_separates_two_clusters(self, two_cluster_graph):
        gen = np.random.default_rng(1)
        emb = gen.uniform(-10, 10, size=(80, 2))
        a, b = fit_ab_params(1.0, 0.1)
        out = optimize_layout(emb, two_cluster_graph, 150, a, b, gen)
        c1, c2 = out[:40].mean(axis=0), out[40:].mean(axis=0)
        spread1 = np.linalg.norm(out[:40] - c1, axis=1).mean()
        spread2 = np.linalg.norm(out[40:] - c2, axis=1).mean()
        gap = np.linalg.norm(c1 - c2)
        assert gap > 3 * max(spread1, spread2)

    def test_modifies_in_place_and_returns_same(self, two_cluster_graph, rng):
        emb = rng.uniform(-1, 1, size=(80, 2))
        out = optimize_layout(emb, two_cluster_graph, 5, 1.5, 0.9, rng)
        assert out is emb

    def test_empty_graph_is_noop(self, rng):
        emb = rng.uniform(-1, 1, size=(10, 2))
        before = emb.copy()
        g = scipy.sparse.coo_matrix((10, 10))
        optimize_layout(emb, g, 10, 1.5, 0.9, rng)
        np.testing.assert_array_equal(emb, before)

    def test_fixed_reference_does_not_move(self, two_cluster_graph, rng):
        """transform-mode: the training layout must stay frozen."""
        train_emb = rng.uniform(-5, 5, size=(80, 2))
        frozen = train_emb.copy()
        new_emb = rng.uniform(-5, 5, size=(12, 2))
        # Cross-graph: 12 new points attracted to training points.
        rows = np.repeat(np.arange(12), 3)
        cols = rng.integers(0, 80, size=36)
        g = scipy.sparse.coo_matrix((np.ones(36), (rows, cols)), shape=(12, 80))
        optimize_layout(
            new_emb, g, 20, 1.5, 0.9, rng,
            move_other=False, fixed_embedding=train_emb,
        )
        np.testing.assert_array_equal(train_emb, frozen)

    def test_gradients_bounded(self, two_cluster_graph, rng):
        """No update may explode: positions stay finite and bounded."""
        emb = rng.uniform(-10, 10, size=(80, 2))
        out = optimize_layout(emb, two_cluster_graph, 100, 1.5, 0.9, rng,
                              learning_rate=1.0)
        assert np.all(np.isfinite(out))
        assert np.abs(out).max() < 1e3


class TestMatchesAddAtOracle:
    """The bincount scatter reproduces the ``np.add.at`` loop: same
    positions up to summation order, and the very same RNG draws."""

    EPOCHS = 3

    @pytest.fixture(scope="class")
    def graph(self):
        gen = np.random.default_rng(5)
        x = np.vstack([gen.normal(0, 1.0, (60, 6)), gen.normal(4, 1.0, (60, 6))])
        idx, dst = knn_brute(x, 10)
        return fuzzy_simplicial_set(idx, dst)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fit_mode(self, graph, seed):
        a, b = fit_ab_params(1.0, 0.1)
        start = np.random.default_rng(seed).uniform(-10, 10, size=(120, 2))
        rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        out = optimize_layout(start.copy(), graph, self.EPOCHS, a, b, rng)
        ref = _optimize_layout_add_at(start.copy(), graph, self.EPOCHS, a, b, rng_ref)
        np.testing.assert_allclose(out, ref, rtol=1e-12)
        assert not np.allclose(out, start)
        assert rng.bit_generator.state == rng_ref.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_frozen_reference_mode(self, seed):
        gen = np.random.default_rng(seed)
        train = gen.uniform(-5, 5, size=(80, 2))
        start = gen.uniform(-5, 5, size=(12, 2))
        rows = np.repeat(np.arange(12), 4)
        g = scipy.sparse.coo_matrix(
            (gen.uniform(0.2, 1.0, 48), (rows, gen.integers(0, 80, 48))), shape=(12, 80)
        )
        a, b = fit_ab_params(1.0, 0.1)
        rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        kw = dict(learning_rate=0.25, move_other=False, fixed_embedding=train)
        out = optimize_layout(start.copy(), g, self.EPOCHS, a, b, rng, **kw)
        ref = _optimize_layout_add_at(start.copy(), g, self.EPOCHS, a, b, rng_ref, **kw)
        np.testing.assert_allclose(out, ref, rtol=1e-12)
        assert rng.bit_generator.state == rng_ref.bit_generator.state

"""Unit tests for the fuzzy simplicial set construction."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embed.knn import knn_brute
from repro.embed.umap_fuzzy import (
    _MAX_BISECT_STEPS,
    _MIN_K_DIST_SCALE,
    SMOOTH_KNN_TOLERANCE,
    fuzzy_simplicial_set,
    smooth_knn_calibration,
)


def _smooth_knn_calibration_loop(distances, local_connectivity=1.0):
    """Per-row reference: the pre-vectorization bisection loop, verbatim."""
    distances = np.asarray(distances, dtype=np.float64)
    n, k = distances.shape
    target = np.log2(k)
    rho = np.zeros(n)
    sigma = np.zeros(n)
    mean_all = float(distances.mean()) if distances.size else 1.0
    for i in range(n):
        row = distances[i]
        nonzero = row[row > 0.0]
        if nonzero.size >= local_connectivity and local_connectivity > 0:
            index = int(np.floor(local_connectivity))
            interp = local_connectivity - index
            if index > 0:
                rho[i] = nonzero[index - 1]
                if interp > 0 and index < nonzero.size:
                    rho[i] += interp * (nonzero[index] - nonzero[index - 1])
            else:
                rho[i] = interp * nonzero[0]
        elif nonzero.size > 0:
            rho[i] = float(nonzero.max())
        lo, hi, mid = 0.0, np.inf, 1.0
        for _ in range(_MAX_BISECT_STEPS):
            shifted = row - rho[i]
            mass = float(np.sum(np.exp(-np.maximum(shifted, 0.0) / mid)))
            if abs(mass - target) < SMOOTH_KNN_TOLERANCE:
                break
            if mass > target:
                hi = mid
                mid = (lo + hi) / 2.0
            else:
                lo = mid
                mid = mid * 2.0 if hi == np.inf else (lo + hi) / 2.0
        sigma[i] = mid
        mean_i = float(row.mean()) if row.size else mean_all
        floor = _MIN_K_DIST_SCALE * (mean_i if rho[i] > 0.0 else mean_all)
        sigma[i] = max(sigma[i], floor)
    return rho, sigma


@st.composite
def knn_distances(draw):
    """Ascending k-NN distance rows with zero distances and ties mixed in."""
    n = draw(st.integers(1, 40))
    k = draw(st.integers(1, 20))
    gen = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    d = gen.random((n, k)) * draw(st.sampled_from([1e-3, 1.0, 50.0]))
    d[gen.random((n, k)) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = 0.0
    if draw(st.booleans()):
        d = np.round(d, 1)  # ties
    return np.sort(d, axis=1)


class TestSmoothKNN:
    def test_mass_equation_satisfied(self, rng):
        d = np.sort(rng.random((30, 10)), axis=1) + 0.1
        rho, sigma = smooth_knn_calibration(d)
        target = np.log2(10)
        for i in range(30):
            mass = np.sum(np.exp(-np.maximum(d[i] - rho[i], 0.0) / sigma[i]))
            assert mass == pytest.approx(target, abs=1e-3)

    def test_rho_is_first_neighbour_distance(self, rng):
        d = np.sort(rng.random((20, 8)), axis=1) + 0.05
        rho, _ = smooth_knn_calibration(d, local_connectivity=1.0)
        np.testing.assert_allclose(rho, d[:, 0])

    def test_fractional_local_connectivity_interpolates(self, rng):
        d = np.sort(rng.random((10, 6)), axis=1) + 0.05
        rho15, _ = smooth_knn_calibration(d, local_connectivity=1.5)
        assert np.all(rho15 >= d[:, 0] - 1e-12)
        assert np.all(rho15 <= d[:, 1] + 1e-12)

    def test_sigma_positive(self, rng):
        d = np.sort(rng.random((25, 7)), axis=1)
        _, sigma = smooth_knn_calibration(d)
        assert np.all(sigma > 0)

    def test_constant_distances_handled(self):
        d = np.ones((5, 6))
        rho, sigma = smooth_knn_calibration(d)
        assert np.all(np.isfinite(sigma)) and np.all(sigma > 0)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="n, k"):
            smooth_knn_calibration(np.ones(5))

    def test_negative_local_connectivity(self, rng):
        with pytest.raises(ValueError, match="local_connectivity"):
            smooth_knn_calibration(rng.random((5, 4)), local_connectivity=-1)


class TestLockstepMatchesLoop:
    """The lockstep bisection is bit-identical to the per-row loop."""

    @settings(max_examples=60, deadline=None)
    @given(knn_distances(), st.sampled_from([0.0, 1.0, 1.5]))
    def test_bit_identical(self, d, local_connectivity):
        rho, sigma = smooth_knn_calibration(d, local_connectivity)
        rho_ref, sigma_ref = _smooth_knn_calibration_loop(d, local_connectivity)
        assert np.array_equal(rho, rho_ref)
        assert np.array_equal(sigma, sigma_ref)

    @pytest.mark.parametrize("local_connectivity", [0.0, 0.5, 1.0, 1.5, 3.0, 30.0])
    def test_edge_rows(self, local_connectivity):
        d = np.array(
            [
                [0.0, 0.0, 0.0, 0.0],  # all zero distances
                [0.0, 0.0, 0.0, 2.0],  # fewer positives than connectivity
                [0.5, 0.5, 0.5, 0.5],  # all tied
                [0.0, 0.1, 0.1, 7.0],
                [1e-9, 1e-9, 1e3, 1e3],
            ]
        )
        rho, sigma = smooth_knn_calibration(d, local_connectivity)
        rho_ref, sigma_ref = _smooth_knn_calibration_loop(d, local_connectivity)
        assert np.array_equal(rho, rho_ref)
        assert np.array_equal(sigma, sigma_ref)


class TestFuzzySet:
    @pytest.fixture(scope="class")
    def graph_and_data(self):
        gen = np.random.default_rng(0)
        x = gen.standard_normal((120, 6))
        idx, dst = knn_brute(x, 10)
        return fuzzy_simplicial_set(idx, dst), x

    def test_symmetric(self, graph_and_data):
        g, _ = graph_and_data
        g = g.tocsr()
        diff = (g - g.T).toarray()
        np.testing.assert_allclose(diff, 0.0, atol=1e-12)

    def test_memberships_in_unit_interval(self, graph_and_data):
        g, _ = graph_and_data
        assert g.data.min() >= 0.0
        assert g.data.max() <= 1.0 + 1e-12

    def test_no_self_loops(self, graph_and_data):
        g, _ = graph_and_data
        assert np.all(g.tocsr().diagonal() == 0.0)

    def test_nearest_neighbour_strong_membership(self, rng):
        """The closest neighbour (d = rho) must have membership ~1."""
        x = rng.standard_normal((60, 4))
        idx, dst = knn_brute(x, 6)
        g = fuzzy_simplicial_set(idx, dst).tocsr()
        for i in range(10):
            assert g[i, idx[i, 0]] >= 1.0 - 1e-6

    def test_intersection_weaker_than_union(self, rng):
        x = rng.standard_normal((80, 5))
        idx, dst = knn_brute(x, 8)
        union = fuzzy_simplicial_set(idx, dst, set_op_mix_ratio=1.0)
        inter = fuzzy_simplicial_set(idx, dst, set_op_mix_ratio=0.0)
        assert inter.sum() <= union.sum() + 1e-12

    def test_mix_ratio_validated(self, rng):
        x = rng.standard_normal((20, 3))
        idx, dst = knn_brute(x, 4)
        with pytest.raises(ValueError, match="set_op_mix_ratio"):
            fuzzy_simplicial_set(idx, dst, set_op_mix_ratio=1.5)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError, match="same shape"):
            fuzzy_simplicial_set(np.zeros((5, 3), dtype=int), np.zeros((5, 4)))

    def test_returns_coo(self, graph_and_data):
        g, _ = graph_and_data
        assert scipy.sparse.isspmatrix_coo(g)

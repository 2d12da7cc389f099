"""Fuzzy simplicial set construction for UMAP (McInnes et al. 2018, §3).

Two steps turn a k-NN graph into UMAP's weighted graph:

1. **Smooth-kNN calibration** — per point ``i``, find the connectivity
   offset ``rho_i`` (distance to the nearest neighbour) and a bandwidth
   ``sigma_i`` such that the total membership mass is ``log2(k)``:

       ``sum_j exp(-(max(0, d_ij - rho_i)) / sigma_i) = log2(k)``.

   ``sigma_i`` is found by bisection; this makes the graph's effective
   local metric uniform across dense and sparse regions.  All rows
   bisect in lockstep, each leaving the active set once it converges.

2. **Symmetrization** — per-point memberships are directed; UMAP merges
   them with the probabilistic t-conorm (fuzzy union)
   ``w = w_ij + w_ji - w_ij * w_ji``, yielding a symmetric sparse
   matrix whose entries live in ``[0, 1]``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse

__all__ = ["smooth_knn_calibration", "fuzzy_simplicial_set", "SMOOTH_KNN_TOLERANCE"]

SMOOTH_KNN_TOLERANCE = 1e-5
"""Bisection tolerance on the membership-mass equation."""

_MIN_K_DIST_SCALE = 1e-3
_MAX_BISECT_STEPS = 64


def smooth_knn_calibration(
    distances: np.ndarray,
    local_connectivity: float = 1.0,
    bandwidth_target: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Compute per-point ``(rho, sigma)`` for the smooth-kNN kernel.

    Parameters
    ----------
    distances:
        ``(n, k)`` ascending k-NN distances.
    local_connectivity:
        Number of neighbours assumed fully connected (membership 1);
        UMAP's default 1 sets ``rho_i`` to the first neighbour distance.
        Fractional values interpolate between neighbour distances.
    bandwidth_target:
        Target membership mass; defaults to ``log2(k)``.

    Returns
    -------
    (rho, sigma):
        Both length-``n``.
    """
    distances = np.asarray(distances, dtype=np.float64)
    if distances.ndim != 2:
        raise ValueError("distances must be (n, k)")
    n, k = distances.shape
    if local_connectivity < 0:
        raise ValueError("local_connectivity must be nonnegative")
    target = bandwidth_target if bandwidth_target is not None else np.log2(k)
    mean_all = float(distances.mean()) if distances.size else 1.0
    positive = distances > 0.0
    n_pos = positive.sum(axis=1)
    # Row i's positive distances, in order, in the first n_pos[i] columns.
    order = np.argsort(~positive, axis=1, kind="stable")
    nonzero = np.take_along_axis(distances, order, axis=1)
    rho = np.zeros(n)
    index = int(np.floor(local_connectivity))
    interp = local_connectivity - index
    full = (n_pos >= local_connectivity) & (local_connectivity > 0)
    if full.any():
        if index > 0:
            rho[full] = nonzero[full, index - 1]
            if interp > 0 and index < k:
                step = full & (index < n_pos)
                rho[step] += interp * (nonzero[step, index] - nonzero[step, index - 1])
        else:
            rho[full] = interp * nonzero[full, 0]
    rest = ~full & (n_pos > 0)
    rho[rest] = np.where(positive[rest], distances[rest], -np.inf).max(
        axis=1, initial=-np.inf
    )
    # Bisection for sigma, all unconverged rows in lockstep.
    lo, hi, mid = np.zeros(n), np.full(n, np.inf), np.ones(n)
    active = np.arange(n)
    for _ in range(_MAX_BISECT_STEPS):
        if active.size == 0:
            break
        shifted = distances[active] - rho[active, np.newaxis]
        m = mid[active]
        mass = np.sum(np.exp(-np.maximum(shifted, 0.0) / m[:, np.newaxis]), axis=1)
        # Negated ``<``, not ``>=``: a NaN mass keeps bisecting, as in a loop.
        going = ~(np.abs(mass - target) < SMOOTH_KNN_TOLERANCE)
        active, m, above = active[going], m[going], mass[going] > target
        hi[active] = np.where(above, m, hi[active])
        lo[active] = np.where(above, lo[active], m)
        doubling = ~above & (hi[active] == np.inf)
        mid[active] = np.where(doubling, m * 2.0, (lo[active] + hi[active]) / 2.0)
    # Floor sigma to avoid degenerate kernels in constant regions
    # (reference implementation's MIN_K_DIST_SCALE guard).
    mean_i = distances.mean(axis=1) if k else np.full(n, mean_all)
    floor = _MIN_K_DIST_SCALE * np.where(rho > 0.0, mean_i, mean_all)
    sigma = np.where(floor > mid, floor, mid)
    return rho, sigma


def fuzzy_simplicial_set(
    knn_indices: np.ndarray,
    knn_distances: np.ndarray,
    n_points: int | None = None,
    local_connectivity: float = 1.0,
    set_op_mix_ratio: float = 1.0,
) -> scipy.sparse.coo_matrix:
    """Build the symmetric fuzzy graph from a k-NN structure.

    Parameters
    ----------
    knn_indices, knn_distances:
        ``(n, k)`` neighbour ids and ascending distances.
    n_points:
        Total number of points (defaults to ``n``).
    local_connectivity:
        See :func:`smooth_knn_calibration`.
    set_op_mix_ratio:
        1.0 = pure fuzzy union (t-conorm), 0.0 = pure fuzzy
        intersection (Hadamard); values between interpolate, as in the
        reference implementation.

    Returns
    -------
    scipy.sparse.coo_matrix
        Symmetric ``(n, n)`` membership matrix with entries in [0, 1].
    """
    knn_indices = np.asarray(knn_indices, dtype=np.int64)
    knn_distances = np.asarray(knn_distances, dtype=np.float64)
    if knn_indices.shape != knn_distances.shape:
        raise ValueError("indices and distances must have the same shape")
    if not 0.0 <= set_op_mix_ratio <= 1.0:
        raise ValueError("set_op_mix_ratio must be in [0, 1]")
    n, k = knn_indices.shape
    if n_points is None:
        n_points = n
    rho, sigma = smooth_knn_calibration(
        knn_distances, local_connectivity=local_connectivity
    )
    shifted = knn_distances - rho[:, None]
    weights = np.exp(-np.maximum(shifted, 0.0) / sigma[:, None])
    rows = np.repeat(np.arange(n), k)
    cols = knn_indices.ravel()
    vals = weights.ravel()
    directed = scipy.sparse.coo_matrix(
        (vals, (rows, cols)), shape=(n_points, n_points)
    ).tocsr()
    directed.setdiag(0.0)
    directed.eliminate_zeros()
    transpose = directed.T.tocsr()
    product = directed.multiply(transpose)
    union = directed + transpose - product
    result = (
        set_op_mix_ratio * union + (1.0 - set_op_mix_ratio) * product
    )
    return result.tocoo()

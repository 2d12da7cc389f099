"""Fast angle-based outlier detection (FastABOD).

Kriegel, Schubert & Zimek (2008): a point deep inside a cluster sees its
neighbours spread over a wide range of *directions*, so the variance of
the angles it subtends is high; an outlier sees everything in roughly
the same direction, so the variance is low.  The angle-based outlier
factor of point ``p`` is the weighted variance over neighbour pairs
``(a, b)``:

    ``ABOF(p) = Var_{a,b} [ <pa, pb> / (||pa||^2 ||pb||^2) ]``

with weights ``1 / (||pa|| * ||pb||)`` that emphasise close neighbours.
The *Fast* variant restricts the pairs to the ``k`` nearest neighbours,
dropping the cost from O(n^3) to O(n k^2) after the k-NN search.

The paper's monitoring pipeline suggests ABOD for flagging exotic beam
profiles in the 2-D embedding; low scores mean outliers.
"""

from __future__ import annotations

import numpy as np

from repro.embed.knn import knn_graph

__all__ = ["abod_scores", "abod_outliers"]

_BLOCK_POINTS = 2048
"""Points scored per batch; bounds the ``(points, k, k)`` temporaries."""


def abod_scores(x: np.ndarray, n_neighbors: int = 10) -> np.ndarray:
    """Angle-based outlier factor per point (lower = more anomalous).

    Parameters
    ----------
    x:
        ``(n, d)`` data.
    n_neighbors:
        Neighbourhood size ``k`` of the Fast variant.

    Returns
    -------
    numpy.ndarray
        Length-``n`` ABOF scores.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("x must be 2-D")
    n = x.shape[0]
    if n <= n_neighbors:
        raise ValueError(
            f"need more than n_neighbors={n_neighbors} points, got {n}"
        )
    idx, _ = knn_graph(x, n_neighbors)
    iu, ju = np.triu_indices(n_neighbors, k=1)
    scores = np.empty(n)
    # Whole blocks of points at once (bounded memory at any n); einsum
    # rather than ``@`` keeps the dots off BLAS and thread-count invariant.
    for start in range(0, n, _BLOCK_POINTS):
        block = slice(start, start + _BLOCK_POINTS)
        vecs = x[idx[block]] - x[block, np.newaxis, :]  # (points, k, d)
        norms2 = np.einsum("nid,nid->ni", vecs, vecs)
        norms2[norms2 == 0] = np.finfo(np.float64).tiny
        norms = np.sqrt(norms2)
        dots = np.einsum("nid,njd->nij", vecs, vecs)
        vals = dots[:, iu, ju] / (norms2[:, iu] * norms2[:, ju])
        weights = 1.0 / (norms[:, iu] * norms[:, ju])
        wsum = weights.sum(axis=1)
        live = wsum != 0
        wsum[~live] = 1.0
        mean = np.sum(weights * vals, axis=1) / wsum
        var = np.sum(weights * (vals - mean[:, np.newaxis]) ** 2, axis=1) / wsum
        scores[block] = np.where(live, var, 0.0)
    return scores


def abod_outliers(
    x: np.ndarray,
    contamination: float = 0.05,
    n_neighbors: int = 10,
) -> tuple[np.ndarray, np.ndarray]:
    """Flag the lowest-scoring fraction of points as outliers.

    Parameters
    ----------
    x:
        ``(n, d)`` data.
    contamination:
        Expected outlier fraction in (0, 0.5].
    n_neighbors:
        FastABOD neighbourhood size.

    Returns
    -------
    (is_outlier, scores):
        Boolean mask and the raw ABOF scores.
    """
    if not 0.0 < contamination <= 0.5:
        raise ValueError(f"contamination must be in (0, 0.5], got {contamination}")
    scores = abod_scores(x, n_neighbors=n_neighbors)
    n_out = max(1, int(np.ceil(contamination * scores.shape[0])))
    threshold = np.partition(scores, n_out - 1)[n_out - 1]
    return scores <= threshold, scores

"""Epoch-batched SGD layout optimization for UMAP.

Minimizes the fuzzy cross-entropy between the high-dimensional graph
memberships and a low-dimensional similarity kernel
``phi(x, y) = (1 + a ||x - y||^(2b))^(-1)`` via sampled attractive and
repulsive updates:

- each edge ``(i, j)`` is sampled proportionally to its membership
  (realized with the reference implementation's ``epochs_per_sample``
  scheme: an edge of weight ``w`` fires every ``w_max / w`` epochs);
- each fired edge contributes one attractive update and
  ``negative_sample_rate`` repulsive updates against uniformly random
  vertices.

One deliberate departure from the reference implementation: updates are
applied *per epoch in a vectorized batch* (gather positions → compute
clipped gradients → scatter-add) instead of strictly sequentially per
edge.  Within-epoch staleness of positions is the only semantic
difference; it is a standard mini-batch relaxation that preserves the
optimizer's fixed points, and it is what makes a pure numpy
implementation fast enough for online use.  Each coordinate is one
contiguous 1-D array and each scatter-add one ``np.bincount`` per
coordinate, several times faster than ``np.add.at`` on ``(n, dim)`` rows.

The curve parameters ``(a, b)`` are fit from ``min_dist``/``spread``
exactly as in the reference (least squares against the desired offset
exponential), via :func:`fit_ab_params`.
"""

from __future__ import annotations

import numpy as np
import scipy.optimize
import scipy.sparse

__all__ = ["fit_ab_params", "make_epochs_per_sample", "optimize_layout"]

_GRAD_CLIP = 4.0


def fit_ab_params(spread: float = 1.0, min_dist: float = 0.1) -> tuple[float, float]:
    """Fit the low-dimensional kernel parameters ``(a, b)``.

    Least-squares fit of ``(1 + a d^(2b))^(-1)`` to the target curve
    that is 1 below ``min_dist`` and decays as
    ``exp(-(d - min_dist)/spread)`` beyond it.

    Parameters
    ----------
    spread:
        Scale of the embedded points.
    min_dist:
        Minimum desired separation of points in the embedding.

    Returns
    -------
    (a, b):
        Kernel parameters; UMAP defaults (1.0, 0.1) give roughly
        ``a = 1.58, b = 0.9``.
    """
    if spread <= 0:
        raise ValueError(f"spread must be positive, got {spread}")
    if min_dist < 0:
        raise ValueError(f"min_dist must be nonnegative, got {min_dist}")

    def curve(d: np.ndarray, a: float, b: float) -> np.ndarray:
        return 1.0 / (1.0 + a * d ** (2.0 * b))

    d = np.linspace(0.0, spread * 3.0, 300)
    target = np.ones_like(d)
    beyond = d >= min_dist
    target[beyond] = np.exp(-(d[beyond] - min_dist) / spread)
    (a, b), _ = scipy.optimize.curve_fit(curve, d, target, p0=(1.0, 1.0))
    return float(a), float(b)


def make_epochs_per_sample(weights: np.ndarray, n_epochs: int) -> np.ndarray:
    """Reference UMAP edge-firing schedule.

    An edge with weight ``w`` fires every ``w_max / w`` epochs, so the
    strongest edge fires every epoch and an edge ``t`` times weaker
    fires ``t`` times less often.  Edges too weak to fire at all within
    ``n_epochs`` get ``inf``.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if n_epochs < 1:
        raise ValueError(f"n_epochs must be >= 1, got {n_epochs}")
    result = np.full(weights.shape[0], np.inf)
    n_samples = n_epochs * weights / weights.max()
    positive = n_samples > 0
    result[positive] = n_epochs / n_samples[positive]
    return result


def optimize_layout(
    embedding: np.ndarray,
    graph: scipy.sparse.coo_matrix,
    n_epochs: int,
    a: float,
    b: float,
    rng: np.random.Generator,
    learning_rate: float = 1.0,
    negative_sample_rate: int = 5,
    move_other: bool = True,
    fixed_embedding: np.ndarray | None = None,
) -> np.ndarray:
    """Run the sampled attract/repel SGD on an initial layout.

    Parameters
    ----------
    embedding:
        ``(n, dim)`` initial positions; modified in place and returned.
    graph:
        Symmetric fuzzy membership matrix (COO).  Entries below
        ``max / n_epochs`` are dropped, as in the reference.
    n_epochs:
        Number of epochs.
    a, b:
        Low-dimensional kernel parameters from :func:`fit_ab_params`.
    rng:
        Source of randomness for negative sampling.
    learning_rate:
        Initial SGD step size; decays linearly to 0.
    negative_sample_rate:
        Repulsive samples per attractive update.
    move_other:
        Whether tail vertices also move (True for fit, False for
        transform, where the reference layout must stay put).
    fixed_embedding:
        When optimizing *new* points against a frozen reference (the
        ``transform`` path), the tail/negative positions come from this
        array and only ``embedding`` rows move.

    Returns
    -------
    numpy.ndarray
        The optimized embedding (same array as the input).
    """
    graph = graph.tocoo()
    weights = graph.data.copy()
    if n_epochs > 0 and weights.size:
        cutoff = weights.max() / float(n_epochs)
        keep = weights >= cutoff
        heads = graph.row[keep]
        tails = graph.col[keep]
        weights = weights[keep]
    else:
        heads = graph.row
        tails = graph.col
    if weights.size == 0:
        return embedding
    epochs_per_sample = make_epochs_per_sample(weights, n_epochs)
    epoch_of_next_sample = epochs_per_sample.copy()
    n = embedding.shape[0]
    pos = embedding.T.copy()  # one contiguous row per coordinate
    coords = list(pos)
    others = coords if fixed_embedding is None else list(fixed_embedding.T.copy())
    n_other = others[0].shape[0]
    move_tails = move_other and fixed_embedding is None

    for epoch in range(n_epochs):
        alpha = learning_rate * (1.0 - epoch / float(n_epochs))
        due = np.flatnonzero(epoch_of_next_sample <= epoch + 1.0)
        if due.size == 0:
            continue
        h = heads[due]
        t = tails[due]
        # ---- attractive updates ----
        diff = [xc[h] - oc[t] for xc, oc in zip(coords, others)]
        d2 = sum(dc * dc for dc in diff)
        with np.errstate(divide="ignore", invalid="ignore"):
            coeff = np.where(
                d2 > 0.0, (-2.0 * a * b * d2 ** (b - 1.0)) / (a * d2**b + 1.0), 0.0
            )
        idx = np.concatenate((h, t)) if move_tails else h
        for xc, dc in zip(coords, diff):
            step = alpha * np.clip(coeff * dc, -_GRAD_CLIP, _GRAD_CLIP)
            if move_tails:
                step = np.concatenate((step, -step))
            xc += np.bincount(idx, step, minlength=n)
        # ---- repulsive (negative) samples ----
        reps = negative_sample_rate
        if reps > 0:
            h_rep = np.repeat(h, reps)
            neg = rng.integers(0, n_other, size=h.shape[0] * reps)
            diff = [np.repeat(xc[h], reps) - oc[neg] for xc, oc in zip(coords, others)]
            d2n = sum(dc * dc for dc in diff)
            coeff_n = (2.0 * b) / ((0.001 + d2n) * (a * d2n**b + 1.0))
            unclipped = ~((d2n > 0.0) & (coeff_n > 0.0))
            # Self-collisions (negative sample == head) get zero update.
            same = neg == h_rep
            for xc, dc in zip(coords, diff):
                grad = np.clip(coeff_n * dc, -_GRAD_CLIP, _GRAD_CLIP)
                grad[unclipped] = _GRAD_CLIP
                grad[same] = 0.0
                xc += np.bincount(h_rep, alpha * grad, minlength=n)
        epoch_of_next_sample[due] += epochs_per_sample[due]
    embedding[:] = pos.T
    return embedding

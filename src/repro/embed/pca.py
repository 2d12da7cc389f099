"""Principal-component projection derived from a matrix sketch.

Classic PCA needs a pass over all data to build the covariance; the
pipeline instead takes the principal directions straight from the FD
sketch: the top right singular vectors of ``B`` approximate those of
``A`` with the FD covariance guarantee, so images can be projected into
latent space the moment the sketch is ready — no second pass, no
``d x d`` covariance.  :func:`repro.linalg.svd.sketch_spectrum` reads a
finalized sketch's ``diag(s) @ Vt`` rows directly, with no factorization.

Centering note: FD sketches the *second moment*, not the covariance.
For detector images that are intensity-normalized and nonnegative the
dominant direction is the mean image, which is informative rather than a
nuisance; ``center=True`` is available for workflows that subtract a
running mean before sketching.
"""

from __future__ import annotations

import numpy as np

from repro.linalg.svd import sketch_spectrum

__all__ = ["SketchPCA"]


class SketchPCA:
    """PCA whose basis comes from a sketch matrix.

    Parameters
    ----------
    sketch:
        ``l x d`` sketch of the data (zero rows allowed and ignored).
    n_components:
        Latent dimension ``k``; defaults to the sketch's numerical rank.
    mean:
        Optional length-``d`` mean vector to subtract before projecting
        (e.g. a streaming mean maintained alongside the sketch).

    Attributes
    ----------
    components_:
        ``(k, d)`` principal directions (rows orthonormal).
    singular_values_:
        Leading sketch singular values.
    explained_variance_ratio_:
        Energy fraction captured by each component *within the sketch*
        (an estimate of the data's ratio by the FD guarantee).

    Examples
    --------
    >>> import numpy as np
    >>> from repro import FrequentDirections
    >>> rng = np.random.default_rng(0)
    >>> x = rng.standard_normal((500, 32)) * np.linspace(5, 0.1, 32)
    >>> fd = FrequentDirections(d=32, ell=8).fit(x)
    >>> pca = SketchPCA(fd.sketch, n_components=2)
    >>> pca.transform(x).shape
    (500, 2)
    """

    def __init__(
        self,
        sketch: np.ndarray,
        n_components: int | None = None,
        mean: np.ndarray | None = None,
    ):
        sketch = np.asarray(sketch, dtype=np.float64)
        if sketch.ndim != 2:
            raise ValueError("sketch must be 2-D")
        nonzero = np.any(sketch != 0.0, axis=1)
        sketch = sketch[nonzero]
        if sketch.shape[0] == 0:
            raise ValueError("sketch has no nonzero rows")
        s, vt = sketch_spectrum(sketch)
        rank = int(np.sum(s > s[0] * 1e-12)) if s.size and s[0] > 0 else 0
        if rank == 0:
            raise ValueError("sketch is numerically zero")
        if n_components is None:
            n_components = rank
        if n_components < 1:
            raise ValueError(f"n_components must be >= 1, got {n_components}")
        k = min(n_components, rank)
        self.n_components = k
        self.components_ = vt[:k]
        self.singular_values_ = s[:k]
        total = float(np.sum(s**2))
        self.explained_variance_ratio_ = (s[:k] ** 2) / total
        self.d = sketch.shape[1]
        if mean is not None:
            mean = np.asarray(mean, dtype=np.float64)
            if mean.shape != (self.d,):
                raise ValueError(f"mean must have shape ({self.d},), got {mean.shape}")
        self.mean_ = mean

    def transform(self, x: np.ndarray) -> np.ndarray:
        """Project rows of ``x`` into the ``k``-dimensional latent space."""
        x = np.asarray(x, dtype=np.float64)
        flat = x.reshape(x.shape[0], -1) if x.ndim > 2 else np.atleast_2d(x)
        if flat.shape[1] != self.d:
            raise ValueError(
                f"x has feature dimension {flat.shape[1]}, expected {self.d}"
            )
        if self.mean_ is not None:
            flat = flat - self.mean_
        return flat @ self.components_.T

    def inverse_transform(self, z: np.ndarray) -> np.ndarray:
        """Map latent coordinates back to feature space (reconstruction)."""
        z = np.atleast_2d(np.asarray(z, dtype=np.float64))
        if z.shape[1] != self.n_components:
            raise ValueError(
                f"z has dimension {z.shape[1]}, expected {self.n_components}"
            )
        out = z @ self.components_
        if self.mean_ is not None:
            out = out + self.mean_
        return out

    def reconstruction_error(self, x: np.ndarray) -> float:
        """Relative squared error of projecting ``x`` through the basis."""
        x = np.asarray(x, dtype=np.float64)
        flat = x.reshape(x.shape[0], -1) if x.ndim > 2 else np.atleast_2d(x)
        recon = self.inverse_transform(self.transform(flat))
        num = float(np.sum((flat - recon) ** 2))
        den = float(np.sum(flat * flat))
        return num / den if den > 0 else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SketchPCA(n_components={self.n_components}, d={self.d})"

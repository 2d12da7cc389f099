"""Numerical linear-algebra substrate for the ARAMS sketching library.

This subpackage provides the low-level building blocks the sketching core
relies on:

- :mod:`repro.linalg.random_matrices` — random orthogonal matrices
  (Genz 2000, via QR of a Gaussian matrix) and structured perturbations,
  used to assemble synthetic datasets with prescribed singular spectra.
- :mod:`repro.linalg.norms` — low-memory Frobenius-norm and
  reconstruction-error estimators: the random-matrix-multiplication
  estimator the paper uses (Bujanovic & Kressner 2021), plus the
  Hutchinson, Hutch++ and GKL estimators the paper cites as future work.
- :mod:`repro.linalg.svd` — thin/truncated SVD wrappers, the
  Frequent-Directions shrinkage step, and the FD rotation kernels
  (thin-SVD and Gram-domain fast path), implemented once so every
  sketcher shares the same numerically careful code path.
"""

from repro.linalg.random_matrices import (
    haar_orthogonal,
    perturbed_orthogonal,
    matrix_with_spectrum,
)
from repro.linalg.norms import (
    frobenius_estimate_gaussian,
    hutchinson_trace,
    hutchpp_trace,
    gkl_norm_estimate,
    residual_fro_norm_estimate,
)
from repro.linalg.svd import (
    ROTATION_KERNELS,
    RotationResult,
    RotationWorkspace,
    fd_rotate,
    fd_shrink,
    select_rotation_kernel,
    sketch_spectrum,
    thin_svd,
    truncated_svd,
)

__all__ = [
    "haar_orthogonal",
    "perturbed_orthogonal",
    "matrix_with_spectrum",
    "frobenius_estimate_gaussian",
    "hutchinson_trace",
    "hutchpp_trace",
    "gkl_norm_estimate",
    "residual_fro_norm_estimate",
    "thin_svd",
    "truncated_svd",
    "sketch_spectrum",
    "fd_shrink",
    "fd_rotate",
    "select_rotation_kernel",
    "RotationResult",
    "RotationWorkspace",
    "ROTATION_KERNELS",
]

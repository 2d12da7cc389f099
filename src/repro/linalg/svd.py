"""SVD wrappers, the FD shrinkage step, and the rotation kernels.

All sketchers share this code path so the numerically delicate pieces —
thin SVDs, clamping of tiny negative values under the square root, and
the choice of LAPACK driver — live in exactly one place.

Per the HPC guides: always request ``full_matrices=False`` (the full
``U`` of a ``2l x d`` buffer with ``d`` in the millions would be
catastrophic), prefer ``scipy.linalg`` (richer driver selection,
``check_finite=False`` skips a full array scan per call), and fall back
to the more robust ``gesvd`` driver if ``gesdd`` fails to converge.

Rotation kernels
----------------
The FD rotation (shrink a filled ``m x d`` buffer back to ``ell`` rows)
is the dominant cost of the whole pipeline, and :func:`fd_rotate` is its
single entry point.  Two kernels implement it:

- ``"svd"`` — the textbook path: thin SVD of the buffer, then
  :func:`fd_shrink`.  ``O(m^2 d)`` with the large LAPACK ``gesdd``
  constant.
- ``"gram"`` — the short-and-wide fast path (Tropp et al.'s Gram/one-pass
  trick applied to the FD shrink): form ``G = B B^T`` (``m x m``),
  eigendecompose it, and rebuild the shrunk rows as
  ``diag(shrunk_s / s) W^T B`` without ever running an SVD on the wide
  buffer.  ``O(m^2 d + m^3)`` with small BLAS-3 constants — a large win
  in the LCLS detector regime where ``m = 2l << d``.

``kernel="auto"`` picks between them with
:func:`select_rotation_kernel`, a pure function of the buffer shape (so
modelled costs in :class:`repro.parallel.cost_model.ComputeCostModel`
stay bit-reproducible).  The Gram path squares the condition number, so
when the kept block of the Gram spectrum is numerically rank-deficient
it falls back to the exact SVD; every kernel decision is counted in the
default metric registry under ``sketch_rotation_kernel_total``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.linalg

from repro.obs.registry import get_default_registry

__all__ = [
    "thin_svd",
    "truncated_svd",
    "sketch_spectrum",
    "fd_shrink",
    "fd_rotate",
    "select_rotation_kernel",
    "RotationResult",
    "RotationWorkspace",
    "ROTATION_KERNELS",
    "GRAM_MIN_ASPECT",
    "KERNEL_COUNTER",
]

#: Valid values for every ``rotation_kernel`` / ``kernel`` argument.
ROTATION_KERNELS = ("auto", "svd", "gram")

#: ``auto`` selects the Gram kernel when ``d >= GRAM_MIN_ASPECT * m``.
#: Below this aspect ratio the ``m x m`` eigendecomposition and the two
#: ``m^2 d`` products stop paying for themselves against one ``gesdd``.
GRAM_MIN_ASPECT = 4.0

#: Counter (in the default registry) labelled by kernel decision:
#: ``svd``, ``gram``, or ``gram_fallback`` (Gram attempted, conditioning
#: fallback ran the exact SVD instead).
KERNEL_COUNTER = "sketch_rotation_kernel_total"


def thin_svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD ``a = U @ diag(s) @ Vt`` with a robust driver fallback.

    Parameters
    ----------
    a:
        ``m x n`` dense matrix.

    Returns
    -------
    (U, s, Vt):
        ``U`` is ``m x k``, ``s`` length ``k``, ``Vt`` is ``k x n`` with
        ``k = min(m, n)``; singular values nonincreasing.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    try:
        return scipy.linalg.svd(
            a, full_matrices=False, check_finite=False, lapack_driver="gesdd"
        )
    except np.linalg.LinAlgError:
        # gesdd occasionally fails to converge on ill-conditioned input;
        # gesvd is slower but essentially never fails.
        return scipy.linalg.svd(
            a, full_matrices=False, check_finite=False, lapack_driver="gesvd"
        )


def truncated_svd(
    a: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank-``k`` truncated SVD of a dense matrix.

    Computes the thin SVD and keeps the leading ``k`` triplets.  For the
    buffer sizes the sketchers use (``2l x d`` with ``2l << d``) a full
    thin SVD is already the cheap direction, so no iterative method is
    needed.

    Parameters
    ----------
    a:
        ``m x n`` dense matrix.
    k:
        Number of leading singular triplets to keep;
        ``1 <= k <= min(m, n)``.

    Returns
    -------
    (U_k, s_k, Vt_k)
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    u, s, vt = thin_svd(a)
    if k > s.shape[0]:
        raise ValueError(
            f"k={k} exceeds the number of singular values {s.shape[0]}"
        )
    return u[:, :k], s[:k], vt[:k, :]


def sketch_spectrum(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values + right singular rows ``(s, Vt)`` of a sketch.

    Snapshot publication (on the ingest clock) and
    :class:`repro.embed.pca.SketchPCA` both read the spectrum here, so
    neither runs a fresh factorization when the sketch's own structure
    already provides one.  A finalized FD sketch IS ``diag(s) @ Vt`` —
    both rotation kernels emit exactly that form (Ghashami et al.) — so
    its rows are orthogonal, row norms are the singular values, and
    normalizing rows yields ``Vt`` directly, an ``O(l' d)`` read.  The
    form is verified before use (non-increasing norms plus
    consecutive-row orthogonality); inputs that fail it — e.g. a
    not-yet-rotated buffer of raw rows — take the Gram path (``eigh`` of
    the ``l' x l'`` Gram matrix), which itself falls back to the exact
    SVD when ``eigh`` fails.  Directions at the Gram noise floor
    (``l' * eps * lam_max``) are dropped: they are numerically
    rank-deficient, and the exact SVD would serve noise there too.  An
    all-zero ``b`` yields empty ``(s, Vt)``.
    """
    m = b.shape[0]
    norms = np.linalg.norm(b, axis=1)
    if m and norms[0] > 0:
        ordered = bool(np.all(np.diff(norms) <= 1e-9 * norms[0]))
        cross = np.einsum("ij,ij->i", b[:-1], b[1:])
        orthogonal = bool(
            np.all(np.abs(cross) <= 1e-8 * norms[:-1] * norms[1:] + 1e-30)
        )
        if ordered and orthogonal and norms[-1] > 0:
            return norms, b / norms[:, np.newaxis]
    gram = b @ b.T
    try:
        lam, w = scipy.linalg.eigh(gram, overwrite_a=True, check_finite=False)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError):
        lam = None
    if lam is None or not np.all(np.isfinite(lam)):
        _, s, vt = thin_svd(b)
        return s, vt
    lam = lam[::-1]
    w = w[:, ::-1]
    top = float(lam[0])
    if top <= 0.0:
        return np.zeros(0), np.zeros((0, b.shape[1]))
    keep = int(np.sum(lam > m * np.finfo(np.float64).eps * top))
    if keep == 0:
        _, s, vt = thin_svd(b)
        return s, vt
    s = np.sqrt(np.maximum(lam[:keep], 0.0))
    vt = (w[:, :keep].T @ b) / s[:, np.newaxis]
    return s, vt


def fd_shrink(
    s: np.ndarray, vt: np.ndarray, ell: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Frequent-Directions shrinkage: damp all directions by ``s[ell-1]^2``.

    Given the SVD factors of a (possibly over-full) buffer, subtract the
    squared ``ell``-th singular value from every squared singular value,
    clamp at zero, and rebuild the rows as ``sqrt(s^2 - delta) * Vt``.
    The output has at most ``ell - 1`` nonzero rows (the ``ell``-th
    direction is annihilated exactly), which is what frees buffer space
    in the FastFD iteration.

    Parameters
    ----------
    s:
        Nonincreasing singular values of the buffer (length ``m``).
    vt:
        Corresponding ``m x d`` right factor.
    ell:
        Sketch size: the shrink threshold is ``delta = s[ell-1]**2``.
        When the buffer holds fewer than ``ell`` directions, ``delta``
        is treated as 0 (nothing to shrink; the paper's indicator
        ``I_l`` convention, which assumes missing diagonal values are
        zero).
    out:
        Optional preallocated ``ell x d`` destination (must not alias
        ``vt``); allocated when omitted.

    Returns
    -------
    numpy.ndarray
        ``ell x d`` shrunk sketch rows, zero-padded at the bottom.
    """
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    m, d = vt.shape
    if s.shape[0] != m:
        raise ValueError(f"s has length {s.shape[0]} but vt has {m} rows")
    delta = float(s[ell - 1] ** 2) if m >= ell else 0.0
    keep = min(m, ell)
    # Clamp: floating-point cancellation can make s^2 - delta slightly
    # negative for directions at the threshold.
    shrunk = np.sqrt(np.maximum(s[:keep] ** 2 - delta, 0.0))
    if out is None:
        out = np.zeros((ell, d), dtype=np.float64)
    else:
        if out.shape != (ell, d):
            raise ValueError(f"out has shape {out.shape}, expected {(ell, d)}")
        out[keep:] = 0.0
    np.multiply(shrunk[:, np.newaxis], vt[:keep, :], out=out[:keep, :])
    return out


# ----------------------------------------------------------------------
# Rotation kernels
# ----------------------------------------------------------------------
class RotationWorkspace:
    """Preallocated scratch for Gram-domain rotations.

    Holds the two buffers whose size scales with the data: the ``m x m``
    Gram matrix and the ``m x d`` projection ``W^T B``.  A sketcher that
    owns one of these does *zero* ``d``-scale allocations per
    steady-state Gram rotation (the eigendecomposition still allocates
    ``m``-scale arrays internally, which is negligible for ``m << d``).

    Parameters
    ----------
    rows:
        Maximum buffer row count the workspace must accommodate
        (``2 * ell`` for a FastFD sketcher).
    d:
        Feature dimension.
    """

    __slots__ = ("rows", "proj", "_gram_flat")

    def __init__(self, rows: int, d: int):
        if rows < 1 or d < 1:
            raise ValueError(f"workspace needs rows >= 1 and d >= 1, got ({rows}, {d})")
        self.rows = int(rows)
        # Flat backing store so any m <= rows reshapes to a C-contiguous
        # m x m view (np.dot requires a contiguous out array).
        self._gram_flat = np.empty(self.rows * self.rows, dtype=np.float64)
        self.proj = np.empty((self.rows, d), dtype=np.float64)

    def gram_view(self, m: int) -> np.ndarray:
        """Contiguous ``m x m`` Gram scratch view (``m <= rows``)."""
        return self._gram_flat[: m * m].reshape(m, m)

    def fits(self, m: int, d: int) -> bool:
        """Whether an ``m x d`` buffer can rotate inside this workspace."""
        return m <= self.rows and d == self.proj.shape[1]


class RotationResult(NamedTuple):
    """Outcome of one FD rotation (see :func:`fd_rotate`).

    Attributes
    ----------
    sketch:
        ``ell x d`` shrunk sketch rows (the ``out`` array when one was
        supplied).
    s:
        Nonincreasing singular values of the *input* buffer — all of
        them, so callers can read the shrink threshold ``s[ell-1]``.
    vt_top:
        Top ``min(m, ell)`` right-singular rows of the input buffer
        (the rank-adaptation basis), or ``None`` unless requested via
        ``need_basis``.
    kernel:
        What actually ran: ``"svd"``, ``"gram"``, ``"gram_fallback"``
        (Gram attempted, exact SVD used), or ``"empty"`` (no rows).
    """

    sketch: np.ndarray
    s: np.ndarray
    vt_top: np.ndarray | None
    kernel: str


def select_rotation_kernel(m: int, n: int) -> str:
    """Crossover heuristic: which kernel ``auto`` picks for ``m x n``.

    A pure function of the shape — never of the data — so flop-modelled
    virtual clocks (chaos replays) price rotations identically on every
    run.  Returns ``"gram"`` for short-and-wide buffers
    (``n >= GRAM_MIN_ASPECT * m``), ``"svd"`` otherwise.
    """
    if m >= 2 and n >= GRAM_MIN_ASPECT * m:
        return "gram"
    return "svd"


# Kernel-decision counters, cached against the default registry so the
# steady-state cost is one identity check and one dict hit per rotation.
_counter_cache: dict[str, object] = {}
_counter_registry: object | None = None


def _count_kernel(kind: str) -> None:
    global _counter_registry
    reg = get_default_registry()
    if reg is not _counter_registry:
        _counter_cache.clear()
        _counter_registry = reg
    counter = _counter_cache.get(kind)
    if counter is None:
        counter = reg.counter(
            KERNEL_COUNTER,
            labels={"kernel": kind},
            help="FD rotations by kernel decision",
        )
        _counter_cache[kind] = counter
    counter.inc()


def _column_signs(a: np.ndarray) -> np.ndarray:
    """Canonical per-column signs: largest-|entry| component made positive.

    The SVD and the Gram eigendecomposition agree on singular values and
    (well-separated) singular subspaces but pick left-vector signs
    arbitrarily, so both rotation kernels canonicalize through the
    ``m``-length left factor — making their sketches match entry-wise,
    not just up to a per-row sign.
    """
    if a.shape[1] == 0:
        return np.ones(0, dtype=np.float64)
    idx = np.argmax(np.abs(a), axis=0)
    vals = a[idx, np.arange(a.shape[1])]
    return np.where(vals < 0.0, -1.0, 1.0)


def _gram_rotate(
    b: np.ndarray,
    ell: int,
    workspace: RotationWorkspace | None,
    out: np.ndarray,
    need_basis: bool,
) -> RotationResult | None:
    """Gram-domain rotation; ``None`` signals the conditioning fallback.

    With ``G = B B^T = W diag(lam) W^T`` (eigenvalues descending), the
    thin SVD of ``B`` is ``s = sqrt(lam)`` and ``Vt = diag(1/s) W^T B``,
    so the shrunk sketch is ``diag(sqrt(lam - delta) / s) W^T B`` — two
    BLAS-3 products of size ``m^2 d`` plus one ``m x m``
    eigendecomposition.  The squaring costs precision: when the kept
    block of ``lam`` dips to the eigensolver's noise floor the
    recovered singular vectors are unreliable, so we decline and let
    :func:`fd_rotate` run the exact SVD instead.
    """
    m, d = b.shape
    if workspace is not None and workspace.fits(m, d):
        gram = workspace.gram_view(m)
        proj = workspace.proj
    else:
        gram = np.empty((m, m), dtype=np.float64)
        proj = np.empty((m, d), dtype=np.float64)
    np.dot(b, b.T, out=gram)
    try:
        lam, w = scipy.linalg.eigh(gram, overwrite_a=True, check_finite=False)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError):
        return None
    if not np.all(np.isfinite(lam)):
        return None
    lam = lam[::-1]  # descending, matching SVD convention
    w = w[:, ::-1]
    top = float(lam[0])
    keep = min(m, ell)
    if top <= 0.0:
        # All-zero buffer: the rotation of nothing is nothing.
        out[:] = 0.0
        vt_top = np.zeros((keep, d), dtype=np.float64) if need_basis else None
        return RotationResult(out, np.zeros(m, dtype=np.float64), vt_top, "gram")
    # Conditioning guard: eigh resolves lam only to ~eps * lam[0], so a
    # kept block reaching that floor is numerically rank-deficient in
    # the Gram domain and its eigenvectors are unreliable.
    noise_floor = m * np.finfo(np.float64).eps * top
    if lam[keep - 1] <= noise_floor:
        return None
    lam = np.maximum(lam, 0.0)
    s = np.sqrt(lam)
    delta = float(lam[ell - 1]) if m >= ell else 0.0
    # proj = (W^T B)[:keep]; only the kept directions are rebuilt.
    np.dot(w[:, :keep].T, b, out=proj[:keep])
    signs = _column_signs(w[:, :keep])
    vt_top = proj[:keep] * (signs / s[:keep])[:, np.newaxis] if need_basis else None
    # Shrink in the Gram domain: subtract delta from lam, never from s^2
    # (avoids a lossy square/sqrt round-trip).
    coef = signs * np.sqrt(np.maximum(lam[:keep] - delta, 0.0)) / s[:keep]
    np.multiply(proj[:keep], coef[:, np.newaxis], out=out[:keep])
    out[keep:] = 0.0
    return RotationResult(out, s, vt_top, "gram")


def fd_rotate(
    b: np.ndarray,
    ell: int,
    kernel: str = "auto",
    workspace: RotationWorkspace | None = None,
    out: np.ndarray | None = None,
    need_basis: bool = False,
) -> RotationResult:
    """One FD rotation: shrink an ``m x d`` buffer to ``ell`` sketch rows.

    The single entry point every sketcher and merge goes through, so the
    kernel choice (and its metrics) is made in exactly one place.

    Parameters
    ----------
    b:
        ``m x d`` filled buffer (``m`` may be smaller or larger than
        ``ell``; ``m = 0`` yields an all-zero sketch).
    ell:
        Output sketch size.
    kernel:
        ``"auto"`` (shape heuristic, see :func:`select_rotation_kernel`),
        ``"svd"``, or ``"gram"``.  A forced ``"gram"`` still falls back
        to the exact SVD when the Gram spectrum is numerically
        rank-deficient.
    workspace:
        Optional :class:`RotationWorkspace`; ignored (with a local
        allocation) when it does not fit ``b``.
    out:
        Optional preallocated ``ell x d`` destination.  ``out`` may
        overlap ``b`` row-wise (e.g. the sketcher's own buffer): both
        kernels fully consume ``b`` before writing ``out``.
    need_basis:
        Also return the top ``min(m, ell)`` right-singular rows (the
        rank-adaptation basis).  Costs one extra ``keep x d`` array on
        the Gram path.

    Returns
    -------
    RotationResult
    """
    if kernel not in ROTATION_KERNELS:
        raise ValueError(
            f"unknown rotation kernel {kernel!r}; expected one of {ROTATION_KERNELS}"
        )
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    b = np.ascontiguousarray(b, dtype=np.float64)
    if b.ndim != 2:
        raise ValueError(f"buffer must be 2-D, got shape {b.shape}")
    m, d = b.shape
    if out is None:
        out = np.zeros((ell, d), dtype=np.float64)
    elif out.shape != (ell, d):
        raise ValueError(f"out has shape {out.shape}, expected {(ell, d)}")
    if m == 0:
        out[:] = 0.0
        vt_top = np.zeros((0, d), dtype=np.float64) if need_basis else None
        return RotationResult(out, np.zeros(0, dtype=np.float64), vt_top, "empty")

    chosen = select_rotation_kernel(m, d) if kernel == "auto" else kernel
    used = "svd"
    if chosen == "gram":
        result = _gram_rotate(b, ell, workspace, out, need_basis)
        if result is not None:
            _count_kernel("gram")
            return result
        used = "gram_fallback"
    _count_kernel(used)
    u, s, vt = thin_svd(b)
    vt *= _column_signs(u)[:, np.newaxis]
    fd_shrink(s, vt, ell, out=out)
    keep = min(m, ell)
    vt_top = vt[:keep].copy() if need_basis else None
    return RotationResult(out, s, vt_top, used)

"""Image preprocessing for beam-profile and diffraction monitoring.

The paper (Section VI) applies "thresholding by intensity, intensity
normalization, and centering to ensure that the primary shape of the
beam profile and its distribution of intensity were the focus of the
analysis", and crops large-area detector frames before sketching.  Each
step is a pure function over an ``(n, h, w)`` image stack; the
:class:`Preprocessor` chains them in the configured order and flattens
the result into sketcher-ready rows.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "repair_dead_pixels",
    "threshold_intensity",
    "normalize_intensity",
    "center_images",
    "center_shifts",
    "shift_images_into",
    "crop_images",
    "Preprocessor",
]


def _check_stack(images: np.ndarray) -> np.ndarray:
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 3:
        raise ValueError(f"expected (n, h, w) image stack, got ndim={images.ndim}")
    return images


def threshold_intensity(
    images: np.ndarray,
    threshold: float,
    mode: str = "absolute",
) -> np.ndarray:
    """Zero all pixels below a threshold (suppresses detector background).

    Parameters
    ----------
    images:
        ``(n, h, w)`` stack.
    threshold:
        Cut level.  In ``"absolute"`` mode, a raw pixel value; in
        ``"quantile"`` mode, a per-image quantile in [0, 1] (e.g. 0.5
        zeroes the dimmer half of each frame).
    mode:
        ``"absolute"`` or ``"quantile"``.

    Returns
    -------
    numpy.ndarray
        New stack with sub-threshold pixels set to zero.
    """
    images = _check_stack(images)
    if mode == "absolute":
        cut = np.full(images.shape[0], float(threshold))
    elif mode == "quantile":
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"quantile threshold must be in [0, 1], got {threshold}")
        cut = np.quantile(images.reshape(images.shape[0], -1), threshold, axis=1)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    out = images.copy()
    out[out < cut[:, None, None]] = 0.0
    return out


def normalize_intensity(images: np.ndarray, mode: str = "sum") -> np.ndarray:
    """Normalize each frame's intensity (removes pulse-energy jitter).

    Parameters
    ----------
    images:
        ``(n, h, w)`` stack.
    mode:
        ``"sum"`` — each frame integrates to 1 (the natural choice for
        beam profiles, where total pulse energy is a nuisance factor);
        ``"max"`` — each frame's peak is 1;
        ``"l2"`` — each flattened frame has unit Euclidean norm (the
        natural choice ahead of a Gram-preserving sketch).

    Returns
    -------
    numpy.ndarray
        New normalized stack; frames whose scale is zero or non-finite
        (all-zero frames, unrepaired Inf pixels, a constant frame whose
        sum cancels) are left untouched rather than divided into NaNs —
        a silent NaN row would poison the Gram sketch irrecoverably.
    """
    images = _check_stack(images)
    flat = images.reshape(images.shape[0], -1)
    if mode == "sum":
        scale = flat.sum(axis=1)
    elif mode == "max":
        scale = flat.max(axis=1)
    elif mode == "l2":
        scale = np.sqrt(np.einsum("ij,ij->i", flat, flat))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    scale = np.where((scale == 0) | ~np.isfinite(scale), 1.0, scale)
    return images / scale[:, None, None]


def center_shifts(
    images: np.ndarray,
    *,
    assume_nonneg: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame integer ``(dy, dx)`` recentering shifts, vectorized.

    Computes every frame's intensity center of mass with whole-stack
    reductions (no per-frame Python loop) and returns the circular-shift
    amounts that move it to the geometric center.  Frames with zero or
    non-finite mass have no meaningful center (an unrepaired Inf pixel
    would turn the centroid into NaN); their shift is zero, which makes
    the subsequent roll a pure passthrough.

    ``assume_nonneg=True`` skips the negative-pixel clip (a full-stack
    copy) when the caller has already certified ``images >= 0`` — the
    fused ingest engine gets this for free from the guard's min
    statistics.  Clipping a non-negative stack is the identity, so the
    hint never changes the result, it only removes a pass.
    """
    n, h, w = images.shape
    img = images if assume_nonneg else np.clip(images, 0.0, None)
    row_mass = img.sum(axis=2)  # (n, h)
    col_mass = img.sum(axis=1)  # (n, w)
    total = row_mass.sum(axis=1)
    ys = np.arange(h, dtype=np.float64)
    xs = np.arange(w, dtype=np.float64)
    # einsum (not BLAS matvec) so each frame's centroid is accumulated
    # identically no matter how many frames share the stack — the fused
    # engine processes the same frames in chunks and must agree bitwise.
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        cy = np.einsum("nh,h->n", row_mass, ys) / total
        cx = np.einsum("nw,w->n", col_mass, xs) / total
    ok = (total != 0) & np.isfinite(total) & np.isfinite(cy) & np.isfinite(cx)
    cy_target = (h - 1) / 2.0
    cx_target = (w - 1) / 2.0
    dy = np.zeros(n, dtype=np.int64)
    dx = np.zeros(n, dtype=np.int64)
    # np.rint matches the former int(round(...)) — both round half to even.
    dy[ok] = np.rint(cy_target - cy[ok]).astype(np.int64)
    dx[ok] = np.rint(cx_target - cx[ok]).astype(np.int64)
    return dy, dx


def shift_images_into(
    out: np.ndarray,
    images: np.ndarray,
    dy: np.ndarray,
    dx: np.ndarray,
) -> None:
    """Circularly shift each frame by its ``(dy, dx)`` into ``out``.

    Each roll is four block slice copies written straight into ``out``
    (no intermediate rolled copy, unlike ``np.roll``); the result is
    bit-identical to ``np.roll`` since a roll is a pure permutation of
    pixels.  ``out`` may be any writable ``(n, h, w)`` view — the fused
    ingest engine passes a reshaped window of the sketch buffer so
    centered frames are written exactly once, directly where the
    sketcher consumes them.
    """
    n, h, w = images.shape
    for i in range(n):
        a = int(dy[i]) % h
        b = int(dx[i]) % w
        src = images[i]
        dst = out[i]
        dst[a:, b:] = src[: h - a, : w - b]
        dst[a:, :b] = src[: h - a, w - b :]
        dst[:a, b:] = src[h - a :, : w - b]
        dst[:a, :b] = src[h - a :, w - b :]


def center_images(images: np.ndarray) -> np.ndarray:
    """Shift each frame so its intensity center of mass is at the center.

    Uses integer circular shifts, which preserve total intensity exactly
    and avoid interpolation artefacts; sub-pixel centering is
    deliberately not attempted since the sketch operates on pixel-space
    features.  Centroids are computed with whole-stack reductions and
    the shifts applied as one batched gather — no per-frame Python loop.
    """
    images = _check_stack(images)
    out = np.empty_like(images)
    dy, dx = center_shifts(images)
    shift_images_into(out, images, dy, dx)
    return out


def crop_images(images: np.ndarray, size: tuple[int, int]) -> np.ndarray:
    """Center-crop each frame to ``size`` (cuts dead detector borders)."""
    images = _check_stack(images)
    n, h, w = images.shape
    ch, cw = size
    if not (0 < ch <= h and 0 < cw <= w):
        raise ValueError(f"crop size {size} incompatible with frames of ({h}, {w})")
    top = (h - ch) // 2
    left = (w - cw) // 2
    return images[:, top : top + ch, left : left + cw].copy()


@dataclass(frozen=True)
class Preprocessor:
    """Configurable preprocessing chain, applied in the paper's order.

    Attributes
    ----------
    threshold:
        Intensity cut (``None`` disables); interpreted per
        ``threshold_mode``.
    threshold_mode:
        ``"absolute"`` or ``"quantile"``.
    normalize:
        ``"sum"``, ``"max"``, ``"l2"``, or ``None``.
    center:
        Recenter frames on their center of mass.
    crop:
        Optional ``(h, w)`` center-crop applied first.
    repair:
        Replace NaN/Inf dead pixels with zero before anything else
        (and clamp hot pixels when ``hot_sigma`` is set).
    hot_sigma:
        Per-frame hot-pixel clamp threshold in standard deviations;
        ``None`` disables clamping.

    Examples
    --------
    >>> import numpy as np
    >>> pre = Preprocessor(threshold=0.05, normalize="l2", center=True)
    >>> rows = pre.apply_flat(np.random.default_rng(0).random((4, 16, 16)))
    >>> rows.shape
    (4, 256)
    """

    threshold: float | None = None
    threshold_mode: str = "absolute"
    normalize: str | None = "l2"
    center: bool = True
    crop: tuple[int, int] | None = None
    repair: bool = True
    hot_sigma: float | None = None

    def apply(self, images: np.ndarray) -> np.ndarray:
        """Run the configured chain; returns a processed (n, h, w) stack."""
        images = _check_stack(images)
        if self.repair:
            images = repair_dead_pixels(images, hot_sigma=self.hot_sigma)
        if self.crop is not None:
            images = crop_images(images, self.crop)
        if self.threshold is not None:
            images = threshold_intensity(images, self.threshold, self.threshold_mode)
        if self.center:
            images = center_images(images)
        if self.normalize is not None:
            images = normalize_intensity(images, self.normalize)
        return images

    def apply_flat(self, images: np.ndarray) -> np.ndarray:
        """Run the chain and flatten frames into sketcher rows."""
        processed = self.apply(images)
        return processed.reshape(processed.shape[0], -1)


def repair_dead_pixels(
    images: np.ndarray,
    nan_fill: float = 0.0,
    hot_sigma: float | None = None,
) -> np.ndarray:
    """Repair detector artefacts: NaN/Inf dead pixels and hot pixels.

    Real large-area detectors have dead pixels (read out as NaN after
    calibration) and sporadic hot pixels (cosmic hits, stuck ADCs) that
    would otherwise dominate an L2-normalized frame and corrupt the
    sketch.

    Parameters
    ----------
    images:
        ``(n, h, w)`` stack.
    nan_fill:
        Value substituted for NaN/Inf pixels.
    hot_sigma:
        If given, pixels more than ``hot_sigma`` standard deviations
        above their own frame's median are clamped to that threshold
        (median/std computed per frame over finite pixels of the
        *original* frame, so dead pixels never skew the statistics).
        ``None`` disables hot-pixel clamping.

    Returns
    -------
    numpy.ndarray
        Repaired copy of the stack (always finite).
    """
    images = _check_stack(images)
    out = images.copy()
    bad = ~np.isfinite(out)
    any_bad = bool(np.any(bad))
    if any_bad:
        out[bad] = nan_fill
    if hot_sigma is not None:
        if hot_sigma <= 0:
            raise ValueError(f"hot_sigma must be positive, got {hot_sigma}")
        flat = out.reshape(out.shape[0], -1)
        # Robust per-frame statistics over the finite pixels of the
        # ORIGINAL frame: computing them after the nan_fill substitution
        # would let a swath of dead pixels drag the center down and
        # over-clamp legitimately bright frames.
        if any_bad:
            masked = np.where(
                bad.reshape(bad.shape[0], -1),
                np.nan,
                images.reshape(images.shape[0], -1),
            )
            # All-NaN frames make nanmedian/nanstd warn before returning
            # NaN; that degenerate case is handled below.
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                med = np.nanmedian(masked, axis=1)
                std = np.nanstd(masked, axis=1)
        else:
            med = np.median(flat, axis=1)
            std = flat.std(axis=1)
        cap = med + hot_sigma * np.maximum(std, np.finfo(np.float64).tiny)
        # Frames with no finite pixels at all have no statistics; leave
        # them unclamped (they are already nan_fill everywhere).
        cap = np.where(np.isfinite(cap), cap, np.inf)
        np.minimum(flat, cap[:, None], out=flat)
    return out

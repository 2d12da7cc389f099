"""Fused single-pass ingest: preprocess → sketch in one sweep.

Run as separate whole-stack stages, the preprocessing chain
(``repair → crop → threshold → center → normalize``) materializes a
full float64 copy of every frame stack per step before the sketcher
sees a single row.  For the paper's online deployment target that
memory traffic — not FLOPs — dominates the per-frame cost.

:class:`FusedIngest` is the ingest path of
:class:`~repro.pipeline.monitor.MonitoringPipeline`.  After the guard
has screened a batch, :meth:`FusedIngest.sweep` runs the whole chain in
one cache-friendly pass per small chunk of frames:

- the guard's certificate by-products travel with the batch: the
  finiteness certificate lets the sketcher skip its own NaN scan, the
  ``min >= 0`` certificate lets centering skip the negative-pixel clip,
  and on the float32 tier the guard's squared-norm reduction directly
  feeds ``normalize(mode="l2")`` without a second reduction;
- the centering gather writes each processed frame **exactly once**,
  into a fresh ``(n, d)`` row block that the caller owns (the pipeline
  retains it as is);
- the sketch consumes that block with one ``partial_fit`` per batch —
  the priority sampler draws on whole-batch boundaries — without
  re-validating what the guard already certified.

Two precision tiers, selected by ``ARAMSConfig.precision``:

``"float64"`` (default)
    Every pass runs in double precision.  The resulting sketch state is
    **bit-identical** to the staged chain (guard → ``Preprocessor.apply_flat``
    → ``partial_fit``) with the same batch boundaries — locked by the
    hypothesis suite in ``tests/test_ingest_fused.py``, which keeps the
    staged chain as its oracle.

``"float32"``
    Frame math (repair/threshold/centroids) runs in single precision —
    half the memory traffic — and each frame is upcast exactly once as
    the centering gather writes it into the float64 row block.
    Sketch accumulation itself stays float64.  The ~1e-7 relative
    per-pixel error is orders of magnitude below the FD guarantee
    ``||A^T A - B^T B||_2 <= ||A||_F^2 / ell`` and is gated by the FD
    error-bound tests.

Observability: the sweep runs under a ``consume.fused`` span, per-stage
seconds feed the ``consume.preprocess`` / ``consume.sketch`` histograms
(so ``preprocess_time``/``sketch_time`` and throughput dashboards read
the split), finer-grained ``fused.*`` histograms split the sweep, and
counters account frames and chunks.
"""

from __future__ import annotations

import numpy as np

from repro.core.arams import ARAMS
from repro.obs.clock import now
from repro.obs.spans import SPAN_HISTOGRAM
from repro.pipeline.preprocess import (
    Preprocessor,
    center_shifts,
    repair_dead_pixels,
    shift_images_into,
)

__all__ = ["FusedIngest", "PRECISIONS"]

#: Frame-math precision tiers (see module docstring).
PRECISIONS = ("float64", "float32")

#: Chunk size in frames.  Large enough that per-chunk numpy dispatch
#: overhead is amortized, small enough that a chunk's scratch (two
#: frame-stack copies) stays cache-resident for typical LCLS frame
#: sizes.
_CHUNK = 128

_NONFINITE_MSG = (
    "rows contain NaN/Inf; repair detector frames first "
    "(see repro.pipeline.preprocess.repair_dead_pixels)"
)


class FusedIngest:
    """One-sweep preprocess + sketch engine.

    Parameters
    ----------
    preprocessor:
        Preprocessing chain; defaults to ``Preprocessor()``.
    registry:
        Metric registry for spans/counters; ``None`` uses the process
        default.
    precision:
        ``"float64"`` or ``"float32"`` frame math.
    """

    def __init__(
        self,
        preprocessor: Preprocessor | None = None,
        *,
        registry=None,
        precision: str = "float64",
    ):
        self.preprocessor = (
            preprocessor if preprocessor is not None else Preprocessor()
        )
        if registry is None:
            from repro.obs.registry import get_default_registry

            registry = get_default_registry()
        self.registry = registry
        if precision not in PRECISIONS:
            raise ValueError(
                f"precision must be one of {PRECISIONS}, got {precision!r}"
            )
        self.precision = str(precision)
        # Lifetime accounting (mirrored into registry counters).
        self.n_frames = 0
        self.n_chunks = 0
        labels = {"precision": self.precision}
        self._frames_counter = registry.counter(
            "fused_frames_total",
            labels=labels,
            help="Frames ingested by the fused sweep",
        )
        self._chunks_counter = registry.counter(
            "fused_chunks_total",
            labels=labels,
            help="Chunks processed by the fused sweep",
        )

    def sweep(
        self,
        stack: np.ndarray,
        sketcher: ARAMS,
        *,
        certified_finite: bool = False,
        nonneg: bool = False,
        norms: np.ndarray | None = None,
    ) -> np.ndarray:
        """Fused preprocess + sketch of an already-screened ``(n, h, w)`` stack.

        Parameters
        ----------
        stack:
            Accepted frames (pixel values untouched by the guard).
        sketcher:
            ARAMS front end receiving the rows.
        certified_finite:
            Every pixel is finite (a guard with
            ``max_nonfinite_fraction == 0`` certifies this).  Lets the
            sweep skip the NaN repair pass and the sketcher skip its
            finiteness scan.
        nonneg:
            Every pixel is ``>= 0`` (guard min statistics).  Lets
            centering skip the negative-pixel clip; clipping a
            non-negative stack is the identity, so the result is
            unchanged.
        norms:
            Per-frame L2 norms from the guard's certificate reduction.
            On the float32 tier with a norm-preserving chain these feed
            L2 normalization directly — no second reduction.

        Returns
        -------
        numpy.ndarray
            The preprocessed ``(n, d)`` float64 rows: a fresh block the
            caller owns.
        """
        pre = self.preprocessor
        n, h, w = (int(s) for s in stack.shape)
        ch, cw = pre.crop if pre.crop is not None else (h, w)
        if not (0 < ch <= h and 0 < cw <= w):
            raise ValueError(
                f"crop size {pre.crop} incompatible with frames of ({h}, {w})"
            )
        rows = np.empty((n, ch * cw), dtype=np.float64)
        if n == 0:
            return rows

        fast = self.precision == "float32"
        # Does repair actually have to touch pixels?  With a finiteness
        # certificate and no hot-pixel clamp it is the identity.
        repair_active = pre.repair and (
            not certified_finite or pre.hot_sigma is not None
        )
        # Frames reaching the sketch are finite iff certified or repaired;
        # otherwise the sweep runs the scan the sketcher would run —
        # upfront over the whole stack, so a corrupt batch raises before
        # anything is committed.
        must_check = not (certified_finite or pre.repair)
        if must_check and not bool(np.isfinite(stack).all()):
            raise ValueError(_NONFINITE_MSG)
        # Guard-norm reuse: only on the approximate tier (the exact tier
        # must reproduce the staged reduction order bit for bit), only
        # for L2, and only when no step between the guard and normalize
        # changes frame norms (centering is a permutation — norm-safe).
        use_guard_norms = (
            fast
            and norms is not None
            and pre.normalize == "l2"
            and pre.threshold is None
            and pre.crop is None
            and not repair_active
        )
        # Non-negativity survives repair (zero fill, downward clamp) and
        # thresholding; an absolute threshold >= 0 even establishes it.
        assume_nonneg = bool(nonneg) or (
            pre.threshold is not None
            and pre.threshold_mode == "absolute"
            and float(pre.threshold) >= 0.0
        )

        stage_seconds = {"prep": 0.0, "center": 0.0, "normalize": 0.0}
        with self.registry.span(
            "consume.fused", tags={"precision": self.precision}
        ):
            for pos in range(0, n, _CHUNK):
                k = min(_CHUNK, n - pos)
                self._process_chunk(
                    stack[pos : pos + k],
                    rows[pos : pos + k],
                    ch,
                    cw,
                    repair_active=repair_active,
                    assume_nonneg=assume_nonneg,
                    fast=fast,
                    guard_norms=(
                        norms[pos : pos + k] if use_guard_norms else None
                    ),
                    stage_seconds=stage_seconds,
                )
                self.n_chunks += 1
                self._chunks_counter.inc()
            t0 = now()
            # One partial_fit per batch preserves the priority sampler's
            # RNG draw boundaries; the upfront scan, guard certificate or
            # repair pass stands in for the sketcher's own finiteness
            # check.
            sketcher.partial_fit(rows, check_finite=False)
            stage_seconds["sketch"] = now() - t0
        self.n_frames += n
        self._frames_counter.inc(n)
        self._observe_stage_seconds(stage_seconds)
        return rows

    # ------------------------------------------------------------------
    # The sweep kernel
    # ------------------------------------------------------------------
    def _process_chunk(
        self,
        src: np.ndarray,
        dest: np.ndarray,
        ch: int,
        cw: int,
        *,
        repair_active: bool,
        assume_nonneg: bool,
        fast: bool,
        guard_norms: np.ndarray | None,
        stage_seconds: dict,
    ) -> None:
        """Preprocess ``src`` frames into the ``(k, ch*cw)`` row block ``dest``.

        ``dest`` is float64 and is written exactly once per pixel (by the
        centering gather / final copy); normalization divides it in
        place.  All work before that final write happens in the tier's
        dtype on chunk-local scratch.
        """
        pre = self.preprocessor
        k, h, w = src.shape
        t0 = now()
        dtype = np.float32 if fast else np.float64
        cur = src if src.dtype == dtype else src.astype(dtype)
        own = cur is not src  # may we mutate `cur` in place?

        if repair_active:
            if fast:
                # The robust-stats clamp is defined in float64 (see
                # repair_dead_pixels); run it exactly and drop back to
                # the fast tier after.  This only costs when repair has
                # real work to do — the certified hot path skips it.
                cur = repair_dead_pixels(
                    cur.astype(np.float64, copy=False), hot_sigma=pre.hot_sigma
                ).astype(np.float32)
            else:
                cur = repair_dead_pixels(cur, hot_sigma=pre.hot_sigma)
            own = True

        if pre.crop is not None:
            # A view into scratch we own is still safely mutable, so
            # cropping leaves ownership unchanged.
            top = (h - ch) // 2
            left = (w - cw) // 2
            cur = cur[:, top : top + ch, left : left + cw]

        if pre.threshold is not None:
            if pre.threshold_mode == "absolute":
                cut = np.full(k, float(pre.threshold), dtype=cur.dtype)
            elif pre.threshold_mode == "quantile":
                if not 0.0 <= float(pre.threshold) <= 1.0:
                    raise ValueError(
                        f"quantile threshold must be in [0, 1], got {pre.threshold}"
                    )
                cut = np.quantile(
                    cur.reshape(k, -1), float(pre.threshold), axis=1
                ).astype(cur.dtype, copy=False)
            else:
                raise ValueError(f"unknown mode {pre.threshold_mode!r}")
            if not own:
                cur = cur.copy()
                own = True
            cur[cur < cut[:, None, None]] = 0.0
        stage_seconds["prep"] += now() - t0

        dest3d = dest.reshape(k, ch, cw)
        scale_src = cur  # frame values whose norms equal the output norms
        t0 = now()
        if pre.center:
            dy, dx = center_shifts(cur, assume_nonneg=assume_nonneg)
            # The single write: gather each frame — shifted — into the
            # destination rows, upcasting on the float32 tier.
            shift_images_into(dest3d, cur, dy, dx)
        else:
            dest3d[...] = cur
        stage_seconds["center"] += now() - t0

        if pre.normalize is not None:
            t0 = now()
            if guard_norms is not None:
                scale = np.asarray(guard_norms, dtype=np.float64)
            elif fast:
                # Centering permutes pixels, so pre-shift float32 norms
                # equal post-shift norms; reading the small scratch
                # avoids a pass over the float64 destination.
                scale = self._scale_of(scale_src.reshape(k, -1), pre.normalize)
            else:
                # Exact tier: the staged chain reduces the *processed*
                # float64 frames; do the same on the destination rows.
                scale = self._scale_of(dest, pre.normalize)
            scale = np.where((scale == 0) | ~np.isfinite(scale), 1.0, scale)
            dest /= scale[:, None]
            stage_seconds["normalize"] += now() - t0

    @staticmethod
    def _scale_of(flat: np.ndarray, mode: str) -> np.ndarray:
        """Per-row normalization scale, matching ``normalize_intensity``."""
        if mode == "sum":
            return np.asarray(flat.sum(axis=1), dtype=np.float64)
        if mode == "max":
            return np.asarray(flat.max(axis=1), dtype=np.float64)
        if mode == "l2":
            flat = np.ascontiguousarray(flat)
            return np.asarray(
                np.sqrt(np.einsum("ij,ij->i", flat, flat)), dtype=np.float64
            )
        raise ValueError(f"unknown mode {mode!r}")

    def _observe_stage_seconds(self, stage_seconds: dict) -> None:
        """Feed per-stage sweep seconds into the span histograms.

        The prep/center/normalize stages accumulate into
        ``consume.preprocess`` and the sketch stage into
        ``consume.sketch`` — the histograms behind ``preprocess_time`` /
        ``sketch_time`` / throughput — while ``fused.*`` entries expose
        the finer split.
        """
        reg = self.registry
        prep = (
            stage_seconds["prep"]
            + stage_seconds["center"]
            + stage_seconds["normalize"]
        )
        reg.histogram(
            SPAN_HISTOGRAM,
            labels={"span": "consume.preprocess"},
            help="Wall-clock seconds per instrumented span",
        ).observe(prep)
        reg.histogram(
            SPAN_HISTOGRAM,
            labels={"span": "consume.sketch"},
            help="Wall-clock seconds per instrumented span",
        ).observe(stage_seconds["sketch"])
        for name, secs in stage_seconds.items():
            reg.histogram(
                SPAN_HISTOGRAM,
                labels={"span": f"fused.{name}"},
                help="Wall-clock seconds per instrumented span",
            ).observe(secs)

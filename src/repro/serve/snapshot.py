"""Immutable, epoch-numbered sketch snapshots published from the ingest loop.

Tropp et al. frame a sketch as a compact summary that answers downstream
queries *on the fly*; Liberty's Frequent Directions guarantee makes any
point-in-time read of the sketch a well-defined summary of the stream so
far.  A :class:`SketchSnapshot` materializes exactly that read: the
finalized sketch ``B`` (pending buffered rows folded in on a *copy* —
the live double buffer is never touched), its singular values and
right-singular basis, the explained-variance profile, a bounded latent
reservoir for outlier scoring, and the guard/health bookkeeping at
publication time.

Two properties are load-bearing and regression-tested:

1. **Publication never perturbs ingest.**  Publishing reads the sketch
   through the non-mutating ``peek`` path and samples retained data
   without consuming any RNG, so a stream ingested with publishing on is
   bit-identical — sketch bytes and all ingest counters — to the same
   stream with publishing off.
2. **Snapshots are immutable.**  Every array is a copy with the NumPy
   writeable flag cleared; queries pinned to an epoch return
   byte-identical answers no matter how far ingest has advanced since.

Publication cost is independent of the stream length: one finalization
rotation plus one spectrum read of the ``l x d`` sketch
(:func:`repro.linalg.svd.sketch_spectrum`) and an ``O(R * d)``
reservoir projection (``R`` bounded by ``reservoir_size``).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.linalg.svd import sketch_spectrum as _sketch_spectrum
from repro.obs.clock import now

__all__ = ["SketchSnapshot", "SnapshotStore"]


def _frozen(a: np.ndarray) -> np.ndarray:
    """An owned, read-only copy of ``a``."""
    out = np.array(a, dtype=np.float64, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class SketchSnapshot:
    """One immutable published view of the evolving sketch.

    Attributes
    ----------
    epoch:
        Monotonically increasing publication number (1-based); the pin
        clients use to get byte-identical answers across re-queries.
    sketch:
        ``(l', d)`` finalized compact sketch ``B`` (zero rows removed).
    singular_values:
        Singular values of ``sketch`` (length ``l'``).
    basis:
        ``(d, k)`` top right-singular directions — the projection basis.
    explained_variance_ratio:
        Energy fraction per basis column.
    reservoir:
        ``(R, k)`` latent coordinates of a deterministic sample of the
        retained stream, the reference population for ABOD outlier
        scoring (empty when the pipeline retained nothing).
    n_images, n_offered, ell, n_rotations:
        Ingest bookkeeping at publication time.
    health, guard:
        Plain-data summaries captured from the pipeline (may be empty).
    published_at:
        Wall-clock seconds (:func:`repro.obs.clock.now`) of publication.
    """

    epoch: int
    sketch: np.ndarray
    singular_values: np.ndarray
    basis: np.ndarray
    explained_variance_ratio: np.ndarray
    reservoir: np.ndarray
    n_images: int
    n_offered: int
    ell: int
    n_rotations: int
    health: dict = field(default_factory=dict)
    guard: dict | None = None
    published_at: float = 0.0

    @property
    def k(self) -> int:
        """Number of latent directions the snapshot serves."""
        return self.basis.shape[1]

    @property
    def d(self) -> int:
        """Feature dimension of the sketched stream."""
        return self.basis.shape[0]

    @property
    def nbytes(self) -> int:
        """Memory held by the snapshot's arrays."""
        return (
            self.sketch.nbytes
            + self.singular_values.nbytes
            + self.basis.nbytes
            + self.explained_variance_ratio.nbytes
            + self.reservoir.nbytes
        )

    def stats(self) -> dict:
        """Plain-data summary answered by the ``stats`` query kind."""
        return {
            "epoch": self.epoch,
            "n_images": self.n_images,
            "n_offered": self.n_offered,
            "ell": self.ell,
            "n_rotations": self.n_rotations,
            "k": self.k,
            "d": self.d,
            "singular_values": [float(s) for s in self.singular_values],
            "explained_variance_ratio": [
                float(v) for v in self.explained_variance_ratio
            ],
            "reservoir_rows": int(self.reservoir.shape[0]),
            "health": dict(self.health),
        }


class SnapshotStore:
    """Publishes and retains the last ``keep`` sketch snapshots.

    The store is the only coupling between the ingest loop and the
    query path: ingest calls :meth:`publish` (directly or through
    :meth:`repro.pipeline.monitor.MonitoringPipeline.attach_snapshot_store`),
    queries call :meth:`get`/:meth:`latest`.  Epochs are dense integers
    starting at 1; evicted epochs raise ``KeyError`` like unknown ones.

    Parameters
    ----------
    keep:
        Snapshots retained (oldest evicted beyond this).
    reservoir_size:
        Upper bound on the latent reservoir sampled per snapshot.
    n_latent:
        Cap on the published basis width (defaults to the pipeline's
        ``n_latent`` when publishing from a pipeline).
    registry:
        ``repro.obs`` registry for publication metrics.
    """

    def __init__(
        self,
        keep: int = 8,
        reservoir_size: int = 128,
        n_latent: int | None = None,
        registry=None,
    ):
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        if reservoir_size < 0:
            raise ValueError(f"reservoir_size must be >= 0, got {reservoir_size}")
        self.keep = int(keep)
        self.reservoir_size = int(reservoir_size)
        self.n_latent = None if n_latent is None else int(n_latent)
        if registry is None:
            from repro.obs.registry import get_default_registry

            registry = get_default_registry()
        self.registry = registry
        self._snapshots: OrderedDict[int, SketchSnapshot] = OrderedDict()
        self._next_epoch = 1
        self._published_counter = registry.counter(
            "serve_snapshots_published_total", help="Sketch snapshots published"
        )
        self._epoch_gauge = registry.gauge(
            "serve_snapshot_epoch", help="Epoch of the latest published snapshot"
        )
        self._bytes_gauge = registry.gauge(
            "serve_snapshot_bytes", help="Bytes held by retained snapshots"
        )

    # ------------------------------------------------------------------
    def publish(self, pipeline) -> SketchSnapshot:
        """Publish one snapshot of ``pipeline``'s current sketch state.

        ``pipeline`` is a
        :class:`~repro.pipeline.monitor.MonitoringPipeline` with at
        least one consumed batch.  The read path is strictly
        non-mutating for the stream: ``peek_compact_sketch`` finalizes
        pending rows on a cached copy, and the reservoir sample is a
        deterministic stride (no RNG draws).
        """
        sketcher = pipeline.sketcher  # raises before any data arrives
        fd = sketcher.sketcher
        with self.registry.span("serve.publish"):
            b = fd.peek_compact_sketch()
            if b.shape[0] == 0:
                raise RuntimeError("sketch has no nonzero rows; nothing to publish")
            s, vt = _sketch_spectrum(b)
            nonzero = int(np.sum(s > s[0] * 1e-12)) if s.shape[0] else 0
            if nonzero == 0:
                raise RuntimeError("sketch has no nonzero directions")
            k = nonzero
            if self.n_latent is not None:
                k = min(k, self.n_latent)
            n_latent = getattr(pipeline, "n_latent", None)
            if n_latent is not None:
                k = min(k, int(n_latent))
            basis = vt[:k].T
            s = s[:nonzero]
            # Exact ||B||_F^2 (tail energy included), no m x d temporary.
            energy = float(np.einsum("ij,ij->", b, b))
            evr = (s[:k] * s[:k]) / energy if energy > 0 else np.zeros(k)
            reservoir = pipeline.retained_latent_sample(
                basis, max_rows=self.reservoir_size
            )
            # peek_compact_sketch returns a fresh owned array; freezing it
            # in place skips an m x d copy on the publish hot path.
            b.flags.writeable = False
            snap = SketchSnapshot(
                epoch=self._next_epoch,
                sketch=b,
                singular_values=_frozen(s),
                basis=_frozen(basis),
                explained_variance_ratio=_frozen(evr),
                reservoir=_frozen(reservoir),
                n_images=int(pipeline.n_images),
                n_offered=int(pipeline.n_offered),
                ell=int(sketcher.ell),
                n_rotations=int(getattr(fd, "n_rotations", 0)),
                health=pipeline.health.summary(),
                guard=pipeline.guard.summary() if pipeline.guard is not None else None,
                published_at=now(),
            )
        self._next_epoch += 1
        self._snapshots[snap.epoch] = snap
        while len(self._snapshots) > self.keep:
            self._snapshots.popitem(last=False)
        self._published_counter.inc()
        self._epoch_gauge.set(snap.epoch)
        self._bytes_gauge.set(sum(s_.nbytes for s_ in self._snapshots.values()))
        return snap

    # ------------------------------------------------------------------
    def latest(self) -> SketchSnapshot:
        """The most recently published snapshot (``KeyError`` when none)."""
        if not self._snapshots:
            raise KeyError("no snapshot published yet")
        return next(reversed(self._snapshots.values()))

    def get(self, epoch: int | None = None) -> SketchSnapshot:
        """Snapshot for ``epoch`` (``None`` = latest); ``KeyError`` if gone."""
        if epoch is None:
            return self.latest()
        try:
            return self._snapshots[int(epoch)]
        except KeyError:
            raise KeyError(
                f"epoch {epoch} is not retained (have {self.epochs() or 'none'})"
            ) from None

    @property
    def published(self) -> int:
        """Total snapshots ever published (retained or evicted)."""
        return self._next_epoch - 1

    def epochs(self) -> list[int]:
        """Retained epochs, oldest first."""
        return list(self._snapshots)

    def __len__(self) -> int:
        return len(self._snapshots)

    def __contains__(self, epoch: int) -> bool:
        return int(epoch) in self._snapshots

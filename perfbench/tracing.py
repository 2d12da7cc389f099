"""Per-layer spans recorded from outside the program.

The benchmark never edits ``src/``.  Instead :class:`Tracer` wraps each
layer's public callables *where the caller looks them up* (for example
``repro.embed.umap.knn_graph`` rather than ``repro.embed.knn.knn_graph``)
and records a span around every call.  A span's self time is its
duration minus the time covered by its child spans, so the self times of
all spans in a traced region add up to the region's wall time.

Spans are aggregated in memory (self seconds and call count per span
name, plus which names fired in which workload phase); nothing is
written to disk.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

#: ``(module, attribute path, span name)`` for every wrapped callable.
#: A ``None`` span name means the name is resolved per call (see
#: :meth:`Tracer._resolve`).
WRAP_POINTS = (
    ("repro.pipeline.guard", "FrameGuard.screen", "guard.screen"),
    ("repro.pipeline.preprocess", "Preprocessor.apply_flat", "ingest.preprocess"),
    ("repro.pipeline.ingest", "FusedIngest.sweep", "ingest.preprocess"),
    ("repro.core.arams", "ARAMS.partial_fit", "sketch.partial_fit"),
    ("repro.core.frequent_directions", "fd_rotate", "sketch.rotate"),
    ("repro.serve.snapshot", "SnapshotStore.publish", "publish.snapshot"),
    ("repro.embed.pca", "SketchPCA.transform", "project.transform"),
    ("repro.embed.umap", "knn_graph", "knn.umap"),
    ("repro.cluster.abod", "knn_graph", "knn.abod"),
    ("repro.embed.umap", "fuzzy_simplicial_set", "umap.fuzzy"),
    ("repro.embed.umap", "smooth_knn_calibration", "umap.calibrate"),
    ("repro.embed.umap_fuzzy", "smooth_knn_calibration", "umap.calibrate"),
    ("repro.embed.umap", "spectral_layout", "umap.spectral"),
    ("repro.embed.umap", "optimize_layout", "umap.layout"),
    ("repro.embed.umap", "UMAP.transform", "score.umap_transform"),
    ("repro.cluster.optics", "OPTICS.fit", "optics.fit"),
    ("repro.pipeline.monitor", "abod_outliers", None),
    ("repro.serve.query", "QueryEngine.query", None),
    ("repro.pipeline.monitor", "MonitoringPipeline.score_new", "score"),
    ("repro.pipeline.monitor", "MonitoringPipeline.consume", "consume"),
    ("repro.pipeline.monitor", "MonitoringPipeline.analyze", "analyze"),
)

#: Span names the harness opens itself (one per workload phase, plus the
#: open-loop generator's idle sleeps).
PHASE_PREFIX = "phase."
IDLE_SPAN = "loadgen.idle"


class Tracer:
    """Installs the wrappers, records spans, and removes the wrappers.

    Use as a context manager around the traced region; call
    :meth:`phase` to open one root span per workload phase.
    """

    def __init__(self):
        self._stack: list[list] = []  # [name, start, child_seconds]
        self._saved: list[tuple[object, str, object]] = []
        self._phase = "none"
        self.reset()

    def reset(self) -> None:
        """Forget every recorded span (wrappers stay installed)."""
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.fired: dict[str, set[str]] = defaultdict(set)
        self.guard_offered = 0
        self.guard_quarantined = 0
        self.streaming_rotations = 0
        self.sketch_rows = 0

    # ------------------------------------------------------------------
    # Span recording
    # ------------------------------------------------------------------
    def _open(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def _close(self) -> None:
        name, start, child = self._stack.pop()
        dur = time.perf_counter() - start
        self.self_s[name] += dur - child
        self.calls[name] += 1
        self.fired[self._phase].add(name)
        if self._stack:
            self._stack[-1][2] += dur

    @contextmanager
    def span(self, name: str):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    @contextmanager
    def phase(self, name: str):
        """Root span for one workload phase (its self time is harness time)."""
        prev, self._phase = self._phase, name
        try:
            with self.span(PHASE_PREFIX + name):
                yield
        finally:
            self._phase = prev

    def idle(self):
        """Span around the open-loop generator's sleep until the next due time."""
        return self.span(IDLE_SPAN)

    def _in(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def _resolve(self, default: str | None, attr: str, args, kwargs) -> str:
        if default is not None:
            return default
        if attr == "abod_outliers":
            return "score.abod" if self._in("score") else "abod.score"
        kind = args[1] if len(args) > 1 else kwargs.get("kind", "unknown")
        return f"query.{kind}"

    def _observe(self, name: str, attr: str, args, result) -> None:
        """Work counters read off a layer's arguments and return value.

        ``sketch.rows`` counts rows handed to the sketch layer (before
        priority sampling); a rotation is a streaming one when its
        caller is the ingest path rather than a publish/analyze
        finalization.
        """
        if name == "guard.screen":
            self.guard_offered += int(result.offered)
            self.guard_quarantined += int(result.n_rejected)
        elif name == "sketch.partial_fit" or attr == "sweep":
            self.sketch_rows += int(np.atleast_2d(args[1]).shape[0])
        elif name == "sketch.rotate" and self._stack and self._stack[-1][0] in (
            "sketch.partial_fit",
            "ingest.preprocess",
        ):
            self.streaming_rotations += 1

    def _wrap(self, fn, default: str | None, attr: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = tracer._resolve(default, attr, args, kwargs)
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            tracer._observe(name, attr, args, result)
            return result

        return traced

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def __enter__(self) -> "Tracer":
        for module_name, path, name in WRAP_POINTS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, attr))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Read-out
    # ------------------------------------------------------------------
    def seconds(self, name: str) -> float:
        return float(self.self_s.get(name, 0.0))

    def idle_s(self) -> float:
        return self.seconds(IDLE_SPAN)

    def total_self_s(self) -> float:
        return float(sum(self.self_s.values()))

    def harness_s(self) -> float:
        """Self time of the phase root spans: the harness's own work."""
        return float(
            sum(v for k, v in self.self_s.items() if k.startswith(PHASE_PREFIX))
        )


# ----------------------------------------------------------------------
# Span-coverage predictions
# ----------------------------------------------------------------------
ON, OFF = "on", "off"

#: Layers checked by the coverage self-test.  ``sketch.partial_fit`` is
#: not among them: a fused ingest path writes rows into the sketch
#: buffer without calling it, so its absence is not a fault.
COVERED = (
    "consume", "guard.screen", "ingest.preprocess", "sketch.rotate",
    "publish.snapshot", "analyze", "project.transform", "knn.umap", "knn.abod",
    "umap.fuzzy", "umap.calibrate", "umap.spectral", "umap.layout",
    "optics.fit", "abod.score", "query.project", "query.residual",
    "query.outlier_score", "score", "score.umap_transform", "score.abod",
)

_INGEST = ("consume", "guard.screen", "ingest.preprocess", "sketch.rotate")
_SCORE = ("score", "score.umap_transform", "score.abod")
_MAP = (
    "analyze", "project.transform", "knn.umap", "knn.abod", "umap.fuzzy",
    "umap.calibrate", "umap.spectral", "umap.layout", "optics.fit", "abod.score",
)
_ANSWER = (
    "publish.snapshot", "query.project", "query.residual", "query.outlier_score",
    "knn.abod", "score", "score.umap_transform", "score.abod", "umap.calibrate",
    "umap.layout", "project.transform", "ingest.preprocess",
)
def _prediction(on: tuple[str, ...], maybe: tuple[str, ...] = ()) -> dict[str, str]:
    return {layer: (ON if layer in on else OFF) for layer in COVERED if layer not in maybe}


def predictions(workload: str) -> dict[str, dict[str, str]]:
    """Per phase of ``workload``: which layers must fire and which must not.

    Finalizing pending sketch rows (on publish or analyze) may or may
    not need a rotation, depending on where the stream stopped in the
    buffer, so ``sketch.rotate`` is unchecked in the map and answer
    phases.
    """
    publish = ("publish.snapshot",) if workload in ("diffraction_stream", "live_serve") else ()
    warm = _INGEST + _MAP + _SCORE + publish
    if workload == "live_serve":
        return {
            "setup": _prediction(warm),
            "serve": _prediction(_INGEST + _ANSWER),
        }
    return {
        "setup": _prediction(warm),
        "ingest": _prediction(_INGEST + publish),
        "map": _prediction(_MAP, maybe=("sketch.rotate",)),
        "answer": _prediction(_ANSWER, maybe=("sketch.rotate",)),
    }


def coverage_failures(workload: str, tracer: Tracer) -> list[str]:
    """Predicted-active layers that never fired, and predicted-idle ones that did."""
    bad = []
    for phase, row in predictions(workload).items():
        fired = tracer.fired.get(phase, set())
        for layer, want in row.items():
            if want == ON and layer not in fired:
                bad.append(f"{phase}: {layer} predicted to run but never fired")
            elif want == OFF and layer in fired:
                bad.append(f"{phase}: {layer} predicted idle but fired")
    return bad

#!/usr/bin/env python3
"""The repo benchmark: frames in -> sketch -> map -> answer out.

Run from the root of a checkout::

    python3 perfbench/run.py --workload diffraction_stream --seed 1 --seconds 50 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with per-layer spans wrapped around the program from outside
and prints the per-layer breakdown.  Both check the program's outputs
and exit non-zero when a check fails.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
See ``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("beam_map", "diffraction_stream", "diffraction_map", "live_serve")

#: Tolerance of the time-accounting check: span self times plus harness
#: time must equal the traced wall time within this share (+ 5 ms).
ACCOUNTING_TOLERANCE = 0.01
#: Largest share of the traced wall time the phase roots' self time
#: (``bench.other_s``) may take.  That self time is the harness's own
#: bookkeeping plus any program time that no wrapped layer covers, so a
#: layer whose time drops out of the breakdown fails the check.
HARNESS_SHARE = 0.02
#: End-to-end metrics printed with the others but left out of the JSON
#: line and of ``BENCHMARK.json``: on a 2-core shared host the distance
#: between the quartiles of ten runs reached 0.25-0.30 of the median for
#: each of them in at least one ten-seed set, past the largest bound a
#: metric may have (see ``perfbench/README.md``).
PRINTED_ONLY = ("batch_p50_ms", "map_s", "query_tail_ms", "score_p50_ms")
#: Batches and repeats of the tracing-overhead probe (see ``_overhead``).
OVERHEAD_BATCHES = 10
OVERHEAD_REPEATS = 3


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# ----------------------------------------------------------------------
# Workload runners
# ----------------------------------------------------------------------
def _drive(wl, stats, name: str, seed: int, seconds: float, tracer, run) -> float:
    """Set up and run one workload; returns the wall seconds it took.

    Peak memory is read as timing ends, before the checks, whose own
    arrays would otherwise set the figure.
    """
    phase = tracer.phase if tracer is not None else (lambda _name: nullcontext())
    idle = tracer.idle if tracer is not None else nullcontext
    if name == "live_serve":
        inputs, live = wl.live_inputs(seed, seconds)
        publish = True  # the live pipeline publishes every batch
    else:
        spec = wl.CLOSED_LOOPS[name]
        inputs = wl.closed_loop_inputs(spec, seed)
        publish = spec.publish_every_batch
    if tracer is not None:
        probe = inputs.batches[:OVERHEAD_BATCHES]
        run.overhead = _overhead(wl, tracer, inputs, probe, seed, publish)
    t0 = time.perf_counter()
    with tracer if tracer is not None else nullcontext():
        if name == "live_serve":
            with phase("setup"):
                state = wl.live_setup(run, inputs, seed)
            wl.live_phase(run, state, inputs, live, seed, seconds, phase, idle)
            del state
        else:
            wl.closed_loop_run(run, spec, inputs, seed, seconds, phase)
    wall = time.perf_counter() - t0
    run.peak_rss_mb = stats.peak_rss_mb()
    # Correctness checks run after timing, untraced.
    pipe = run.final
    if name == "live_serve":
        n_batches = (pipe.n_offered - wl.LIVE_REFERENCE) // wl.LIVE_BATCH
        offered = wl.live_offered(inputs, live, n_batches)
    else:
        offered = inputs.batches
    wl.check_pipeline(run, pipe, offered)
    wl.check_answers(run)
    return wall


def _overhead(wl, tracer, inputs, probe, seed: int, publish: bool) -> float:
    """Tracing overhead on the span-densest path, the ingest loop.

    The same probe batches run untraced and traced ``OVERHEAD_REPEATS``
    times each, alternating; the ratio of the two minima, minus 1, is the
    overhead.
    """
    plain, traced = [], []
    for _ in range(OVERHEAD_REPEATS):
        for sink, ctx in ((plain, nullcontext()), (traced, tracer)):
            pipe = wl.pipeline(inputs, seed, publish)
            with ctx:
                t0 = time.perf_counter()
                for frames, ids in probe:
                    pipe.consume(frames, shot_ids=ids)
                sink.append(time.perf_counter() - t0)
    tracer.reset()
    return min(traced) / min(plain) - 1.0


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(run, stats) -> tuple[dict, list[str]]:
    batch_tail, batch_p, batch_n = stats.tail(run.batch_ms)
    query_tail, query_p, query_n = stats.tail(run.query_ms)
    metrics = {
        "setup_s": (stats.median(run.setup_s), "s"),
        "ingest_hz": (run.consumed / run.consume_s, "1/s"),
        "batch_p50_ms": (stats.median(run.batch_ms), "ms"),
        "batch_tail_ms": (batch_tail, "ms"),
        "map_s": (stats.median(run.map_s), "s"),
        "query_p50_ms": (stats.median(run.query_ms), "ms"),
        "query_tail_ms": (query_tail, "ms"),
        "score_p50_ms": (stats.median(run.score_ms), "ms"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }
    notes = [
        f"setup_s: median of {len(run.setup_s)} set-ups",
        f"ingest_hz: {run.consumed} frames in {run.consume_s:.3f} s of consume",
        f"batch_tail_ms: p{batch_p:g} of {batch_n} batches",
        f"map_s: median of {len(run.map_s)} analyze() refreshes",
        f"query_tail_ms: p{query_p:g} of {query_n} queries",
        f"score_p50_ms: median of {len(run.score_ms)} score_new calls",
        f"error_rate: {run.failed / run.attempted:.6f} ({run.failed} failed of "
        f"{run.attempted} attempted)",
    ]
    return metrics, notes


def per_layer(run, tracer, wall: float, stats) -> dict:
    sec = tracer.seconds
    hits, total = run.cache_hits, run.cache_lookups
    return {
        "guard.screen_s": (sec("guard.screen"), "s"),
        "guard.frames_offered": (tracer.guard_offered, "count"),
        "guard.frames_quarantined": (tracer.guard_quarantined, "count"),
        "ingest.preprocess_s": (sec("ingest.preprocess"), "s"),
        "sketch.partial_fit_s": (sec("sketch.partial_fit"), "s"),
        "sketch.rotate_s": (sec("sketch.rotate"), "s"),
        "sketch.rotations": (tracer.streaming_rotations, "count"),
        "sketch.rows": (tracer.sketch_rows, "count"),
        "publish.snapshot_s": (sec("publish.snapshot"), "s"),
        "publish.count": (tracer.calls.get("publish.snapshot", 0), "count"),
        "consume.other_s": (sec("consume"), "s"),
        "project.transform_s": (sec("project.transform"), "s"),
        "knn.umap_s": (sec("knn.umap"), "s"),
        "knn.abod_s": (sec("knn.abod"), "s"),
        "umap.fuzzy_s": (sec("umap.fuzzy"), "s"),
        "umap.calibrate_s": (sec("umap.calibrate"), "s"),
        "umap.spectral_s": (sec("umap.spectral"), "s"),
        "umap.layout_s": (sec("umap.layout"), "s"),
        "optics.fit_s": (sec("optics.fit"), "s"),
        "abod.score_s": (sec("abod.score"), "s"),
        "analyze.other_s": (sec("analyze"), "s"),
        "query.project_s": (sec("query.project"), "s"),
        "query.residual_s": (sec("query.residual"), "s"),
        "query.outlier_score_s": (sec("query.outlier_score"), "s"),
        "query.cache_hit_ratio": (hits / total if total else 0.0, "ratio"),
        "score.umap_transform_s": (sec("score.umap_transform"), "s"),
        "score.abod_s": (sec("score.abod"), "s"),
        "score.other_s": (sec("score"), "s"),
        "loadgen.late_ms": (stats.median(run.late_ms) if run.late_ms else 0.0, "ms"),
        "loadgen.idle_s": (tracer.idle_s(), "s"),
        "bench.other_s": (tracer.harness_s(), "s"),
        "trace.wall_s": (wall, "s"),
        "trace.unaccounted_s": (wall - tracer.total_self_s(), "s"),
        "trace.overhead": (run.overhead, "ratio"),
    }


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    args = _args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: {src / 'repro'} not found; run from the root of a full "
              "checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import stats
    import tracing
    import workloads as wl

    env = stats.fingerprint(ROOT)
    run = wl.Run(args.workload)
    tracer = tracing.Tracer() if args.trace else None
    wall = _drive(wl, stats, args.workload, args.seed, args.seconds, tracer, run)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    if tracer is None:
        metrics, notes = end_to_end(run, stats)
        notes.append(f"timed phases took {wall:.1f} s")
    else:
        metrics, notes = per_layer(run, tracer, wall, stats), []
        unaccounted = wall - tracer.total_self_s()
        harness = tracer.harness_s()
        run.check(
            "time_accounting",
            abs(unaccounted) <= ACCOUNTING_TOLERANCE * wall + 0.005
            and harness <= HARNESS_SHARE * wall,
            f"span self times + harness = {tracer.total_self_s():.4f} s of "
            f"{wall:.4f} s traced wall (tolerance {ACCOUNTING_TOLERANCE:.0%} + 5 ms); "
            f"harness {harness:.4f} s = {harness / wall:.2%} of it "
            f"(bound {HARNESS_SHARE:.0%})",
        )
        missing = tracing.coverage_failures(args.workload, tracer)
        run.check(
            "span_coverage",
            not missing,
            "; ".join(missing) if missing else "every predicted span fired, no idle one did",
        )
    for key, (value, unit) in metrics.items():
        note = "  (printed only: unsteady)" if key in PRINTED_ONLY else ""
        print(f"  {key:<26} {value:>14.6g} {unit}{note}")
    for note in notes:
        print(f"  # {note}")
    for name, ok, detail in run.checks:
        print(f"  check {name:<24} {'ok' if ok else 'FAIL'}  {detail}")
    out = {
        "correct": run.correct,
        "attempted": int(run.attempted),
        "failed": int(run.failed),
        "metrics": {
            k: {"value": float(v), "unit": u}
            for k, (v, u) in metrics.items()
            if k not in PRINTED_ONLY
        },
    }
    print(json.dumps(out))
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())

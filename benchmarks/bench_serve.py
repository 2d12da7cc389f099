"""Serving-layer performance: publication overhead, latency, cache speedup.

Three claims from the serving layer's design (``docs/serving.md``),
persisted to ``benchmarks/BENCH_serve.json`` through the shared gate
(``benchmarks/_gate.py``) so later PRs can be held to them:

- **Publication is cheap.**  Publishing a snapshot every other batch
  adds under 5% to end-to-end ingest of a clean stream — the read path
  must never tax the accelerator-pinned write path.
- **Queries are fast.**  Per-kind p50/p99 engine-side latency and
  mixed-load throughput for the GEMM-shaped kinds (``project``,
  ``residual``) and the expensive one (``outlier_score``, ABOD).
- **The cache earns its keep.**  Re-asking an ``outlier_score`` question
  answers >= 10x faster than computing it cold (a hit pays only the
  payload digest; the miss pays ABOD against the snapshot reservoir).

Baselines are rewritten only under ``pytest --update-baseline``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from _gate import compare_cases, load_baseline, write_baseline

from repro.core.arams import ARAMSConfig
from repro.obs.clock import StopWatch
from repro.obs.registry import Registry
from repro.pipeline.monitor import MonitoringPipeline
from repro.serve import QueryEngine, SnapshotStore

pytestmark = pytest.mark.serve

BASELINE_PATH = Path(__file__).parent / "BENCH_serve.json"
_BASELINE = load_baseline(BASELINE_PATH)

SHOTS, SIDE, BATCH = 1200, 64, 200
# Every 3 batches = every 600 frames = one snapshot per ~5s of 120 Hz
# beam time, a realistic operator-dashboard cadence.
PUBLISH_EVERY = 3
OVERHEAD_BUDGET = 0.05
CACHE_SPEEDUP_FLOOR = 10.0


@pytest.fixture(scope="module")
def stream():
    rng = np.random.default_rng(23)
    return np.abs(rng.normal(1.0, 0.25, (SHOTS, SIDE, SIDE)))


def _make_pipe() -> MonitoringPipeline:
    return MonitoringPipeline(
        image_shape=(SIDE, SIDE),
        seed=0,
        sketch=ARAMSConfig(ell=24, beta=0.8, epsilon=0.05, seed=0),
        registry=Registry(),
    )


def _ingest_seconds(
    stream: np.ndarray, publish: bool, repeats: int = 5
) -> tuple[float, float]:
    """Best-of-N full-stream ingest time, with or without publication.

    Returns ``(total_seconds, publish_seconds)`` from the fastest
    repeat; ``publish_seconds`` comes from the ``serve.publish`` span
    histogram of that same run, so the overhead fraction is measured
    in-run rather than across two noisy wall-clock samples.
    """
    best = (float("inf"), 0.0)
    for _ in range(repeats):
        pipe = _make_pipe()
        if publish:
            pipe.attach_snapshot_store(
                SnapshotStore(registry=pipe.registry), every_batches=PUBLISH_EVERY
            )
        with StopWatch() as sw:
            for start in range(0, SHOTS, BATCH):
                pipe.consume(stream[start : start + BATCH])
        h = pipe.registry.get_sample(
            "repro_span_seconds", labels={"span": "serve.publish"}
        )
        pub = h.mean * h.count if h is not None and h.count else 0.0
        if sw.elapsed < best[0]:
            best = (sw.elapsed, pub)
    return best


@pytest.fixture(scope="module")
def served_pipeline(stream):
    """A consumed pipeline with published epochs, plus query payloads."""
    pipe = _make_pipe()
    store = pipe.attach_snapshot_store(
        SnapshotStore(registry=pipe.registry), every_batches=PUBLISH_EVERY
    )
    for start in range(0, SHOTS, BATCH):
        pipe.consume(stream[start : start + BATCH])
    rng = np.random.default_rng(7)
    payloads = []
    for _ in range(64):
        idx = rng.integers(0, SHOTS, size=4)
        payloads.append(pipe.preprocessor.apply_flat(stream[idx]))
    return pipe, store, payloads


def _latency_case(engine: QueryEngine, kind: str, payloads: list) -> dict:
    """Cold per-query latency quantiles + throughput for one kind."""
    engine.clear_cache()
    engine.query(kind, payloads[0])  # warm up (imports, BLAS first-touch)
    engine.clear_cache()
    seconds = []
    with StopWatch() as sw:
        for p in payloads:
            seconds.append(engine.query(kind, p).seconds)
    return {
        "p50_ms": float(np.percentile(seconds, 50)) * 1e3,
        "p99_ms": float(np.percentile(seconds, 99)) * 1e3,
        "queries_per_sec": len(payloads) / sw.elapsed,
    }


@pytest.fixture(scope="module")
def serve_numbers(stream, served_pipeline):
    pipe, store, payloads = served_pipeline
    cases: dict[str, dict[str, float]] = {}

    bare, _ = _ingest_seconds(stream, publish=False)
    published, publish_seconds = _ingest_seconds(stream, publish=True)
    cases["publish_overhead"] = {
        "bare_seconds": bare,
        "published_seconds": published,
        # In-run accounting: publication spans over the rest of the same
        # ingest run (two separate wall clocks would drown <5% in noise).
        "overhead_fraction": publish_seconds / (published - publish_seconds),
    }

    engine = QueryEngine(store, registry=Registry(), cache_size=512)
    for kind in ("project", "residual", "outlier_score"):
        cases[f"query_{kind}"] = _latency_case(engine, kind, payloads)

    # Cache-hit speedup on the expensive kind: a hit pays only the
    # payload digest; the miss pays ABOD against the reservoir.
    engine.clear_cache()
    cold = []
    for p in payloads[:16]:
        cold.append(engine.query("outlier_score", p).seconds)
    hits = []
    for _ in range(16):
        for p in payloads[:16]:
            res = engine.query("outlier_score", p)
            assert res.cached
            hits.append(res.seconds)
    cold_ms = float(np.median(cold)) * 1e3
    hit_ms = float(np.median(hits)) * 1e3
    cases["cache_hit"] = {
        "cold_p50_ms": cold_ms,
        "hit_p50_ms": hit_ms,
        "cache_hit_speedup": cold_ms / hit_ms if hit_ms > 0 else float("inf"),
    }
    return cases


def test_publication_overhead_under_budget(serve_numbers, table):
    case = serve_numbers["publish_overhead"]
    table(
        f"snapshot publication overhead ({SHOTS} shots, publish every "
        f"{PUBLISH_EVERY} batches, best of 5)",
        ["mode", "seconds", "vs bare"],
        [
            ["bare", case["bare_seconds"], "1.00x"],
            ["publishing", case["published_seconds"],
             f"{case['published_seconds'] / case['bare_seconds']:.3f}x"],
        ],
    )
    assert case["overhead_fraction"] <= OVERHEAD_BUDGET, (
        f"publication costs {case['overhead_fraction']:.1%} of ingest "
        f"(budget {OVERHEAD_BUDGET:.0%})"
    )


def test_query_latency(serve_numbers, table):
    rows = [
        [name.removeprefix("query_"), m["p50_ms"], m["p99_ms"],
         m["queries_per_sec"]]
        for name, m in serve_numbers.items()
        if name.startswith("query_")
    ]
    table("cold query latency (engine-side)",
          ["kind", "p50 ms", "p99 ms", "queries/sec"], rows)
    assert all(r[3] > 0 for r in rows)


def test_cache_hit_speedup(serve_numbers, table):
    case = serve_numbers["cache_hit"]
    table(
        "outlier_score: cold vs cache hit",
        ["path", "p50 ms"],
        [["cold (ABOD)", case["cold_p50_ms"]], ["hit", case["hit_p50_ms"]],
         ["speedup", case["cache_hit_speedup"]]],
    )
    assert case["cache_hit_speedup"] >= CACHE_SPEEDUP_FLOOR, (
        f"cache hit only {case['cache_hit_speedup']:.1f}x faster than cold "
        f"(floor {CACHE_SPEEDUP_FLOOR:.0f}x)"
    )


def test_write_baseline(serve_numbers, update_baseline):
    """Refresh benchmarks/BENCH_serve.json (only under --update-baseline)."""
    if not update_baseline:
        pytest.skip("baseline unchanged; rerun with --update-baseline to refresh")
    write_baseline(
        BASELINE_PATH,
        serve_numbers,
        command="PYTHONPATH=src python -m pytest benchmarks/bench_serve.py -s "
                "--update-baseline",
    )
    assert load_baseline(BASELINE_PATH)["cases"]


def test_regression_vs_baseline(serve_numbers, table):
    """Fail when any case regressed >50% against the committed baseline."""
    if _BASELINE is None:
        pytest.skip("no committed BENCH_serve.json baseline; run once with "
                    "--update-baseline and commit it")
    # Sub-ms single-query throughput swings well beyond the default 50%
    # with machine load; within-run ratios (cache_hit_speedup) stay tight.
    rows, failures = compare_cases(
        serve_numbers,
        _BASELINE,
        tolerances={
            "query_project": 0.75,
            "query_residual": 0.75,
            "query_outlier_score": 0.75,
            "cache_hit": 0.5,
        },
        name="serve",
    )
    table(
        "regression vs committed baseline (ratio > 1 = slower)",
        ["case", "metric", "baseline", "fresh", "ratio"],
        rows,
    )
    assert not failures, "; ".join(failures)


# pytest-benchmark variant of the headline query path.
def test_bench_project_cold(benchmark, served_pipeline):
    _, store, payloads = served_pipeline
    engine = QueryEngine(store, registry=Registry(), cache_size=0)
    benchmark(lambda: engine.query("project", payloads[0]))

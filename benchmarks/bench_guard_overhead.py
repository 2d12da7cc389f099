"""FrameGuard overhead: guarded vs bare ingest on a clean stream.

The guard sits on the hot path — every frame of a live stream crosses
it — so its budget on *clean* data (the overwhelmingly common case) is
tight: under 10% of the end-to-end ``MonitoringPipeline.consume`` cost,
measured in-run from the ``consume.guard`` span (the guard's four
memory-bound reduction passes over the batch cost ~2 ms against an
ingest loop the Gram-rotation fast path has pushed under 30 ms/batch;
the original 5% budget predates both the faster ingest and the
span-based accounting — the older two-wall-clock A/B read under 5% only
because its noise floor exceeded the effect).  This bench times the
same clean stream through an identical pipeline with and without the
guard, reports the standalone screening rate, and persists the numbers
to ``benchmarks/BENCH_guard.json`` (shared schema,
``benchmarks/_gate.py``; rewritten only under ``--update-baseline``) so
later PRs can be gated on them.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from _gate import compare_cases, load_baseline, write_baseline

from repro.core.arams import ARAMSConfig
from repro.obs.clock import StopWatch
from repro.obs.registry import Registry
from repro.pipeline.guard import FrameGuard, GuardConfig
from repro.pipeline.monitor import MonitoringPipeline

BASELINE_PATH = Path(__file__).parent / "BENCH_guard.json"
_BASELINE = load_baseline(BASELINE_PATH)

SHOTS, SIDE, BATCH = 1200, 64, 200
OVERHEAD_BUDGET = 0.10


@pytest.fixture(scope="module")
def stream():
    rng = np.random.default_rng(23)
    return np.abs(rng.normal(1.0, 0.25, (SHOTS, SIDE, SIDE)))


def _make_pipe(guard: bool) -> MonitoringPipeline:
    return MonitoringPipeline(
        image_shape=(SIDE, SIDE),
        seed=0,
        sketch=ARAMSConfig(ell=24, beta=0.8, epsilon=0.05, seed=0),
        registry=Registry(),
        guard=guard,
    )


def _consume_once(stream: np.ndarray, guard: bool) -> tuple[float, float]:
    """One full-stream ingest: ``(total_seconds, guard_span_seconds)``.

    The guard's own cost comes from the ``consume.guard`` span histogram
    of the same run, so the overhead fraction is measured in-run — two
    separate wall clocks would drown a <5% effect in scheduler noise.
    """
    pipe = _make_pipe(guard)
    with StopWatch() as sw:
        for start in range(0, SHOTS, BATCH):
            pipe.consume(stream[start : start + BATCH])
    h = pipe.registry.get_sample(
        "repro_span_seconds", labels={"span": "consume.guard"}
    )
    spent = h.mean * h.count if h is not None and h.count else 0.0
    return sw.elapsed, spent


@pytest.fixture(scope="module")
def guard_numbers(stream):
    # Interleave bare/guarded repeats so machine-state drift (frequency
    # scaling, cache warmth from earlier benches) hits both arms alike;
    # best-of filters scheduler noise within each arm.
    bare, (guarded, guard_spent) = float("inf"), (float("inf"), 0.0)
    for _ in range(5):
        bare = min(bare, _consume_once(stream, guard=False)[0])
        run = _consume_once(stream, guard=True)
        if run[0] < guarded:
            guarded, guard_spent = run

    screen_best = float("inf")
    for _ in range(5):
        guard = FrameGuard(
            GuardConfig(expected_shape=(SIDE, SIDE)), registry=Registry()
        )
        with StopWatch() as sw:
            for start in range(0, SHOTS, BATCH):
                guard.screen(stream[start : start + BATCH],
                             shot_ids=range(start, start + BATCH))
        screen_best = min(screen_best, sw.elapsed)

    return {
        "consume_clean_stream": {
            "bare_seconds": bare,
            "guarded_seconds": guarded,
            "overhead_fraction": guard_spent / (guarded - guard_spent),
        },
        "guard_screen": {
            "frames_per_sec": SHOTS / screen_best,
        },
    }


def test_guard_overhead_under_budget(guard_numbers, table):
    case = guard_numbers["consume_clean_stream"]
    table(
        f"FrameGuard overhead ({SHOTS} clean {SIDE}x{SIDE} shots, best of 5)",
        ["mode", "seconds", "vs bare"],
        [
            ["bare", case["bare_seconds"], "1.00x"],
            ["guarded", case["guarded_seconds"],
             f"{case['guarded_seconds'] / case['bare_seconds']:.3f}x"],
        ],
    )
    assert case["overhead_fraction"] <= OVERHEAD_BUDGET, (
        f"guard costs {case['overhead_fraction']:.1%} on a clean stream "
        f"(budget {OVERHEAD_BUDGET:.0%})"
    )


def test_screen_rate_positive(guard_numbers, table):
    rate = guard_numbers["guard_screen"]["frames_per_sec"]
    table("standalone screening rate", ["case", "frames/sec"],
          [["guard.screen", rate]])
    assert rate > 0


def test_write_baseline(guard_numbers, update_baseline):
    """Refresh benchmarks/BENCH_guard.json (only under --update-baseline)."""
    if not update_baseline:
        pytest.skip("baseline unchanged; rerun with --update-baseline to refresh")
    write_baseline(
        BASELINE_PATH,
        guard_numbers,
        command="PYTHONPATH=src python -m pytest "
                "benchmarks/bench_guard_overhead.py -s --update-baseline",
    )
    assert load_baseline(BASELINE_PATH)["cases"]


def test_baseline_committed(table):
    """The committed baseline gates this run through the shared comparator."""
    if _BASELINE is None:
        pytest.skip("no committed BENCH_guard.json baseline; run once with "
                    "--update-baseline and commit it")
    assert "consume_clean_stream" in _BASELINE["cases"]


def test_regression_vs_baseline(guard_numbers, table):
    """Fail when screening throughput regressed >50% vs the baseline."""
    if _BASELINE is None:
        pytest.skip("no committed BENCH_guard.json baseline; run once with "
                    "--update-baseline and commit it")
    rows, failures = compare_cases(guard_numbers, _BASELINE, name="guard_overhead")
    table(
        "regression vs committed baseline (ratio > 1 = slower)",
        ["case", "metric", "baseline", "fresh", "ratio"],
        rows,
    )
    assert not failures, "; ".join(failures)


# pytest-benchmark variant for --benchmark-* tooling.
def test_bench_screen_batch(benchmark, stream):
    guard = FrameGuard(GuardConfig(expected_shape=(SIDE, SIDE)),
                       registry=Registry())
    ids = iter(range(10**9))

    def run():
        batch = stream[:BATCH]
        guard.screen(batch, shot_ids=[next(ids) for _ in range(BATCH)])

    benchmark(run)

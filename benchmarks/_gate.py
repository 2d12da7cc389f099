"""Shared bench-baseline gate: one schema, one comparator, one flag.

Every bench that persists numbers (``bench_core``, ``bench_analysis``,
``bench_guard_overhead``, ``bench_serve``, ...) speaks the same JSON schema::

    {
      "schema": 2,
      "command": "PYTHONPATH=src python -m pytest benchmarks/bench_X.py -s",
      "cases": {"case_name": {"metric_name": value, ...}, ...}
    }

and gates through the same comparator: for each (case, metric) present in
both the fresh run and the committed baseline, compute a slowdown ratio
(orientation from :data:`HIGHER_IS_BETTER`) and fail when it exceeds the
case's tolerance.  Tolerances default to :data:`DEFAULT_TOLERANCE` and can
be tightened or loosened per case by the calling bench — the committed
file stays plain data.

Baselines are rewritten only under ``pytest --update-baseline`` (option
registered in ``benchmarks/conftest.py``), so a gating run — tier 3 of
``tools/ci.py`` — never dirties the working tree.  Schema-1 files (the
pre-unification format, same layout minus the version bump) load fine.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

__all__ = [
    "DEFAULT_TOLERANCE",
    "HIGHER_IS_BETTER",
    "SCHEMA_VERSION",
    "compare_cases",
    "load_baseline",
    "write_baseline",
]

SCHEMA_VERSION = 2

#: Gate tolerance: allowed relative slowdown per (case, metric) before the
#: regression test fails.  Generous because committed numbers track
#: *relative* movement on whatever machine regenerated them, and shared
#: hardware shows 30-40% throughput swings between identical runs; the
#: gate is after structural regressions (an accidental O(n) -> O(n^2),
#: a lost fast path — typically 2x+), not micro-drift.
DEFAULT_TOLERANCE = 0.50

#: metric name -> orientation.  ``True`` = larger is better (throughput),
#: ``False`` = smaller is better (latency).  Metrics absent here are NOT
#: gated by the ratio comparator — that covers fractions a bench asserts
#: against an absolute budget (``overhead_fraction``), raw A/B wall
#: clocks that only exist to feed such a fraction (``bare_seconds``,
#: ``guarded_seconds``), and latency quantiles of small samples
#: (``p50_ms``/``p99_ms``: the p99 of 64 one-shot sub-ms queries is
#: effectively a max, which swings several-fold with scheduler noise;
#: ``queries_per_sec`` gates the same path robustly).
HIGHER_IS_BETTER = {
    "rows_per_sec": True,
    "frames_per_sec": True,
    "queries_per_sec": True,
    "samples_per_sec": True,
    "evals_per_sec": True,
    "speedup": True,
    "cache_hit_speedup": True,
    "seconds": False,
    "seconds_per_rotation": False,
}


def load_baseline(path: str | Path) -> dict | None:
    """The committed baseline dict, or ``None`` when absent/corrupt.

    Call at import time, before any test can rewrite the file, so one
    ``pytest benchmarks/bench_X.py --update-baseline`` run both checks
    the old numbers and refreshes them.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict) or "cases" not in payload:
        return None
    return payload


def write_baseline(path: str | Path, cases: dict, command: str) -> Path:
    """Persist ``cases`` in the shared schema (sorted, newline-terminated)."""
    payload = {"schema": SCHEMA_VERSION, "command": command, "cases": cases}
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def compare_cases(
    fresh: dict,
    baseline: dict | None,
    tolerance: float = DEFAULT_TOLERANCE,
    tolerances: dict[str, float] | None = None,
    name: str | None = None,
) -> tuple[list[list], list[str]]:
    """Gate ``fresh`` cases against a loaded ``baseline`` payload.

    Parameters
    ----------
    fresh:
        ``{case: {metric: value}}`` from this run.
    baseline:
        Payload from :func:`load_baseline` (``None`` -> nothing to gate).
    tolerance:
        Default allowed relative slowdown (0.50 = 50%).
    tolerances:
        Optional per-case overrides, ``{case: tolerance}``.
    name:
        Bench identifier (e.g. ``"serve"``).  When set and the
        ``BENCH_DELTAS_DIR`` environment variable points at a
        directory, the full comparison — every gated row plus the
        failure strings — is dumped to ``$BENCH_DELTAS_DIR/<name>.json``
        so CI can upload machine-readable deltas on failure.

    Returns
    -------
    (rows, failures)
        ``rows`` — ``[case, metric, baseline, fresh, ratio]`` table rows
        (ratio > 1 means slower) for every gated metric; ``failures`` —
        human-readable strings for metrics beyond tolerance (empty list
        means the gate passes).
    """
    rows: list[list] = []
    failures: list[str] = []
    if baseline is None:
        _dump_deltas(name, rows, failures)
        return rows, failures
    base_cases = baseline.get("cases", {})
    tolerances = tolerances or {}
    for case, metrics in sorted(fresh.items()):
        base_metrics = base_cases.get(case)
        if base_metrics is None:
            continue  # new case: no baseline to regress against
        allowed = 1.0 + tolerances.get(case, tolerance)
        for metric, value in metrics.items():
            orientation = HIGHER_IS_BETTER.get(metric)
            base = base_metrics.get(metric)
            if orientation is None or base is None or base <= 0 or value <= 0:
                continue
            ratio = base / value if orientation else value / base
            rows.append([case, metric, base, value, ratio])
            if ratio > allowed:
                failures.append(
                    f"{case}/{metric}: {ratio:.2f}x slower "
                    f"(tolerance {allowed - 1.0:.0%})"
                )
    _dump_deltas(name, rows, failures)
    return rows, failures


def _dump_deltas(name: str | None, rows: list[list], failures: list[str]) -> None:
    """Write the comparison to ``$BENCH_DELTAS_DIR/<name>.json`` (no-op
    unless both the bench ``name`` and the env var are set)."""
    out_dir = os.environ.get("BENCH_DELTAS_DIR")
    if not name or not out_dir:
        return
    payload = {
        "schema": 1,
        "bench": name,
        "passed": not failures,
        "rows": [
            {
                "case": case,
                "metric": metric,
                "baseline": base,
                "fresh": value,
                "ratio": ratio,
            }
            for case, metric, base, value, ratio in rows
        ],
        "failures": list(failures),
    }
    path = Path(out_dir) / f"{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

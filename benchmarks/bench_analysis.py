"""Analysis-stage kernels: the committed baseline for PCA -> UMAP -> ABOD
(BENCH_analysis.json).

The analysis stage is most of an end-to-end monitoring run (paper
Section VI-B: render the map in under a minute).  This bench times its
kernels one by one on the shapes the repo benchmark (``perfbench/``)
runs, plus one whole ``analyze()``:

- ``layout_n500_e500`` — ``optimize_layout`` on the fuzzy graph of 500
  diffraction latents, 500 epochs from the spectral start.
- ``calibrate_n3000_k15`` — ``smooth_knn_calibration`` on the 15-NN
  distances of 3000 clustered latent points.
- ``abod_n500_k20`` — ``abod_scores`` on the 500 latents with the
  pipeline's ``outlier_neighbors=20``.
- ``pca_basis_l40_d16384`` — ``SketchPCA`` on a finalized ``40 x 16384``
  FD sketch (the spectrum read that replaced a full ``gesdd``).
- ``analyze_n500_d16384`` — one ``MonitoringPipeline.analyze()`` of 500
  ``128 x 128`` diffraction frames with the production defaults.

Every case is best-of-N wall seconds (N = 20 for the millisecond
kernels, 3 for the layout and ``analyze()``).
``test_regression_vs_baseline`` gates a fresh run against the committed
JSON through the shared comparator (``benchmarks/_gate.py``: a per-case slowdown beyond
``DEFAULT_TOLERANCE`` = 50%, 75% for the millisecond kernels, fails;
skips cleanly when no baseline exists).  The baseline is captured at import time and rewritten only
under ``pytest --update-baseline``.  Run::

    PYTHONPATH=src python -m pytest benchmarks/bench_analysis.py -s
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from _gate import compare_cases, load_baseline, write_baseline

from repro.cluster.abod import abod_scores
from repro.core.frequent_directions import FrequentDirections
from repro.data.diffraction import DiffractionConfig, DiffractionGenerator
from repro.embed.knn import knn_graph
from repro.embed.pca import SketchPCA
from repro.embed.umap_fuzzy import fuzzy_simplicial_set, smooth_knn_calibration
from repro.embed.umap_optimize import fit_ab_params, optimize_layout
from repro.embed.umap_spectral import spectral_layout
from repro.obs.clock import StopWatch
from repro.pipeline.monitor import MonitoringPipeline

BASELINE_PATH = Path(__file__).parent / "BENCH_analysis.json"

# Read the committed baseline BEFORE any test can rewrite it.
_BASELINE = load_baseline(BASELINE_PATH)

N_FRAMES = 500


def _best_of(fn, repeats: int) -> float:
    """Best-of-N wall seconds (best-of filters scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        with StopWatch() as sw:
            fn()
        best = min(best, sw.elapsed)
    return best


@pytest.fixture(scope="module")
def analysis_numbers() -> dict:
    """Measure every case once for the whole module."""
    frames, _ = DiffractionGenerator(
        DiffractionConfig(shape=(128, 128)), seed=0
    ).sample(N_FRAMES)
    pipe = MonitoringPipeline(image_shape=(128, 128), seed=0, guard=True)
    pipe.consume(frames)
    pipe.analyze()  # warm up
    cases: dict[str, dict[str, float]] = {
        "analyze_n500_d16384": {"seconds": _best_of(pipe.analyze, 3)}
    }
    latent = pipe.analyze().latent

    idx, dst = knn_graph(latent, 15)
    graph = fuzzy_simplicial_set(idx, dst)
    start = spectral_layout(graph.tocsr(), 2, rng=np.random.default_rng(0))
    a, b = fit_ab_params(1.0, 0.1)
    cases["layout_n500_e500"] = {
        "seconds": _best_of(
            lambda: optimize_layout(
                start.copy(), graph, 500, a, b, np.random.default_rng(1)
            ),
            3,
        )
    }

    gen = np.random.default_rng(2)
    centers = gen.normal(0.0, 4.0, size=(6, latent.shape[1]))
    cloud = centers[gen.integers(0, 6, 3000)]
    cloud = cloud + gen.normal(size=cloud.shape)
    _, dst3000 = knn_graph(cloud, 15)
    cases["calibrate_n3000_k15"] = {
        "seconds": _best_of(lambda: smooth_knn_calibration(dst3000), 20)
    }

    cases["abod_n500_k20"] = {
        "seconds": _best_of(lambda: abod_scores(latent, n_neighbors=20), 20)
    }

    rows = gen.standard_normal((400, 16384)) * np.linspace(4.0, 0.5, 16384)
    sketch = FrequentDirections(d=16384, ell=40).fit(rows).sketch
    cases["pca_basis_l40_d16384"] = {
        "seconds": _best_of(lambda: SketchPCA(sketch, n_components=20), 20)
    }
    return cases


def test_cases_measured(analysis_numbers, table):
    table(
        "analysis kernels (best-of-N wall seconds)",
        ["case", "seconds"],
        [[name, m["seconds"]] for name, m in sorted(analysis_numbers.items())],
    )
    assert all(m["seconds"] > 0 for m in analysis_numbers.values())


def test_write_baseline(analysis_numbers, update_baseline):
    """Refresh benchmarks/BENCH_analysis.json (only under --update-baseline)."""
    if not update_baseline:
        pytest.skip("baseline unchanged; rerun with --update-baseline to refresh")
    write_baseline(
        BASELINE_PATH,
        analysis_numbers,
        command="PYTHONPATH=src python -m pytest benchmarks/bench_analysis.py -s "
                "--update-baseline",
    )
    assert load_baseline(BASELINE_PATH)["cases"]


def test_regression_vs_baseline(analysis_numbers, table):
    """Fail when any case regressed beyond the gate's tolerance."""
    if _BASELINE is None:
        pytest.skip("no committed BENCH_analysis.json baseline; run once with "
                    "--update-baseline and commit it")
    # Millisecond kernels swing more with machine load than the 0.3-0.5 s
    # cases (a 1.34x best-of-20 swing on pca_basis between two quiet runs).
    rows, failures = compare_cases(
        analysis_numbers,
        _BASELINE,
        tolerances={
            "abod_n500_k20": 0.75,
            "calibrate_n3000_k15": 0.75,
            "pca_basis_l40_d16384": 0.75,
        },
        name="analysis",
    )
    table(
        "regression vs committed baseline (ratio > 1 = slower)",
        ["case", "metric", "baseline", "fresh", "ratio"],
        rows,
    )
    assert not failures, "; ".join(failures)

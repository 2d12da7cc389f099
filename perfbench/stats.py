"""Summary statistics and the environment fingerprint of a result."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import subprocess
from pathlib import Path

import numpy as np

#: Candidate tail percentiles, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9)
#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def tail(values) -> tuple[float, float, int]:
    """``(value, percentile, n)``: the highest ladder percentile with at
    least ``TAIL_BEYOND`` samples beyond it (p50 when there are too few)."""
    a = np.asarray(values, dtype=np.float64)
    n = int(a.shape[0])
    pct = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= TAIL_BEYOND:
            pct = p
    return float(np.percentile(a, pct)), pct, n


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux ``VmHWM``)."""
    status = Path("/proc/self/status")
    if status.exists():
        for line in status.read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_threads() -> int | None:
    """Thread count the bundled OpenBLAS will use (read, never set)."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def _git_commit(root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def fingerprint(root: Path) -> dict:
    """numpy, BLAS build and threads, cores, Python and commit of a run."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "commit": _git_commit(root),
    }

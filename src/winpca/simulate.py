"""Contamination injection and replication mapping.

Pure datasets come from ``distributions.PopulationModel.draw``;
``apply_contamination`` swaps the first m rows for one outlier vector (the
replacement model of the breakdown points); and ``map_replications`` runs
the replication bodies of the preset experiments, optionally on a thread
pool, with OpenBLAS pinned to one thread.  Every replication derives its
generator from (seed, replication index), so results are identical across
runs and across worker counts.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ._kernels import one_blas_thread
from .transform import as_data_matrix

__all__ = ["apply_contamination"]


def apply_contamination(X0, m: int, outlier) -> np.ndarray:
    """Replace the first ``m`` rows of ``X0`` with the finite vector ``outlier``.

    This is the replacement model of the breakdown points: m = eps * n clean
    rows are swapped for one arbitrary outlier.  All other rows are copied
    bitwise; the input is never modified.
    """
    A = as_data_matrix(X0)
    n, p = A.shape
    m = int(m)
    if not 0 <= m <= n:
        raise ValueError(f"cannot replace m={m} of n={n} rows")
    v = np.asarray(outlier, dtype=np.float64)
    if v.shape != (p,) or not np.all(np.isfinite(v)):
        raise ValueError(f"outlier must be a finite vector of length p={p}, got shape {v.shape}")
    X = A.copy()
    X[:m] = v
    return X


def map_replications(fn, count: int, jobs: int = 1) -> list:
    """Evaluate fn(0..count-1), on ``jobs`` worker threads, preserving order.

    The whole map runs with OpenBLAS pinned to one thread, so workers never
    change the setting and ``jobs`` is the only parallelism.
    """
    jobs = int(jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    with one_blas_thread:
        if jobs == 1:
            return [fn(i) for i in range(count)]
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, range(count)))


"""Contamination injection and replication mapping.

Draws come from ``distributions.PopulationModel.draw``;
``apply_contamination`` swaps their first m rows for one outlier vector (the
replacement model of the breakdown points), and fig2 writes its own into its
draw.  ``map_replications`` runs the replication bodies of the preset
experiments, on ``jobs`` threads, with OpenBLAS pinned to one thread.  Every
replication derives its generator from (seed, replication index), so results
are identical across runs and worker counts.  With one job the radius paths
of each replication pool their eigensolves into one map over the process's
CPUs; with more, each worker solves its paths on its own thread.
"""

from __future__ import annotations

import numpy as np

from ._kernels import thread_map
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
    """Evaluate fn(0..count-1) on ``jobs`` threads, preserving order.

    This is ``thread_map`` with ``jobs`` workers, so the whole map runs with
    OpenBLAS pinned to one thread, and with two or more jobs the maps
    inside ``fn`` run serially.
    """
    jobs = int(jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    return thread_map(fn, range(count), jobs)

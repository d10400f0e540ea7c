"""Seeded data generation, contamination injection, and replication mapping.

Pure datasets come from the elliptical samplers in ``distributions``;
contamination replaces a chosen set of rows with adversarial vectors; and
``map_replications`` runs the replication bodies of the preset experiments,
optionally on a thread pool, with OpenBLAS pinned to one thread.  Every
replication derives its generator from (seed, replication index), so
results are identical across runs and across worker counts.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._kernels import one_blas_thread
from .distributions import PopulationModel, make_rng
from .transform import as_data_matrix

__all__ = [
    "ConstantVector",
    "CoordinateSpike",
    "ContaminationPlan",
    "sample_gaussian",
    "sample_student_t",
    "apply_contamination",
]


@dataclass(frozen=True)
class ConstantVector:
    """Outlier rule: every contaminated row becomes this fixed vector."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        if len(vals) < 1 or not all(math.isfinite(v) for v in vals):
            raise ValueError("outlier vector must be nonempty and finite")
        object.__setattr__(self, "values", vals)

    def row(self, p: int) -> np.ndarray:
        if len(self.values) != p:
            raise ValueError(f"outlier vector has length {len(self.values)}, data has p={p}")
        return np.asarray(self.values, dtype=np.float64)


@dataclass(frozen=True)
class CoordinateSpike:
    """Outlier rule: zero vector with one huge coordinate."""

    index: int
    magnitude: float

    def __post_init__(self) -> None:
        if int(self.index) < 0:
            raise ValueError("spike index must be nonnegative")
        if not math.isfinite(self.magnitude):
            raise ValueError("spike magnitude must be finite")
        object.__setattr__(self, "index", int(self.index))
        object.__setattr__(self, "magnitude", float(self.magnitude))

    def row(self, p: int) -> np.ndarray:
        if self.index >= p:
            raise ValueError(f"spike index {self.index} out of range for p={p}")
        v = np.zeros(p)
        v[self.index] = self.magnitude
        return v


@dataclass(frozen=True)
class ContaminationPlan:
    """Which rows get replaced and by what.

    ``positions`` of None means the first ``m`` rows (the convention of all
    the simulation recipes here); otherwise an explicit index set of size m.
    """

    m: int
    rule: ConstantVector | CoordinateSpike
    positions: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        m = int(self.m)
        if m < 0:
            raise ValueError("replacement count m must be nonnegative")
        if not isinstance(self.rule, (ConstantVector, CoordinateSpike)):
            raise ValueError("rule must be a ConstantVector or CoordinateSpike")
        if self.positions is not None:
            pos = tuple(int(i) for i in self.positions)
            if len(pos) != m or len(set(pos)) != m or (m and min(pos) < 0):
                raise ValueError("positions must be m distinct nonnegative indices")
            object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "m", m)

    def indices(self, n: int) -> np.ndarray:
        if self.m > n:
            raise ValueError(f"cannot replace m={self.m} of n={n} rows")
        if self.positions is None:
            return np.arange(self.m)
        idx = np.asarray(self.positions, dtype=np.intp)
        if self.m and idx.max() >= n:
            raise ValueError(f"position {idx.max()} out of range for n={n}")
        return idx


def sample_gaussian(n: int, sigma_eigenvalues, seed: int) -> np.ndarray:
    """n i.i.d. rows from N(0, diag(sigma_eigenvalues)); deterministic in seed."""
    model = PopulationModel.gaussian(sigma_eigenvalues)
    return model.draw(int(n), make_rng(seed))


def sample_student_t(n: int, nu: float, sigma_eigenvalues, seed: int) -> np.ndarray:
    """n i.i.d. multivariate-t rows with dof nu and covariance diag(sigma_eigenvalues).

    The scale matrix is ((nu - 2) / nu) times the covariance so the second
    moments come out exactly as requested; nu must exceed 2.
    """
    model = PopulationModel.student_t(sigma_eigenvalues, nu)
    return model.draw(int(n), make_rng(seed))


def apply_contamination(X0, plan: ContaminationPlan) -> np.ndarray:
    """Replace the planned rows of ``X0`` with the outlier rule's vector.

    All other rows are copied bitwise; the input is never modified.
    """
    A = as_data_matrix(X0)
    n, p = A.shape
    idx = plan.indices(n)
    X = A.copy()
    if idx.size:
        X[idx] = plan.rule.row(p)
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


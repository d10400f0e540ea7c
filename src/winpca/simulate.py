"""Seeded data generation, contamination injection, and empirical losses.

Pure datasets come from the elliptical samplers in ``distributions``;
contamination replaces a chosen set of rows with adversarial vectors; the
loss of a fit is the sine of the largest principal angle against either the
population subspace (span of the leading coordinate axes for the diagonal
models used here) or the subspace fitted on the uncontaminated data.  Every
replication derives its generator from (seed, replication index), so results
are identical across runs and across worker counts.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .distributions import PopulationModel, make_rng
from .subspace import Subspace, fit_pc_subspace, principal_angles
from .transform import RadiusSpec, as_data_matrix

__all__ = [
    "ConstantVector",
    "CoordinateSpike",
    "ContaminationPlan",
    "ScenarioConfig",
    "SimulationResult",
    "sample_gaussian",
    "sample_student_t",
    "apply_contamination",
    "empirical_sin_theta",
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


@dataclass(frozen=True)
class ScenarioConfig:
    """A full simulation cell: model, contamination, radius policy, and target.

    ``target`` is ``"population"`` (span of the first d coordinate axes,
    matching the diagonal population models) or ``"pure"`` (the subspace
    fitted on the uncontaminated draw with the same radius policy).
    """

    n: int
    d: int
    model: PopulationModel
    radius: RadiusSpec
    plan: ContaminationPlan | None
    target: str
    replications: int
    seed: int

    def __post_init__(self) -> None:
        if self.target not in ("population", "pure"):
            raise ValueError("target must be 'population' or 'pure'")
        if int(self.replications) < 1:
            raise ValueError("need at least one replication")
        if not 1 <= int(self.d) < self.model.p:
            raise ValueError(f"need 1 <= d < p={self.model.p}, got d={self.d}")
        if int(self.n) < 1:
            raise ValueError("need n >= 1")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "d", int(self.d))
        object.__setattr__(self, "replications", int(self.replications))
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True)
class SimulationResult:
    mean: float
    std_error: float
    values: np.ndarray


def map_replications(fn, count: int, jobs: int = 1) -> list:
    """Evaluate fn(0..count-1), optionally on a thread pool, preserving order."""
    if jobs and int(jobs) > 1:
        with ThreadPoolExecutor(max_workers=int(jobs)) as pool:
            return list(pool.map(fn, range(count)))
    return [fn(i) for i in range(count)]


def _loss_against_target(config: ScenarioConfig, rep: int,
                         population: Subspace) -> float:
    rng = make_rng(config.seed, (rep,))
    X0 = config.model.draw(config.n, rng)
    if config.plan is not None and config.plan.m > 0:
        X = apply_contamination(X0, config.plan)
    else:
        X = X0
    fit = fit_pc_subspace(X, config.d, config.radius)
    if config.target == "population":
        target = population
    else:
        target = fit_pc_subspace(X0, config.d, config.radius).subspace
    return principal_angles(fit.subspace, target).sin_largest


def empirical_sin_theta(config: ScenarioConfig, jobs: int = 1) -> SimulationResult:
    """Monte Carlo estimate of the expected sin(largest angle) loss.

    Each replication draws fresh pure data, contaminates it per the plan,
    fits the subspace under the configured radius policy, and measures the
    loss against the configured target.  The standard error is NaN when
    there is a single replication.
    """
    population = Subspace(np.eye(config.model.p, config.d))
    vals = np.array(
        map_replications(lambda rep: _loss_against_target(config, rep, population),
                         config.replications, jobs)
    )
    mean = float(vals.mean())
    if vals.size > 1:
        se = float(vals.std(ddof=1) / math.sqrt(vals.size))
    else:
        se = math.nan
    return SimulationResult(mean, se, vals)

"""Population models and seeded sampling shared by bounds and simulations.

Draws are built from a whitened spherical generator ``y``: for the Gaussian
model ``y ~ N(0, I_p)``, and for the Student-t model ``y = z * sqrt((nu-2)/w)``
with ``z ~ N(0, I_p)`` and ``w ~ chi2(nu)``, which makes ``Cov(y) = I_p``
whenever ``nu > 2``.  Observations are then ``x = sqrt(lambda) * y``
coordinatewise, so ``Cov(x)`` equals the diagonal matrix of the requested
eigenvalues.  All randomness flows through a counter-based generator keyed by
``(seed, spawn_key)`` so results never depend on worker count or call order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PopulationModel", "make_rng"]


def make_rng(seed: int, key: tuple[int, ...] = ()) -> np.random.Generator:
    """Deterministic generator for a (seed, spawn key) pair.

    Distinct keys under the same seed yield independent streams; the same
    pair always yields the same stream.
    """
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class PopulationModel:
    """Elliptical population with diagonal covariance.

    ``sigma_eigenvalues`` are the covariance eigenvalues, descending and
    positive.
    """

    sigma_eigenvalues: np.ndarray
    distribution: str
    dof: float | None = None

    def __post_init__(self) -> None:
        vals = np.asarray(self.sigma_eigenvalues, dtype=np.float64)
        if vals.ndim != 1 or vals.size < 1:
            raise ValueError("sigma_eigenvalues must be a nonempty 1-D vector")
        if not np.all(np.isfinite(vals)) or vals[-1] <= 0:
            raise ValueError("covariance eigenvalues must be finite and positive")
        if np.any(np.diff(vals) > 0):
            raise ValueError("covariance eigenvalues must be sorted descending")
        if self.distribution == "gaussian":
            if self.dof is not None:
                raise ValueError("gaussian model takes no degrees of freedom")
        elif self.distribution == "student_t":
            if self.dof is None or not 2 < self.dof < np.inf:
                raise ValueError(f"student_t requires a finite dof > 2, got {self.dof}")
        else:
            raise ValueError(f"unknown distribution {self.distribution!r}")
        object.__setattr__(self, "sigma_eigenvalues", vals)

    @classmethod
    def gaussian(cls, eigenvalues) -> "PopulationModel":
        return cls(np.asarray(eigenvalues, dtype=np.float64), "gaussian")

    @classmethod
    def student_t(cls, eigenvalues, dof: float) -> "PopulationModel":
        return cls(np.asarray(eigenvalues, dtype=np.float64), "student_t",
                   dof=float(dof))

    @property
    def p(self) -> int:
        return self.sigma_eigenvalues.size

    def draw_whitened(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n draws of the spherical generator y, Cov(y) = I, in one n x p array."""
        if n < 1:
            raise ValueError("need at least one draw")
        z = rng.standard_normal((n, self.p))
        if self.distribution == "student_t":
            z *= np.sqrt((self.dof - 2.0) / rng.chisquare(self.dof, n))[:, None]
        return z

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n observations with covariance diag(sigma_eigenvalues), scaled in place."""
        x = self.draw_whitened(n, rng)
        x *= np.sqrt(self.sigma_eigenvalues)
        return x

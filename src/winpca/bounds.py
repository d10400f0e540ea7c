"""Closed-form error bounds and breakdown points for winsorized PCA.

Everything here evaluates a formula; nothing fits data.  The inputs are
population quantities (covariance eigenvalues, subgaussian parameters),
contamination levels, and winsorized spectra: arrays of descending
eigenvalues at a radius r, estimated by Monte Carlo or read off a fitted
covariance; ``check_winsorized_spectra`` checks those a caller passes in.
Outputs are raw, without clipping to 1, since the formulas themselves are
not clipped; a clipped convenience field is attached for plotting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._kernels import one_blas_thread, winsorized_term_sums
from .distributions import PopulationModel, make_rng
from .subspace import _second_moments
from .transform import _check_radii, as_data_matrix

__all__ = [
    "BoundReport",
    "estimate_winsorized_eigenvalues",
    "estimate_winsorized_spectra",
    "sample_winsorized_spectrum",
    "sample_winsorized_values",
    "check_winsorized_spectra",
    "concentration_bound",
    "asymptotic_rate",
    "subgaussian_param_winsorized",
    "covariance_deviation_bound",
    "pca_breakdown_points",
    "breakdown_lower_bounds_from_values",
    "wpca_breakdown_lower_bounds",
    "perturbation_bound",
]

# Entries per block of Monte Carlo draws: 32k, or 256 KiB per float64
# temporary, so a block's passes stay in cache.
_TERM_BLOCK_ENTRIES = 32_768


def check_winsorized_spectra(values: np.ndarray, radii) -> None:
    """Check a stack of winsorized spectra, one row of ``values`` per radius.

    ``values`` is an (R, p) array of eigenvalues and ``radii`` holds R
    radii.  A winsorized vector has squared norm at most r^2, so each row
    must be finite, nonnegative and descending, and each eigenvalue and each
    row's sum must stay below r^2 up to roundoff (1e-9 r^2 plus 1e-12); a
    radius whose square overflows float64 bounds every row.  Raises
    ``ValueError`` on the first check any row fails.
    """
    values = np.asarray(values, dtype=np.float64)
    r = _check_radii(radii)
    if values.ndim != 2 or r.shape != values.shape[:1]:
        raise ValueError("need an (R, p) stack of eigenvalues and R radii")
    _check_descending(values)
    with np.errstate(over="ignore", invalid="ignore"):  # an inf r^2 bounds every row
        r2, sums = r * r, values.sum(axis=1)  # the slack is not added to r^2: no overflow
        slack, excess, sum_excess = 1e-9 * r2 + 1e-12, values - r2[:, None], sums - r2
    if np.any(excess > slack[:, None]):
        raise ValueError("a winsorized eigenvalue exceeds the radius squared")
    if np.any(sum_excess > slack):
        raise ValueError("winsorized eigenvalues sum to more than the radius squared")


def _check_descending(values: np.ndarray) -> None:
    """Every row of ``values`` finite, nonnegative and sorted descending."""
    if not np.all(np.isfinite(values)) or np.any(values < 0):
        raise ValueError("eigenvalues must be finite and nonnegative")
    if np.any(np.diff(values, axis=-1) > 0):
        raise ValueError("eigenvalues must be sorted descending")


@dataclass(frozen=True)
class BoundReport:
    """A bound value and its named components, each present only where valid."""

    value: float
    components: dict[str, float]

    @property
    def clipped(self) -> float:
        """Bound clipped to 1, the ceiling of any sine of an angle."""
        return min(self.value, 1.0)


class _Estimate(NamedTuple):
    """Monte Carlo winsorized eigenvalues, descending, and their standard errors."""

    values: np.ndarray
    standard_errors: np.ndarray


def estimate_winsorized_eigenvalues(
    model: PopulationModel, r: float, n_draws: int, seed: int
) -> _Estimate:
    """The Monte Carlo estimate at one radius: row 0 of
    ``estimate_winsorized_spectra(model, [r], n_draws, seed)``, as (p,)
    arrays.  Kept while ``perfbench`` traces and calls this name."""
    values, standard_errors = estimate_winsorized_spectra(model, [r], n_draws, seed)
    return _Estimate(values[0], standard_errors[0])


def estimate_winsorized_spectra(
    model: PopulationModel, radii, n_draws: int, seed: int
) -> _Estimate:
    """Monte Carlo population winsorized eigenvalues at every radius, shape (R, p).

    For a diagonal covariance the jth winsorized eigenvalue at r is
    ``E[lam_j * y_j**2 * min(1, r**2 / s**2)]`` with ``s**2`` the squared
    norm of the unwinsorized draw; the expectation runs over the whitened
    spherical generator y.  Returns ``(values, standard_errors)``, each row
    sorted descending by value.  Each block of ``_TERM_BLOCK_ENTRIES // p``
    draws adds its terms at every radius before the next is drawn, so memory
    stays at one block and each draw serves the whole grid; row j is bitwise
    the estimate at ``radii[j]`` alone.
    """
    if not isinstance(model, PopulationModel):
        raise ValueError("model must be a PopulationModel")
    n_draws = int(n_draws)
    if n_draws < 1000:
        raise ValueError(f"need at least 1000 draws for a usable estimate, got {n_draws}")
    radii = _check_radii(radii, path=True)
    rng = make_rng(seed)
    rows = max(1, _TERM_BLOCK_ENTRIES // model.p)
    blocks = (model.draw_whitened(min(rows, n_draws - lo), rng)
              for lo in range(0, n_draws, rows))
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite r^2 clips no draw
        r2 = radii * radii
        sums, sumsq = winsorized_term_sums(blocks, model.sigma_eigenvalues, r2)
        means = sums / n_draws
        var = np.maximum(sumsq - n_draws * means * means, 0.0) / (n_draws - 1)
        order = np.argsort(-means, axis=1, kind="stable")
        values, ses = (np.take_along_axis(a, order, axis=1)
                       for a in (means, np.sqrt(var / n_draws)))
    if not (np.isfinite(values).all() and np.isfinite(ses).all()):
        raise ValueError("the Monte Carlo terms overflow float64; rescale the model")
    return _Estimate(values, ses)


def sample_winsorized_spectrum(X, r: float) -> np.ndarray:
    """Winsorized sample eigenvalues of ``X`` at one radius, descending: row 0
    of ``sample_winsorized_values(X, [r])``.  Kept while ``perfbench`` traces it."""
    return sample_winsorized_values(X, [r])[0]


@one_blas_thread
def sample_winsorized_values(X, radii) -> np.ndarray:
    """Winsorized sample eigenvalues of ``X`` at every radius, shape (R, p).

    Row j holds the descending eigenvalues of the winsorized sample
    covariance at ``radii[j]``.  ``X`` and the radii are validated once, the
    covariances come from one ``winsorized_second_moments`` pass and their
    eigenvalues from one stacked ``eigvalsh``.
    """
    A = as_data_matrix(X)
    radii = _check_radii(radii, path=True)
    vals = np.linalg.eigvalsh(_second_moments(A, radii))[:, ::-1].copy()
    np.clip(vals, 0.0, None, out=vals)
    return vals


def _check_eps(eps: float) -> float:
    eps = float(eps)
    if not 0.0 <= eps < 0.5:
        raise ValueError(f"contamination fraction must lie in [0, 0.5), got {eps}")
    return eps


def _check_counts(n: int, p: int) -> tuple[int, int]:
    n, p = int(n), int(p)
    if n < 1 or p < 1:
        raise ValueError("n and p must be positive")
    return n, p


def _dim_ratio(n: int, p: int) -> float:
    q = p / n
    return max(math.sqrt(q), q)


def _check_extreme_eigs(lam1, lamp) -> tuple[float, float]:
    lam1, lamp = float(lam1), float(lamp)
    if not (math.isfinite(lam1) and lam1 >= lamp > 0):
        raise ValueError(f"need finite lam1 >= lamp > 0, got {lam1}, {lamp}")
    return lam1, lamp


def _monomial(num, den) -> float:
    """``prod(num) / prod(den)`` of positive factors on their frexp mantissas:
    scaling by 2^k is exact, so it has the plain products' bits where those
    stay normal, and no step overflows or underflows short of the result."""
    (fn, en), (fd, ed) = (zip(*map(math.frexp, xs)) for xs in (num, den))
    f, e = math.frexp(math.prod(fn) / math.prod(fd))
    e += sum(en) - sum(ed)
    return math.ldexp(f, e) if e <= 1024 else math.inf  # f < 1: finite up to 2^1024


def concentration_bound(
    lam1: float, lamp: float, values, r: float, d: int,
    eps: float, n: int, p: int, sigma_sub: float = math.inf,
) -> BoundReport:
    """Expected sin(largest angle) bound under eps-contamination.

    ``values`` are the descending winsorized eigenvalues at radius ``r``,
    checked by ``check_winsorized_spectra``.  The bound is ``2 r^2 eps / g
    + 256 min(r^2 lam1 / (p lamp), lam1 sigma_sub^2) max(sqrt(p/n), p/n) /
    g`` with g the winsorized eigengap at d, infinite when the gap vanishes.
    Its first term is ``perturbation_bound``'s bound1; ``_monomial`` forms
    each branch of the second, so neither term overflows short of its value.
    ``sigma_sub``, the whitened subgaussian parameter, defaults to inf (elliptical).
    """
    values = np.asarray(values, dtype=np.float64)
    check_winsorized_spectra(values[None], [r])
    if not sigma_sub > 0:
        raise ValueError(f"sigma_sub must be positive (inf if elliptical), got {sigma_sub}")
    n, p = _check_counts(n, p)
    lam1, lamp = _check_extreme_eigs(lam1, lamp)
    d = int(d)
    if not 1 <= d < values.size:
        raise ValueError(f"need 1 <= d < {values.size} winsorized eigenvalues, got d={d}")
    g = float(values[d - 1] - values[d])
    contamination = perturbation_bound(values[d - 1], values[d], r, eps).components["bound1"]
    dim = _dim_ratio(n, p)
    sampling = math.inf if g <= 0.0 else min(
        _monomial((r, r, lam1, 256.0, dim), (lamp, p, g)),
        _monomial((lam1, sigma_sub, sigma_sub, 256.0, dim), (g,)))
    return BoundReport(contamination + sampling,
                       {"contamination": contamination, "sampling": sampling})


def asymptotic_rate(
    beta: float, p: int, n: int, eps: float, subgaussian: bool
) -> tuple[float, float]:
    """Rate shapes for radius ``p**(0.5 + beta)`` with unit constants.

    Returns ``(contamination_term, sampling_term)``:
    ``p**(1 + 2 max(beta, 0)) * eps`` and ``max(sqrt(p/n), p/n)`` scaled by
    ``p**(2 max(beta, 0))`` in the elliptical case.  These are shapes for
    comparing radius policies, not calibrated bounds; the leading constants
    are unknown.  An exponent for which ``p**(1 + 2 max(beta, 0))``
    overflows float64 raises ``ValueError``.
    """
    n, p = _check_counts(n, p)
    eps = _check_eps(eps)
    if not math.isfinite(beta):
        raise ValueError(f"power-law exponent must be finite, got {beta}")
    b = max(float(beta), 0.0)
    try:
        growth = p ** (1.0 + 2.0 * b)
    except OverflowError:
        growth = math.inf
    if math.isinf(growth):
        raise ValueError(f"p**(1 + 2 beta) overflows float64 for p={p}, beta={beta}")
    term1 = growth * eps
    term2 = _dim_ratio(n, p)
    if not subgaussian:
        term2 *= p ** (2.0 * b)
    return term1, term2


def subgaussian_param_winsorized(
    lam1: float, lamp: float, p: int, r: float, sigma_sub: float
) -> float:
    """Subgaussian parameter of a winsorized observation.

    Equals ``min(sqrt(lam1) * sigma_sub, r * sqrt(lam1 / (lamp * p)))``;
    with an infinite ``sigma_sub`` only the radius branch applies.  With r
    out of the root, and lamp p formed only for lamp < 1, no step overflows.
    """
    lam1, lamp = _check_extreme_eigs(lam1, lamp)
    p = int(p)
    if p < 1:
        raise ValueError("need p >= 1")
    r = float(_check_radii(r))
    if not sigma_sub > 0:
        raise ValueError(f"sigma_sub must be positive (inf if elliptical), got {sigma_sub}")
    ratio = lam1 / lamp / p if lamp >= 1.0 else lam1 / (lamp * p)  # no step overflows
    return min(math.sqrt(lam1) * sigma_sub, r * math.sqrt(ratio))


def covariance_deviation_bound(
    eps: float, r: float, sigma_r: float, n: int, p: int
) -> float:
    """Expected operator-norm deviation of the contaminated winsorized covariance.

    Returns ``eps * r^2 + 16 * sigma_r^2 * max(8 p / n, sqrt(8 p / n))``
    where ``sigma_r`` is the winsorized subgaussian parameter.  An r^2 that
    overflows float64 raises ``ValueError``; sigma_r^2 is never formed alone.
    """
    eps = float(eps)
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"contamination fraction must lie in [0, 1], got {eps}")
    if not (math.isfinite(r) and r >= 0 and sigma_r > 0):
        raise ValueError("need a finite r >= 0 and sigma_r > 0")
    n, p = _check_counts(n, p)
    if math.isinf(float(r) * float(r)):
        raise ValueError("the radius squared overflows float64")
    return eps * r * r + 16.0 * _dim_ratio(n, 8 * p) * sigma_r * sigma_r


def pca_breakdown_points(n: int, d: int) -> tuple[float, float]:
    """Weak and strong breakdown points of the classical PC subspace: (1/n, d/n)."""
    n, d = int(n), int(d)
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    return 1.0 / n, d / n


def breakdown_lower_bounds_from_values(values, r2, d: int):
    """Breakdown lower bounds from raw descending eigenvalues and a squared radius.

    With eigenvalues ``v_1 >= ... >= v_p`` (taken as zero past p): the weak
    bound is ``(v_d - v_{d+1}) / (2 r^2)`` and the strong bound is the best
    averaged gap ``max_{d0 <= d} sum_{j<=d0} (v_j - v_{d+j}) / (2 r^2 d0)``.
    Both are capped at 1/2, the ceiling of any breakdown point.

    A 1-D ``values`` with a scalar ``r2`` returns the tuple ``(weak,
    strong)``.  An (R, p) stack with R squared radii returns an (R, 2)
    array whose rows equal, bit for bit, the one-row results.
    """
    vals = np.asarray(values, dtype=np.float64)
    r2 = np.asarray(r2, dtype=np.float64)
    if vals.ndim not in (1, 2) or vals.size < 1 or r2.shape != vals.shape[:-1]:
        raise ValueError("need a nonempty 1-D vector of eigenvalues and a scalar r2, "
                         "or an (R, p) stack and R values of r2")
    _check_descending(vals)
    _check_radii(r2, "squared radius")
    d = int(d)
    p = vals.shape[-1]
    if not 1 <= d < p:
        raise ValueError(f"need 1 <= d < p={p}, got d={d}")
    V = np.concatenate((vals.reshape(-1, p), np.zeros((r2.size, d))), axis=1)  # v_j = 0 past p
    r2 = r2.reshape(-1, 1)
    # Each gap v_j - v_{d+j} is finite and nonnegative and is divided by r^2
    # before anything is summed, so no sum cancels and none overflows short of
    # the cap; a quotient past float64 lies above it.  Exact halving first
    # keeps the bits of (v_d - v_{d+1}) / (2 r^2).
    with np.errstate(over="ignore"):
        weak = (V[:, d - 1] - V[:, d]) / 2.0 / r2[:, 0]
        sums = np.cumsum((V[:, :d] - V[:, d:2 * d]) / 2.0 / r2, axis=1)
        strong = (sums / np.arange(1, d + 1)).max(axis=1)
    out = np.minimum(np.stack((weak, strong), axis=1), 0.5)
    if vals.ndim == 1:
        return float(out[0, 0]), float(out[0, 1])
    return out


def wpca_breakdown_lower_bounds(values, r: float, d: int) -> tuple[float, float]:
    """``breakdown_lower_bounds_from_values(values, r * r, d)`` for a spectrum
    that passes ``check_winsorized_spectra`` at ``r``; kept while
    ``perfbench`` traces it."""
    values = np.asarray(values, dtype=np.float64)
    check_winsorized_spectra(values[None], [r])
    return breakdown_lower_bounds_from_values(values, float(r) * float(r), d)


def perturbation_bound(
    lam_d_r: float, lam_d1_r: float, r: float, eps: float
) -> BoundReport:
    """Deterministic sin(largest angle) bounds under eps-contamination.

    ``bound1 = 2 r^2 eps / g`` holds whenever the winsorized sample eigengap
    g is positive; ``bound2 = r^2 eps / (g - 2 r^2 eps)`` is sharper but only
    valid when ``g > 4 r^2 eps``.  The report's value is the smallest
    available bound.  An r^2 that overflows float64 raises ``ValueError``;
    short of that, a bound is inf only where its exact value passes float64.
    """
    eps = _check_eps(eps)
    r = float(_check_radii(r))
    lam_d_r, lam_d1_r = float(lam_d_r), float(lam_d1_r)
    if not (math.isfinite(lam_d_r) and lam_d_r >= lam_d1_r >= 0):
        raise ValueError(f"need finite lam_d_r >= lam_d1_r >= 0, got {lam_d_r}, {lam_d1_r}")
    g = lam_d_r - lam_d1_r
    r2 = r * r
    if math.isinf(r2):
        raise ValueError("the radius squared overflows float64")
    twice = r2 * (2.0 * eps)  # 2 r^2 eps: doubling eps < 1/2 is exact, and r^2 (2 eps) < r^2
    components = {"bound1": math.inf if g <= 0.0 else twice / g}
    if g > r2 * (4.0 * eps):
        components["bound2"] = r2 * eps / (g - twice)
    return BoundReport(min(components.values()), components)

"""Closed-form error bounds and breakdown points for winsorized PCA.

Everything here evaluates a formula; nothing fits data.  The inputs are
population quantities (covariance eigenvalues, subgaussian parameters),
contamination levels, and winsorized spectra: arrays of descending
eigenvalues at a radius r, estimated by Monte Carlo or read off a fitted
covariance, checked once per call by ``check_winsorized_spectra``.  Outputs
are reported raw, without clipping to 1, since the formulas themselves are
not clipped; a clipped convenience field is attached for plotting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._kernels import one_blas_thread, winsorized_term_sums
from .distributions import PopulationModel, make_rng
from .subspace import _check_radii, _second_moments
from .transform import _check_radius, as_data_matrix

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


def check_winsorized_spectra(values: np.ndarray, radii, standard_errors=None) -> None:
    """Check a stack of winsorized spectra, one row of ``values`` per radius.

    ``values`` is an (R, p) array of eigenvalues and ``radii`` holds R
    radii.  A winsorized vector has squared norm at most r^2, so each row
    must be finite, nonnegative and descending, and each eigenvalue and each
    row's sum must stay below r^2 up to roundoff (1e-9 r^2 plus 1e-12) or,
    when ``standard_errors`` of the same shape are given for estimated
    values, three Monte Carlo standard errors.  Raises ``ValueError`` on the
    first check any row fails.
    """
    values = np.asarray(values, dtype=np.float64)
    r = np.asarray(radii, dtype=np.float64)
    if values.ndim != 2 or r.shape != values.shape[:1]:
        raise ValueError("need an (R, p) stack of eigenvalues and R radii")
    if not np.all(np.isfinite(r) & (r > 0)):
        raise ValueError("radius must be finite and positive")
    _check_descending(values)
    r2 = r * r
    if standard_errors is not None:
        standard_errors = np.asarray(standard_errors, dtype=np.float64)
        if standard_errors.shape != values.shape:
            raise ValueError("standard errors must match values in shape")
        slack = 3.0 * standard_errors
        sum_slack = 3.0 * standard_errors.sum(axis=1) + 1e-9 * r2
    else:
        slack = (1e-9 * r2)[:, None]
        sum_slack = 1e-9 * r2
    if np.any(values > r2[:, None] + slack + 1e-12):
        raise ValueError("a winsorized eigenvalue exceeds the radius squared")
    if np.any(values.sum(axis=1) > r2 + sum_slack + 1e-12):
        raise ValueError("winsorized eigenvalues sum to more than the radius squared")


def _check_descending(values: np.ndarray) -> None:
    """Every row of ``values`` finite, nonnegative and sorted descending."""
    if not np.all(np.isfinite(values)) or np.any(values < 0):
        raise ValueError("eigenvalues must be finite and nonnegative")
    if np.any(np.diff(values, axis=-1) > 0):
        raise ValueError("eigenvalues must be sorted descending")


@dataclass(frozen=True)
class BoundReport:
    """A bound value with its named components and validity flags."""

    value: float
    components: dict[str, float]
    assumptions_met: dict[str, bool]

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
    radii = _check_radii(radii, finite=True)
    rng = make_rng(seed)
    rows = max(1, _TERM_BLOCK_ENTRIES // model.p)
    blocks = (model.draw_whitened(min(rows, n_draws - lo), rng)
              for lo in range(0, n_draws, rows))
    sums, sumsq = winsorized_term_sums(blocks, model.sigma_eigenvalues, radii * radii)
    means = sums / n_draws
    var = np.maximum(sumsq - n_draws * means * means, 0.0) / (n_draws - 1)
    order = np.argsort(-means, axis=1, kind="stable")
    values, ses = (np.take_along_axis(a, order, axis=1)
                   for a in (means, np.sqrt(var / n_draws)))
    check_winsorized_spectra(values, radii, ses)
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
    eigenvalues from one stacked ``eigvalsh``, and the whole stack passes
    ``check_winsorized_spectra`` in one call.
    """
    A = as_data_matrix(X)
    radii = _check_radii(radii, finite=True)
    vals = np.linalg.eigvalsh(_second_moments(A, radii))[:, ::-1].copy()
    np.clip(vals, 0.0, None, out=vals)
    check_winsorized_spectra(vals, radii)
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


def _gap_at(values: np.ndarray, d: int) -> float:
    if not 1 <= d < values.size:
        raise ValueError(f"need 1 <= d < {values.size} winsorized eigenvalues, got d={d}")
    return float(values[d - 1] - values[d])


def concentration_bound(
    lam1: float, lamp: float, values, r: float, d: int,
    eps: float, n: int, p: int, sigma_sub: float = math.inf,
) -> BoundReport:
    """Expected sin(largest angle) bound under eps-contamination.

    ``values`` are the descending winsorized eigenvalues at radius ``r``,
    checked by ``check_winsorized_spectra``.  The bound is ``2 r^2 eps / g
    + 256 min(r^2 lam1 / (p lamp), lam1 sigma_sub^2) max(sqrt(p/n), p/n) /
    g`` with g the winsorized eigengap at d; it is infinite when the gap
    vanishes.  ``sigma_sub`` is the subgaussian parameter of the whitened
    vector; the default of inf gives the bound for elliptical populations.
    """
    values = np.asarray(values, dtype=np.float64)
    check_winsorized_spectra(values[None], [r])
    if not sigma_sub > 0:
        raise ValueError(f"sigma_sub must be positive (inf if elliptical), got {sigma_sub}")
    eps = _check_eps(eps)
    n, p = _check_counts(n, p)
    lam1, lamp = _check_extreme_eigs(lam1, lamp)
    g = _gap_at(values, int(d))
    r2 = float(r) ** 2
    if g <= 0.0:
        comps = {"contamination": math.inf, "sampling": math.inf}
        return BoundReport(math.inf, comps, {"positive_gap": False})
    contamination = 2.0 * r2 * eps / g
    factor = min(r2 * lam1 / (p * lamp), lam1 * sigma_sub * sigma_sub)
    sampling = 256.0 * factor * _dim_ratio(n, p) / g
    return BoundReport(
        contamination + sampling,
        {"contamination": contamination, "sampling": sampling},
        {"positive_gap": True},
    )


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

    Equals ``min(sqrt(lam1) * sigma_sub, sqrt(lam1 * r^2 / (lamp * p)))``;
    with an infinite ``sigma_sub`` only the radius branch applies.
    """
    lam1, lamp = _check_extreme_eigs(lam1, lamp)
    p = int(p)
    if p < 1:
        raise ValueError("need p >= 1")
    r = _check_radius(r)
    if not sigma_sub > 0:
        raise ValueError(f"sigma_sub must be positive (inf if elliptical), got {sigma_sub}")
    return min(math.sqrt(lam1) * sigma_sub, math.sqrt(lam1 * r * r / (lamp * p)))


def covariance_deviation_bound(
    eps: float, r: float, sigma_r: float, n: int, p: int
) -> float:
    """Expected operator-norm deviation of the contaminated winsorized covariance.

    Returns ``eps * r^2 + 16 * sigma_r^2 * max(8 p / n, sqrt(8 p / n))``
    where ``sigma_r`` is the winsorized subgaussian parameter.
    """
    eps = float(eps)
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"contamination fraction must lie in [0, 1], got {eps}")
    if not (math.isfinite(r) and r >= 0 and sigma_r > 0):
        raise ValueError("need a finite r >= 0 and sigma_r > 0")
    n, p = _check_counts(n, p)
    q = 8.0 * p / n
    return eps * r * r + 16.0 * sigma_r * sigma_r * max(q, math.sqrt(q))


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
    averaged gap ``max_{d0 <= d} (sum_{j<=d0} v_j - v_{d+j}) / (2 r^2 d0)``.
    Both are capped at 1/2, the ceiling of any breakdown point, and floored
    at 0.

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
    if not np.all(np.isfinite(r2) & (r2 > 0)):
        raise ValueError("squared radius must be finite and positive")
    d = int(d)
    p = vals.shape[-1]
    if not 1 <= d < p:
        raise ValueError(f"need 1 <= d < p={p}, got d={d}")
    V = vals.reshape(-1, p)
    twice_r2 = 2.0 * r2.reshape(-1)

    def v(j: int) -> np.ndarray | float:
        return V[:, j - 1] if j <= p else 0.0

    # The same operations, in the same order, as a loop over single rows.
    weak = (v(d) - v(d + 1)) / twice_r2
    strong = np.full(V.shape[0], -math.inf)
    top = shifted = 0.0
    for d0 in range(1, d + 1):
        top = top + v(d0)
        shifted = shifted + v(d + d0)
        strong = np.maximum(strong, (top - shifted) / (twice_r2 * d0))
    out = np.minimum(np.maximum(np.stack((weak, strong), axis=1), 0.0), 0.5)
    if vals.ndim == 1:
        return float(out[0, 0]), float(out[0, 1])
    return out


def wpca_breakdown_lower_bounds(values, r: float, d: int) -> tuple[float, float]:
    """``breakdown_lower_bounds_from_values(values, r ** 2, d)`` for a spectrum
    that passes ``check_winsorized_spectra`` at ``r``; kept while
    ``perfbench`` traces it."""
    values = np.asarray(values, dtype=np.float64)
    check_winsorized_spectra(values[None], [r])
    return breakdown_lower_bounds_from_values(values, float(r) ** 2, d)


def perturbation_bound(
    lam_d_r: float, lam_d1_r: float, r: float, eps: float
) -> BoundReport:
    """Deterministic sin(largest angle) bounds under eps-contamination.

    ``bound1 = 2 r^2 eps / g`` holds whenever the winsorized sample eigengap
    g is positive; ``bound2 = r^2 eps / (g - 2 r^2 eps)`` is sharper but only
    valid when ``g > 4 r^2 eps``.  The report's value is the smallest
    available bound.
    """
    eps = _check_eps(eps)
    r = _check_radius(r)
    lam_d_r, lam_d1_r = float(lam_d_r), float(lam_d1_r)
    if not (math.isfinite(lam_d_r) and lam_d_r >= lam_d1_r >= 0):
        raise ValueError(f"need finite lam_d_r >= lam_d1_r >= 0, got {lam_d_r}, {lam_d1_r}")
    g = lam_d_r - lam_d1_r
    r2 = r * r
    components: dict[str, float] = {}
    bound1 = math.inf if g <= 0.0 else 2.0 * r2 * eps / g
    components["bound1"] = bound1
    bound2_valid = g > 4.0 * r2 * eps
    if bound2_valid:
        components["bound2"] = r2 * eps / (g - 2.0 * r2 * eps)
    value = min(components.values())
    return BoundReport(
        value,
        components,
        {"positive_gap": g > 0.0, "bound2_valid": bound2_valid},
    )

"""Closed-form error bounds and breakdown points for winsorized PCA.

Everything here evaluates a formula; nothing fits data.  The inputs are
population quantities (covariance eigenvalues, subgaussian parameters),
winsorized spectra (population ones estimated by Monte Carlo, sample ones
read off a fitted covariance), and contamination levels.  Outputs are
reported raw, without clipping to 1, since the formulas themselves are not
clipped; a clipped convenience field is attached for plotting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import winsorized_term_sums
from .distributions import PopulationModel, make_rng
from .subspace import winsorized_second_moments
from .transform import as_data_matrix

__all__ = [
    "WinsorizedSpectrum",
    "BoundReport",
    "estimate_winsorized_eigenvalues",
    "sample_winsorized_spectrum",
    "sample_winsorized_spectra",
    "concentration_bound",
    "asymptotic_rate",
    "subgaussian_param_winsorized",
    "covariance_deviation_bound",
    "pca_breakdown_points",
    "breakdown_lower_bounds_from_values",
    "wpca_breakdown_lower_bounds",
    "perturbation_bound",
]

# Draws per Monte Carlo batch are capped so the whitened block stays small.
_BATCH_ENTRIES = 20_000_000


@dataclass(frozen=True)
class WinsorizedSpectrum:
    """Eigenvalues of a winsorized covariance, descending, with provenance.

    A winsorized vector has squared norm at most r^2, so each eigenvalue and
    their sum are bounded by r^2; construction enforces this up to roundoff
    plus three Monte Carlo standard errors when the values are estimated.
    """

    values: np.ndarray
    radius: float
    source: str
    standard_errors: np.ndarray | None = None
    n_draws: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        r = float(self.radius)
        if vals.ndim != 1 or vals.size < 1:
            raise ValueError("values must be a nonempty 1-D vector")
        if not np.isfinite(r) or r <= 0:
            raise ValueError("radius must be finite and positive")
        if self.source not in ("monte_carlo", "sample"):
            raise ValueError(f"unknown source {self.source!r}")
        if not np.all(np.isfinite(vals)) or np.any(vals < 0):
            raise ValueError("winsorized eigenvalues must be finite and nonnegative")
        if np.any(np.diff(vals) > 0):
            raise ValueError("winsorized eigenvalues must be sorted descending")
        r2 = r * r
        if self.standard_errors is not None:
            ses = np.asarray(self.standard_errors, dtype=np.float64)
            if ses.shape != vals.shape:
                raise ValueError("standard errors must match values in shape")
            object.__setattr__(self, "standard_errors", ses)
            slack = 3.0 * ses
            sum_slack = 3.0 * float(ses.sum()) + 1e-9 * r2
        else:
            slack = np.full_like(vals, 1e-9 * r2)
            sum_slack = 1e-9 * r2
        if np.any(vals > r2 + slack + 1e-12):
            raise ValueError("a winsorized eigenvalue exceeds the radius squared")
        if vals.sum() > r2 + sum_slack + 1e-12:
            raise ValueError("winsorized eigenvalues sum to more than the radius squared")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "radius", r)


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


def estimate_winsorized_eigenvalues(
    model: PopulationModel, r: float, n_draws: int, seed: int
) -> WinsorizedSpectrum:
    """Monte Carlo estimate of the population winsorized eigenvalues.

    For a diagonal covariance the jth winsorized eigenvalue is
    ``E[lam_j * y_j**2 * min(1, r**2 / s**2)]`` with ``s**2`` the squared
    norm of the unwinsorized draw; the expectation runs over the whitened
    spherical generator y.  Standard errors of each coordinate travel with
    the result.
    """
    if not isinstance(model, PopulationModel):
        raise ValueError("model must be a PopulationModel")
    n_draws = int(n_draws)
    if n_draws < 1000:
        raise ValueError(f"need at least 1000 draws for a usable estimate, got {n_draws}")
    r = float(r)
    if not np.isfinite(r) or r <= 0:
        raise ValueError("radius must be finite and positive")
    lam = model.sigma_eigenvalues
    rng = make_rng(seed)
    batch = max(1, _BATCH_ENTRIES // model.p)
    sums = np.zeros(model.p)
    sumsq = np.zeros(model.p)
    left = n_draws
    while left > 0:
        take = min(batch, left)
        y = model.draw_whitened(take, rng)
        s, q = winsorized_term_sums(y, lam, r * r)
        sums += s
        sumsq += q
        left -= take
    means = sums / n_draws
    var = np.maximum(sumsq - n_draws * means * means, 0.0) / max(n_draws - 1, 1)
    ses = np.sqrt(var / n_draws)
    order = np.argsort(-means, kind="stable")
    return WinsorizedSpectrum(
        values=means[order],
        radius=r,
        source="monte_carlo",
        standard_errors=ses[order],
        n_draws=n_draws,
        seed=int(seed),
    )


def sample_winsorized_spectrum(X, r: float) -> WinsorizedSpectrum:
    """Eigenvalues of the winsorized sample covariance of ``X`` at radius ``r``."""
    return sample_winsorized_spectra(X, [r])[0]


def sample_winsorized_spectra(X, radii) -> list[WinsorizedSpectrum]:
    """sample_winsorized_spectrum at every radius of a grid, in the order given.

    ``X`` is validated once, the covariances come from one
    ``winsorized_second_moments`` call and their eigenvalues from one stacked
    ``eigvalsh``; each spectrum still passes every ``WinsorizedSpectrum``
    check.
    """
    A = as_data_matrix(X)
    radii = np.asarray(radii, dtype=np.float64)
    if not np.all(np.isfinite(radii) & (radii > 0)):
        raise ValueError(f"winsorization radii must be finite and positive, got {radii}")
    vals = np.linalg.eigvalsh(winsorized_second_moments(A, radii))[:, ::-1].copy()
    np.clip(vals, 0.0, None, out=vals)
    return [WinsorizedSpectrum(values=v, radius=float(r), source="sample")
            for v, r in zip(vals, radii)]


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


def _gap_at(wspec: WinsorizedSpectrum, d: int) -> float:
    vals = wspec.values
    if not 1 <= d < vals.size:
        raise ValueError(f"need 1 <= d < {vals.size} winsorized eigenvalues, got d={d}")
    return float(vals[d - 1] - vals[d])


def concentration_bound(
    lam1: float, lamp: float, wspec: WinsorizedSpectrum, d: int,
    eps: float, n: int, p: int, sigma_sub: float = math.inf,
) -> BoundReport:
    """Expected sin(largest angle) bound under eps-contamination.

    The bound is ``2 r^2 eps / g + 256 min(r^2 lam1 / (p lamp),
    lam1 sigma_sub^2) max(sqrt(p/n), p/n) / g`` with g the winsorized
    eigengap at d; it is infinite when the gap vanishes.  ``sigma_sub`` is
    the subgaussian parameter of the whitened vector; the default of inf
    gives the bound for elliptical populations.
    """
    if not sigma_sub > 0:
        raise ValueError(f"sigma_sub must be positive (inf if elliptical), got {sigma_sub}")
    eps = _check_eps(eps)
    n, p = _check_counts(n, p)
    if not (lam1 >= lamp > 0):
        raise ValueError("need lam1 >= lamp > 0")
    g = _gap_at(wspec, int(d))
    r2 = wspec.radius ** 2
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
    are unknown.
    """
    n, p = _check_counts(n, p)
    eps = _check_eps(eps)
    b = max(float(beta), 0.0)
    term1 = p ** (1.0 + 2.0 * b) * eps
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
    if not (lam1 >= lamp > 0):
        raise ValueError("need lam1 >= lamp > 0")
    p = int(p)
    if p < 1 or r <= 0:
        raise ValueError("need p >= 1 and r > 0")
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
    if r < 0 or sigma_r <= 0:
        raise ValueError("need r >= 0 and sigma_r > 0")
    n, p = _check_counts(n, p)
    q = 8.0 * p / n
    return eps * r * r + 16.0 * sigma_r * sigma_r * max(q, math.sqrt(q))


def pca_breakdown_points(n: int, d: int) -> tuple[float, float]:
    """Weak and strong breakdown points of the classical PC subspace: (1/n, d/n)."""
    n, d = int(n), int(d)
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    return 1.0 / n, d / n


def breakdown_lower_bounds_from_values(values, r2: float, d: int) -> tuple[float, float]:
    """Breakdown lower bounds from raw descending eigenvalues and a squared radius.

    With eigenvalues ``v_1 >= ... >= v_p`` (taken as zero past p): the weak
    bound is ``(v_d - v_{d+1}) / (2 r^2)`` and the strong bound is the best
    averaged gap ``max_{d0 <= d} (sum_{j<=d0} v_j - v_{d+j}) / (2 r^2 d0)``.
    Both are capped at 1/2, the ceiling of any breakdown point, and floored
    at 0.
    """
    vals = np.asarray(values, dtype=np.float64)
    if vals.ndim != 1 or vals.size < 1 or not np.all(np.isfinite(vals)):
        raise ValueError("eigenvalues must be a finite nonempty 1-D vector")
    if np.any(np.diff(vals) > 0) or vals[-1] < 0:
        raise ValueError("eigenvalues must be nonnegative and sorted descending")
    r2 = float(r2)
    if not np.isfinite(r2) or r2 <= 0:
        raise ValueError("squared radius must be finite and positive")
    d = int(d)
    p = vals.size
    if not 1 <= d < p:
        raise ValueError(f"need 1 <= d < p={p}, got d={d}")

    def v(j: int) -> float:
        return float(vals[j - 1]) if j <= p else 0.0

    weak = (v(d) - v(d + 1)) / (2.0 * r2)
    strong = -math.inf
    top = 0.0
    shifted = 0.0
    for d0 in range(1, d + 1):
        top += v(d0)
        shifted += v(d + d0)
        strong = max(strong, (top - shifted) / (2.0 * r2 * d0))

    def clamp(x: float) -> float:
        return min(max(x, 0.0), 0.5)

    return clamp(weak), clamp(strong)


def wpca_breakdown_lower_bounds(wspec: WinsorizedSpectrum, d: int) -> tuple[float, float]:
    """Breakdown-point lower bounds of a winsorized PC subspace from its spectrum.

    See breakdown_lower_bounds_from_values for the formulas; the radius and
    eigenvalues come from the supplied winsorized spectrum.
    """
    return breakdown_lower_bounds_from_values(
        wspec.values, wspec.radius ** 2, d)


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
    if r <= 0 or not np.isfinite(r):
        raise ValueError("radius must be finite and positive")
    lam_d_r, lam_d1_r = float(lam_d_r), float(lam_d1_r)
    if lam_d_r < lam_d1_r or lam_d1_r < 0:
        raise ValueError("need lam_d_r >= lam_d1_r >= 0")
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

"""Covariance, eigendecomposition, PC subspaces, and principal angles.

The covariance here is the uncentered second-moment matrix ``X.T @ X / n``;
winsorized PCA is the eigendecomposition of that matrix after the rows of
``X`` have been winsorized, with no mean subtraction at any point.  Distances
between fitted and target subspaces are measured by principal angles, with
two independent computational routes (SVD of the cross-Gram matrix, and the
operator norm through an orthonormal complement) that cross-validate each
other.

The radius-path engine reads the winsorized covariance as a function of the
radius: ``S(r) = (sum_{|x|<=r} x x^T + r^2 sum_{|x|>r} u u^T) / n`` with
``u = x / |x|`` is piecewise in the order of the row norms, so every matrix
of a radius grid comes from one sort of the rows and one Gram per segment
between consecutive radii (``winsorized_second_moments``).  ``fit_pc_path``
then solves only for the eigenpairs a fit uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import (
    BOUNDARY_REL_TOL,
    _fix_column_signs,
    descending_eigenpairs,
    row_norms,
    top_eigh,
    unit_rows,
    winsorize_rows,
)
from .transform import RadiusSpec, _resolve_radius, _spherize_rows, as_data_matrix

__all__ = [
    "Spectrum",
    "Subspace",
    "AngleReport",
    "WPCAFit",
    "sample_covariance",
    "symmetric_eigh",
    "winsorized_second_moments",
    "fit_pc_subspace",
    "fit_pc_path",
    "principal_angles",
    "sin_theta_operator",
]

# Eigenvalue ties at this relative scale make the top-d subspace ill-defined.
GAP_TIE_TOL = 1e-12
# Largest entry of |B^T B - I| with which a basis B still counts as orthonormal.
ORTHONORMAL_TOL = 1e-8
_OVERFLOW = ("winsorized second moments overflow float64; "
             "rescale the data or choose a smaller radius")


def _is_orthonormal(B: np.ndarray) -> bool:
    """Whether the p x d matrix ``B`` is finite with orthonormal columns."""
    return bool(np.all(np.isfinite(B))) and bool(
        np.max(np.abs(B.T @ B - np.eye(B.shape[1]))) <= ORTHONORMAL_TOL)


@dataclass(frozen=True)
class Spectrum:
    """The leading k <= p eigenvalues, descending, with orthonormal eigenvectors.

    ``eigenvectors`` has p rows and at most k columns.  ``fit_pc_subspace``
    and ``symmetric_eigh`` give all p eigenvalues; ``fit_pc_path`` gives the
    top ``min(p, d + 1)`` with as many columns.  On the thin-SVD route
    (``d <= n < p``) all p eigenvalues are given, the trailing ones exact
    zeros, with only ``n`` columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.eigenvalues, dtype=np.float64)
        vecs = np.asarray(self.eigenvectors, dtype=np.float64)
        if vals.ndim != 1 or vecs.ndim != 2:
            raise ValueError("Spectrum expects a 1-D value vector and 2-D vector matrix")
        if vecs.shape[1] > vals.size or vals.size > vecs.shape[0]:
            raise ValueError(
                f"shape mismatch: {vals.size} eigenvalues, eigenvectors {vecs.shape}"
            )
        if np.any(np.diff(vals) > 0):
            raise ValueError("eigenvalues must be sorted in descending order")
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "eigenvectors", vecs)


@dataclass(frozen=True)
class Subspace:
    """A d-dimensional linear subspace of R^p, stored as an orthonormal basis."""

    basis: np.ndarray

    def __post_init__(self) -> None:
        B = np.ascontiguousarray(self.basis, dtype=np.float64)
        if B.ndim == 1:
            B = B[:, None]
        if B.ndim != 2 or B.shape[0] < 1 or B.shape[1] < 1:
            raise ValueError("basis must be a nonempty p x d matrix")
        if B.shape[1] > B.shape[0]:
            raise ValueError(f"subspace dimension {B.shape[1]} exceeds ambient {B.shape[0]}")
        if not _is_orthonormal(B):
            raise ValueError(
                f"basis must be finite with columns orthonormal within {ORTHONORMAL_TOL:g}")
        object.__setattr__(self, "basis", B)

    @property
    def p(self) -> int:
        return self.basis.shape[0]

    @property
    def d(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class AngleReport:
    """Principal angles between two subspaces, ascending, in [0, pi/2]."""

    angles: np.ndarray

    @property
    def smallest(self) -> float:
        return float(self.angles[0])

    @property
    def largest(self) -> float:
        return float(self.angles[-1])

    @property
    def sin_largest(self) -> float:
        return math.sin(self.largest)


@dataclass(frozen=True)
class WPCAFit:
    """Result of a PC-subspace fit: basis, full spectrum, and how the radius resolved.

    ``degenerate_gap`` flags an eigenvalue tie at the subspace boundary; the
    fit is still returned but downstream gap-based bounds will be infinite.
    """

    subspace: Subspace
    spectrum: Spectrum
    mode: str
    effective_radius: float | None
    degenerate_gap: bool

    @property
    def basis(self) -> np.ndarray:
        return self.subspace.basis


def sample_covariance(X) -> np.ndarray:
    """Uncentered sample covariance ``X.T @ X / n``; no mean subtraction."""
    A = as_data_matrix(X)
    return A.T @ A / A.shape[0]


def symmetric_eigh(S) -> Spectrum:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    Input must be symmetric within 1e-8 relative; it is symmetrized before
    factorization.  Negative eigenvalues within roundoff of zero (1e-10
    relative to the largest) are clamped to exactly zero.  Each eigenvector is
    oriented so its largest-magnitude entry is positive.
    """
    A = np.ascontiguousarray(S, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix contains non-finite entries")
    scale = np.max(np.abs(A)) if A.size else 0.0
    if np.max(np.abs(A - A.T)) > 1e-8 * max(scale, 1e-300):
        raise ValueError("matrix is not symmetric within 1e-8 relative")
    return Spectrum(*descending_eigenpairs(*np.linalg.eigh((A + A.T) / 2.0)))


def _check_dim(d, p: int) -> int:
    d = int(d)
    if not 1 <= d <= p:
        raise ValueError(f"subspace dimension d={d} must satisfy 1 <= d <= p={p}")
    return d


def _check_radii(radii) -> np.ndarray:
    r = np.asarray(radii, dtype=np.float64)
    if r.ndim != 1 or r.size < 1:
        raise ValueError("radii must be a nonempty 1-D sequence")
    if not np.all(r > 0):
        raise ValueError("every radius must be positive (+inf leaves rows untouched)")
    return r


def winsorized_second_moments(A: np.ndarray, radii) -> np.ndarray:
    """Winsorized second-moment matrices of ``A`` at every radius, shape (R, p, p).

    Entry j is the uncentered covariance of ``winsorize_dataset(A, radii[j])``,
    ``(sum_{|x|<=r} x x^T + r^2 sum_{|x|>r} u u^T) / n`` with ``u = x / |x|``;
    a radius of ``+inf`` leaves every row alone.  A row counts as inside when
    its norm exceeds r by at most the relative slack ``BOUNDARY_REL_TOL``,
    the rule ``winsorize_rows`` applies.  Radii may come in any order and
    repeat.

    The rows are sorted by norm once and split at the sorted radii; each
    segment's Gram of raw rows and of unit rows is formed once.  Raw-row
    Grams accumulate upward from the smallest norms and unit-row Grams
    downward from the largest, so no sum is ever formed as a total minus a
    part: with rows of norm 1e6 in the total, that difference would cancel
    catastrophically.  Beyond the result, one p x p accumulator is held.

    ``A`` must already be validated by ``as_data_matrix``; it is not checked
    again here.  A matrix whose entries overflow float64, from rows left
    alone or from a radius too large, raises ``ValueError``.
    """
    radii = _check_radii(radii)
    n, p = A.shape
    norms = row_norms(A)
    order = np.argsort(norms, kind="stable")
    sorted_norms = norms[order]
    by_radius = np.argsort(radii, kind="stable")
    cuts = np.searchsorted(sorted_norms, radii[by_radius] * (1.0 + BOUNDARY_REL_TOL),
                           side="right")
    out = np.empty((radii.size, p, p))
    acc = np.zeros((p, p))
    lo = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for j, cut in zip(by_radius, cuts):
            if cut > lo:
                seg = A[order[lo:cut]]
                acc += seg.T @ seg
                lo = cut
            out[j] = acc
        acc[:] = 0.0
        hi = n
        for j, cut in zip(by_radius[::-1], cuts[::-1]):
            if cut < hi:
                seg = A[order[cut:hi]]
                if math.isinf(sorted_norms[hi - 1]):  # a norm beyond float64
                    seg = unit_rows(seg, sorted_norms[cut:hi])
                else:
                    seg /= sorted_norms[cut:hi, None]
                acc += seg.T @ seg
                hi = cut
            if hi < n:
                out[j] += radii[j] ** 2 * acc
    # An entry of a second-moment matrix is at most its larger diagonal
    # entry in magnitude, so an overflow anywhere shows on the diagonal.
    if not np.all(np.isfinite(out.diagonal(axis1=1, axis2=2))):
        raise ValueError(_OVERFLOW)
    out /= n
    return out


def _thin_svd_spectrum(W: np.ndarray) -> Spectrum:
    n, p = W.shape
    _, s, Vh = np.linalg.svd(W, full_matrices=False)
    vals = np.zeros(p)
    with np.errstate(over="ignore"):
        vals[: s.size] = s * s / n
    if np.isinf(vals[0]):
        raise ValueError(_OVERFLOW)
    return Spectrum(vals, _fix_column_signs(Vh.T))


def _spectra(A: np.ndarray, d: int, radii, eigensolve) -> list[Spectrum]:
    """The spectrum of the winsorized rows of ``A`` at every radius.

    With fewer rows than columns the thin SVD of the winsorized rows is
    cheaper than the p x p Gram, and exact zeros fill the missing
    eigenvalues; it has only n eigenvectors, so it needs n >= d.  Otherwise
    ``eigensolve`` takes each matrix of ``winsorized_second_moments``.
    """
    n, p = A.shape
    if d <= n < p:
        return [_thin_svd_spectrum(A if math.isinf(r) else winsorize_rows(A, r))
                for r in radii]
    return [eigensolve(S) for S in winsorized_second_moments(A, radii)]


def _make_fit(spectrum: Spectrum, d: int, mode: str, r: float | None) -> WPCAFit:
    vals = spectrum.eigenvalues
    lam_next = vals[d] if d < vals.size else 0.0
    degenerate = (vals[d - 1] - lam_next) <= GAP_TIE_TOL * max(vals[0], 1e-300)
    return WPCAFit(Subspace(spectrum.eigenvectors[:, :d]), spectrum, mode, r,
                   bool(degenerate))


def fit_pc_subspace(X, d: int, spec: RadiusSpec) -> WPCAFit:
    """Fit the top-d PC subspace of ``X`` after applying a radius policy.

    The pipeline is: resolve the radius policy, winsorize / spherize / leave
    the rows alone accordingly, form the uncentered covariance, and take the
    top-d eigenvectors.  The full spectrum travels with the result so bound
    computations can consume the winsorized sample eigenvalues.
    """
    A = as_data_matrix(X)
    d = _check_dim(d, A.shape[1])
    mode, r = _resolve_radius(A, spec)
    # Spherized rows are the rows a radius of +inf leaves alone.
    W = _spherize_rows(A) if mode == "spherize" else A
    spectrum = _spectra(W, d, [math.inf if r is None else r], symmetric_eigh)[0]
    return _make_fit(spectrum, d, mode, r)


def fit_pc_path(X, d: int, radii) -> list[WPCAFit]:
    """Top-d PC subspaces of ``X`` along a path of winsorization radii.

    Fit j equals ``fit_pc_subspace(X, d, RadiusSpec.fixed(radii[j]))``, or
    ``RadiusSpec.none()`` where the radius is ``+inf``, to roundoff; radii
    may come in any order and repeat.  ``X`` is validated once, every
    covariance comes from one ``winsorized_second_moments`` call, and only
    the top ``min(p, d + 1)`` eigenpairs of each are solved for, which is
    what the subspace and its gap flag use.  With ``d <= n < p`` each radius
    takes the thin SVD of its winsorized rows instead, as in
    ``fit_pc_subspace``.
    """
    A = as_data_matrix(X)
    p = A.shape[1]
    d = _check_dim(d, p)
    k = min(p, d + 1)
    radii = _check_radii(radii)
    spectra = _spectra(A, d, radii, lambda S: Spectrum(*top_eigh(S, k)))
    return [_make_fit(s, d, "identity", None) if math.isinf(r)
            else _make_fit(s, d, "winsorize", float(r))
            for s, r in zip(spectra, radii)]


def _basis_of(S) -> np.ndarray:
    return S.basis if isinstance(S, Subspace) else Subspace(S).basis


def _check_pair(U, W) -> tuple[np.ndarray, np.ndarray]:
    Ub, Wb = _basis_of(U), _basis_of(W)
    if Ub.shape[0] != Wb.shape[0]:
        raise ValueError(f"ambient dimensions differ: {Ub.shape[0]} vs {Wb.shape[0]}")
    if Ub.shape[1] != Wb.shape[1]:
        raise ValueError(f"subspace dimensions differ: {Ub.shape[1]} vs {Wb.shape[1]}")
    return Ub, Wb


def principal_angles(U, W) -> AngleReport:
    """Principal angles between two d-dimensional subspaces of R^p.

    The cosines are the singular values of ``U.T @ W`` clamped to [0, 1];
    angles are reported ascending, so ``largest`` is the angle that bounds
    subspace recovery error and ``smallest`` the best-aligned direction.
    """
    Ub, Wb = _check_pair(U, W)
    if Ub.shape[1] == Ub.shape[0] or np.array_equal(Ub, Wb):
        # Identical bases, or two full bases of the whole space, span the
        # same subspace; skip the SVD so the zero angle is exact rather
        # than arccos of 1 minus roundoff.
        return AngleReport(np.zeros(Ub.shape[1]))
    sigma = np.linalg.svd(Ub.T @ Wb, compute_uv=False)
    return AngleReport(np.arccos(np.clip(sigma, 0.0, 1.0)))


def sin_theta_operator(U, W) -> float:
    """Sine of the largest principal angle via an orthonormal complement.

    Computes the operator 2-norm of ``U_perp.T @ W`` where ``U_perp``
    completes the first basis; this is an independent route to
    ``sin(principal_angles(U, W).largest)`` and the two agree within 1e-8.
    """
    Ub, Wb = _check_pair(U, W)
    p, d = Ub.shape
    if d == p or np.array_equal(Ub, Wb):
        return 0.0
    Q, _, _ = np.linalg.svd(Ub, full_matrices=True)
    perp = Q[:, d:]
    sigma = np.linalg.svd(perp.T @ Wb, compute_uv=False)
    return float(min(sigma[0], 1.0)) if sigma.size else 0.0

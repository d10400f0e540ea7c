"""Covariance, eigendecomposition, PC subspaces, and principal angles.

The covariance here is the uncentered second-moment matrix ``X.T @ X / n``;
winsorized PCA is the eigendecomposition of that matrix after the rows of
``X`` have been winsorized, with no mean subtraction at any point.  Distances
between fitted and target subspaces are measured by principal angles, the
arccosines of the singular values of the cross-Gram matrix.

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
    one_blas_thread,
    row_norms,
    thread_map,
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
    "symmetric_eigh",
    "winsorized_second_moments",
    "fit_pc_subspace",
    "fit_pc_path",
    "principal_angles",
]

# Eigenvalue ties at this relative scale make the top-d subspace ill-defined.
GAP_TIE_TOL = 1e-12
# Largest entry of |B^T B - I| with which a basis B still counts as orthonormal.
ORTHONORMAL_TOL = 1e-8
# Paths of smaller matrices solve on the calling thread.  On a 2-vCPU
# machine (paired, shuffled rounds), every path ran slower on two threads
# below 32 columns; from 64 up, paths of 8 and 31 matrices ran 24-33 %
# faster, and paths of 2 or 3 between 15 % faster and 11 % slower, with
# the machine's load.
_THREADED_MIN_P = 64
_OVERFLOW = ("winsorized second moments overflow float64; "
             "rescale the data or choose a smaller radius")


def _is_orthonormal(B: np.ndarray) -> bool:
    """Whether the p x d matrix ``B`` is finite with orthonormal columns."""
    return bool(np.all(np.isfinite(B))) and bool(
        np.max(np.abs(B.T @ B - np.eye(B.shape[1]))) <= ORTHONORMAL_TOL)


@dataclass(frozen=True)
class Spectrum:
    """The leading k <= p eigenvalues, descending, with orthonormal eigenvectors.

    ``eigenvectors`` has p rows and at most k columns: as many as eigenvalues
    from ``top_eigh`` (all p in ``symmetric_eigh`` and ``fit_pc_subspace``,
    the top ``min(p, d + 1)`` in ``fit_pc_path``), and ``n`` on the thin-SVD
    route (``d <= n < p``), whose trailing p - n eigenvalues are exact zeros.
    Fits build their spectra unchecked, in ``_make_fit``.
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
    """Result of a PC-subspace fit: basis, spectrum, and how the radius resolved.

    A single fit carries the full spectrum, a path fit its top d + 1
    eigenvalues (see ``Spectrum``).  ``degenerate_gap`` flags an eigenvalue
    tie at the subspace boundary; the fit is still returned but downstream
    gap-based bounds will be infinite.
    """

    subspace: Subspace
    spectrum: Spectrum
    mode: str
    effective_radius: float | None
    degenerate_gap: bool

    @property
    def basis(self) -> np.ndarray:
        return self.subspace.basis


@one_blas_thread
def symmetric_eigh(S) -> Spectrum:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    Input must be symmetric within 1e-8 relative; it is symmetrized before
    factorization.  Negative eigenvalues within roundoff of zero (1e-10
    relative to the largest) are clamped to exactly zero.  Each eigenvector is
    oriented so its largest-magnitude entry is positive.  This is
    ``top_eigh`` with every eigenpair.
    """
    A = np.ascontiguousarray(S, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix contains non-finite entries")
    if np.max(np.abs(A - A.T)) > 1e-8 * max(np.max(np.abs(A)), 1e-300):
        raise ValueError("matrix is not symmetric within 1e-8 relative")
    return Spectrum(*top_eigh((A + A.T) / 2.0, A.shape[0]))


def _check_dim(d, p: int) -> int:
    d = int(d)
    if not 1 <= d <= p:
        raise ValueError(f"subspace dimension d={d} must satisfy 1 <= d <= p={p}")
    return d


def _check_radii(radii, finite: bool = False) -> np.ndarray:
    """``radii`` as a nonempty 1-D array of positive radii; ``+inf`` leaves
    rows untouched and is allowed unless ``finite``."""
    r = np.asarray(radii, dtype=np.float64)
    if finite and not np.all(np.isfinite(r) & (r > 0)):
        raise ValueError(f"winsorization radii must be finite and positive, got {r}")
    if r.ndim != 1 or r.size < 1:
        raise ValueError("radii must be a nonempty 1-D sequence")
    if not np.all(r > 0):
        raise ValueError("every radius must be positive (+inf leaves rows untouched)")
    return r


@one_blas_thread
def winsorized_second_moments(A, radii) -> np.ndarray:
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

    ``A`` is validated by ``as_data_matrix``.  A matrix whose entries
    overflow float64, from rows left alone or from a radius too large,
    raises ``ValueError``.
    """
    return _second_moments(as_data_matrix(A), _check_radii(radii))


def _second_moments(A: np.ndarray, radii: np.ndarray, norms=None) -> np.ndarray:
    """winsorized_second_moments on a validated matrix and checked radii,
    given the row norms of ``A`` where the caller has them."""
    n, p = A.shape
    norms = row_norms(A) if norms is None else norms
    order = np.argsort(norms, kind="stable")
    sorted_norms = norms[order]
    by_radius = np.argsort(radii, kind="stable")
    cuts = np.searchsorted(sorted_norms, radii[by_radius] * (1.0 + BOUNDARY_REL_TOL),
                           side="right")
    # Segments are views of one sorted copy, made unit rows after the raw Grams.
    As = A[order]
    out = np.empty((radii.size, p, p))
    acc = np.zeros((p, p))
    lo = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for j, cut in zip(by_radius, cuts):
            if cut > lo:
                seg = As[lo:cut]
                acc += seg.T @ seg
                lo = cut
            out[j] = acc
        outer, outer_norms = As[cuts[0]:], sorted_norms[cuts[0]:]
        if math.isinf(sorted_norms[-1]):  # a norm beyond float64
            outer[:] = unit_rows(outer, outer_norms)
        else:
            outer /= outer_norms[:, None]
        acc[:] = 0.0
        hi = n
        for j, cut in zip(by_radius[::-1], cuts[::-1]):
            if cut < hi:
                seg = As[cut:hi]
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


def _thin_svd_spectrum(W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n, p = W.shape
    _, s, Vh = np.linalg.svd(W, full_matrices=False)
    vals = np.zeros(p)
    with np.errstate(over="ignore"):
        vals[: s.size] = s * s / n
    if np.isinf(vals[0]):
        raise ValueError(_OVERFLOW)
    return vals, _fix_column_signs(Vh.T)


@one_blas_thread
def _spectra(A: np.ndarray, d: int, radii: np.ndarray, k: int) -> list[tuple]:
    """The eigenpairs ``(values, vectors)`` of the winsorized ``A`` at every radius.

    With fewer rows than columns the thin SVD of the winsorized rows is
    cheaper than the p x p Gram, and exact zeros fill the missing
    eigenvalues; it has only n eigenvectors, so it needs n >= d.  Otherwise
    ``top_eigh`` solves for the top ``k`` eigenpairs of each matrix of
    ``winsorized_second_moments``.

    Each distinct matrix is solved once.  A radius that clips no row (the
    cut of ``_second_moments`` at n) leaves the raw rows, bit for bit as
    ``+inf`` does, and equal radii give equal matrices; the radii that
    share a matrix get copies of one solve.  From ``_THREADED_MIN_P``
    columns up, the eigensolves spread over the process's CPUs through
    ``thread_map``, each on one BLAS thread.  The thin SVDs stay on the
    calling thread: numpy's SVD holds the interpreter lock, so no second
    thread could run beside it.
    """
    n, p = A.shape
    norms = row_norms(A)
    clips = radii * (1.0 + BOUNDARY_REL_TOL) < norms.max()
    keys, first, which = np.unique(np.where(clips, radii, math.inf),
                                   return_index=True, return_inverse=True)
    if d <= n < p:
        spectra = [_thin_svd_spectrum(A if math.isinf(r) else winsorize_rows(A, r))
                   for r in keys]
    else:
        spectra = thread_map(lambda S: top_eigh(S, k), _second_moments(A, keys, norms),
                             None if p >= _THREADED_MIN_P else 1)
    # Radii after the first that share a matrix get copies, so no two fits
    # share an array.
    return [spectra[i] if j == first[i] else tuple(a.copy() for a in spectra[i])
            for j, i in enumerate(which)]


def _make_fit(vals, vecs, d: int, mode: str, r: float | None) -> WPCAFit:
    # Both solvers give finite, descending eigenvalues and orthonormal
    # columns, all that the constructors of Spectrum and Subspace check.
    spectrum, subspace = object.__new__(Spectrum), object.__new__(Subspace)
    vars(spectrum).update(eigenvalues=vals, eigenvectors=vecs)
    vars(subspace).update(basis=vecs[:, :d].copy())  # C order, and never a view of vecs
    lam_next = vals[d] if d < vals.size else 0.0
    degenerate = (vals[d - 1] - lam_next) <= GAP_TIE_TOL * max(vals[0], 1e-300)
    return WPCAFit(subspace, spectrum, mode, r, bool(degenerate))


def fit_pc_subspace(X, d: int, spec: RadiusSpec) -> WPCAFit:
    """Fit the top-d PC subspace of ``X`` after applying a radius policy.

    The radius policy is resolved first; the rest is the one-radius case of
    ``fit_pc_path``, solving for all p eigenpairs, so bound computations can
    consume the full winsorized sample spectrum.
    """
    A = as_data_matrix(X)
    d = _check_dim(d, A.shape[1])
    mode, r = _resolve_radius(A, spec)
    # Spherized rows are the rows a radius of +inf leaves alone.
    W = _spherize_rows(A) if mode == "spherize" else A
    vals, vecs = _spectra(W, d, np.array([math.inf if r is None else r]), A.shape[1])[0]
    return _make_fit(vals, vecs, d, mode, r)


def fit_pc_path(X, d: int, radii) -> list[WPCAFit]:
    """Top-d PC subspaces of ``X`` along a path of winsorization radii.

    Fit j equals ``fit_pc_subspace(X, d, RadiusSpec.fixed(radii[j]))``, or
    ``RadiusSpec.none()`` where the radius is ``+inf``, to roundoff; bit for
    bit on the thin-SVD route, and for a one-radius path where both solve
    the same eigenpairs (``d + 1 = p``).  Radii may come in any order and
    repeat.  ``X`` is validated once, every covariance comes from one
    ``winsorized_second_moments`` call, and only the top ``min(p, d + 1)``
    eigenpairs of each distinct matrix are solved for, which is what the
    subspace and its gap flag use; the solves spread over the process's
    CPUs with the same bits as on one.  With ``d <= n < p`` each radius
    takes the thin SVD of its winsorized rows instead, as in
    ``fit_pc_subspace``.
    """
    A = as_data_matrix(X)
    p = A.shape[1]
    d = _check_dim(d, p)
    radii = _check_radii(radii)
    spectra = _spectra(A, d, radii, min(p, d + 1))
    return [_make_fit(*s, d, "identity", None) if math.isinf(r)
            else _make_fit(*s, d, "winsorize", float(r))
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


@one_blas_thread
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


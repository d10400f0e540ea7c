"""Covariance, eigendecomposition, PC subspaces, and principal angles.

The covariance here is the uncentered second-moment matrix ``X.T @ X / n``;
winsorized PCA is the eigendecomposition of that matrix after the rows of
``X`` have been winsorized, with no mean subtraction at any point.  A fit
(``WPCAFit``) is a record of plain arrays, and a subspace is a p x d array
with orthonormal columns.  Distances between fitted and target subspaces are
measured by principal angles, the arccosines of the singular values of the
cross-Gram matrix.

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
    _descending_eigenpairs,
    one_blas_thread,
    row_norms,
    thread_map,
    top_eigh,
    unit_rows,
    winsorize_rows,
)
from .transform import RadiusSpec, as_data_matrix, resolve_radius

__all__ = [
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
# Batches of smaller matrices solve on the calling thread.  On a 2-vCPU
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


def _check_basis(B) -> np.ndarray:
    """``B`` as a C-order p x d float64 basis; a 1-D input is one column."""
    B = np.ascontiguousarray(B, dtype=np.float64)
    if B.ndim == 1:
        B = B[:, None]
    if B.ndim != 2 or B.shape[0] < 1 or B.shape[1] < 1:
        raise ValueError("basis must be a nonempty p x d matrix")
    if B.shape[1] > B.shape[0]:
        raise ValueError(f"subspace dimension {B.shape[1]} exceeds ambient {B.shape[0]}")
    if not _is_orthonormal(B):
        raise ValueError(
            f"basis must be finite with columns orthonormal within {ORTHONORMAL_TOL:g}")
    return B


@dataclass(frozen=True)
class WPCAFit:
    """Result of a PC-subspace fit: its arrays, and the radius it was fit at.

    ``basis`` is the p x d orthonormal basis of the fitted subspace, a C-order
    copy of the first d columns of ``eigenvectors``.  ``eigenvalues`` descend,
    one orthonormal column of ``eigenvectors`` per eigenvalue solved for: all
    p in ``fit_pc_subspace``, the top ``min(p, d + 1)`` in ``fit_pc_path``,
    and only n columns on the thin-SVD route (``d <= n < p``), whose trailing
    p - n eigenvalues are exact zeros.  ``radius`` is a float in [0, +inf]:
    ``+inf`` is classical PCA and ``0`` spherical PCA.  ``degenerate_gap``
    flags an eigenvalue tie at the subspace boundary, the same for every
    radius below the smallest row norm; the fit is still returned but
    downstream gap-based bounds will be infinite.
    """

    basis: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    radius: float
    degenerate_gap: bool


@one_blas_thread
def symmetric_eigh(S) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs ``(values, vectors)`` of a symmetric matrix, values descending.

    Input must be symmetric within 1e-8 relative; it is symmetrized before
    factorization.  Negative eigenvalues within roundoff of zero (1e-10
    relative to the largest) are clamped to exactly zero.  Each eigenvector is
    oriented so its largest-magnitude entry is positive.  This is
    ``top_eigh`` with every eigenpair, kept while ``perfbench`` traces it.
    """
    A = np.ascontiguousarray(S, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix contains non-finite entries")
    if np.max(np.abs(A - A.T)) > 1e-8 * max(np.max(np.abs(A)), 1e-300):
        raise ValueError("matrix is not symmetric within 1e-8 relative")
    return top_eigh((A + A.T) / 2.0, A.shape[0])


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
            if hi < n:  # radius 0 stands for the limit S(r) / r^2 = U / n
                out[j] += (radii[j] ** 2 if radii[j] > 0.0 else 1.0) * acc
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
    return _descending_eigenpairs(vals[::-1], Vh[::-1].T)  # as ascending pairs


def _distinct(A: np.ndarray, d: int, radii: np.ndarray) -> tuple:
    """``(low, first, which, items)`` of one dataset for ``_spectra``: radius
    j takes distinct matrix ``which[j]``, ``low`` marks the radii that clip
    every row, and ``items`` are the thin-SVD eigenpairs or the matrices."""
    n, p = A.shape
    norms = row_norms(A)
    if np.any(radii == 0.0) and not norms.all():
        raise ValueError("cannot spherize zero rows at indices "
                         f"{np.flatnonzero(norms == 0.0).tolist()}")
    slack = radii * (1.0 + BOUNDARY_REL_TOL)
    low = slack < norms.min()
    key = np.where(low, 0.0, np.where(slack < norms.max(), radii, math.inf))
    keys, first, which = np.unique(key, return_index=True, return_inverse=True)
    if d <= n < p:
        return low, first, which, [
            _thin_svd_spectrum(unit_rows(A, norms) if r == 0.0 else
                               A if math.isinf(r) else winsorize_rows(A, r))
            for r in keys]
    return low, first, which, _second_moments(A, keys, norms)


@one_blas_thread
def _spectra(datasets, d: int, radii: np.ndarray, k: int | None = None) -> list[list]:
    """Each winsorized dataset's eigenpairs at every radius, with ``tied``: whether
    the gap at d is within ``GAP_TIE_TOL`` of the top value.

    With fewer rows than columns the thin SVD of the winsorized rows is
    cheaper than the p x p Gram, and exact zeros fill the missing
    eigenvalues; it has only n eigenvectors, so it needs n >= d.  Otherwise
    ``top_eigh`` solves for the top ``k`` (else ``min(p, d + 1)``)
    eigenpairs of each matrix of ``winsorized_second_moments``.

    Each distinct matrix is solved once.  A radius that clips no row (the
    cut of ``_second_moments`` at n) leaves the raw rows, bit for bit as
    ``+inf`` does, and equal radii give equal matrices; the radii that
    share a matrix get copies of one solve.  A radius that clips every row
    (the cut at 0) gives ``r^2 U / n``, with U the Gram of the unit rows:
    all such radii share key 0, the spherical-PCA matrix ``U / n``, and take
    its eigenvectors, its ``tied`` and its eigenvalues times ``r^2`` (zero
    where that underflows).  Radius 0 is the
    spherical limit itself, which raises on a zero row.  The validated
    datasets are reduced one at a time (``_distinct``) and dropped, so no
    two from a generator exist at once; one ``thread_map`` then solves every
    matrix, over the CPUs from ``_THREADED_MIN_P`` columns up.  The thin
    SVDs run in the reduction: numpy's SVD holds the interpreter lock.
    """
    paths, jobs = [], []
    # map holds no dataset between draws, where a for-loop variable would.
    for low, first, which, items in map(lambda A: _distinct(A, d, radii), datasets):
        if isinstance(items, np.ndarray):  # matrices, solved below
            jobs += [(S, min(S.shape[0], d + 1) if k is None else k) for S in items]
        paths.append((low, first, which, items))
    small = all(S.shape[0] < _THREADED_MIN_P for S, _ in jobs)
    solved = iter(thread_map(lambda job: top_eigh(*job), jobs, 1 if small else None))
    out = []
    for low, first, which, items in paths:
        spectra = [next(solved) for _ in items] if isinstance(items, np.ndarray) else items
        # Radii sharing a matrix after the first get copies, so no two fits
        # share an array; a low radius scales key 0's eigenvalues anew.
        out.append([])
        for j, i in enumerate(which):
            vals, vecs = spectra[i] if j == first[i] else (a.copy() for a in spectra[i])
            tied = bool(vals[d - 1] - (vals[d] if d < vals.size else 0.0)
                        <= GAP_TIE_TOL * vals[0])
            if low[j] and radii[j] > 0.0:
                with np.errstate(over="ignore", invalid="ignore"):
                    vals = vals * radii[j] ** 2
                if math.isinf(vals[0]):
                    raise ValueError(_OVERFLOW)
            out[-1].append((vals, vecs, tied))
    return out


def _make_fit(vals, vecs, tied: bool, d: int, r: float) -> WPCAFit:
    """The fit at radius ``r`` of one ``_spectra`` entry; its basis is a copy,
    never a view of ``vecs``."""
    return WPCAFit(vecs[:, :d].copy(), vals, vecs, float(r), tied)


def fit_pc_subspace(X, d: int, spec: RadiusSpec) -> WPCAFit:
    """Fit the top-d PC subspace of ``X`` after applying a radius policy.

    ``resolve_radius`` turns the policy into the fit's ``radius``; the rest
    is the one-radius case of ``fit_pc_path``, solving for all p eigenpairs,
    so bound computations can consume the full winsorized sample spectrum in
    ``eigenvalues``.  The spherical policy is radius 0: the unit rows' Gram
    over n, the limit of ``S(r) / r^2``.
    """
    A = as_data_matrix(X)
    d = _check_dim(d, A.shape[1])
    r = resolve_radius(A, spec)
    return _make_fit(*_spectra([A], d, np.array([r]), A.shape[1])[0][0], d, r)


def fit_pc_path(X, d: int, radii) -> list[WPCAFit]:
    """Top-d PC subspaces of ``X`` along a path of winsorization radii.

    Fit j has ``radius`` ``radii[j]`` and equals ``fit_pc_subspace(X, d,
    RadiusSpec.fixed(radii[j]))``, or ``RadiusSpec.none()`` where the radius
    is ``+inf``, to roundoff; bit for bit on the thin-SVD route, and for a
    one-radius path where both solve the same eigenpairs (``d + 1 = p``).
    The radii below the smallest row norm all take the eigenvectors of the
    unit rows' Gram, its gap flag and its eigenvalues times ``r^2``, in a
    path as in a single fit: the spherical-PCA subspace.  Radii may come in
    any order and repeat.  ``X`` is validated once, every covariance comes
    from one ``winsorized_second_moments`` call, and only the top
    ``min(p, d + 1)`` eigenpairs of each distinct matrix are solved for and
    kept, which is what the subspace and its gap flag use; the solves spread
    over the process's CPUs with the same bits as on one.  With ``d <= n < p`` each distinct
    radius takes the thin SVD of its winsorized rows instead, as in
    ``fit_pc_subspace``; fig1 and fig2 pass a replication's datasets at once.
    """
    A = as_data_matrix(X)
    d = _check_dim(d, A.shape[1])
    radii = _check_radii(radii)
    return [_make_fit(*s, d, r) for s, r in zip(_spectra([A], d, radii)[0], radii)]


def _angles(U: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Principal angles of each basis of the (R, p, d) stack ``U`` to ``W``, as
    (R, d).  For d = 1 the cosine is ``|U_j.T @ W|``, bit for bit the one
    singular value that an SVD of that 1 x 1 matrix gives."""
    R, p, d = U.shape
    if p == d:  # two bases of the whole space
        return np.zeros((R, d))
    M = U.transpose(0, 2, 1) @ W
    cos = np.abs(M[:, :, 0]) if d == 1 else np.linalg.svd(M, compute_uv=False)
    angles = np.arccos(np.clip(cos, 0.0, 1.0))
    # Identical bases give exactly zero, not arccos of 1 minus roundoff.
    angles[np.all(U == W, axis=(1, 2))] = 0.0
    return angles


@one_blas_thread
def principal_angles(U, W) -> np.ndarray:
    """Principal angles between two d-dimensional subspaces of R^p, as an
    ascending (d,) array in [0, pi/2].

    Each basis is p x d (a 1-D input is one column), finite, with columns
    orthonormal within ``ORTHONORMAL_TOL``.  The cosines are the singular
    values of ``U.T @ W`` clamped to [0, 1]; the last angle is the one that
    bounds subspace recovery error, the first the best-aligned direction.
    """
    Ub, Wb = _check_basis(U), _check_basis(W)
    if Ub.shape[0] != Wb.shape[0]:
        raise ValueError(f"ambient dimensions differ: {Ub.shape[0]} vs {Wb.shape[0]}")
    if Ub.shape[1] != Wb.shape[1]:
        raise ValueError(f"subspace dimensions differ: {Ub.shape[1]} vs {Wb.shape[1]}")
    return _angles(Ub[None], Wb)[0]

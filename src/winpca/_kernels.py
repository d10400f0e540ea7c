"""Hot loops in numpy, and a partial symmetric eigensolver.

Two kernels dominate runtime at simulation scale: rescaling every row of a
data matrix onto a centered ball (winsorization), and accumulating the
per-coordinate terms of the winsorized second-moment estimator over a large
batch of draws.  Every row norm in the package comes from ``row_norms``,
which stays accurate where a sum of squares overflows or underflows to
zero; ``perfbench/`` measures the package end to end.

``top_eigh`` solves for the leading eigenpairs only, through LAPACK's
``dsyevr`` (MRRR) in numpy's bundled OpenBLAS when that library exports it,
and through a full ``numpy.linalg.eigh`` otherwise.
"""

from __future__ import annotations

import ctypes
import glob
import os

import numpy as np

__all__ = ["using_numba", "row_norms", "unit_rows", "winsorize_rows",
           "winsorized_term_sums", "top_eigh"]

# Rows whose norm exceeds the radius by less than this relative slack are
# left untouched, so reapplying the transform is an exact no-op.
BOUNDARY_REL_TOL = 1e-12


def using_numba() -> bool:
    """Always False: the kernels are numpy only; kept for environment records."""
    return False


def row_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row of a finite matrix.

    ``sqrt(sum x^2)`` serves each row it gets right.  A row whose sum of
    squares overflows to inf, or underflows to 0 although an entry is
    nonzero, is recomputed after scaling by its largest magnitude (Blue
    1978, as in LAPACK ``dnrm2``); a norm is then inf only when it exceeds
    the float64 range.
    """
    norms = np.sqrt(np.einsum("ij,ij->i", X, X))
    redo = np.flatnonzero(np.isinf(norms) | (norms == 0.0))
    if redo.size:
        top = np.max(np.abs(X[redo]), axis=1)
        keep = top > 0.0  # rows of zeros keep their zero norm
        redo, top = redo[keep], top[keep]
        unit = X[redo] / top[:, None]
        with np.errstate(over="ignore"):
            norms[redo] = top * np.sqrt(np.einsum("ij,ij->i", unit, unit))
    return norms


def unit_rows(values: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """``values / norms[:, None]``, also where a norm is inf.

    A row whose norm exceeds the float64 range is divided by its largest
    magnitude first and then by the norm of what remains.
    """
    out = values / norms[:, None]
    huge = np.isinf(norms)
    if np.any(huge):
        scaled = values[huge] / np.max(np.abs(values[huge]), axis=1)[:, None]
        out[huge] = scaled / row_norms(scaled)[:, None]
    return out


def winsorize_rows(values: np.ndarray, limit: float) -> np.ndarray:
    """Scale every row with Euclidean norm above ``limit`` back onto the ball.

    ``values`` must be a C-contiguous float64 matrix; validation lives in the
    calling layer.  Returns a new array, input is never modified.
    """
    norms = row_norms(values)
    out = values.copy()
    mask = norms > limit * (1.0 + BOUNDARY_REL_TOL)
    if np.any(mask):
        out[mask] = values[mask] * (limit / norms[mask])[:, None]
        huge = np.isinf(norms)
        if np.any(huge):
            out[huge] = limit * unit_rows(values[huge], norms[huge])
    return out


def winsorized_term_sums(y: np.ndarray, lam: np.ndarray, r2: float):
    """Accumulate winsorized second-moment terms over whitened draws.

    For each draw ``y_i`` the term vector is
    ``lam * y_i**2 * min(1, r2 / sum(lam * y_i**2))``.  Returns the
    coordinatewise sum and sum of squares across draws, from which the caller
    forms Monte Carlo means and standard errors.
    """
    sq = (y * y) * lam
    s2 = sq.sum(axis=1)
    factor = np.ones_like(s2)
    np.divide(r2, s2, out=factor, where=s2 > r2)
    terms = sq * factor[:, None]
    return terms.sum(axis=0), (terms * terms).sum(axis=0)


# Negative eigenvalues of a positive semidefinite matrix within this
# relative roundoff of the largest are reported as exactly zero.
NEG_EIG_REL_TOL = 1e-10


def _fix_column_signs(V: np.ndarray) -> np.ndarray:
    # Deterministic orientation: largest-magnitude entry of each column positive.
    idx = np.argmax(np.abs(V), axis=0)
    signs = np.sign(V[idx, np.arange(V.shape[1])])
    signs[signs == 0] = 1.0
    return V * signs


def descending_eigenpairs(w: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reverse ascending eigenpairs, clamp roundoff negatives, orient columns."""
    w = w[::-1].copy()
    top = w[0] if w.size else 0.0
    if top > 0:
        w[(w < 0) & (w >= -NEG_EIG_REL_TOL * top)] = 0.0
    return w, _fix_column_signs(V[:, ::-1])


def _load_dsyevr():
    """``LAPACKE_dsyevr`` (64-bit integers) from numpy's bundled OpenBLAS, or None.

    Only numpy wheels bundle ``libscipy_openblas64_``; builds against
    Accelerate, MKL or a system BLAS get None and the eigh fallback.
    """
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "libscipy_openblas64_*"))):
        try:
            fn = ctypes.CDLL(path).scipy_LAPACKE_dsyevr64_
        except (OSError, AttributeError):
            continue
        i64, ptr = ctypes.c_int64, ctypes.c_void_p
        fn.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char, ctypes.c_char,
                       i64, ptr, i64, ctypes.c_double, ctypes.c_double, i64, i64,
                       ctypes.c_double, ctypes.POINTER(i64), ptr, ptr, i64, ptr]
        fn.restype = i64
        return fn
    return None


_LAPACKE_DSYEVR = _load_dsyevr()
_LAPACK_COL_MAJOR = 102


def top_eigh(S: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Leading ``k`` eigenpairs of a symmetric matrix, eigenvalues descending.

    Only the lower triangle of ``S`` is read.  Returns ``(w, V)`` with ``w``
    of length k and ``V`` of shape p x k; post-processing matches
    ``subspace.symmetric_eigh``: roundoff negatives within 1e-10 of the
    largest eigenvalue are clamped to zero and each column's
    largest-magnitude entry is positive.
    """
    # A private copy: dsyevr overwrites its input.
    A = np.array(S, dtype=np.float64, order="F")
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    p, k = A.shape[0], int(k)
    if not 1 <= k <= p:
        raise ValueError(f"need 1 <= k <= p={p} eigenpairs, got k={k}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix contains non-finite entries")
    if _LAPACKE_DSYEVR is None:
        w, V = np.linalg.eigh(A)
        return descending_eigenpairs(w[p - k:], V[:, p - k:])
    w = np.empty(p)
    Z = np.empty((p, k), order="F")
    isuppz = np.empty(2 * k, dtype=np.int64)
    found = ctypes.c_int64(0)
    info = _LAPACKE_DSYEVR(
        _LAPACK_COL_MAJOR, b"V", b"I", b"L", p, A.ctypes.data, p, 0.0, 0.0,
        p - k + 1, p, 0.0, ctypes.byref(found), w.ctypes.data, Z.ctypes.data, p,
        isuppz.ctypes.data)
    if info != 0 or found.value != k:
        raise np.linalg.LinAlgError(
            f"dsyevr failed (info={info}, {found.value} of {k} eigenpairs)")
    return descending_eigenpairs(w[:k], Z)

"""Independent numerical routes and record checks the tests hold the package to.

Test modules import this file by name (``from oracles import ...``); pytest
puts this directory on ``sys.path`` because it holds no ``__init__.py``.
"""

import tracemalloc

import numpy as np

from winpca.subspace import _check_basis


def sin_theta_operator(U, W) -> float:
    """Sine of the largest principal angle between two orthonormal bases.

    The operator 2-norm of ``U_perp.T @ W``, where ``U_perp`` completes the
    first basis: a route independent of ``principal_angles``, which takes the
    SVD of ``U.T @ W``.  The two agree within 1e-8.
    """
    U, W = np.asarray(U, dtype=float), np.asarray(W, dtype=float)
    p, d = U.shape
    if d == p or np.array_equal(U, W):
        return 0.0
    perp = np.linalg.svd(U, full_matrices=True)[0][:, d:]
    return float(min(np.linalg.svd(perp.T @ W, compute_uv=False)[0], 1.0))


def assert_sound_records(fits):
    """The arrays of fits keep the contract of ``WPCAFit``.

    The fit engine builds its records without checking solver output, so
    here each fit's eigenvalues must be 1-D, finite and descending; its
    eigenvectors 2-D and finite, with no more columns than eigenvalues and
    no more eigenvalues than rows; its basis C-contiguous, the leading
    eigenvectors, and bit for bit what ``principal_angles``' basis check
    returns.  No two arrays of the fits may share memory.
    """
    arrays = []
    for f in fits:
        vals, vecs, B = f.eigenvalues, f.eigenvectors, f.basis
        assert vals.dtype == vecs.dtype == B.dtype == np.float64
        assert vals.ndim == 1 and vecs.ndim == 2
        assert vecs.shape[1] <= vals.size <= vecs.shape[0], (vals.shape, vecs.shape)
        assert np.all(np.isfinite(vals)) and np.all(np.isfinite(vecs))
        assert not np.any(np.diff(vals) > 0)
        assert B.flags.c_contiguous
        assert B.tobytes() == _check_basis(B).tobytes()
        assert np.array_equal(B, vecs[:, :B.shape[1]])
        arrays += [vals, vecs, B]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)


def spherical_fit(X, d):
    """Spherical PCA by a plain route: the eigenvalues, descending, and a
    top-d basis of ``U / n``, with U the Gram of the rows scaled to unit
    length.

    Each row is divided by its largest magnitude and then by its
    ``np.linalg.norm``, so a row whose norm exceeds float64 still comes out
    a unit row.  Rows must be nonzero.
    """
    X = np.asarray(X, dtype=float)
    U = X / np.max(np.abs(X), axis=1, keepdims=True)
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    w, V = np.linalg.eigh(U.T @ U / X.shape[0])
    return w[::-1], V[:, ::-1][:, :d]


def traced_peak(fn):
    """``fn()``'s result and the most memory it held at once, in bytes.

    The peak counts what ``tracemalloc`` traces (numpy registers its arrays
    with it) above what was traced when ``fn`` started.  Tracing is started
    if it was off and stopped again after; if it was on, it stays on, with
    its peak reset.
    """
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        if not was_tracing:
            tracemalloc.stop()

"""Independent numerical routes and record checks the tests hold the package to.

Test modules import this file by name (``from oracles import ...``); pytest
puts this directory on ``sys.path`` because it holds no ``__init__.py``.
"""

import math
import sys
import tracemalloc
from fractions import Fraction

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


# Exact values of the closed-form bounds, in rational arithmetic.  Each takes
# the package's arguments and returns Fractions, with ``math.inf`` where the
# eigengap is 0.  A square root is the floor of the exact root to 2**-128.

def _sqrt(q: Fraction) -> Fraction:
    scale = 2 ** 128
    return Fraction(math.isqrt(q.numerator * q.denominator * scale * scale),
                    q.denominator * scale)


def _dim_ratio(n: int, p: int) -> Fraction:
    q = Fraction(p, n)
    return max(q, _sqrt(q))


def perturbation_exact(gap, r, eps):
    """``(bound1, bound2)`` of ``perturbation_bound(gap, 0, r, eps)``: 2 r^2 eps / g,
    and r^2 eps / (g - 2 r^2 eps), which is None unless g > 4 r^2 eps."""
    g, r2, e = Fraction(gap), Fraction(r) ** 2, Fraction(eps)
    bound1 = 2 * r2 * e / g if g > 0 else math.inf
    bound2 = r2 * e / (g - 2 * r2 * e) if g > 4 * r2 * e else None
    return bound1, bound2


def concentration_exact(lam1, lamp, values, r, d, eps, n, p, sigma_sub=math.inf):
    """``(contamination, sampling)`` of ``concentration_bound``: 2 r^2 eps / g and
    256 min(r^2 lam1 / (p lamp), lam1 sigma_sub^2) max(sqrt(p/n), p/n) / g, with
    g = values[d-1] - values[d]; an infinite ``sigma_sub`` drops its branch."""
    g = Fraction(values[d - 1]) - Fraction(values[d])
    if g == 0:
        return math.inf, math.inf
    factor = Fraction(r) ** 2 * Fraction(lam1) / (Fraction(lamp) * p)
    if math.isfinite(sigma_sub):
        factor = min(factor, Fraction(lam1) * Fraction(sigma_sub) ** 2)
    return perturbation_exact(g, r, eps)[0], 256 * factor * _dim_ratio(n, p) / g


def deviation_exact(eps, r, sigma_r, n, p):
    """``covariance_deviation_bound``: eps r^2 + 16 sigma_r^2 max(8p/n, sqrt(8p/n))."""
    return (Fraction(eps) * Fraction(r) ** 2
            + 16 * Fraction(sigma_r) ** 2 * _dim_ratio(n, 8 * p))


def within_ulps(x: float, exact, ulps: int = 4) -> bool:
    """``x`` lies within ``ulps`` units in the last place of ``exact``, or is
    +inf exactly where ``exact`` is infinite or exceeds float64's max."""
    if exact == math.inf or exact > Fraction(sys.float_info.max):
        return x == math.inf
    if not math.isfinite(x):
        return False
    return abs(Fraction(x) - exact) <= ulps * Fraction(math.ulp(float(exact)))


def underflows(*exact) -> bool:
    """Some exact intermediate lies strictly between 0 and float64's least
    normal, where a float carries fewer than 53 significant bits."""
    return any(0 < x < Fraction(sys.float_info.min) for x in exact)

"""Independent numerical routes and record checks the tests hold the package to.

Test modules import this file by name (``from oracles import ...``); pytest
puts this directory on ``sys.path`` because it holds no ``__init__.py``.
"""

import numpy as np

from winpca import Spectrum, Subspace


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
    """The records of fits pass the checks of their public constructors.

    The fit engine builds ``Spectrum`` and ``Subspace`` without those
    checks, so each fit's spectrum and basis must construct, the basis must
    be C-contiguous and come back bit for bit, and no two fits may share an
    array.
    """
    arrays = []
    for f in fits:
        Spectrum(f.spectrum.eigenvalues, f.spectrum.eigenvectors)
        assert f.basis.flags.c_contiguous
        assert f.basis.tobytes() == Subspace(f.basis).basis.tobytes()
        arrays += [f.spectrum.eigenvalues, f.spectrum.eigenvectors, f.basis]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)

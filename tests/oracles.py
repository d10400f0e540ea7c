"""Independent numerical routes the tests check the package against.

Test modules import this file by name (``from oracles import ...``); pytest
puts this directory on ``sys.path`` because it holds no ``__init__.py``.
"""

import numpy as np


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

import math

import numpy as np

from winpca import winsorize_dataset
from winpca._kernels import (
    BOUNDARY_REL_TOL,
    row_norms,
    winsorize_rows,
    winsorized_term_sums,
)


def _cases(seed):
    rng = np.random.default_rng(seed)
    for n, p in ((1, 1), (7, 3), (200, 17), (64, 64)):
        yield rng.standard_normal((n, p)) * rng.uniform(0.1, 10.0)


def _winsorize_loop(X, r):
    """Per-row reference: rows beyond the guarded radius scaled onto the ball."""
    out = X.copy()
    for i, row in enumerate(X):
        norm = math.sqrt(sum(v * v for v in row))
        if norm > r * (1.0 + BOUNDARY_REL_TOL):
            out[i] = [v * r / norm for v in row]
    return out


def _term_sums_loop(y, lam, r2):
    """Per-draw reference for winsorized_term_sums."""
    sums, sumsq = np.zeros(y.shape[1]), np.zeros(y.shape[1])
    for row in y:
        terms = [l * v * v for l, v in zip(lam, row)]
        factor = min(1.0, r2 / sum(terms))
        for j, t in enumerate(terms):
            sums[j] += t * factor
            sumsq[j] += (t * factor) ** 2
    return sums, sumsq


class TestAgainstLoops:
    def test_winsorize_rows(self):
        for X in _cases(0):
            r = float(np.median(np.linalg.norm(X, axis=1)))
            got = winsorize_rows(X, r)
            want = _winsorize_loop(X, r)
            assert np.allclose(got, want, rtol=1e-12, atol=0)
            # rows inside the ball are returned bit for bit
            inside = np.linalg.norm(X, axis=1) <= r
            assert inside.any()
            assert np.array_equal(got[inside], X[inside])

    def test_winsorized_term_sums(self):
        rng = np.random.default_rng(1)
        for p in (1, 4, 16):
            y = rng.standard_normal((2000, p))
            lam = np.sort(rng.uniform(0.5, 9.0, p))[::-1].copy()
            r2 = float(np.median(np.sum(lam * y * y, axis=1)))
            got_s, got_q = winsorized_term_sums(y, lam, r2)
            want_s, want_q = _term_sums_loop(y, lam, r2)
            assert np.allclose(got_s, want_s, rtol=1e-10, atol=0)
            assert np.allclose(got_q, want_q, rtol=1e-10, atol=0)

    def test_row_norms_plain_formula_on_ordinary_rows(self):
        for X in _cases(3):
            assert np.array_equal(row_norms(X), np.sqrt(np.einsum("ij,ij->i", X, X)))


class TestBoundaryGuard:
    def test_just_outside_guard_left_alone(self):
        r = 5.0
        x = np.array([[3.0, 4.0]]) * (1.0 + 0.5 * BOUNDARY_REL_TOL)
        out = winsorize_rows(x, r)
        assert np.array_equal(out, x)

    def test_beyond_guard_projected(self):
        r = 5.0
        x = np.array([[3.0, 4.0]]) * (1.0 + 10.0 * BOUNDARY_REL_TOL)
        out = winsorize_rows(x, r)
        assert not np.array_equal(out, x)
        assert np.linalg.norm(out) <= r * (1.0 + BOUNDARY_REL_TOL)

    def test_reapplication_is_bitwise_noop(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((500, 6)) * 3.0
        once = winsorize_dataset(X, 1.5)
        twice = winsorize_dataset(once, 1.5)
        assert np.array_equal(once, twice)

    def test_input_not_modified(self):
        X = np.array([[30.0, 40.0]])
        snapshot = X.copy()
        winsorize_rows(X, 5.0)
        assert np.array_equal(X, snapshot)

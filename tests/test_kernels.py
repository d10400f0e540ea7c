import math

import numpy as np

from winpca import winsorize_dataset
import pytest

from winpca._kernels import (
    _TERM_BLOCK_ENTRIES,
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

    @pytest.mark.parametrize("p", [1, 4, 16])
    @pytest.mark.parametrize("extra_blocks, extra_rows", [(0, -1), (1, 0), (1, 1), (3, 7)])
    def test_winsorized_term_sums_across_block_boundaries(self, p, extra_blocks, extra_rows):
        block = _TERM_BLOCK_ENTRIES // p
        n = extra_blocks * block + extra_rows if extra_blocks else block + extra_rows
        rng = np.random.default_rng(p * 100 + n)
        y = rng.standard_normal((n, p))
        lam = np.sort(rng.uniform(0.5, 9.0, p))[::-1].copy()
        s2 = np.sum(lam * y * y, axis=1)
        # no row clipped, every row clipped, and about half of them
        for r2 in (2.0 * s2.max(), 0.5 * s2.min(), float(np.median(s2))):
            got_s, got_q = winsorized_term_sums(y, lam, r2)
            want_s, want_q = _term_sums_loop(y, lam, r2)
            assert np.allclose(got_s, want_s, rtol=1e-10, atol=0)
            assert np.allclose(got_q, want_q, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("p", [1, 4, 16])
    def test_blocks_and_radius_vector_equal_one_radius_arrays(self, p):
        rows = _TERM_BLOCK_ENTRIES // p
        rng = np.random.default_rng(p)
        y = rng.standard_normal((2 * rows + 5, p))
        lam = np.sort(rng.uniform(0.5, 9.0, p))[::-1].copy()
        s2 = np.sum(lam * y * y, axis=1)
        r2 = np.array([0.5 * s2.min(), float(np.median(s2)), 2.0 * s2.max()])
        blocks = (y[lo:lo + rows] for lo in range(0, len(y), rows))
        got_s, got_q = winsorized_term_sums(blocks, lam, r2)
        assert got_s.shape == got_q.shape == (3, p)
        for j, r2j in enumerate(r2):
            want_s, want_q = winsorized_term_sums(y, lam, r2j)
            assert np.array_equal(got_s[j], want_s)
            assert np.array_equal(got_q[j], want_q)

    def test_row_norms_plain_formula_on_ordinary_rows(self):
        for X in _cases(3):
            assert np.array_equal(row_norms(X), np.sqrt(np.einsum("ij,ij->i", X, X)))


class TestTinyNorms:
    def test_subnormal_sum_of_squares_keeps_its_digits(self):
        # 3e-160**2 + 4e-160**2 is subnormal; the plain formula loses digits.
        X = np.array([[3e-160, 4e-160], [0.0, 5e-324], [0.0, 0.0], [3.0, 4.0]])
        got = row_norms(X)
        assert np.allclose(got, [5e-160, 5e-324, 0.0, 5.0], rtol=1e-15, atol=0)

    def test_winsorized_subnormal_row_lands_on_the_ball(self):
        out = winsorize_rows(np.array([[3e-160, 4e-160]]), 1e-160)
        assert np.allclose(out[0], [6e-161, 8e-161], rtol=1e-15, atol=0)

    def test_row_whose_scale_factor_underflows_lands_on_the_ball(self):
        # 1e-300 / 1e300 underflows to zero, 1e-300 / 3e10 is subnormal.
        X = np.array([[1e300, 0.0], [3e10, 4e10]])
        out = winsorize_rows(X, 1e-300)
        assert np.allclose(out, [[1e-300, 0.0], [6e-301, 8e-301]], rtol=1e-15, atol=0)


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

    def test_clipped_row_is_scaled_by_r_over_its_norm(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((200, 5)) * np.geomspace(1e-3, 1e6, 200)[:, None]
        r = 2.5
        out = winsorize_rows(X, r)
        norms = row_norms(X)
        clip = norms > r * (1.0 + BOUNDARY_REL_TOL)
        assert clip.any() and not clip.all()
        assert np.array_equal(out[clip], X[clip] * (r / norms[clip])[:, None])
        assert np.array_equal(out[~clip], X[~clip])

    def test_input_not_modified(self):
        X = np.array([[30.0, 40.0]])
        snapshot = X.copy()
        winsorize_rows(X, 5.0)
        assert np.array_equal(X, snapshot)

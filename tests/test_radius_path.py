"""The radius-path engine against per-radius fits and a plain reference.

``fit_pc_path`` must give, radius by radius, the fit of ``fit_pc_subspace``
and of the loop it replaces (winsorize, form the Gram, full ``eigh``):
sin of the largest principal angle within 1e-12, and the top d+1
eigenvalues within 1e-12 of the largest.
"""

import math

import numpy as np
import pytest

from winpca import (
    RadiusSpec,
    _kernels,
    fit_pc_path,
    fit_pc_subspace,
    subspace,
    symmetric_eigh,
    winsorize_dataset,
    winsorized_second_moments,
)

from oracles import assert_sound_records

TOL = 1e-12


def _sin_theta(B1, B2):
    # Operator norm of the projector difference: accurate for tiny angles,
    # unlike the arccos of the cosines.
    return np.linalg.norm(B1 @ B1.T - B2 @ B2.T, 2)


def _reference(X, d, r):
    """The per-radius loop: winsorize, Gram, full eigh, eigenvalues descending."""
    W = X if math.isinf(r) else winsorize_dataset(X, r)
    S = W.T @ W / X.shape[0]
    w, V = np.linalg.eigh(S)
    return S, w[::-1], V[:, ::-1][:, :d]


def _spec(r):
    return RadiusSpec.none() if math.isinf(r) else RadiusSpec.fixed(r)


def _assert_path_matches(X, d, radii):
    n, p = X.shape
    k = min(p, d + 1)
    fits = fit_pc_path(X, d, radii)
    assert len(fits) == len(radii)
    assert_sound_records(fits)
    for fit, r in zip(fits, radii):
        one = fit_pc_subspace(X, d, _spec(r))
        assert_sound_records([one])
        _, ref_vals, ref_basis = _reference(X, d, r)
        vals = fit.eigenvalues
        scale = ref_vals[0]
        assert np.all(np.abs(vals[:k] - ref_vals[:k]) <= TOL * scale), r
        assert np.all(np.abs(vals[:k] - one.eigenvalues[:k]) <= TOL * scale), r
        assert _sin_theta(fit.basis, ref_basis) <= TOL, r
        assert _sin_theta(fit.basis, one.basis) <= TOL, r
        assert fit.radius == one.radius == r
        assert fit.degenerate_gap == one.degenerate_gap
    return fits


def _spiked(n, p, seed):
    rng = np.random.default_rng(seed)
    eigs = np.linspace(25.0, 1.0, p)
    return rng.standard_normal((n, p)) * np.sqrt(eigs)


def _unit_scale(n, p, seed):
    """``_spiked`` divided by its median row norm."""
    X = _spiked(n, p, seed)
    return X / np.median(np.linalg.norm(X, axis=1))


# Unsorted, with a repeated radius and the no-winsorize endpoint.
RADII = [3.0, math.inf, 0.5, 3.0, 1.5, 12.0, 0.5]


class TestFitPcPath:
    def test_unsorted_duplicated_and_infinite_radii(self):
        X = _spiked(200, 8, seed=1)
        fits = _assert_path_matches(X, 2, RADII)
        # Only the eigenpairs a fit uses are solved for when n >= p.
        assert all(f.eigenvalues.shape == (3,) for f in fits)
        assert fits[1].radius == math.inf and fits[0].radius == 3.0

    def test_second_moments_match_winsorized_gram(self):
        X = _spiked(150, 6, seed=2)
        S = winsorized_second_moments(X, RADII)
        assert S.shape == (len(RADII), 6, 6)
        for Sj, r in zip(S, RADII):
            ref, _, _ = _reference(X, 1, r)
            assert np.max(np.abs(Sj - ref)) <= 1e-14 * np.max(np.abs(ref))
            assert np.array_equal(Sj, Sj.T)

    def test_rows_at_the_boundary(self):
        # Axis rows make each winsorized square exact up to an ulp, so the
        # inside/outside decision at r(1 + 5e-13) and r(1 + 2e-12) shows at
        # 1e-14, far below the 1e-12 slack of the boundary rule.
        r = 2.0
        X = np.diag([r, r * (1 + 5e-13), r * (1 + 2e-12), 0.5 * r])
        S = winsorized_second_moments(X, [r])[0]
        ref, _, _ = _reference(X, 1, r)
        assert np.allclose(S, ref, rtol=1e-14, atol=0)
        assert S[1, 1] == pytest.approx(X[1, 1] ** 2 / 4, rel=1e-15)  # inside
        assert S[2, 2] == pytest.approx(r * r / 4, rel=1e-15)  # clipped
        rng = np.random.default_rng(3)
        Y = rng.standard_normal((40, 4)) * np.sqrt([9.0, 4.0, 2.0, 1.0])
        norms = np.linalg.norm(Y, axis=1)
        for i, f in enumerate((1.0, 1 + 5e-13, 1 + 2e-12)):
            Y[i] *= r * f / norms[i]
        _assert_path_matches(Y, 2, [r, r * (1 + 5e-13), r * (1 + 2e-12), math.inf])

    def test_outliers_far_beyond_the_radii(self):
        # Rows at 1e8 times the median norm: a radius below them must not
        # lose the inliers to cancellation against the outliers' squares.
        X = _spiked(120, 6, seed=4)
        med = float(np.median(np.linalg.norm(X, axis=1)))
        X[:3] = 0.0
        X[:3, 2] = 1e8 * med
        radii = [0.3 * med, 2.0 * med, math.inf, 0.8 * med, 5.0 * med]
        _assert_path_matches(X, 1, radii)

    def test_fewer_rows_than_columns(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((6, 15)) * 2.0
        fits = _assert_path_matches(X, 2, [2.5, math.inf, 1.0])
        assert fits[0].eigenvalues.shape == (15,)

    def test_d_is_p_minus_one(self):
        X = _spiked(300, 5, seed=6)
        fits = _assert_path_matches(X, 4, [4.0, 1.0, math.inf])
        assert fits[0].eigenvalues.shape == (5,)

    # (n, p, d, r) where a single fit and the one-radius path solve the same
    # eigenpairs: all of them when d + 1 = p, or the thin SVD when
    # d <= n < p.  Elsewhere the path solves only the top d + 1, which
    # agrees to roundoff (see _assert_path_matches), not bit for bit.
    @pytest.mark.parametrize("n, p, d, r", [
        (1000, 2, 1, 4.0),
        (300, 5, 4, 3.0),
        (300, 5, 4, math.inf),
        (6, 15, 2, 2.5),
        (6, 15, 2, math.inf),
    ])
    def test_single_fit_is_the_one_radius_path(self, n, p, d, r):
        X = _spiked(n, p, seed=10)
        one = fit_pc_subspace(X, d, _spec(r))
        path = fit_pc_path(X, d, [r])[0]
        assert_sound_records([one, path])
        assert np.array_equal(one.basis, path.basis)
        k = min(p, d + 1)
        assert np.array_equal(one.eigenvalues[:k], path.eigenvalues[:k])
        assert one.radius == path.radius == r

    @pytest.mark.skipif(_kernels._LAPACKE_DSYEVR is None,
                        reason="numpy's OpenBLAS exports no LAPACKE_dsyevr")
    def test_no_full_eigh_when_dsyevr_is_loaded(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.eigh called")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        X = _spiked(200, 8, seed=11)
        for spec in (RadiusSpec.median_norm(), RadiusSpec.none(),
                     RadiusSpec.spherical()):
            assert fit_pc_subspace(X, 2, spec).eigenvalues.shape == (8,)
        vals, vecs = symmetric_eigh(X.T @ X / 200)
        assert vals.shape == (8,)
        assert vecs.shape == (8, 8)

    def test_eigh_fallback_without_lapacke(self, monkeypatch):
        monkeypatch.setattr(_kernels, "_LAPACKE_DSYEVR", None)
        _assert_path_matches(_spiked(200, 8, seed=7), 2, RADII)

    def test_rejects_bad_input(self):
        X = _spiked(20, 3, seed=8)
        for radii in ([], [0.0], [-1.0], [math.nan], [[1.0]]):
            with pytest.raises(ValueError):
                fit_pc_path(X, 1, radii)
        for d in (0, 4):
            with pytest.raises(ValueError):
                fit_pc_path(X, d, [1.0])
        with pytest.raises(ValueError):
            fit_pc_path(np.full((4, 2), np.inf), 1, [1.0])


    @pytest.mark.parametrize("A", [[[3.0, 4.0], [1.0, 0.0]], np.array([[3, 4], [1, 0]])])
    def test_second_moments_take_lists_and_int_arrays(self, A):
        W = winsorize_dataset(np.array([[3.0, 4.0], [1.0, 0.0]]), 2.0)
        assert np.allclose(winsorized_second_moments(A, [2.0])[0], W.T @ W / 2,
                           rtol=1e-15, atol=0)

    def test_second_moments_reject_nan(self):
        # Not the overflow message: a NaN entry is invalid input.
        with pytest.raises(ValueError, match="non-finite"):
            winsorized_second_moments(np.array([[3.0, np.nan], [1.0, 0.0]]), [2.0])


class TestRadiiBelowEveryNorm:
    """Radii that clip every row give r^2 times the unit rows' Gram / n, so
    they all take one solve: the spherical-PCA subspace."""

    def test_path_matches_and_spans_the_spherical_subspace(self):
        X = _spiked(200, 8, seed=12)
        norms = np.linalg.norm(X, axis=1)
        least = norms.min()
        low = [0.5 * least, 0.99 * least, 1e-3 * least, 0.2 * least]
        inner = list(np.quantile(norms, [0.3, 0.7]))
        radii = [low[0], inner[0], low[1], math.inf, low[2], inner[1], low[3]]
        fits = _assert_path_matches(X, 2, radii)
        spherical = fit_pc_subspace(X, 2, RadiusSpec.spherical())
        for r in low:
            assert _sin_theta(fits[radii.index(r)].basis, spherical.basis) <= TOL, r

    def test_tiny_radius_takes_the_basis_of_the_largest(self):
        # r^2 = 1e-320 is subnormal: the matrix of 1e-160 alone has lost its
        # digits, but every low radius takes the eigenvectors of key 0, the
        # unit rows' Gram over n, and its eigenvalues times r^2.
        X = _unit_scale(100, 5, seed=13)
        big = 0.5 * np.linalg.norm(X, axis=1).min()
        fits = fit_pc_path(X, 2, [1e-160, big])
        w, V = _kernels.top_eigh(subspace._second_moments(X, np.zeros(1))[0], 3)
        for fit, r in zip(fits, [1e-160, big]):
            assert fit.eigenvectors.tobytes() == V.tobytes()
            assert fit.eigenvalues.tobytes() == (w * r ** 2).tobytes()
        assert_sound_records(fits)

    @pytest.mark.parametrize("r", [1e-160, 1e-158, 1e-170, 1e-300])
    def test_fit_at_a_radius_with_subnormal_square_is_spherical(self, r):
        # r^2 (1e-320, 1e-316) is subnormal, or underflows to 0 (1e-340,
        # 1e-600): the fit must not solve a matrix that has lost its digits,
        # and its gap flag is the spherical fit's, though its eigenvalues
        # r^2 lambda may all be zero.
        X = _unit_scale(100, 5, seed=13)
        spherical = fit_pc_subspace(X, 2, RadiusSpec.spherical())
        fit = fit_pc_subspace(X, 2, RadiusSpec.fixed(r))
        assert _sin_theta(fit.basis, spherical.basis) <= TOL
        assert fit.eigenvalues.tobytes() == (spherical.eigenvalues * r ** 2).tobytes()
        assert not fit.degenerate_gap and not spherical.degenerate_gap

    def test_low_radii_flag_the_gap_alike(self):
        X = _unit_scale(100, 5, seed=13)
        radii = [1e-300, 1e-170, 1e-160, 1e-3]
        assert [f.degenerate_gap for f in fit_pc_path(X, 2, radii)] == [False] * 4

    # Shapes where a single fit and a path solve the same eigenpairs: all
    # of them (d + 1 = p), and the thin SVD (d <= n < p).  A radius inside
    # the norm range would split the sum of the unit rows' Gram.
    @pytest.mark.parametrize("n, p, d", [(100, 5, 4), (6, 15, 2)])
    def test_one_radius_low_fit_is_its_path_fit(self, n, p, d):
        X = _unit_scale(n, p, seed=13)
        least = np.linalg.norm(X, axis=1).min()
        low = [1e-160, 1e-3, 0.5 * least]
        fits = fit_pc_path(X, d, [*low, math.inf])
        for fit, r in zip(fits, low):
            one = fit_pc_subspace(X, d, RadiusSpec.fixed(r))
            assert one.eigenvalues.tobytes() == fit.eigenvalues.tobytes(), r
            assert one.eigenvectors.tobytes() == fit.eigenvectors.tobytes(), r
            assert one.basis.tobytes() == fit.basis.tobytes(), r
            assert ((one.radius, one.degenerate_gap)
                    == (fit.radius, fit.degenerate_gap)), r

    @pytest.mark.parametrize("n, p", [(8, 3), (3, 8)])
    def test_overflow_still_raises(self, n, p):
        # Rows of norm 1e200: the matrix at r = 1e160 overflows, whatever
        # smaller radius shares its solve.
        X = _spiked(n, p, seed=14)
        X *= 1e200 / np.linalg.norm(X, axis=1)[:, None]
        for radii in ([1e150, 1e160], [1e160, 1e150]):
            with pytest.raises(ValueError, match="overflow"):
                fit_pc_path(X, 1, radii)
        assert_sound_records(fit_pc_path(X, 1, [1e140, 1e150]))


class TestTopEigh:
    def test_matches_full_eigh(self):
        X = _spiked(50, 7, seed=9)
        S = X.T @ X / 50
        w0, V0 = np.linalg.eigh(S)
        for k in (1, 3, 7):
            w, V = _kernels.top_eigh(S, k)
            assert np.all(np.abs(w - w0[::-1][:k]) <= TOL * w0[-1])
            assert _sin_theta(V, V0[:, ::-1][:, :k]) <= TOL
            idx = np.argmax(np.abs(V), axis=0)
            assert np.all(V[idx, np.arange(k)] > 0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            _kernels.top_eigh(np.eye(3), 0)
        with pytest.raises(ValueError):
            _kernels.top_eigh(np.eye(3), 4)
        with pytest.raises(ValueError):
            _kernels.top_eigh(np.ones((2, 3)), 1)
        for bad in (np.nan, np.inf):
            with pytest.raises(np.linalg.LinAlgError):
                _kernels.top_eigh(np.array([[1.0, 0.0], [0.0, bad]]), 1)

    def test_eigh_fallback_rejects_bad_input(self, monkeypatch):
        monkeypatch.setattr(_kernels, "_LAPACKE_DSYEVR", None)
        self.test_rejects_bad_input()

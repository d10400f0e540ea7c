import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from winpca import RadiusSpec, fit_pc_subspace, resolve_radius, winsorize_dataset
from winpca._kernels import BOUNDARY_REL_TOL

from oracles import sin_theta_operator, spherical_fit

vectors = hnp.arrays(
    np.float64,
    st.integers(min_value=1, max_value=8),
    elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)
# Every finite float64, subnormals and values near the overflow threshold
# included: a sum of squares of such entries overflows or underflows.
wide_vectors = hnp.arrays(
    np.float64,
    st.integers(min_value=1, max_value=8),
    elements=st.floats(allow_nan=False, allow_infinity=False),
)
radii = st.floats(min_value=1e-6, max_value=1e4)
# Radii down to 1e-300, where a radius over a row norm can underflow.
tiny_radii = st.floats(min_value=1e-300, max_value=1e-6)


def _norm(x):
    """Euclidean norm scaled by the largest magnitude, exact to roundoff for
    every finite vector; inf only where the norm exceeds the float64 range."""
    top = float(np.max(np.abs(x)))
    if top == 0.0:
        return 0.0
    with np.errstate(over="ignore"):
        return top * float(np.linalg.norm(x / top))


def _assert_spherical(X, d):
    """The spherical fit of ``X`` against the oracle's: eigenvalues within
    1e-15 (they sum to 1), the basis within 1e-12; returns the fit."""
    fit = fit_pc_subspace(X, d, RadiusSpec.spherical())
    vals, basis = spherical_fit(X, d)
    assert fit.radius == 0.0
    assert np.allclose(fit.eigenvalues, vals, rtol=0, atol=1e-15)
    assert sin_theta_operator(fit.basis, basis) <= 1e-12
    return fit


def _rotation(p, seed):
    rng = np.random.default_rng(seed)
    Q, R = np.linalg.qr(rng.standard_normal((p, p)))
    return Q * np.sign(np.diag(R))


def _winsorize_row(x, r):
    """``winsorize_dataset`` on the one row ``x``, returned as a vector."""
    return winsorize_dataset(np.asarray(x)[None, :], r)[0]


class TestWinsorizePoint:
    """The map of a single point: ``winsorize_dataset`` on one row."""

    def test_zero_vector_untouched(self):
        out = _winsorize_row(np.zeros(4), 1.0)
        assert np.array_equal(out, np.zeros(4))

    def test_boundary_norm_equals_radius_untouched(self):
        # norm is exactly 5; the boundary belongs to the identity branch
        out = _winsorize_row(np.array([3.0, 4.0]), 5.0)
        assert np.array_equal(out, np.array([3.0, 4.0]))

    def test_projection_hand_value(self):
        out = _winsorize_row(np.array([3.0, 4.0]), 2.5)
        assert np.allclose(out, [1.5, 2.0], rtol=0, atol=1e-15)

    def test_interior_point_untouched(self):
        x = np.array([0.3, 0.4])
        assert np.array_equal(_winsorize_row(x, 2.5), x)

    @pytest.mark.parametrize("r", [0.0, -1.0, np.inf, np.nan])
    def test_bad_radius_rejected(self, r):
        with pytest.raises(ValueError):
            _winsorize_row(np.array([1.0]), r)

    def test_non_finite_input_rejected(self):
        with pytest.raises(ValueError):
            _winsorize_row(np.array([1.0, np.nan]), 1.0)
        with pytest.raises(ValueError):
            _winsorize_row(np.array([np.inf, 0.0]), 1.0)

    # A row whose norm exceeds r by less than BOUNDARY_REL_TOL relative is
    # left untouched, so the contract holds to that slack plus roundoff.
    @given(x=st.one_of(vectors, wide_vectors), r=st.one_of(radii, tiny_radii))
    @example(x=np.array([1e-12, 1e-6, 1e-12]), r=1e-6)
    def test_norm_contract(self, x, r):
        out = _winsorize_row(x, r)
        expected = min(_norm(x), r)
        slack = BOUNDARY_REL_TOL * expected + 4 * np.spacing(expected)
        assert abs(_norm(out) - expected) <= slack

    @given(x=vectors, r=radii)
    def test_direction_preserved(self, x, r):
        nx = np.linalg.norm(x)
        if nx == 0:
            return
        out = _winsorize_row(x, r)
        cos = float(out @ x) / (np.linalg.norm(out) * nx)
        assert cos >= 1.0 - 1e-12

    @given(x=vectors, r1=radii, r2=radii)
    def test_monotone_nesting(self, x, r1, r2):
        lo, hi = min(r1, r2), max(r1, r2)
        n_lo = np.linalg.norm(_winsorize_row(x, lo))
        n_hi = np.linalg.norm(_winsorize_row(x, hi))
        assert n_lo <= n_hi * (1 + 1e-12)

    @given(x=vectors, r=radii, seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_rotation_equivariance(self, x, r, seed):
        R = _rotation(x.size, seed)
        lhs = _winsorize_row(R @ x, r)
        rhs = R @ _winsorize_row(x, r)
        scale = max(np.linalg.norm(x), r, 1.0)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale


class TestWinsorizeDataset:
    def test_all_rows_inside_identity(self):
        X = np.array([[0.1, 0.2], [0.3, -0.1], [0.0, 0.0]])
        assert np.array_equal(winsorize_dataset(X, 1.0), X)

    def test_per_row_hand_values(self):
        X = np.array([[3.0, 4.0], [0.3, 0.4]])
        out = winsorize_dataset(X, 2.5)
        assert np.allclose(out[0], [1.5, 2.0], rtol=0, atol=1e-15)
        assert np.array_equal(out[1], X[1])

    def test_matches_pointwise_map(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((20, 5)) * 3
        out = winsorize_dataset(X, 2.0)
        for i in range(20):
            assert np.array_equal(out[i], winsorize_dataset(X[i:i + 1], 2.0)[0])

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        r=radii,
        n=st.integers(min_value=1, max_value=30),
        p=st.integers(min_value=1, max_value=10),
    )
    def test_idempotence_exact(self, seed, r, n, p):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, p)) * rng.uniform(0.01, 100)
        once = winsorize_dataset(X, r)
        twice = winsorize_dataset(once, r)
        assert np.array_equal(once, twice)

    def test_input_never_modified(self):
        X = np.array([[30.0, 40.0]])
        Xc = X.copy()
        winsorize_dataset(X, 1.0)
        assert np.array_equal(X, Xc)

    def test_shape_and_validation(self):
        with pytest.raises(ValueError):
            winsorize_dataset(np.empty((0, 3)), 1.0)
        with pytest.raises(ValueError):
            winsorize_dataset(np.array([1.0, 2.0, 3.0]).reshape(1, 3), -1.0)
        with pytest.raises(ValueError):
            winsorize_dataset(np.array([[1.0, np.nan]]), 1.0)


class TestHugeAndTinyRows:
    """Rows whose sum of squares overflows or underflows float64."""

    def test_huge_row_winsorized_onto_the_ball(self):
        out = winsorize_dataset([[1e160, 1e160], [0.3, 0.4]], 1.0)
        assert np.allclose(out[0], [0.5**0.5, 0.5**0.5], rtol=1e-15, atol=0)
        assert np.array_equal(out[1], [0.3, 0.4])

    def test_row_beyond_float_range_winsorized_onto_the_ball(self):
        big = np.finfo(np.float64).max
        out = winsorize_dataset([[big, big, -big]], 2.0)
        assert np.allclose(out[0], np.array([1.0, 1.0, -1.0]) * 2.0 / 3**0.5,
                           rtol=1e-15, atol=0)

    def test_huge_rows_spherized(self):
        # Norms of 2.2e160 and 2.1e308, whose squares overflow; the second
        # exceeds float64 itself.  Then fewer rows than columns: the thin SVD.
        _assert_spherical([[1e160, 2e160], [-1.5e308, 1.5e308], [1.0, 0.0]], 1)
        _assert_spherical([[1e160, 2e160, 0.0], [-1.5e308, 1.5e308, 1.5e308]], 1)

    def test_tiny_row_is_not_a_zero_row(self):
        # Sums of squares of 1e-340 and 2.5e-399 underflow: the rows are
        # still (1, 0) and (0.6, 0.8) in direction, on the Gram route and
        # on the thin SVD.
        _assert_spherical([[1e-170, 0.0], [3e-200, 4e-200]], 1)
        _assert_spherical([[1e-170, 0.0, 0.0], [3e-200, 4e-200, 0.0]], 1)
        X = np.array([[1e-170, 1e-170], [0.0, 1e-170], [0.0, 0.0]])
        assert resolve_radius(X, RadiusSpec.median_norm()) == 1e-170

    @pytest.mark.parametrize("spec", [RadiusSpec.fixed(1.0), RadiusSpec.median_norm()])
    @pytest.mark.parametrize("huge", [[1e160, 0.0], [-1.5e308, 1.5e308]])
    def test_fit_keeps_a_huge_row(self, spec, huge):
        # The trace of the winsorized covariance is the mean of min(|x|, r)^2;
        # a huge row pulled back onto the ball contributes r^2 to it.
        X = np.array([huge, [0.0, 0.1], [0.0, -0.1]])
        fit = fit_pc_subspace(X, 1, spec)
        r = fit.radius
        expected = (r**2 + 2 * min(0.1, r) ** 2) / 3
        assert fit.eigenvalues.sum() == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("X", [
        np.array([[1e160, 1e160], [1.0, 0.0], [0.0, 1.0]]),
        # fewer rows than columns: the thin-SVD route
        np.array([[1e160, 0.0, 0.0], [0.0, 1.0, 0.0]]),
    ])
    def test_identity_fit_names_the_overflow(self, X):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow"):
                fit_pc_subspace(X, 1, RadiusSpec.none())


class TestSpherize:
    """``RadiusSpec.spherical()`` fits the Gram of the unit rows over n."""

    def test_hand_value(self):
        # One row (the thin SVD), and two opposite rows (the Gram route),
        # of direction (0.6, 0.8).
        for X in ([[3.0, 4.0]], [[3.0, 4.0], [-6.0, -8.0]]):
            fit = _assert_spherical(X, 1)
            assert np.allclose(fit.basis, [[0.6], [0.8]], rtol=0, atol=1e-15)
            assert np.allclose(fit.eigenvalues, [1.0, 0.0], rtol=0, atol=1e-15)

    def test_unit_rows_unchanged(self):
        X = np.array([[1.0, 0.0], [0.0, -1.0], [0.6, 0.8]])
        fit = _assert_spherical(X, 1)
        plain = fit_pc_subspace(X, 1, RadiusSpec.none())
        assert np.allclose(fit.eigenvalues, plain.eigenvalues,
                           rtol=0, atol=1e-15)
        assert sin_theta_operator(fit.basis, plain.basis) <= 1e-12

    def test_zero_row_errors_by_default(self):
        X = np.array([[1.0, 0.0], [0.0, 0.0], [3.0, 4.0]])
        # The Gram route, then fewer rows than columns: the thin SVD.
        for A in (X, np.hstack([X, np.zeros((3, 2))])):
            with pytest.raises(ValueError, match=r"cannot spherize zero rows at indices \[1\]"):
                fit_pc_subspace(A, 1, RadiusSpec.spherical())

    def test_spherize_equals_small_radius_winsorize_subspace(self):
        # winsorizing below every row norm is a rank-preserving row scaling,
        # so the fitted subspace matches the spherized fit
        rng = np.random.default_rng(11)
        X = rng.standard_normal((60, 4)) * np.array([5.0, 2.0, 1.0, 0.5]) + 0.1
        r0 = 0.5 * np.min(np.linalg.norm(X, axis=1))
        fit_sph = fit_pc_subspace(X, 2, RadiusSpec.spherical())
        fit_win = fit_pc_subspace(X, 2, RadiusSpec.fixed(r0))
        assert sin_theta_operator(fit_sph.basis, fit_win.basis) <= 1e-10
        _assert_spherical(X, 2)


class TestResolveRadius:
    def test_fixed_pass_through(self):
        assert resolve_radius(np.eye(2), RadiusSpec.fixed(2.5)) == 2.5

    def test_power_law(self):
        X = np.zeros((3, 100))
        X[:, 0] = 1.0
        assert resolve_radius(X, RadiusSpec.power_law(0.0)) == pytest.approx(10.0, rel=1e-15)

    @pytest.mark.parametrize("beta", [1e308, 400.0, -1e308, -400.0])
    def test_power_law_outside_float_range_raises(self, beta):
        # 100**(0.5 + beta) overflows to inf or underflows to zero.
        X = np.eye(100)
        with pytest.raises(ValueError, match=re.escape(f"p=100, beta={beta}")):
            resolve_radius(X, RadiusSpec.power_law(beta))
        with pytest.raises(ValueError, match="finite and positive"):
            fit_pc_subspace(X, 1, RadiusSpec.power_law(beta))

    def test_median_beyond_float_range_raises(self):
        X = np.full((3, 2), 1.5e308)
        with pytest.raises(ValueError, match="median row norm is inf"):
            resolve_radius(X, RadiusSpec.median_norm())

    def test_median_of_huge_norms_does_not_overflow(self):
        # Both norms are 1e308, so the median is too, though their sum is not
        # a float64.
        X = np.array([[1e308, 1.0], [1e308, 2.0]])
        assert resolve_radius(X, RadiusSpec.median_norm()) == 1e308

    def test_median_odd_count(self):
        X = np.diag([1.0, 2.0, 3.0])
        assert resolve_radius(X, RadiusSpec.median_norm()) == 2.0

    def test_median_even_count_midpoint(self):
        X = np.array([[1.0, 0.0], [0.0, 3.0]])
        assert resolve_radius(X, RadiusSpec.median_norm()) == 2.0

    def test_median_zero_degenerate(self):
        with pytest.raises(ValueError):
            resolve_radius(np.zeros((3, 2)), RadiusSpec.median_norm())

    def test_sentinels(self):
        X = np.eye(2)
        assert resolve_radius(X, RadiusSpec.none()) == math.inf
        assert resolve_radius(X, RadiusSpec.spherical()) == 0.0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            RadiusSpec.fixed(0.0)
        with pytest.raises(ValueError):
            RadiusSpec.fixed(np.inf)
        with pytest.raises(ValueError):
            RadiusSpec.power_law(np.nan)
        with pytest.raises(ValueError):
            RadiusSpec("median_norm", 2.0)
        with pytest.raises(ValueError):
            RadiusSpec("banana")

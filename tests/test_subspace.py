import math

import numpy as np
import pytest

from winpca import (
    RadiusSpec,
    fit_pc_path,
    fit_pc_subspace,
    principal_angles,
    resolve_radius,
    subspace,
    symmetric_eigh,
    winsorize_dataset,
    winsorized_second_moments,
)
from winpca.cli import main

from oracles import assert_sound_records, sin_theta_operator


def _rotation(p, seed):
    rng = np.random.default_rng(seed)
    Q, R = np.linalg.qr(rng.standard_normal((p, p)))
    return Q * np.sign(np.diag(R))


def _sample_covariance(X):
    """Uncentered ``X.T @ X / n``: the second moments at a radius no row reaches."""
    return winsorized_second_moments(X, [np.inf])[0]


def _random_subspace(p, d, rng):
    Q, _ = np.linalg.qr(rng.standard_normal((p, d)))
    return Q


class TestSampleCovariance:
    def test_single_row_outer_product(self):
        S = _sample_covariance(np.array([[1.0, 0.0]]))
        assert np.array_equal(S, np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_two_axis_rows(self):
        S = _sample_covariance(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert np.allclose(S, 0.5 * np.eye(2), rtol=0, atol=1e-16)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((40, 5))
        Xp = X[rng.permutation(40)]
        assert np.allclose(_sample_covariance(X), _sample_covariance(Xp), rtol=1e-12)

    def test_no_mean_subtraction(self):
        # constant rows give a rank-1 second moment, not a zero matrix
        X = np.tile([2.0, 0.0], (10, 1))
        S = _sample_covariance(X)
        assert S[0, 0] == pytest.approx(4.0)


class TestSymmetricEigh:
    def test_identity(self):
        vals, _ = symmetric_eigh(np.eye(4))
        assert np.allclose(vals, 1.0)

    def test_diagonal_sorted_descending_with_axis_vectors(self):
        vals, vecs = symmetric_eigh(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(vals, [3.0, 2.0, 1.0])
        expected = np.eye(3)[:, [0, 2, 1]]
        # sign convention makes the largest component positive
        assert np.allclose(vecs, expected, rtol=0, atol=1e-15)

    def test_reconstruction(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((8, 8))
        S = (A + A.T) / 2
        vals, vecs = symmetric_eigh(S)
        R = vecs @ np.diag(vals) @ vecs.T
        assert np.max(np.abs(R - S)) <= 1e-7 * np.max(np.abs(S))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            symmetric_eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            symmetric_eigh(np.ones((2, 3)))

    def test_rejects_nan_entry(self):
        with pytest.raises(ValueError, match="non-finite"):
            symmetric_eigh(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    def test_psd_roundoff_clamped_to_zero(self):
        v = np.array([1.0, 2.0, 3.0])
        vals, _ = symmetric_eigh(np.outer(v, v))
        assert vals[0] == pytest.approx(14.0)
        assert np.all(vals[1:] >= 0.0)

    def test_genuinely_negative_eigenvalues_survive(self):
        vals, _ = symmetric_eigh(np.diag([2.0, -3.0]))
        assert np.allclose(vals, [2.0, -3.0])


class TestFit:
    def test_none_equals_classical_pca(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((50, 4)) * np.array([3.0, 1.0, 0.5, 0.1])
        fit = fit_pc_subspace(X, 2, RadiusSpec.none())
        # brute-force reference straight from numpy
        w, V = np.linalg.eigh(X.T @ X / 50)
        ref = V[:, np.argsort(w)[::-1][:2]]
        assert sin_theta_operator(fit.basis, ref) <= 1e-10
        assert fit.radius == math.inf

    def test_radius_is_the_resolved_radius(self):
        # One float in [0, +inf] from policy to fit, for every policy and
        # every radius of a path.
        X = np.random.default_rng(14).standard_normal((40, 5))
        for spec in (RadiusSpec.fixed(0.5), RadiusSpec.median_norm(),
                     RadiusSpec.power_law(-0.25), RadiusSpec.spherical(),
                     RadiusSpec.none()):
            r = resolve_radius(X, spec)
            fit = fit_pc_subspace(X, 2, spec)
            assert type(r) is float and type(fit.radius) is float, spec
            assert fit.radius == r, spec
        radii = [2.0, math.inf, 1e-3, 0.5, math.inf]
        fits = fit_pc_path(X, 2, radii)
        assert [f.radius for f in fits] == radii
        assert all(type(f.radius) is float for f in fits)

    def test_large_radius_equals_none(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((30, 5))
        r = float(np.linalg.norm(X, axis=1).max())
        fit_r = fit_pc_subspace(X, 2, RadiusSpec.fixed(r))
        fit_none = fit_pc_subspace(X, 2, RadiusSpec.none())
        assert principal_angles(fit_r.basis, fit_none.basis)[-1] <= 1e-10
        assert fit_r.radius == r

    def test_pca_consistency_single_spike(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((1000, 2)) * np.sqrt([25.0, 1.0])
        fit = fit_pc_subspace(X, 1, RadiusSpec.none())
        target = np.array([[1.0], [0.0]])
        assert principal_angles(fit.basis, target)[-1] < 0.1

    def test_spectrum_travels_in_full(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((40, 6))
        for spec in (RadiusSpec.fixed(2.0), RadiusSpec.median_norm(), RadiusSpec.power_law(0.0),
                     RadiusSpec.spherical(), RadiusSpec.none()):
            fit = fit_pc_subspace(X, 2, spec)
            assert fit.eigenvalues.shape == (6,)
            assert np.all(np.diff(fit.eigenvalues) <= 0)
            assert_sound_records([fit])

    def test_degenerate_gap_flagged(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        fit = fit_pc_subspace(X, 1, RadiusSpec.none())
        assert fit.degenerate_gap
        assert_sound_records([fit])

    def test_clear_gap_not_flagged(self):
        X = np.array([[2.0, 0.0], [0.0, 1.0]])
        fit = fit_pc_subspace(X, 1, RadiusSpec.none())
        assert not fit.degenerate_gap

    def test_d_validation(self):
        X = np.eye(3)
        with pytest.raises(ValueError):
            fit_pc_subspace(X, 0, RadiusSpec.none())
        with pytest.raises(ValueError):
            fit_pc_subspace(X, 4, RadiusSpec.none())
        with pytest.raises(ValueError, match="expected a 2-D data matrix"):
            fit_pc_subspace(np.ones((2, 3, 3)), 1, RadiusSpec.none())

    def test_thin_svd_path_matches_dense(self):
        # n < p forces the SVD route; compare against the dense eigh route
        rng = np.random.default_rng(14)
        X = rng.standard_normal((6, 15)) * 2.0
        W = winsorize_dataset(X, 2.5)
        fit = fit_pc_subspace(X, 2, RadiusSpec.fixed(2.5))
        dense_vals, dense_vecs = symmetric_eigh(W.T @ W / 6)
        assert np.allclose(fit.eigenvalues, dense_vals,
                           rtol=1e-9, atol=1e-12)
        assert fit.eigenvalues[6:].max() == 0.0
        assert fit.eigenvectors.shape == (15, 6)
        assert sin_theta_operator(fit.basis, dense_vecs[:, :2]) <= 1e-8

    def test_rank_deficient_d_beyond_rank_falls_back(self):
        rng = np.random.default_rng(15)
        X = rng.standard_normal((3, 5))
        fit = fit_pc_subspace(X, 4, RadiusSpec.none())
        B = fit.basis
        assert B.shape == (5, 4)
        assert np.allclose(B.T @ B, np.eye(4), atol=1e-10)


class TestPrincipalAngles:
    def test_same_subspace_exact_zero(self):
        rng = np.random.default_rng(20)
        U = _random_subspace(5, 2, rng)
        angles = principal_angles(U, U)
        assert np.array_equal(angles, np.zeros(2))
        assert np.sin(angles[-1]) == 0.0

    def test_forty_five_degrees(self):
        U = np.array([[1.0], [0.0]])
        W = np.array([[1.0], [1.0]]) / np.sqrt(2)
        assert principal_angles(U, W)[-1] == pytest.approx(np.pi / 4, abs=1e-12)
        # A 1-D basis is one column.
        assert np.array_equal(principal_angles(U[:, 0], W[:, 0]), principal_angles(U, W))

    def test_shared_plus_orthogonal_direction(self):
        U = np.eye(4)[:, [0, 1]]
        W = np.eye(4)[:, [0, 2]]
        angles = principal_angles(U, W)
        assert angles == pytest.approx([0.0, np.pi / 2], abs=1e-12)
        assert angles[0] == pytest.approx(0.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            principal_angles(np.eye(3)[:, :1], np.eye(3)[:, :2])
        with pytest.raises(ValueError):
            principal_angles(np.eye(3)[:, :1], np.eye(4)[:, :1])
        with pytest.raises(ValueError, match="exceeds ambient"):
            principal_angles(np.eye(2, 3), np.eye(2, 3))
        with pytest.raises(ValueError, match="nonempty p x d"):
            principal_angles(np.empty((0, 1)), np.empty((0, 1)))

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            principal_angles(np.array([[2.0], [0.0]]), np.eye(2)[:, :1])

    def test_orthonormality_tolerance_is_1e_8(self):
        off = np.array([[1.0 + 1e-7], [0.0]])
        with pytest.raises(ValueError, match="orthonormal"):
            principal_angles(off, np.eye(2)[:, :1])
        with pytest.raises(ValueError, match="orthonormal"):
            principal_angles(np.eye(2)[:, :1], off)
        close = np.array([[1.0 + 1e-9], [0.0]])
        assert principal_angles(close, np.eye(2)[:, :1])[-1] == 0.0

    @pytest.mark.parametrize("B", [
        [[1e200], [1.0]],
        [[-1e300], [0.0]],
        [[1e200, 1e200], [1e200, -1e200]],
    ], ids=["huge", "huge-negative", "huge-pair"])
    def test_rejects_basis_whose_gram_overflows(self, B):
        # A product past float64 is not orthonormal; no numpy warning is due.
        B = np.array(B)
        with pytest.raises(ValueError, match="orthonormal"):
            principal_angles(B, np.eye(2)[:, :B.shape[1]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_basis(self, bad):
        B = np.array([[bad], [0.0]])
        with pytest.raises(ValueError, match="finite"):
            principal_angles(np.eye(2)[:, :1], B)
        with pytest.raises(ValueError, match="finite"):
            principal_angles(B, np.eye(2)[:, :1])

    def test_symmetry(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            U = _random_subspace(6, 2, rng)
            W = _random_subspace(6, 2, rng)
            a = principal_angles(U, W)
            b = principal_angles(W, U)
            assert np.max(np.abs(a - b)) <= 1e-10

    def test_basis_invariance(self):
        rng = np.random.default_rng(22)
        U = _random_subspace(7, 3, rng)
        W = _random_subspace(7, 3, rng)
        base = principal_angles(U, W)
        for _ in range(5):
            Q = _rotation(3, rng.integers(2**32))
            a = principal_angles(U @ Q, W)
            assert np.max(np.abs(a - base)) <= 1e-10

    def test_report_is_ascending_in_range(self):
        rng = np.random.default_rng(23)
        U = _random_subspace(8, 3, rng)
        W = _random_subspace(8, 3, rng)
        angles = principal_angles(U, W)
        assert angles.shape == (3,)
        assert np.all(np.diff(angles) >= 0)
        assert angles[0] >= 0 and angles[-1] <= np.pi / 2 + 1e-15


class TestStackedAngles:
    """The private stacked pass behind ``principal_angles`` and fig1/fig2."""

    @staticmethod
    def _svd_route(U, W):
        # The formula the pass replaced: arccos of the singular values of U^T W.
        return np.arccos(np.clip(np.linalg.svd(U.T @ W, compute_uv=False), 0.0, 1.0))

    def test_one_dimension_equals_the_svd_route_bit_for_bit(self):
        rng = np.random.default_rng(30)
        pairs = []
        for p in (2, 3, 10, 100):
            for _ in range(50):
                pairs.append((_random_subspace(p, 1, rng), _random_subspace(p, 1, rng)))
        for eps in np.geomspace(1e-15, 1e-1, 40):
            U = _random_subspace(8, 1, rng)
            N = rng.standard_normal((8, 1))
            N -= U * (U.T @ N).item()
            N /= np.linalg.norm(N)
            # Nearly parallel, and nearly orthogonal, at angle about eps.
            pairs.append((U, (U + eps * N) / np.linalg.norm(U + eps * N)))
            pairs.append((U, (N + eps * U) / np.linalg.norm(N + eps * U)))
        for U, W in pairs:
            want = self._svd_route(U, W)
            assert principal_angles(U, W).tobytes() == want.tobytes()
            stacked = subspace._angles(U[None], W)
            assert stacked.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_stacked_rows_equal_one_pair_calls(self, d):
        rng = np.random.default_rng(31 + d)
        p = 12
        W = _random_subspace(p, d, rng)
        U = np.stack([_random_subspace(p, d, rng) for _ in range(17)] + [W])
        angles = subspace._angles(U, W)
        assert angles.shape == (18, d)
        for row, B in zip(angles, U):
            assert row.tobytes() == principal_angles(B, W).tobytes()
        for row, B in zip(angles[:-1], U[:-1]):
            assert row.tobytes() == self._svd_route(B, W).tobytes()
        assert not angles[-1].any()

    def test_identical_bases_and_the_whole_space_give_exact_zero(self):
        rng = np.random.default_rng(34)
        W = _random_subspace(6, 2, rng)
        U = np.stack([W, _random_subspace(6, 2, rng), W])
        angles = subspace._angles(U, W)
        assert not angles[0].any() and not angles[2].any() and angles[1].all()
        full = np.stack([_rotation(4, 1), _rotation(4, 2)])
        assert subspace._angles(full, _rotation(4, 3)).tobytes() == np.zeros((2, 4)).tobytes()
        assert principal_angles(_rotation(4, 1), _rotation(4, 2))[-1] == 0.0

    # Golden output of `winpca angles` on decimal bases, as the SVD route wrote it.
    @pytest.mark.parametrize("a, b, want", [
        ([[0.6], [0.8], [0.0]], [[0.8], [0.6], [0.0]],
         ["# smallest=0.28379410920832798", "# largest=0.28379410920832798",
          "# sin_largest=0.28000000000000014", "index,angle", "1,0.28379410920832798"]),
        ([[1.0], [0.0], [0.0]], [[0.99999999995], [1e-5], [0.0]],
         ["# smallest=1.0000000413743513e-05", "# largest=1.0000000413743513e-05",
          "# sin_largest=1.0000000413576846e-05", "index,angle",
          "1,1.0000000413743513e-05"]),
        ([[0.6, 0.0], [0.8, 0.0], [0.0, 1.0], [0.0, 0.0]],
         [[0.8, 0.0], [0.6, 0.0], [0.0, 0.6], [0.0, 0.8]],
         ["# smallest=0.28379410920832798", "# largest=0.92729521800161219",
          "# sin_largest=0.79999999999999993", "index,angle",
          "1,0.28379410920832798", "2,0.92729521800161219"]),
    ], ids=["d1", "d1-near", "d2"])
    def test_cli_angles_output_is_unchanged(self, capsys, tmp_path, a, b, want):
        paths = []
        for name, cols in (("a.csv", a), ("b.csv", b)):
            paths.append(str(tmp_path / name))
            (tmp_path / name).write_text(
                "\n".join(",".join(map(str, row)) for row in cols) + "\n")
        assert main(["angles", *paths]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[:3] == ["# command=angles", f"# basis_a={paths[0]}",
                           f"# basis_b={paths[1]}"]
        assert [l for l in out[3:] if not l.startswith("# timestamp=")] == want


class TestSinThetaOperator:
    def test_same_subspace_zero(self):
        rng = np.random.default_rng(30)
        U = _random_subspace(5, 2, rng)
        assert sin_theta_operator(U, U) == 0.0

    def test_fully_orthogonal_subspaces(self):
        U = np.eye(6)[:, [0, 1]]
        W = np.eye(6)[:, [2, 3]]
        assert sin_theta_operator(U, W) == pytest.approx(1.0, abs=1e-12)

    def test_whole_space_is_zero(self):
        rng = np.random.default_rng(31)
        U = _rotation(3, 1)
        W = _rotation(3, 2)
        assert sin_theta_operator(U, W) == 0.0

    def test_route_equivalence_random_pairs(self):
        rng = np.random.default_rng(32)
        count = 0
        for p in (3, 5, 10):
            for d in (1, 2, 3):
                for _ in range(12):
                    U = _random_subspace(p, d, rng)
                    W = _random_subspace(p, d, rng)
                    svd_route = np.sin(principal_angles(U, W)[-1])
                    op_route = sin_theta_operator(U, W)
                    assert abs(svd_route - op_route) <= 1e-8
                    count += 1
        assert count >= 100


class TestCovariancePerturbation:
    def test_deterministic_covariance_shift_bound(self):
        # replacing m rows moves the winsorized covariance by at most (m/n) r^2
        rng = np.random.default_rng(40)
        for trial in range(25):
            n = int(rng.integers(20, 120))
            p = int(rng.integers(2, 7))
            r = float(rng.uniform(0.5, 5.0))
            m = int(rng.integers(1, n // 2))
            X0 = rng.standard_normal((n, p)) * rng.uniform(0.5, 4.0)
            Xe = X0.copy()
            Xe[:m] = rng.standard_normal((m, p)) * 1e4
            S0 = winsorized_second_moments(X0, [r])[0]
            Se = winsorized_second_moments(Xe, [r])[0]
            op_norm = np.max(np.abs(np.linalg.eigvalsh(Se - S0)))
            assert op_norm <= (m / n) * r * r + 1e-10

    def test_weyl_eigenvalue_shift_bound(self):
        rng = np.random.default_rng(41)
        for trial in range(25):
            n = int(rng.integers(20, 120))
            p = int(rng.integers(2, 7))
            r = float(rng.uniform(0.5, 5.0))
            m = int(rng.integers(1, n // 2))
            X0 = rng.standard_normal((n, p)) * rng.uniform(0.5, 4.0)
            Xe = X0.copy()
            Xe[:m] = rng.standard_normal((m, p)) * 1e4
            l0 = np.linalg.eigvalsh(winsorized_second_moments(X0, [r])[0])
            le = np.linalg.eigvalsh(winsorized_second_moments(Xe, [r])[0])
            assert np.max(np.abs(le - l0)) <= (m / n) * r * r + 1e-10


class TestFitEquivariance:
    def test_rotation_equivariance(self):
        rng = np.random.default_rng(50)
        X = rng.standard_normal((80, 5)) * np.array([4.0, 2.0, 1.0, 0.5, 0.25])
        spec = RadiusSpec.fixed(3.0)
        for seed in range(3):
            R = _rotation(5, seed)
            fit_rot = fit_pc_subspace(X @ R.T, 2, spec)
            fit_raw = fit_pc_subspace(X, 2, spec)
            rotated, _ = np.linalg.qr(R @ fit_raw.basis)
            assert sin_theta_operator(fit_rot.basis, rotated) <= 1e-7

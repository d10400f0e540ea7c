import numpy as np
import pytest
import scipy.stats
from oracles import traced_peak

from winpca import PopulationModel, apply_contamination, make_rng


def gaussian(n, lam, seed):
    return PopulationModel.gaussian(lam).draw(n, make_rng(seed))


def student_t(n, nu, lam, seed):
    return PopulationModel.student_t(lam, nu).draw(n, make_rng(seed))


class TestGaussianSampler:
    def test_moments(self):
        lam = np.array([9.0, 4.0, 1.0])
        X = gaussian(100_000, lam, seed=1)
        assert X.shape == (100_000, 3)
        tol = 4.0 * np.sqrt(lam / 100_000)
        assert np.all(np.abs(X.mean(axis=0)) <= tol)
        assert np.allclose(X.var(axis=0, ddof=1), lam, rtol=0.05)

    def test_deterministic(self):
        a = gaussian(100, [2.0, 1.0], seed=9)
        b = gaussian(100, [2.0, 1.0], seed=9)
        assert np.array_equal(a, b)
        c = gaussian(100, [2.0, 1.0], seed=10)
        assert not np.array_equal(a, c)

    def test_coordinates_uncorrelated(self):
        X = gaussian(200_000, [4.0, 1.0], seed=2)
        rho = np.corrcoef(X.T)[0, 1]
        assert abs(rho) <= 4.0 / np.sqrt(200_000)


class TestStudentTSampler:
    def test_rejects_low_dof(self):
        for nu in (2.0, 1.0, 0.5):
            with pytest.raises(ValueError):
                student_t(10, nu, [1.0], seed=0)

    def test_covariance_matches_request(self):
        # the (nu-2)/nu scaling makes second moments equal the eigenvalues
        lam = np.array([9.0, 1.0])
        X = student_t(1_000_000, 10.0, lam, seed=3)
        S = X.T @ X / X.shape[0]
        assert np.allclose(np.diag(S), lam, rtol=0.05)
        se_offdiag = 4.0 * np.std(X[:, 0] * X[:, 1]) / np.sqrt(X.shape[0])
        assert abs(S[0, 1]) <= se_offdiag

    def test_high_dof_approaches_gaussian(self):
        n = 10_000
        T = student_t(n, 10_000.0, [2.0, 1.0], seed=4)
        G = gaussian(n, [2.0, 1.0], seed=5)
        stat = scipy.stats.ks_2samp(np.linalg.norm(T, axis=1),
                                    np.linalg.norm(G, axis=1))
        assert stat.pvalue > 0.01

    def test_heavy_tails_at_low_dof(self):
        n = 50_000
        T = student_t(n, 3.0, [1.0], seed=6)
        G = gaussian(n, [1.0], seed=7)
        q = 0.9999
        assert np.quantile(np.abs(T), q) > 2.0 * np.quantile(np.abs(G), q)

    def test_deterministic(self):
        a = student_t(50, 3.0, [4.0, 1.0], seed=11)
        b = student_t(50, 3.0, [4.0, 1.0], seed=11)
        assert np.array_equal(a, b)


class TestPopulationModel:
    def test_eigenvalue_validation(self):
        with pytest.raises(ValueError):
            PopulationModel.gaussian(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            PopulationModel.gaussian(np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="nonempty 1-D"):
            PopulationModel.gaussian(np.eye(2))

    @pytest.mark.parametrize("distribution, dof, message", [
        ("gaussian", 3.0, "no degrees of freedom"),
        ("laplace", None, "unknown distribution"),
    ])
    def test_distribution_validation(self, distribution, dof, message):
        with pytest.raises(ValueError, match=message):
            PopulationModel(np.array([2.0, 1.0]), distribution, dof)

    def test_draw_whitened_needs_a_draw(self):
        with pytest.raises(ValueError, match="at least one draw"):
            PopulationModel.gaussian([2.0, 1.0]).draw_whitened(0, make_rng(0))

    @pytest.mark.parametrize("dof", [2.0, np.inf, np.nan])
    def test_student_t_needs_finite_dof_above_two(self, dof):
        # Infinite dof would draw rows of NaN through (dof - 2) / w.
        with pytest.raises(ValueError, match="dof > 2"):
            PopulationModel.student_t([2.0, 1.0], dof)

    @pytest.mark.parametrize("model", [PopulationModel.gaussian([4.0, 2.0, 1.0]),
                                       PopulationModel.student_t([4.0, 2.0, 1.0], 3.0)],
                             ids=["gaussian", "student_t"])
    def test_draw_is_the_scaled_whitened_draw(self, model):
        y = model.draw_whitened(100, make_rng(8))
        X = model.draw(100, make_rng(8))
        assert X.tobytes() == (y * np.sqrt(model.sigma_eigenvalues)).tobytes()

    @pytest.mark.parametrize("method", ["draw", "draw_whitened"])
    def test_a_draw_holds_one_n_by_p_array(self, method):
        # The scalings go in place: no second array of n x p is made.
        n, p = 2000, 50
        model = PopulationModel.student_t(np.ones(p), 3.0)
        X, peak = traced_peak(lambda: getattr(model, method)(n, make_rng(0)))
        assert X.shape == (n, p)
        assert peak < 1.5 * n * p * 8

    def test_make_rng_key_independence(self):
        a = make_rng(5, (0,)).standard_normal(4)
        b = make_rng(5, (1,)).standard_normal(4)
        assert not np.array_equal(a, b)
        again = make_rng(5, (0,)).standard_normal(4)
        assert np.array_equal(a, again)

    def test_make_rng_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="nonnegative"):
            make_rng(-1)


class TestContamination:
    def test_zero_m_is_bitwise_noop(self):
        X0 = gaussian(20, [1.0, 1.0], seed=0)
        X = apply_contamination(X0, 0, [5.0, 5.0])
        assert np.array_equal(X, X0)
        assert X is not X0

    def test_first_m_rows_replaced_rest_untouched(self):
        X0 = gaussian(10, [1.0, 1.0], seed=1)
        X = apply_contamination(X0, 3, np.eye(2)[1] * 100.0)
        assert np.all(X[:3] == np.array([0.0, 100.0]))
        assert np.array_equal(X[3:], X0[3:])
        assert np.array_equal(X0, gaussian(10, [1.0, 1.0], seed=1))

    def test_m_larger_than_n(self):
        with pytest.raises(ValueError, match="m=6"):
            apply_contamination(np.zeros((5, 1)), 6, [1.0])

    def test_wrong_length_outlier_vector(self):
        for outlier in ([1.0, 2.0, 3.0], [1.0], [], [[1.0, 2.0]]):
            with pytest.raises(ValueError, match="length p=2"):
                apply_contamination(np.zeros((5, 2)), 1, outlier)

    def test_plan_validation(self):
        # The plan is the pair (m, outlier); m counts replaced rows.
        with pytest.raises(ValueError, match="m=-1"):
            apply_contamination(np.zeros((5, 1)), -1, [1.0])

    def test_rule_validation(self):
        # The replacement rule is one finite outlier vector.
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                apply_contamination(np.zeros((5, 2)), 1, [0.0, bad])
        # Even with no row replaced.
        with pytest.raises(ValueError, match="finite"):
            apply_contamination(np.zeros((5, 2)), 0, [np.nan, 0.0])

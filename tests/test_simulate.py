import numpy as np
import pytest
import scipy.stats

from winpca import (
    ConstantVector,
    ContaminationPlan,
    CoordinateSpike,
    PopulationModel,
    apply_contamination,
    make_rng,
    sample_gaussian,
    sample_student_t,
)


class TestGaussianSampler:
    def test_moments(self):
        lam = np.array([9.0, 4.0, 1.0])
        X = sample_gaussian(100_000, lam, seed=1)
        assert X.shape == (100_000, 3)
        tol = 4.0 * np.sqrt(lam / 100_000)
        assert np.all(np.abs(X.mean(axis=0)) <= tol)
        assert np.allclose(X.var(axis=0, ddof=1), lam, rtol=0.05)

    def test_deterministic(self):
        a = sample_gaussian(100, [2.0, 1.0], seed=9)
        b = sample_gaussian(100, [2.0, 1.0], seed=9)
        assert np.array_equal(a, b)
        c = sample_gaussian(100, [2.0, 1.0], seed=10)
        assert not np.array_equal(a, c)

    def test_coordinates_uncorrelated(self):
        X = sample_gaussian(200_000, [4.0, 1.0], seed=2)
        rho = np.corrcoef(X.T)[0, 1]
        assert abs(rho) <= 4.0 / np.sqrt(200_000)


class TestStudentTSampler:
    def test_rejects_low_dof(self):
        for nu in (2.0, 1.0, 0.5):
            with pytest.raises(ValueError):
                sample_student_t(10, nu, [1.0], seed=0)

    def test_covariance_matches_request(self):
        # the (nu-2)/nu scaling makes second moments equal the eigenvalues
        lam = np.array([9.0, 1.0])
        X = sample_student_t(1_000_000, 10.0, lam, seed=3)
        S = X.T @ X / X.shape[0]
        assert np.allclose(np.diag(S), lam, rtol=0.05)
        se_offdiag = 4.0 * np.std(X[:, 0] * X[:, 1]) / np.sqrt(X.shape[0])
        assert abs(S[0, 1]) <= se_offdiag

    def test_high_dof_approaches_gaussian(self):
        n = 10_000
        T = sample_student_t(n, 10_000.0, [2.0, 1.0], seed=4)
        G = sample_gaussian(n, [2.0, 1.0], seed=5)
        stat = scipy.stats.ks_2samp(np.linalg.norm(T, axis=1),
                                    np.linalg.norm(G, axis=1))
        assert stat.pvalue > 0.01

    def test_heavy_tails_at_low_dof(self):
        n = 50_000
        T = sample_student_t(n, 3.0, [1.0], seed=6)
        G = sample_gaussian(n, [1.0], seed=7)
        q = 0.9999
        assert np.quantile(np.abs(T), q) > 2.0 * np.quantile(np.abs(G), q)

    def test_deterministic(self):
        a = sample_student_t(50, 3.0, [4.0, 1.0], seed=11)
        b = sample_student_t(50, 3.0, [4.0, 1.0], seed=11)
        assert np.array_equal(a, b)


class TestPopulationModel:
    def test_eigenvalue_validation(self):
        with pytest.raises(ValueError):
            PopulationModel.gaussian(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            PopulationModel.gaussian(np.array([1.0, 0.0]))

    def test_student_t_needs_infinite_subgaussian_norm(self):
        model = PopulationModel.student_t(np.array([1.0]), dof=3.0)
        assert model.sigma_sub == np.inf

    def test_make_rng_key_independence(self):
        a = make_rng(5, (0,)).standard_normal(4)
        b = make_rng(5, (1,)).standard_normal(4)
        assert not np.array_equal(a, b)
        again = make_rng(5, (0,)).standard_normal(4)
        assert np.array_equal(a, again)


class TestContamination:
    def test_zero_m_is_bitwise_noop(self):
        X0 = sample_gaussian(20, [1.0, 1.0], seed=0)
        plan = ContaminationPlan(0, ConstantVector((5.0, 5.0)))
        X = apply_contamination(X0, plan)
        assert np.array_equal(X, X0)
        assert X is not X0

    def test_first_m_rows_replaced_rest_untouched(self):
        X0 = sample_gaussian(10, [1.0, 1.0], seed=1)
        plan = ContaminationPlan(3, CoordinateSpike(1, 100.0))
        X = apply_contamination(X0, plan)
        assert np.all(X[:3] == np.array([0.0, 100.0]))
        assert np.array_equal(X[3:], X0[3:])
        assert np.array_equal(X0, sample_gaussian(10, [1.0, 1.0], seed=1))

    def test_explicit_positions(self):
        X0 = np.zeros((5, 2))
        plan = ContaminationPlan(2, ConstantVector((1.0, 2.0)), positions=(4, 1))
        X = apply_contamination(X0, plan)
        assert np.all(X[[1, 4]] == np.array([1.0, 2.0]))
        assert np.all(X[[0, 2, 3]] == 0.0)

    def test_m_larger_than_n(self):
        plan = ContaminationPlan(6, ConstantVector((1.0,)))
        with pytest.raises(ValueError, match="m=6"):
            apply_contamination(np.zeros((5, 1)), plan)

    def test_position_out_of_range(self):
        plan = ContaminationPlan(1, ConstantVector((1.0,)), positions=(7,))
        with pytest.raises(ValueError, match="out of range"):
            apply_contamination(np.zeros((5, 1)), plan)

    def test_spike_index_out_of_range(self):
        plan = ContaminationPlan(1, CoordinateSpike(3, 10.0))
        with pytest.raises(ValueError, match="out of range"):
            apply_contamination(np.zeros((5, 2)), plan)

    def test_wrong_length_outlier_vector(self):
        plan = ContaminationPlan(1, ConstantVector((1.0, 2.0, 3.0)))
        with pytest.raises(ValueError, match="length"):
            apply_contamination(np.zeros((5, 2)), plan)

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            ContaminationPlan(-1, ConstantVector((1.0,)))
        with pytest.raises(ValueError):
            ContaminationPlan(2, ConstantVector((1.0,)), positions=(1,))
        with pytest.raises(ValueError):
            ContaminationPlan(2, ConstantVector((1.0,)), positions=(1, 1))
        with pytest.raises(ValueError):
            ContaminationPlan(1, "not a rule")  # type: ignore[arg-type]

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            ConstantVector(())
        with pytest.raises(ValueError):
            ConstantVector((np.inf,))
        with pytest.raises(ValueError):
            CoordinateSpike(-1, 5.0)
        with pytest.raises(ValueError):
            CoordinateSpike(0, np.nan)

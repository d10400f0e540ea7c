import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from winpca import (
    BoundReport,
    PopulationModel,
    WinsorizedSpectrum,
    asymptotic_rate,
    breakdown_lower_bounds_from_values,
    concentration_bound,
    covariance_deviation_bound,
    estimate_winsorized_eigenvalues,
    pca_breakdown_points,
    perturbation_bound,
    sample_winsorized_spectrum,
    subgaussian_param_winsorized,
    wpca_breakdown_lower_bounds,
)


def _wspec(values, radius):
    return WinsorizedSpectrum(np.asarray(values, dtype=float), radius, "sample")


class TestWinsorizedSpectrum:
    def test_valid_construction(self):
        ws = _wspec([0.75, 0.25], 1.0)
        assert ws.values[0] == 0.75
        assert ws.radius == 1.0

    def test_rejects_ascending(self):
        with pytest.raises(ValueError, match="descending"):
            _wspec([0.25, 0.75], 1.0)

    def test_rejects_value_above_radius_squared(self):
        with pytest.raises(ValueError, match="exceeds"):
            _wspec([1.5], 1.0)

    def test_rejects_sum_above_radius_squared(self):
        # each value fits under r^2 but the trace cannot
        with pytest.raises(ValueError, match="sum"):
            _wspec([0.7, 0.6], 1.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            _wspec([0.5, -0.1], 1.0)

    def test_rejects_unknown_source(self):
        with pytest.raises(ValueError, match="source"):
            WinsorizedSpectrum(np.array([0.5]), 1.0, "guess")

    def test_rejects_bad_radius(self):
        for r in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                _wspec([0.5], r)

    def test_monte_carlo_slack_tolerates_noise(self):
        ws = WinsorizedSpectrum(
            np.array([1.0 + 1e-4]), 1.0, "monte_carlo",
            standard_errors=np.array([1e-3]),
        )
        assert ws.values[0] > 1.0

    def test_se_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            WinsorizedSpectrum(
                np.array([0.5, 0.25]), 1.0, "monte_carlo",
                standard_errors=np.array([1e-3]),
            )


class TestEstimateWinsorizedEigenvalues:
    def test_requires_enough_draws(self):
        model = PopulationModel.gaussian(np.array([1.0]))
        with pytest.raises(ValueError, match="1000"):
            estimate_winsorized_eigenvalues(model, 1.0, 999, seed=0)

    def test_huge_radius_recovers_population_eigenvalues(self):
        # winsorization almost never activates, so the estimate is of lam itself
        lam = np.array([4.0, 1.0])
        model = PopulationModel.gaussian(lam)
        r = 10.0 * math.sqrt(lam.sum())
        ws = estimate_winsorized_eigenvalues(model, r, 20_000, seed=7)
        assert np.all(np.abs(ws.values - lam) <= 4.0 * ws.standard_errors)

    def test_isotropic_population_stays_isotropic(self):
        model = PopulationModel.gaussian(np.ones(3))
        ws = estimate_winsorized_eigenvalues(model, 1.2, 20_000, seed=3)
        spread = ws.values.max() - ws.values.min()
        assert spread <= 8.0 * ws.standard_errors.max()

    def test_values_respect_radius_invariants(self):
        model = PopulationModel.student_t(np.array([9.0, 4.0, 1.0]), dof=3)
        ws = estimate_winsorized_eigenvalues(model, 2.0, 5_000, seed=11)
        assert ws.values.sum() <= 4.0 + 3.0 * ws.standard_errors.sum() + 1e-9
        assert np.all(np.diff(ws.values) <= 0)
        assert ws.source == "monte_carlo"
        assert ws.n_draws == 5_000

    def test_deterministic_for_fixed_seed(self):
        model = PopulationModel.gaussian(np.array([2.0, 1.0]))
        a = estimate_winsorized_eigenvalues(model, 1.5, 2_000, seed=5)
        b = estimate_winsorized_eigenvalues(model, 1.5, 2_000, seed=5)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.standard_errors, b.standard_errors)

    def test_seed_changes_draws(self):
        model = PopulationModel.gaussian(np.array([2.0, 1.0]))
        a = estimate_winsorized_eigenvalues(model, 1.5, 2_000, seed=5)
        b = estimate_winsorized_eigenvalues(model, 1.5, 2_000, seed=6)
        assert not np.array_equal(a.values, b.values)


class TestSampleWinsorizedSpectrum:
    def test_trace_equals_mean_clipped_squared_norm(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((50, 4)) * 3.0
        r = 2.0
        ws = sample_winsorized_spectrum(X, r)
        norms = np.minimum(np.linalg.norm(X, axis=1), r)
        assert ws.values.sum() == pytest.approx(np.mean(norms**2), rel=1e-12)

    def test_all_rows_clipped_gives_full_trace(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((30, 3)) * 100.0
        ws = sample_winsorized_spectrum(X, 1.0)
        assert ws.values.sum() == pytest.approx(1.0, rel=1e-12)
        assert ws.source == "sample"


class TestConcentrationBounds:
    def test_elliptical_hand_value(self):
        rep = concentration_bound(
            1.0, 1.0, _wspec([0.75, 0.25], 1.0), d=1, eps=0.1, n=100, p=100)
        assert rep.components["contamination"] == pytest.approx(0.4)
        assert rep.components["sampling"] == pytest.approx(5.12)
        assert rep.value == pytest.approx(5.52)
        assert rep.assumptions_met["positive_gap"]
        assert rep.clipped == 1.0

    def test_clean_data_drops_contamination_term(self):
        rep = concentration_bound(
            1.0, 1.0, _wspec([0.75, 0.25], 1.0), d=1, eps=0.0, n=100, p=100)
        assert rep.components["contamination"] == 0.0

    def test_zero_gap_is_infinite(self):
        rep = concentration_bound(
            1.0, 1.0, _wspec([0.5, 0.5], 1.0), d=1, eps=0.1, n=100, p=100)
        assert math.isinf(rep.value)
        assert not rep.assumptions_met["positive_gap"]

    def test_eps_validation(self):
        ws = _wspec([0.75, 0.25], 1.0)
        for eps in (-0.1, 0.5, 0.9):
            with pytest.raises(ValueError):
                concentration_bound(1.0, 1.0, ws, 1, eps, 100, 100)

    def test_eigenvalue_ordering_validation(self):
        ws = _wspec([0.75, 0.25], 1.0)
        with pytest.raises(ValueError):
            concentration_bound(1.0, 2.0, ws, 1, 0.1, 100, 100)

    def test_subgaussian_matches_elliptical_when_radius_branch_wins(self):
        ws = _wspec([0.75, 0.25], 1.0)
        ell = concentration_bound(1.0, 1.0, ws, 1, 0.1, 100, 100)
        # r^2/(p lamp) = 0.01, so any sigma with sigma^2 >= 0.01 changes nothing
        sub = concentration_bound(1.0, 1.0, ws, 1, 0.1, 100, 100, sigma_sub=1.0)
        assert sub.value == pytest.approx(ell.value)
        at_branch = concentration_bound(1.0, 1.0, ws, 1, 0.1, 100, 100, sigma_sub=0.1)
        assert at_branch.value == pytest.approx(ell.value)

    def test_subgaussian_sharper_when_sigma_small(self):
        ws = _wspec([0.75, 0.25], 1.0)
        ell = concentration_bound(1.0, 1.0, ws, 1, 0.1, 100, 100)
        sub = concentration_bound(1.0, 1.0, ws, 1, 0.1, 100, 100, sigma_sub=0.05)
        assert sub.components["sampling"] == pytest.approx(1.28)
        assert sub.value < ell.value

    def test_infinite_sigma_is_the_elliptical_bound(self):
        ws = _wspec([0.75, 0.25], 1.0)
        ell = concentration_bound(1.0, 1.0, ws, 1, 0.1, 100, 100)
        sub = concentration_bound(1.0, 1.0, ws, 1, 0.1, 100, 100, sigma_sub=math.inf)
        assert sub == ell

    @pytest.mark.parametrize("sigma", [math.nan, 0.0, -1.0, -math.inf])
    @pytest.mark.parametrize("bound", [
        lambda s: concentration_bound(
            1.0, 1.0, _wspec([0.75, 0.25], 1.0), 1, 0.1, 100, 100, sigma_sub=s),
        lambda s: subgaussian_param_winsorized(1.0, 1.0, 4, 2.0, s),
    ], ids=["concentration_bound", "subgaussian_param_winsorized"])
    def test_rejects_non_positive_or_nan_sigma(self, bound, sigma):
        with pytest.raises(ValueError, match="sigma_sub"):
            bound(sigma)


class TestAsymptoticRate:
    def test_clean_square_root_regime(self):
        assert asymptotic_rate(-0.5, 100, 400, 0.0, subgaussian=True) == (0.0, 0.5)

    def test_negative_beta_does_not_inflate_exponent(self):
        t1, t2 = asymptotic_rate(-0.5, 100, 400, 0.0, subgaussian=False)
        assert t2 == 0.5

    def test_contamination_term_scales_with_radius_exponent(self):
        t1, _ = asymptotic_rate(1.0, 10, 1000, 0.1, subgaussian=True)
        assert t1 == pytest.approx(100.0)

    def test_elliptical_sampling_penalty(self):
        _, sub = asymptotic_rate(1.0, 10, 1000, 0.1, subgaussian=True)
        _, ell = asymptotic_rate(1.0, 10, 1000, 0.1, subgaussian=False)
        assert sub == pytest.approx(0.1)
        assert ell == pytest.approx(10.0)

    def test_low_sample_regime_uses_linear_ratio(self):
        _, t2 = asymptotic_rate(0.0, 400, 100, 0.0, subgaussian=True)
        assert t2 == pytest.approx(4.0)


class TestSubgaussianParam:
    def test_radius_branch_only_when_sigma_infinite(self):
        assert subgaussian_param_winsorized(1.0, 1.0, 4, 2.0, math.inf) == 1.0

    def test_min_of_branches(self):
        # sqrt(lam1)*sigma = 1 beats the radius branch value 2
        assert subgaussian_param_winsorized(4.0, 1.0, 4, 2.0, 0.5) == 1.0
        assert subgaussian_param_winsorized(4.0, 1.0, 4, 2.0, 10.0) == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            subgaussian_param_winsorized(1.0, 2.0, 4, 2.0, 1.0)
        with pytest.raises(ValueError):
            subgaussian_param_winsorized(1.0, 1.0, 4, 0.0, 1.0)
        with pytest.raises(ValueError):
            subgaussian_param_winsorized(1.0, 1.0, 4, 2.0, -1.0)


class TestCovarianceDeviationBound:
    def test_clean_hand_value(self):
        # 8p/n = 1 makes both ratio branches agree
        assert covariance_deviation_bound(0.0, 3.0, 1.0, 16, 2) == pytest.approx(16.0)

    def test_zero_radius_leaves_sampling_term(self):
        v = covariance_deviation_bound(0.5, 0.0, 1.0, 16, 2)
        assert v == pytest.approx(16.0)

    def test_monotone_in_contamination(self):
        lo = covariance_deviation_bound(0.1, 2.0, 1.0, 100, 5)
        hi = covariance_deviation_bound(0.3, 2.0, 1.0, 100, 5)
        assert hi > lo

    def test_sqrt_branch_in_low_dimension(self):
        # 8p/n = 0.08 < 1 so the square root dominates
        v = covariance_deviation_bound(0.0, 1.0, 1.0, 100, 1)
        assert v == pytest.approx(16.0 * math.sqrt(0.08))

    def test_eps_range_is_full_unit_interval(self):
        covariance_deviation_bound(1.0, 1.0, 1.0, 10, 2)
        with pytest.raises(ValueError):
            covariance_deviation_bound(1.1, 1.0, 1.0, 10, 2)


class TestPcaBreakdown:
    def test_hand_values(self):
        assert pca_breakdown_points(100, 1) == (0.01, 0.01)
        assert pca_breakdown_points(1000, 2) == (0.001, 0.002)

    def test_single_component_points_coincide(self):
        weak, strong = pca_breakdown_points(50, 1)
        assert weak == strong

    def test_validation(self):
        with pytest.raises(ValueError):
            pca_breakdown_points(0, 1)
        with pytest.raises(ValueError):
            pca_breakdown_points(10, 0)


class TestBreakdownLowerBounds:
    def test_hand_values(self):
        weak, strong = breakdown_lower_bounds_from_values([3.0, 2.0, 1.0, 0.5], 4.0, 2)
        assert weak == pytest.approx(0.125)
        assert strong == pytest.approx(0.25)

    def test_maximal_gap_saturates_cap(self):
        weak, strong = breakdown_lower_bounds_from_values([4.0, 0.0], 4.0, 1)
        assert weak == 0.5
        assert strong == 0.5

    def test_flat_spectrum_gives_zero(self):
        assert breakdown_lower_bounds_from_values([1.0, 1.0], 4.0, 1) == (0.0, 0.0)

    def test_indices_past_p_count_as_zero(self):
        # d + d0 > p pulls in zeros, not an index error
        weak, strong = breakdown_lower_bounds_from_values([3.0, 1.0, 0.5], 4.0, 2)
        assert weak == pytest.approx((1.0 - 0.5) / 8.0)
        assert strong == pytest.approx(max((3.0 - 0.5) / 8.0, (4.0 - 0.5) / 16.0))

    def test_typed_wrapper_delegates(self):
        ws = _wspec([2.0, 1.0, 0.5], 2.0)
        assert wpca_breakdown_lower_bounds(ws, 1) == \
            breakdown_lower_bounds_from_values([2.0, 1.0, 0.5], 4.0, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            breakdown_lower_bounds_from_values([1.0, 2.0], 4.0, 1)
        with pytest.raises(ValueError):
            breakdown_lower_bounds_from_values([2.0, -1.0], 4.0, 1)
        with pytest.raises(ValueError):
            breakdown_lower_bounds_from_values([2.0, 1.0], 0.0, 1)
        with pytest.raises(ValueError):
            breakdown_lower_bounds_from_values([2.0, 1.0], 4.0, 2)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=2, max_size=8),
        st.floats(min_value=0.1, max_value=100.0),
        st.data(),
    )
    def test_strong_dominates_weak_and_both_capped(self, raw, r2, data):
        vals = np.sort(np.asarray(raw))[::-1]
        d = data.draw(st.integers(min_value=1, max_value=len(vals) - 1))
        weak, strong = breakdown_lower_bounds_from_values(vals, r2, d)
        assert 0.0 <= weak <= strong <= 0.5


class TestPerturbationBound:
    def test_hand_values(self):
        rep = perturbation_bound(1.0, 0.0, 1.0, 0.1)
        assert rep.components["bound1"] == pytest.approx(0.2)
        assert rep.components["bound2"] == pytest.approx(0.125)
        assert rep.value == pytest.approx(0.125)
        assert rep.assumptions_met == {"positive_gap": True, "bound2_valid": True}

    def test_second_bound_needs_wide_gap(self):
        # 4 r^2 eps = 1.2 exceeds the gap, so only the first bound applies
        rep = perturbation_bound(1.0, 0.0, 1.0, 0.3)
        assert "bound2" not in rep.components
        assert rep.value == pytest.approx(0.6)
        assert not rep.assumptions_met["bound2_valid"]

    def test_clean_data_gives_zero(self):
        rep = perturbation_bound(1.0, 0.0, 1.0, 0.0)
        assert rep.components["bound1"] == 0.0
        assert rep.components["bound2"] == 0.0
        assert rep.value == 0.0

    def test_zero_gap_is_infinite(self):
        rep = perturbation_bound(0.5, 0.5, 1.0, 0.1)
        assert math.isinf(rep.value)
        assert not rep.assumptions_met["positive_gap"]
        assert "bound2" not in rep.components

    def test_second_bound_sharper_when_valid(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            g = rng.uniform(0.5, 3.0)
            r = rng.uniform(0.5, 2.0)
            eps = rng.uniform(0.0, 0.49)
            rep = perturbation_bound(g, 0.0, r, eps)
            if rep.assumptions_met["bound2_valid"]:
                assert rep.components["bound2"] <= rep.components["bound1"] + 1e-15

    def test_validation(self):
        with pytest.raises(ValueError):
            perturbation_bound(0.5, 1.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            perturbation_bound(1.0, -0.5, 1.0, 0.1)
        with pytest.raises(ValueError):
            perturbation_bound(1.0, 0.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            perturbation_bound(1.0, 0.0, 1.0, 0.5)


class TestBoundReport:
    def test_clipped_caps_at_one(self):
        assert BoundReport(5.52, {}, {}).clipped == 1.0
        assert BoundReport(0.3, {}, {}).clipped == 0.3
        assert BoundReport(math.inf, {}, {}).clipped == 1.0

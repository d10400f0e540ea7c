import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import winpca.bounds
from winpca._kernels import winsorized_term_sums
from winpca.bounds import _TERM_BLOCK_ENTRIES
from winpca import (
    BoundReport,
    PopulationModel,
    asymptotic_rate,
    breakdown_lower_bounds_from_values,
    check_winsorized_spectra,
    concentration_bound,
    covariance_deviation_bound,
    estimate_winsorized_eigenvalues,
    estimate_winsorized_spectra,
    make_rng,
    pca_breakdown_points,
    perturbation_bound,
    sample_winsorized_spectrum,
    sample_winsorized_values,
    subgaussian_param_winsorized,
    wpca_breakdown_lower_bounds,
)


def _spectrum_checks(values, radius):
    """The entry points that check one winsorized spectrum at ``radius``."""
    vals = np.asarray(values, dtype=float)
    return (lambda: check_winsorized_spectra(vals[None], [radius]),
            lambda: concentration_bound(1.0, 1.0, vals, radius, 1, 0.1, 100, 100),
            lambda: wpca_breakdown_lower_bounds(vals, radius, 1))


class TestWinsorizedSpectrum:
    """A winsorized spectrum is a descending array at a radius r; each value
    and their sum stay below r^2."""

    def test_accepts_descending_values_within_radius(self):
        for check in _spectrum_checks([0.75, 0.25], 1.0):
            check()
        assert concentration_bound(1.0, 1.0, [0.75, 0.25], 1.0, 1, 0.1, 100, 100).value > 0

    def test_rejects_ascending(self):
        for check in _spectrum_checks([0.25, 0.75], 1.0):
            with pytest.raises(ValueError, match="descending"):
                check()

    def test_rejects_value_above_radius_squared(self):
        for check in _spectrum_checks([1.5], 1.0):
            with pytest.raises(ValueError, match="exceeds"):
                check()

    def test_rejects_sum_above_radius_squared(self):
        # each value fits under r^2 but the trace cannot
        for check in _spectrum_checks([0.7, 0.6], 1.0):
            with pytest.raises(ValueError, match="sum"):
                check()

    def test_rejects_negative(self):
        for check in _spectrum_checks([0.5, -0.1], 1.0):
            with pytest.raises(ValueError):
                check()

    def test_rejects_bad_radius(self):
        for r in (0.0, -1.0, math.inf, math.nan):
            for check in _spectrum_checks([0.5, 0.25], r):
                with pytest.raises(ValueError):
                    check()

    def test_monte_carlo_slack_tolerates_noise(self):
        check_winsorized_spectra(np.array([[1.0 + 1e-4]]), [1.0], np.array([[1e-3]]))

    def test_se_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            check_winsorized_spectra(np.array([[0.5, 0.25]]), [1.0], np.array([[1e-3]]))


# (values, radius, standard errors or None, accepted?) for one spectrum.
SPECTRUM_CASES = [
    ([0.75, 0.25], 1.0, None, True),
    ([1.0 + 1e-9, 0.0], 1.0, None, True),  # the roundoff slack
    ([1.0 + 2e-9], 1.0, None, False),
    ([0.5 + 1e-9, 0.5], 1.0, None, True),  # sum at its slack
    ([0.5 + 2e-9, 0.5], 1.0, None, False),
    ([0.7, 0.6], 1.0, None, False),
    ([0.0, 0.0], 1e-3, None, True),
    ([0.25, 0.75], 1.0, None, False),
    ([0.5, -0.1], 1.0, None, False),
    ([0.5, math.nan], 1.0, None, False),
    ([math.inf], 1.0, None, False),
    ([1.5], 1.0, None, False),
    ([0.5], 0.0, None, False),
    ([0.5], -1.0, None, False),
    ([0.5], math.inf, None, False),
    ([0.5], math.nan, None, False),
    ([1.0 + 1e-4], 1.0, [1e-3], True),  # three Monte Carlo standard errors
    ([1.0 + 4e-3], 1.0, [1e-3], False),
    ([0.6, 0.5], 1.0, [0.02, 0.02], True),
    ([0.6, 0.5], 1.0, [0.01, 0.01], False),
    ([0.5, 0.25], 1.0, [1e-3], False),  # shape mismatch
]


class TestStackedSpectrumCheck:
    @pytest.mark.parametrize("values, radius, ses, accepted", SPECTRUM_CASES)
    def test_agrees_with_winsorized_spectrum(self, values, radius, ses, accepted):
        vals = np.asarray(values, dtype=float)
        se = None if ses is None else np.asarray(ses, dtype=float)
        # The case as a one-row stack, and without standard errors as the
        # spectrum of concentration_bound and wpca_breakdown_lower_bounds.
        one_row = [lambda: check_winsorized_spectra(
            vals[None], [radius], None if se is None else se[None])]
        if se is None:
            one_row += _spectrum_checks(vals, radius)[1:]
        for check in one_row:
            if accepted:
                check()
            else:
                with pytest.raises(ValueError):
                    check()
        # The case as one row of a stack between two valid rows.
        good = np.full_like(vals, 0.1 / vals.size)
        stack = np.stack((good, vals, good))
        radii = [1.0, radius, 1.0]
        se_stack = None
        if se is not None:
            se_stack = np.stack((np.zeros_like(se), se, np.zeros_like(se)))
        if accepted:
            check_winsorized_spectra(stack, radii, se_stack)
        else:
            with pytest.raises(ValueError):
                check_winsorized_spectra(stack, radii, se_stack)

    def test_one_radius_per_row(self):
        with pytest.raises(ValueError, match="radii"):
            check_winsorized_spectra(np.full((3, 2), 0.1), [1.0, 1.0])
        with pytest.raises(ValueError, match="radii"):
            check_winsorized_spectra(np.full(2, 0.1), [1.0])


class TestSampleWinsorizedValues:
    def test_rows_are_the_spectra(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((80, 4)) * [5.0, 3.0, 1.0, 0.5]
        radii = [0.5, 2.0, 1.0, 50.0]
        vals = sample_winsorized_values(X, radii)
        # The grid adds segment Grams in another order than one radius does.
        for row, r in zip(vals, radii):
            one = sample_winsorized_spectrum(X, r)
            assert np.allclose(row, one, rtol=1e-12, atol=1e-12 * one[0])

    def test_each_spectrum_checked_once(self, monkeypatch):
        rows = []
        check = winpca.bounds.check_winsorized_spectra

        def counting(values, *args, **kwargs):
            rows.append(len(values))
            return check(values, *args, **kwargs)

        monkeypatch.setattr(winpca.bounds, "check_winsorized_spectra", counting)
        X = np.random.default_rng(7).standard_normal((50, 3))
        for r in (0.5, 2.0, 1.0, 9.0):
            sample_winsorized_spectrum(X, r)
        assert rows == [1, 1, 1, 1]
        sample_winsorized_values(X, [0.5, 2.0, 1.0, 9.0])
        assert rows[4:] == [4]

    @pytest.mark.parametrize("radii, message", [
        ([1.0, math.nan], "finite and positive"),
        ([1.0, math.inf], "finite and positive"),
        ([1.0, 0.0], "finite and positive"),
        ([[1.0, -2.0]], "finite and positive"),
        (2.0, "nonempty 1-D"),
        ([], "nonempty 1-D"),
        ([[1.0, 2.0]], "nonempty 1-D"),
    ])
    def test_radii_checked_once_at_the_boundary(self, radii, message):
        with pytest.raises(ValueError, match=message):
            sample_winsorized_values(np.eye(3), radii)


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


class TestEstimateWinsorizedSpectra:
    """The estimator streams its draws in blocks of ``_TERM_BLOCK_ENTRIES // p`` rows."""

    MODELS = {
        "gaussian": PopulationModel.gaussian(np.array([25.0, 25.0, 5.0, 1.0])),
        "student_t": PopulationModel.student_t(np.array([9.0, 4.0, 1.0]), dof=3),
    }

    @pytest.mark.parametrize("dist", sorted(MODELS))
    @pytest.mark.parametrize("blocks, extra", [(1, -1), (1, 0), (1, 1), (3, 7)])
    def test_grid_equals_one_radius_calls_bit_for_bit(self, dist, blocks, extra):
        model = self.MODELS[dist]
        n = blocks * (_TERM_BLOCK_ENTRIES // model.p) + extra
        radii = [0.5, 3.0, 7.5, 1e3]
        values, ses = estimate_winsorized_spectra(model, radii, n, seed=9)
        assert values.shape == ses.shape == (len(radii), model.p)
        for r, got, got_se in zip(radii, values, ses):
            want = estimate_winsorized_eigenvalues(model, r, n, seed=9)
            assert np.array_equal(got, want.values)
            assert np.array_equal(got_se, want.standard_errors)

    @pytest.mark.parametrize("n", [1000, 3 * (_TERM_BLOCK_ENTRIES // 4) + 7])
    def test_gaussian_stream_equals_one_shot_draw(self, n):
        # Philox fills normals in sequence, so drawing block by block gives
        # the numbers one call gives, and the sums add in the same order.
        model = self.MODELS["gaussian"]
        lam = model.sigma_eigenvalues
        rows = _TERM_BLOCK_ENTRIES // model.p
        for r in (2.0, 6.0):
            spec = estimate_winsorized_eigenvalues(model, r, n, seed=4)
            y = model.draw_whitened(n, make_rng(4))
            s, _ = winsorized_term_sums(np.split(y, range(rows, n, rows)), lam,
                                        np.array([r * r]))
            assert np.array_equal(spec.values, np.sort(s[0] / n)[::-1])

    def test_standard_errors_travel_with_their_values(self):
        # An isotropic model's estimates differ only by noise, so sorting
        # them reorders coordinates; each standard error moves with its value.
        model = PopulationModel.gaussian(np.ones(4))
        n, radii = 3000, np.array([0.5, 2.0, 9.0])
        values, ses = estimate_winsorized_spectra(model, radii, n, seed=4)
        rows = _TERM_BLOCK_ENTRIES // model.p
        y = model.draw_whitened(n, make_rng(4))
        s, sq = winsorized_term_sums(np.split(y, range(rows, n, rows)),
                                     model.sigma_eigenvalues, radii * radii)
        means = s / n
        raw_ses = np.sqrt(np.maximum(sq - n * means * means, 0.0) / (n - 1) / n)
        assert not np.array_equal(values, means)
        for j in range(radii.size):
            assert sorted(zip(values[j], ses[j])) == sorted(zip(means[j], raw_ses[j]))

    def test_memory_stays_at_one_block(self):
        model = self.MODELS["gaussian"]
        estimate_winsorized_eigenvalues(model, 6.0, 1000, seed=1)  # warm caches
        tracemalloc.start()
        try:
            estimate_winsorized_eigenvalues(model, 6.0, 1_000_000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_student_t_huge_radius_recovers_population_eigenvalues(self):
        lam = np.array([4.0, 1.0])
        model = PopulationModel.student_t(lam, dof=5)
        ws = estimate_winsorized_eigenvalues(model, 1e6, 200_000, seed=7)
        assert np.all(np.abs(ws.values - lam) <= 4.0 * ws.standard_errors)

    @pytest.mark.parametrize("radii, message", [
        ([], "nonempty"),
        ([[1.0, 2.0]], "nonempty"),
        ([1.0, math.inf], "finite and positive"),
        ([1.0, 0.0], "finite and positive"),
    ])
    def test_radii_validated(self, radii, message):
        with pytest.raises(ValueError, match=message):
            estimate_winsorized_spectra(self.MODELS["gaussian"], radii, 1000, seed=0)


class TestSampleWinsorizedSpectrum:
    def test_trace_equals_mean_clipped_squared_norm(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((50, 4)) * 3.0
        r = 2.0
        ws = sample_winsorized_spectrum(X, r)
        norms = np.minimum(np.linalg.norm(X, axis=1), r)
        assert ws.sum() == pytest.approx(np.mean(norms**2), rel=1e-12)

    def test_all_rows_clipped_gives_full_trace(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((30, 3)) * 100.0
        ws = sample_winsorized_spectrum(X, 1.0)
        assert ws.shape == (3,)
        assert ws.sum() == pytest.approx(1.0, rel=1e-12)


class TestConcentrationBounds:
    def test_elliptical_hand_value(self):
        rep = concentration_bound(
            1.0, 1.0, [0.75, 0.25], 1.0, d=1, eps=0.1, n=100, p=100)
        assert rep.components["contamination"] == pytest.approx(0.4)
        assert rep.components["sampling"] == pytest.approx(5.12)
        assert rep.value == pytest.approx(5.52)
        assert rep.assumptions_met["positive_gap"]
        assert rep.clipped == 1.0

    def test_clean_data_drops_contamination_term(self):
        rep = concentration_bound(
            1.0, 1.0, [0.75, 0.25], 1.0, d=1, eps=0.0, n=100, p=100)
        assert rep.components["contamination"] == 0.0

    def test_zero_gap_is_infinite(self):
        rep = concentration_bound(
            1.0, 1.0, [0.5, 0.5], 1.0, d=1, eps=0.1, n=100, p=100)
        assert math.isinf(rep.value)
        assert not rep.assumptions_met["positive_gap"]

    def test_eps_validation(self):
        ws = ([0.75, 0.25], 1.0)
        for eps in (-0.1, 0.5, 0.9):
            with pytest.raises(ValueError):
                concentration_bound(1.0, 1.0, *ws, 1, eps, 100, 100)

    def test_eigenvalue_ordering_validation(self):
        ws = ([0.75, 0.25], 1.0)
        with pytest.raises(ValueError):
            concentration_bound(1.0, 2.0, *ws, 1, 0.1, 100, 100)

    @pytest.mark.parametrize("lam1, lamp", [(math.inf, 1.0), (math.inf, math.inf),
                                            (math.nan, 1.0), (1.0, math.nan)])
    def test_rejects_non_finite_eigenvalues(self, lam1, lamp):
        with pytest.raises(ValueError, match="need finite lam1 >= lamp > 0, got "):
            concentration_bound(lam1, lamp, [0.75, 0.25], 1.0, 1, 0.1, 100, 100)

    def test_subgaussian_matches_elliptical_when_radius_branch_wins(self):
        ws = ([0.75, 0.25], 1.0)
        ell = concentration_bound(1.0, 1.0, *ws, 1, 0.1, 100, 100)
        # r^2/(p lamp) = 0.01, so any sigma with sigma^2 >= 0.01 changes nothing
        sub = concentration_bound(1.0, 1.0, *ws, 1, 0.1, 100, 100, sigma_sub=1.0)
        assert sub.value == pytest.approx(ell.value)
        at_branch = concentration_bound(1.0, 1.0, *ws, 1, 0.1, 100, 100, sigma_sub=0.1)
        assert at_branch.value == pytest.approx(ell.value)

    def test_subgaussian_sharper_when_sigma_small(self):
        ws = ([0.75, 0.25], 1.0)
        ell = concentration_bound(1.0, 1.0, *ws, 1, 0.1, 100, 100)
        sub = concentration_bound(1.0, 1.0, *ws, 1, 0.1, 100, 100, sigma_sub=0.05)
        assert sub.components["sampling"] == pytest.approx(1.28)
        assert sub.value < ell.value

    def test_infinite_sigma_is_the_elliptical_bound(self):
        ws = ([0.75, 0.25], 1.0)
        ell = concentration_bound(1.0, 1.0, *ws, 1, 0.1, 100, 100)
        sub = concentration_bound(1.0, 1.0, *ws, 1, 0.1, 100, 100, sigma_sub=math.inf)
        assert sub == ell

    @pytest.mark.parametrize("sigma", [math.nan, 0.0, -1.0, -math.inf])
    @pytest.mark.parametrize("bound", [
        lambda s: concentration_bound(
            1.0, 1.0, [0.75, 0.25], 1.0, 1, 0.1, 100, 100, sigma_sub=s),
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

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("subgaussian", [False, True])
    def test_rejects_non_finite_beta(self, beta, subgaussian):
        # RadiusSpec.power_law refuses these exponents too.
        with pytest.raises(ValueError, match="exponent must be finite"):
            asymptotic_rate(beta, 10, 1000, 0.1, subgaussian)

    # 10**401 overflows inside pow; with beta = 1e308, 1 + 2 beta is inf.
    @pytest.mark.parametrize("beta", [200.0, 1e308])
    @pytest.mark.parametrize("eps", [0.0, 0.1])
    @pytest.mark.parametrize("subgaussian", [False, True])
    def test_rejects_exponent_that_overflows(self, beta, eps, subgaussian):
        with pytest.raises(ValueError, match=r"p\*\*\(1 \+ 2 beta\) overflows float64"):
            asymptotic_rate(beta, 10, 100, eps, subgaussian)

    def test_largest_finite_growth_passes(self):
        # 10**308 is finite; p = 1 never grows.
        assert asymptotic_rate(153.5, 10, 100, 0.0, True) == (0.0, math.sqrt(0.1))
        assert asymptotic_rate(1e308, 1, 1, 0.1, False) == (0.1, 1.0)


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
        for lam1, lamp in ((math.inf, 1.0), (math.nan, 1.0), (math.inf, math.inf)):
            with pytest.raises(ValueError, match="need finite lam1 >= lamp > 0, got "):
                subgaussian_param_winsorized(lam1, lamp, 4, 2.0, 1.0)
        with pytest.raises(ValueError, match="p >= 1"):
            subgaussian_param_winsorized(1.0, 1.0, 0, 2.0, 1.0)
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

    @pytest.mark.parametrize("r, sigma_r", [
        (math.nan, 1.0), (math.inf, 1.0), (-1.0, 1.0),
        (1.0, math.nan), (1.0, 0.0), (1.0, -1.0),
    ])
    def test_rejects_nan_or_out_of_range(self, r, sigma_r):
        with pytest.raises(ValueError, match="r >= 0 and sigma_r > 0"):
            covariance_deviation_bound(0.1, r, sigma_r, 100, 10)

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


def _bounds_loop(values, r2, d):
    """Per-row reference for breakdown_lower_bounds_from_values."""
    p = len(values)

    def v(j):
        return float(values[j - 1]) if j <= p else 0.0

    weak = (v(d) - v(d + 1)) / (2.0 * r2)
    strong, top, shifted = -math.inf, 0.0, 0.0
    for d0 in range(1, d + 1):
        top += v(d0)
        shifted += v(d + d0)
        strong = max(strong, (top - shifted) / (2.0 * r2 * d0))
    return min(max(weak, 0.0), 0.5), min(max(strong, 0.0), 0.5)


class TestBreakdownLowerBounds:
    @pytest.mark.parametrize("p", [2, 4, 7])
    def test_stack_equals_rows_bit_for_bit(self, p):
        rng = np.random.default_rng(p)
        R = 300
        vals = -np.sort(-rng.uniform(0.0, 1.0, (R, p)) ** 3, axis=1)
        vals[::7, 1:] = vals[::7, :1]  # flat spectra give zero bounds
        r2 = rng.uniform(0.05, 3.0, R)
        for d in range(1, p):
            got = breakdown_lower_bounds_from_values(vals, r2, d)
            assert got.shape == (R, 2)
            for row, v, q in zip(got, vals, r2):
                want = _bounds_loop(v, float(q), d)
                assert breakdown_lower_bounds_from_values(v, q, d) == want
                assert tuple(row) == want

    def test_stack_validation(self):
        vals = np.array([[2.0, 1.0], [1.0, 0.5]])
        with pytest.raises(ValueError):
            breakdown_lower_bounds_from_values(vals, 4.0, 1)  # one r2 per row
        with pytest.raises(ValueError):
            breakdown_lower_bounds_from_values(vals, [4.0, 0.0], 1)
        with pytest.raises(ValueError):
            breakdown_lower_bounds_from_values(vals[:, ::-1], [4.0, 4.0], 1)
        with pytest.raises(ValueError):
            breakdown_lower_bounds_from_values(vals[None], [[4.0, 4.0]], 1)

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
        assert wpca_breakdown_lower_bounds([2.0, 1.0, 0.5], 2.0, 1) == \
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

    @pytest.mark.parametrize("lam_d_r, lam_d1_r", [
        (math.nan, 0.0), (1.0, math.nan), (math.nan, math.nan),
        (math.inf, 0.0), (math.inf, math.inf)])
    def test_rejects_non_finite_eigenvalues(self, lam_d_r, lam_d1_r):
        with pytest.raises(ValueError, match="need finite lam_d_r"):
            perturbation_bound(lam_d_r, lam_d1_r, 1.0, 0.1)


class TestBoundReport:
    def test_clipped_caps_at_one(self):
        assert BoundReport(5.52, {}, {}).clipped == 1.0
        assert BoundReport(0.3, {}, {}).clipped == 0.3
        assert BoundReport(math.inf, {}, {}).clipped == 1.0


# Every scalar radius of the bounds passes one check: finite and positive.
RADIUS_CALLS = {
    "concentration_bound": lambda r: concentration_bound(
        1.0, 1.0, [0.5, 0.25], r, 1, 0.1, 100, 100),
    "estimate_winsorized_eigenvalues": lambda r: estimate_winsorized_eigenvalues(
        PopulationModel.gaussian(np.array([1.0])), r, 1000, seed=0),
    "perturbation_bound": lambda r: perturbation_bound(1.0, 0.0, r, 0.1),
    "sample_winsorized_spectrum": lambda r: sample_winsorized_spectrum(np.eye(3), r),
    "subgaussian_param_winsorized": lambda r: subgaussian_param_winsorized(
        4.0, 1.0, 10, r, 1.0),
    "wpca_breakdown_lower_bounds": lambda r: wpca_breakdown_lower_bounds(
        [0.5, 0.25], r, 1),
}


@pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("name", sorted(RADIUS_CALLS))
def test_scalar_radius_must_be_finite_and_positive(name, r):
    with pytest.raises(ValueError, match="finite and positive"):
        RADIUS_CALLS[name](r)

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oracles import (
    concentration_exact, deviation_exact, perturbation_exact, underflows, within_ulps)
from winpca._kernels import winsorized_term_sums
from winpca.bounds import _TERM_BLOCK_ENTRIES
from winpca import (
    BoundReport,
    PopulationModel,
    RadiusSpec,
    asymptotic_rate,
    breakdown_lower_bounds_from_values,
    check_winsorized_spectra,
    concentration_bound,
    covariance_deviation_bound,
    estimate_winsorized_eigenvalues,
    estimate_winsorized_spectra,
    fit_pc_path,
    make_rng,
    pca_breakdown_points,
    perturbation_bound,
    sample_winsorized_spectrum,
    sample_winsorized_values,
    subgaussian_param_winsorized,
    winsorize_dataset,
    winsorized_second_moments,
    wpca_breakdown_lower_bounds,
)


# Zero, subnormal, normal and huge nonnegative floats, and radii whose
# square lies near float64's max.
_BOUND_FLOATS = st.one_of(
    st.floats(0.0, 2.2250738585072014e-308),
    st.floats(1e-300, 1e300),
    st.floats(1e300, 1.7976931348623157e308),
    st.floats(9e153, 1.3407807929942596e154),
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

    def test_rejects_sum_past_float64(self):
        # each value fits under r^2, and the sum overflows without a warning
        for check in _spectrum_checks([1e308, 1e308, 1e308, 0.0], 1.3e154):
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



# (values, radius, accepted?) for one spectrum.
SPECTRUM_CASES = [
    ([0.75, 0.25], 1.0, True),
    ([1.0 + 1e-9, 0.0], 1.0, True),  # the roundoff slack
    ([1.0 + 2e-9], 1.0, False),
    ([0.5 + 1e-9, 0.5], 1.0, True),  # sum at its slack
    ([0.5 + 2e-9, 0.5], 1.0, False),
    ([0.7, 0.6], 1.0, False),
    ([0.0, 0.0], 1e-3, True),
    ([0.25, 0.75], 1.0, False),
    ([0.5, -0.1], 1.0, False),
    ([0.5, math.nan], 1.0, False),
    ([math.inf], 1.0, False),
    ([1.5], 1.0, False),
    ([0.5], 0.0, False),
    ([0.5], -1.0, False),
    ([0.5], math.inf, False),
    ([0.5], math.nan, False),
]


class TestStackedSpectrumCheck:
    @pytest.mark.parametrize("values, radius, accepted", SPECTRUM_CASES)
    def test_agrees_with_winsorized_spectrum(self, values, radius, accepted):
        vals = np.asarray(values, dtype=float)
        # The case as a one-row stack, and as the spectrum of
        # concentration_bound and wpca_breakdown_lower_bounds.
        for check in _spectrum_checks(vals, radius):
            if accepted:
                check()
            else:
                with pytest.raises(ValueError):
                    check()
        # The case as one row of a stack between two valid rows.
        good = np.full_like(vals, 0.1 / vals.size)
        stack = np.stack((good, vals, good))
        radii = [1.0, radius, 1.0]
        if accepted:
            check_winsorized_spectra(stack, radii)
        else:
            with pytest.raises(ValueError):
                check_winsorized_spectra(stack, radii)

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

    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    def test_computed_spectra_pass_the_check(self, scale):
        # The package checks only spectra handed in; the ones it computes
        # are winsorized spectra by construction, at every scale and radius.
        X = scale * np.random.default_rng(7).standard_normal((50, 3))
        radii = np.concatenate((scale * np.array([0.1, 0.5, 2.0, 9.0]), [1e100, 1e200]))
        check_winsorized_spectra(sample_winsorized_values(X, radii), radii)

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

    @pytest.mark.parametrize("family", ["gaussian", "t3"])
    def test_estimates_pass_the_check_without_slack(self, family):
        # Each draw's terms sum to min(s^2, r^2), so every mean and every
        # row's sum stays below r^2 up to roundoff.
        lam = np.array([25.0, 25.0, 5.0, 1.0])  # fig3's covariance
        model = (PopulationModel.gaussian(lam) if family == "gaussian"
                 else PopulationModel.student_t(lam, 3.0))
        radii = np.array([0.5, 3.0, 7.5, 1e3, 1e200])
        values, _ = estimate_winsorized_spectra(model, radii, 5000, seed=3)
        check_winsorized_spectra(values, radii)

    @pytest.mark.parametrize("lam", [1e160, 1e300, 1e308])
    @pytest.mark.parametrize("r", [1.0, 1e100, 1e200])
    def test_terms_past_float64_raise(self, lam, r):
        # The squared terms overflow, and with them every standard error of
        # the large coordinate; no half-finite estimate is returned.
        model = PopulationModel.gaussian(np.array([lam, 1.0]))
        with pytest.raises(ValueError, match="overflow"):
            estimate_winsorized_spectra(model, [r], 1000, seed=0)

    def test_model_validated(self):
        with pytest.raises(ValueError, match="must be a PopulationModel"):
            estimate_winsorized_spectra(np.array([4.0, 1.0]), [1.0], 1000, seed=0)


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
        assert rep.clipped == 1.0

    def test_clean_data_drops_contamination_term(self):
        rep = concentration_bound(
            1.0, 1.0, [0.75, 0.25], 1.0, d=1, eps=0.0, n=100, p=100)
        assert rep.components["contamination"] == 0.0

    def test_zero_gap_is_infinite(self):
        rep = concentration_bound(
            1.0, 1.0, [0.5, 0.5], 1.0, d=1, eps=0.1, n=100, p=100)
        assert math.isinf(rep.value)

    def test_eps_validation(self):
        ws = ([0.75, 0.25], 1.0)
        for eps in (-0.1, 0.5, 0.9):
            with pytest.raises(ValueError):
                concentration_bound(1.0, 1.0, *ws, 1, eps, 100, 100)

    def test_eigenvalue_ordering_validation(self):
        ws = ([0.75, 0.25], 1.0)
        with pytest.raises(ValueError):
            concentration_bound(1.0, 2.0, *ws, 1, 0.1, 100, 100)

    @pytest.mark.parametrize("lam1, lamp, r, p, sampling", [
        # r^2 lam1 = 1e310 overflows, though r^2 lam1 / (p lamp) is 1e8.
        (1e300, 1e300, 1e5, 100, 256.0 * 1e8 / 0.5),
        # lam1 / lamp = 1e310 overflows, though lam1 / (p lamp) is 1e304.
        (1e300, 1e-10, 1.0, 10**6, 256.0 * 1e304 / 0.5),
    ])
    def test_extreme_eigenvalues_keep_a_finite_factor(self, lam1, lamp, r, p, sampling):
        rep = concentration_bound(lam1, lamp, [0.75, 0.25], r, 1, 0.1, p, p)
        assert rep.components["sampling"] == pytest.approx(sampling, rel=1e-15)

    def test_d_needs_an_eigenvalue_past_it(self):
        with pytest.raises(ValueError, match="need 1 <= d < 2 winsorized eigenvalues"):
            concentration_bound(1.0, 1.0, [0.75, 0.25], 1.0, 2, 0.1, 100, 100)

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

    @pytest.mark.parametrize("r", [1e200, 1e-200])
    def test_extreme_radius_is_exact(self, r):
        # lam1 r^2 overflows at 1e200 and underflows at 1e-200.
        assert subgaussian_param_winsorized(1.0, 1.0, 1, r, math.inf) == r

    @pytest.mark.parametrize("lam1, lamp, p, value", [
        # lamp p = 1e309 overflows, though lam1 / (lamp p) is 1/10.
        (1e308, 1e308, 10, math.sqrt(0.1)),
        # lam1 / lamp = 1e310 overflows, though lam1 / (lamp p) is 1e308.
        (1e300, 1e-10, 100, 1e154),
    ])
    def test_extreme_eigenvalues_are_exact(self, lam1, lamp, p, value):
        assert subgaussian_param_winsorized(lam1, lamp, p, 1.0, math.inf) == value

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

    def test_rejects_zero_rows(self):
        with pytest.raises(ValueError, match="n and p must be positive"):
            covariance_deviation_bound(0.1, 1.0, 1.0, 0, 2)

    # sigma_r^2 = 1e308 and 16 sigma_r^2 overflow; 8p/n = 1e-4 brings the
    # term back to 1.6e307.
    @settings(max_examples=300)
    @given(eps=st.floats(0.0, 1.0), r=_BOUND_FLOATS, sigma_r=_BOUND_FLOATS,
           n=st.integers(1, 2**64), p=st.integers(1, 2**64))
    @example(eps=0.0, r=1.0, sigma_r=1e154, n=80000, p=1)
    def test_matches_exact_value(self, eps, r, sigma_r, n, p):
        assume(sigma_r > 0.0 and math.isfinite(r * r))
        # Not where eps r or the sigma_r term is subnormal, with fewer bits.
        assume(not underflows(Fraction(eps) * Fraction(r),
                              deviation_exact(0.0, r, sigma_r, n, p)))
        exact = deviation_exact(eps, r, sigma_r, n, p)
        assert within_ulps(covariance_deviation_bound(eps, r, sigma_r, n, p), exact)


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

    weak = (v(d) - v(d + 1)) / 2.0 / r2
    strong, total = -math.inf, 0.0
    for d0 in range(1, d + 1):
        total += (v(d0) - v(d + d0)) / 2.0 / r2
        strong = max(strong, total / d0)
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

    @pytest.mark.parametrize("values, r2, d, want", [
        ([0.5, 1e-170, 5e-324], 5e-324, 2, (0.5, 0.5)),
        ([0.5, 0.25], 1e-320, 1, (0.5, 0.5)),
        ([1.0, 0.5], 1e308, 1, (0.25 / 1e308, 0.25 / 1e308)),
    ])
    def test_quotients_past_float64_are_capped_exactly(self, values, r2, d, want):
        # A quotient beyond float64 lies above the 1/2 cap, so no warning is due.
        assert breakdown_lower_bounds_from_values(values, r2, d) == want

    @pytest.mark.parametrize("values, r2, d, want", [
        ([1e308, 0.0], 1e308, 1, (0.5, 0.5)),
        ([5e307, 4e307, 0.0, 0.0], 1e308, 2, (0.2, 0.25)),
    ])
    def test_keep_their_shape_where_twice_r2_overflows(self, values, r2, d, want):
        # The same shapes at r^2 = 1: [1, 0] and [0.5, 0.4, 0, 0].
        assert breakdown_lower_bounds_from_values(values, r2, d) == pytest.approx(want)

    @pytest.mark.parametrize("values, r2, d, want", [
        ([1e308] * 4, 1.0, 2, (0.0, 0.0)),
        ([1e308, 1e308, 1e308, 7e307], 4e307, 2, (0.0, 0.1875)),
        ([1e308, 0.0], 1e-20, 1, (0.5, 0.5)),
        ([1e308, 1e308, 0.0], 1e-20, 1, (0.0, 0.0)),
        ([1e308, 1e308, 1.0, 0.0], 1e-300, 2, (0.5, 0.5)),
    ])
    def test_partial_sums_past_float64(self, values, r2, d, want):
        # The top d0 eigenvalues sum past float64, but the strong bound sums
        # only the gaps v_j - v_{d+j} over 2 r^2, so no inf - inf or inf
        # appears short of the cap.
        assert breakdown_lower_bounds_from_values(values, r2, d) == want

    @given(
        st.lists(st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=10.0)),
                 min_size=2, max_size=6),
        st.floats(min_value=0.1, max_value=100.0),
        st.data(),
    )
    def test_scale_free(self, raw, r2, data):
        # The bounds of (2^k values, 2^k r^2) are those of (values, r^2), bit
        # for bit, for every k that keeps both finite and normal; a stack of
        # the two rows gives the same bits.  k runs down from the largest
        # that keeps every entry finite, and half the draws land within 8 of
        # it, where 2 d r^2 passes float64.
        vals = np.sort(np.asarray(raw))[::-1]
        top = 1024 - max(int(np.frexp(vals[0])[1]), math.frexp(r2)[1])
        k = top - data.draw(st.one_of(st.integers(0, 8), st.integers(0, 2100)))
        scaled, scaled_r2 = np.ldexp(vals, k), math.ldexp(r2, k)
        tiny = np.finfo(np.float64).tiny
        assume(np.all((scaled == 0.0) | (scaled >= tiny)) and scaled_r2 >= tiny)
        d = data.draw(st.integers(min_value=1, max_value=len(vals) - 1))
        want = breakdown_lower_bounds_from_values(vals, r2, d)
        assert breakdown_lower_bounds_from_values(scaled, scaled_r2, d) == want
        stack = breakdown_lower_bounds_from_values(
            np.stack((vals, scaled)), np.array([r2, scaled_r2]), d)
        assert [tuple(row) for row in stack] == [want, want]

    def test_near_flat_gap_is_not_cancelled(self):
        # v_2 - v_4 is one ulp of 0.1248; a sum of the top two eigenvalues
        # minus a sum of v_3 and v_4 rounds it to two ulps.
        vals = [0.12480320191876158] * 3 + [0.12480320191876157]
        assert breakdown_lower_bounds_from_values(vals, 1.0, 2)[1] == 2.0 ** -58

    @given(
        st.floats(min_value=0.05, max_value=1.0),
        st.lists(st.integers(min_value=0, max_value=4), min_size=3, max_size=6),
        st.floats(min_value=0.25, max_value=4.0),
        st.data(),
    )
    def test_near_flat_spectra_match_exact_value(self, base, ulps, r2, data):
        # Entries 0-4 ulps above a base: both bounds lie within 1e-15 of the
        # exact rational value wherever it is positive, normal and below 1/2.
        raw = []
        for k in ulps:
            v = base
            for _ in range(k):
                v = math.nextafter(v, math.inf)
            raw.append(v)
        vals = sorted(raw, reverse=True)
        p = len(vals)
        d = data.draw(st.integers(min_value=2, max_value=p - 1))
        F = [Fraction(v) for v in vals] + [Fraction(0)] * d
        twice_r2 = 2 * Fraction(r2)
        weak = (F[d - 1] - F[d]) / twice_r2
        strong = max(sum(F[j] - F[d + j] for j in range(d0)) / (twice_r2 * d0)
                     for d0 in range(1, d + 1))
        got = breakdown_lower_bounds_from_values(vals, r2, d)
        for g, exact in zip(got, (weak, strong)):
            if np.finfo(np.float64).tiny <= exact < Fraction(1, 2):
                assert abs(Fraction(g) - exact) <= exact / 10 ** 15

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

    def test_second_bound_needs_wide_gap(self):
        # 4 r^2 eps = 1.2 exceeds the gap, so only the first bound applies
        rep = perturbation_bound(1.0, 0.0, 1.0, 0.3)
        assert "bound2" not in rep.components
        assert rep.value == pytest.approx(0.6)

    def test_clean_data_gives_zero(self):
        rep = perturbation_bound(1.0, 0.0, 1.0, 0.0)
        assert rep.components["bound1"] == 0.0
        assert rep.components["bound2"] == 0.0
        assert rep.value == 0.0

    def test_zero_gap_is_infinite(self):
        rep = perturbation_bound(0.5, 0.5, 1.0, 0.1)
        assert math.isinf(rep.value)
        assert "bound2" not in rep.components

    def test_second_bound_sharper_when_valid(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            g = rng.uniform(0.5, 3.0)
            r = rng.uniform(0.5, 2.0)
            eps = rng.uniform(0.0, 0.49)
            rep = perturbation_bound(g, 0.0, r, eps)
            if "bound2" in rep.components:
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

    # Gaps 5e-324 and 1.5e-323 are odd multiples of the least subnormal: a
    # halved gap there rounds (to 0 for the first).
    @settings(max_examples=500)
    @given(gap=_BOUND_FLOATS, r=_BOUND_FLOATS, eps=st.floats(0.0, 0.5, exclude_max=True))
    @example(gap=5e-324, r=1e-10, eps=0.1)
    @example(gap=1.5e-323, r=1e-10, eps=0.1)
    @example(gap=1.0, r=1.3e154, eps=0.4)
    def test_keeps_the_bits_of_the_plain_formulas(self, gap, r, eps):
        # The formulas as written, 2 r^2 eps / g and r^2 eps / (g - 2 r^2 eps)
        # where g > 4 r^2 eps, give the same bits wherever they are finite.
        r2 = r * r
        assume(r > 0.0 and math.isfinite(r2))
        rep = perturbation_bound(gap, 0.0, r, eps)
        plain1 = math.inf if gap <= 0.0 else 2.0 * r2 * eps / gap
        if math.isfinite(plain1):
            assert rep.components["bound1"] == plain1
        if math.isfinite(4.0 * r2 * eps) and gap > 4.0 * r2 * eps:
            plain2 = r2 * eps / (gap - 2.0 * r2 * eps)
            assert rep.components["bound2"] == plain2
        elif math.isfinite(4.0 * r2 * eps):
            assert "bound2" not in rep.components
        assert rep.value == min(rep.components.values())


class TestBoundReport:
    def test_clipped_caps_at_one(self):
        assert BoundReport(5.52, {}).clipped == 1.0
        assert BoundReport(0.3, {}).clipped == 0.3
        assert BoundReport(math.inf, {}).clipped == 1.0


# Every radius entry of the package passes one check.  These take finite
# and positive radii only (r^2 for breakdown_lower_bounds_from_values).
RADIUS_CALLS = {
    "breakdown_lower_bounds_from_values": lambda r: breakdown_lower_bounds_from_values(
        [0.5, 0.25], r, 1),
    "check_winsorized_spectra": lambda r: check_winsorized_spectra(
        np.array([[0.5, 0.25]]), [r]),
    "concentration_bound": lambda r: concentration_bound(
        1.0, 1.0, [0.5, 0.25], r, 1, 0.1, 100, 100),
    "estimate_winsorized_eigenvalues": lambda r: estimate_winsorized_eigenvalues(
        PopulationModel.gaussian(np.array([1.0])), r, 1000, seed=0),
    "estimate_winsorized_spectra": lambda r: estimate_winsorized_spectra(
        PopulationModel.gaussian(np.array([1.0])), [1.0, r], 1000, seed=0),
    "perturbation_bound": lambda r: perturbation_bound(1.0, 0.0, r, 0.1),
    "RadiusSpec.fixed": lambda r: RadiusSpec.fixed(r),
    "sample_winsorized_spectrum": lambda r: sample_winsorized_spectrum(np.eye(3), r),
    "sample_winsorized_values": lambda r: sample_winsorized_values(np.eye(3), [1.0, r]),
    "subgaussian_param_winsorized": lambda r: subgaussian_param_winsorized(
        4.0, 1.0, 10, r, 1.0),
    "winsorize_dataset": lambda r: winsorize_dataset(np.eye(3), r),
    "wpca_breakdown_lower_bounds": lambda r: wpca_breakdown_lower_bounds(
        [0.5, 0.25], r, 1),
}


@pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("name", sorted(RADIUS_CALLS))
def test_scalar_radius_must_be_finite_and_positive(name, r):
    with pytest.raises(ValueError, match="finite and positive"):
        RADIUS_CALLS[name](r)


# The radius-path entries take +inf, which leaves every row alone.
PATH_RADIUS_CALLS = {
    "fit_pc_path": lambda r: fit_pc_path(np.eye(3), 1, [1.0, r]),
    "winsorized_second_moments": lambda r: winsorized_second_moments(np.eye(3), [1.0, r]),
}


@pytest.mark.parametrize("r", [math.nan, 0.0, -1.0])
@pytest.mark.parametrize("name", sorted(PATH_RADIUS_CALLS))
def test_path_radius_must_be_positive(name, r):
    with pytest.raises(ValueError, match="positive"):
        PATH_RADIUS_CALLS[name](r)


@pytest.mark.parametrize("name", sorted(PATH_RADIUS_CALLS))
def test_path_radius_may_be_inf(name):
    PATH_RADIUS_CALLS[name](math.inf)


class TestRadiusSquaredOverflow:
    """A finite radius above sqrt(float64 max), about 1.34e154, whose square
    is inf: a spectrum check or a term sum takes it as bounding every
    eigenvalue, and a bound that reads r^2 raises."""

    R = 1e200

    def test_spectrum_check_accepts_every_spectrum(self):
        check_winsorized_spectra(np.array([[1e300, 0.25]]), [self.R])

    def test_spectrum_check_where_the_slack_overflows(self):
        # r^2 is finite, but r^2 plus its roundoff slack is not; it still
        # bounds a row whose sum, 2e308, passes float64.
        r = math.sqrt(1.797693133064623e308)
        check_winsorized_spectra(np.array([[1.0, 0.25]]), [r])
        with pytest.raises(ValueError, match="sum to more"):
            check_winsorized_spectra(np.array([[1e308, 1e308]]), [r])

    def test_sample_values_clip_nothing(self):
        assert np.array_equal(sample_winsorized_values(np.eye(3), [self.R]),
                              sample_winsorized_values(np.eye(3), [10.0]))

    def test_estimate_clips_nothing(self):
        model = PopulationModel.gaussian(np.array([4.0, 1.0]))
        want = estimate_winsorized_spectra(model, [1e100], 1000, seed=0)
        got = estimate_winsorized_spectra(model, [self.R], 1000, seed=0)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    # covariance_deviation_bound keeps its own radius rule (r = 0 allowed).
    CALLS = RADIUS_CALLS | {"covariance_deviation_bound": lambda r: covariance_deviation_bound(
        0.1, r, 1.0, 100, 10)}

    @pytest.mark.parametrize("name", [
        "concentration_bound", "covariance_deviation_bound", "perturbation_bound",
        "wpca_breakdown_lower_bounds"])
    def test_bounds_reject_infinite_square(self, name):
        with pytest.raises(ValueError, match="squared"):
            self.CALLS[name](self.R)

    # r^2 past half of float64's max: 2 r^2 eps and 4 r^2 eps overflowed,
    # and at eps = 0 gave nan, on the way to a finite bound.
    @pytest.mark.parametrize("gap, r, eps", [
        (1e300, 1.3e154, 0.1), (1e306, 1.2247e154, 0.001), (1.0, 1e154, 0.0)])
    def test_perturbation_bounds_stay_finite(self, gap, r, eps):
        rep = perturbation_bound(gap, 0.0, r, eps)
        bound1, bound2 = perturbation_exact(gap, r, eps)
        assert within_ulps(rep.components["bound1"], bound1)
        assert ("bound2" in rep.components) == (bound2 is not None)
        if bound2 is not None:
            assert within_ulps(rep.components["bound2"], bound2)
        assert rep.value == min(rep.components.values())

    # The contamination term as above; 256 r^2 lam1 / (p lamp) overflowed
    # (p = n = 100 and p = 10 n), and for the fifth r^2 lam1 / (p lamp) too.
    # In the last, r^2 / g alone overflows, so dividing r^2 by g first fails.
    @pytest.mark.parametrize("lam1, values, r, eps, n", [
        (1.0, [0.75e300, 0.25e300], 1.3e154, 0.1, 100),
        (1.0, [0.75e300, 0.25e300], 1e154, 0.0, 100),
        (1e10, [0.75e300, 0.25e300], 1e150, 0.1, 100),
        (1e10, [0.75e300, 0.25e300], 1e150, 0.1, 10),
        (1e4, [0.75e308, 0.25e308], 1e154, 0.1, 100),
        (1.0, [1e-10, 0.0], 2.2360679774997897e149, 0.0, 10**6),
    ])
    def test_concentration_terms_stay_finite(self, lam1, values, r, eps, n):
        rep = concentration_bound(lam1, 1.0, values, r, 1, eps, n, 100)
        exact = concentration_exact(lam1, 1.0, values, r, 1, eps, n, 100)
        for name, want in zip(("contamination", "sampling"), exact):
            assert within_ulps(rep.components[name], want), name

"""The package's public surface: each module's ``__all__``, re-exported once."""

import importlib

import winpca

MODULES = ("transform", "subspace", "distributions", "bounds", "simulate", "experiments")

PUBLIC = {
    "__version__", "using_numba",
    "RadiusSpec", "winsorize_point", "winsorize_dataset", "resolve_radius",
    "WPCAFit", "symmetric_eigh", "winsorized_second_moments", "fit_pc_subspace",
    "fit_pc_path", "principal_angles",
    "PopulationModel", "make_rng",
    "BoundReport", "estimate_winsorized_eigenvalues",
    "estimate_winsorized_spectra", "sample_winsorized_spectrum", "sample_winsorized_values",
    "check_winsorized_spectra", "concentration_bound", "asymptotic_rate",
    "subgaussian_param_winsorized", "covariance_deviation_bound",
    "pca_breakdown_points", "breakdown_lower_bounds_from_values",
    "wpca_breakdown_lower_bounds", "perturbation_bound",
    "apply_contamination",
    "ResultTable", "format_value", "run_effect_of_radius", "run_high_dim",
    "run_breakdown_bounds", "run_perturbation_sweep", "PRESETS",
}


def test_all_is_the_modules_all_in_order():
    want = ["__version__", "using_numba"]
    for name in MODULES:
        want += importlib.import_module(f"winpca.{name}").__all__
    assert winpca.__all__ == want


def test_public_names_are_unique_and_resolve():
    assert len(winpca.__all__) == len(set(winpca.__all__))
    assert set(winpca.__all__) == PUBLIC
    for name in winpca.__all__:
        assert hasattr(winpca, name), name


def test_helpers_stay_importable_from_their_module():
    from winpca.transform import as_data_matrix, row_norms

    assert callable(as_data_matrix) and callable(row_norms)

"""Robust subspace recovery via radial winsorization.

Rows with large norms are pulled back onto a ball before PCA, which keeps a
single wild observation from steering the fitted subspace.  The package
bundles the estimator, principal-angle diagnostics, the associated
perturbation / breakdown / concentration bound calculus, and a seeded
simulation harness with preset experiment grids.
"""

__version__ = "0.1.0"

from ._kernels import using_numba
from .transform import (
    RadiusSpec,
    winsorize_point,
    winsorize_dataset,
    spherize_dataset,
    resolve_radius,
)
from .subspace import (
    Spectrum,
    Subspace,
    AngleReport,
    WPCAFit,
    sample_covariance,
    symmetric_eigh,
    winsorized_second_moments,
    fit_pc_subspace,
    fit_pc_path,
    principal_angles,
    sin_theta_operator,
)
from .distributions import PopulationModel, make_rng
from .bounds import (
    WinsorizedSpectrum,
    BoundReport,
    estimate_winsorized_eigenvalues,
    sample_winsorized_spectrum,
    sample_winsorized_spectra,
    sample_winsorized_values,
    check_winsorized_spectra,
    concentration_bound,
    asymptotic_rate,
    subgaussian_param_winsorized,
    covariance_deviation_bound,
    pca_breakdown_points,
    breakdown_lower_bounds_from_values,
    wpca_breakdown_lower_bounds,
    perturbation_bound,
)
from .simulate import (
    ConstantVector,
    CoordinateSpike,
    ContaminationPlan,
    sample_gaussian,
    sample_student_t,
    apply_contamination,
)
from .experiments import (
    ResultTable,
    format_value,
    run_effect_of_radius,
    run_high_dim,
    run_breakdown_bounds,
    run_perturbation_sweep,
    PRESETS,
)

__all__ = [
    "__version__",
    "using_numba",
    "RadiusSpec",
    "winsorize_point",
    "winsorize_dataset",
    "spherize_dataset",
    "resolve_radius",
    "Spectrum",
    "Subspace",
    "AngleReport",
    "WPCAFit",
    "sample_covariance",
    "symmetric_eigh",
    "winsorized_second_moments",
    "fit_pc_subspace",
    "fit_pc_path",
    "principal_angles",
    "sin_theta_operator",
    "PopulationModel",
    "make_rng",
    "WinsorizedSpectrum",
    "BoundReport",
    "estimate_winsorized_eigenvalues",
    "sample_winsorized_spectrum",
    "sample_winsorized_spectra",
    "sample_winsorized_values",
    "check_winsorized_spectra",
    "concentration_bound",
    "asymptotic_rate",
    "subgaussian_param_winsorized",
    "covariance_deviation_bound",
    "pca_breakdown_points",
    "breakdown_lower_bounds_from_values",
    "wpca_breakdown_lower_bounds",
    "perturbation_bound",
    "ConstantVector",
    "CoordinateSpike",
    "ContaminationPlan",
    "sample_gaussian",
    "sample_student_t",
    "apply_contamination",
    "ResultTable",
    "format_value",
    "run_effect_of_radius",
    "run_high_dim",
    "run_breakdown_bounds",
    "run_perturbation_sweep",
    "PRESETS",
]

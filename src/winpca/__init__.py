"""Robust subspace recovery via radial winsorization.

Rows with large norms are pulled back onto a ball before PCA, which keeps a
single wild observation from steering the fitted subspace.  The package
bundles the estimator, principal-angle diagnostics, the associated
perturbation / breakdown / concentration bound calculus, and a seeded
simulation harness with preset experiment grids.
"""

__version__ = "0.1.0"

from ._kernels import using_numba
from .transform import *
from .subspace import *
from .distributions import *
from .bounds import *
from .simulate import *
from .experiments import *

# Each module's __all__ declares its public names; the package re-exports them.
__all__ = ["__version__", "using_numba"]
__all__ += transform.__all__
__all__ += subspace.__all__
__all__ += distributions.__all__
__all__ += bounds.__all__
__all__ += simulate.__all__
__all__ += experiments.__all__

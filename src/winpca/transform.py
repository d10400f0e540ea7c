"""Radial winsorization of data rows and radius-selection policies.

A point is winsorized by projecting it onto the centered Euclidean ball of
radius ``r`` whenever it lies outside: ``x`` maps to ``r * x / ||x||`` when
``||x|| > r`` and is untouched otherwise.  Two limiting policies are exposed
alongside fixed radii: no winsorization at all, which recovers classical PCA
downstream, and the spherical limit ``r -> 0``, which fits the rows scaled to
unit length (spherical PCA; a fit takes it as radius 0).  Data are assumed
centered already; nothing here subtracts means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import row_norms, winsorize_rows

__all__ = [
    "RadiusSpec",
    "winsorize_point",
    "winsorize_dataset",
    "resolve_radius",
]

_KINDS = ("fixed", "median_norm", "power_law", "spherical", "none")


@dataclass(frozen=True)
class RadiusSpec:
    """Policy for choosing the winsorization radius.

    ``kind`` is one of ``fixed`` (use ``value`` as the radius),
    ``median_norm`` (median of the row norms of the dataset being fit),
    ``power_law`` (radius ``p ** (0.5 + value)`` where ``value`` is the
    exponent offset beta), ``spherical`` (normalize every row to unit
    length), or ``none`` (leave the data untouched).
    """

    kind: str
    value: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown radius policy {self.kind!r}")
        if self.kind == "fixed":
            if self.value is None or not np.isfinite(self.value) or self.value <= 0:
                raise ValueError("fixed radius must be a finite positive number")
        elif self.kind == "power_law":
            if self.value is None or not np.isfinite(self.value):
                raise ValueError("power-law exponent must be finite")
        elif self.value is not None:
            raise ValueError(f"radius policy {self.kind!r} takes no numeric value")

    @classmethod
    def fixed(cls, r: float) -> "RadiusSpec":
        return cls("fixed", float(r))

    @classmethod
    def median_norm(cls) -> "RadiusSpec":
        return cls("median_norm")

    @classmethod
    def power_law(cls, beta: float) -> "RadiusSpec":
        return cls("power_law", float(beta))

    @classmethod
    def spherical(cls) -> "RadiusSpec":
        return cls("spherical")

    @classmethod
    def none(cls) -> "RadiusSpec":
        return cls("none")


def as_data_matrix(X) -> np.ndarray:
    """Coerce to a finite, 2-D float64 array with n >= 1 rows and p >= 1 columns."""
    A = np.ascontiguousarray(X, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError(f"expected a 2-D data matrix, got ndim={A.ndim}")
    if A.shape[0] < 1 or A.shape[1] < 1:
        raise ValueError(f"data matrix must be nonempty, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("data matrix contains non-finite entries")
    return A


def _check_radius(r: float) -> float:
    r = float(r)
    if not np.isfinite(r) or r <= 0:
        raise ValueError(f"winsorization radius must be finite and positive, got {r}")
    return r


def winsorize_point(x, r: float) -> np.ndarray:
    """Project a single vector onto the centered ball of radius ``r``.

    Returns ``x`` unchanged when ``||x|| <= r`` (including the boundary) and
    ``r * x / ||x||`` otherwise, so the output norm is ``min(||x||, r)`` and
    the direction is preserved.
    """
    r = _check_radius(r)
    v = np.ascontiguousarray(x, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("winsorize_point expects a nonempty 1-D vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("input vector contains non-finite entries")
    return winsorize_rows(v[None, :], r)[0]


def winsorize_dataset(X, r: float) -> np.ndarray:
    """Apply winsorize_point to every row of ``X``; shape is preserved."""
    r = _check_radius(r)
    A = as_data_matrix(X)
    return winsorize_rows(A, r)


def resolve_radius(X, spec: RadiusSpec) -> tuple[str, float | None]:
    """Turn a radius policy into an effective mode and numeric radius.

    Returns ``("winsorize", r)`` for the policies that yield a radius,
    which must be finite and positive (else ``ValueError``),
    ``("spherize", None)`` for the spherical limit (radius 0 to a fit), and
    ``("identity", None)`` when no winsorization is requested.  ``X`` is
    read, and validated, only by the policies that depend on the data.
    """
    if isinstance(spec, RadiusSpec) and spec.kind in ("median_norm", "power_law"):
        X = as_data_matrix(X)
    return _resolve_radius(X, spec)


def _resolve_radius(A: np.ndarray, spec: RadiusSpec) -> tuple[str, float | None]:
    """resolve_radius on a matrix already validated by ``as_data_matrix``."""
    if not isinstance(spec, RadiusSpec):
        raise ValueError("spec must be a RadiusSpec")
    if spec.kind == "none":
        return "identity", None
    if spec.kind == "spherical":
        return "spherize", None
    if spec.kind == "fixed":
        r, what = float(spec.value), "fixed radius"
    elif spec.kind == "power_law":
        p = A.shape[1]
        try:
            r = float(p) ** (0.5 + spec.value)
        except OverflowError:
            r = math.inf
        what = f"power-law radius p**(0.5 + beta) for p={p}, beta={spec.value}"
    else:
        norms, what = row_norms(A), "median row norm"
        with np.errstate(over="ignore"):
            r = float(np.median(norms))
        if math.isinf(r):  # the sum of two finite middle norms overflows
            r = 2.0 * float(np.median(norms / 2.0))
    if not 0.0 < r < math.inf:
        raise ValueError(f"{what} is {r}; the winsorization radius must be "
                         "finite and positive")
    return "winsorize", r

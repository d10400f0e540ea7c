"""Preset simulation pipelines emitting structured result tables.

Four presets cover the standard demonstrations of winsorized PCA:

* ``run_effect_of_radius`` sweeps the radius on a single-spike model with and
  without contamination, for Gaussian and heavy-tailed data ("fig1").
* ``run_high_dim`` compares small / moderate / large radius policies as the
  dimension grows, on spiked and non-spiked models ("fig2").
* ``run_breakdown_bounds`` traces both breakdown-point lower bounds across a
  radius grid ("fig3").
* ``run_perturbation_sweep`` contaminates one dataset row by row and plots
  the observed angle against the deterministic perturbation bounds ("fig4").

Radius grids are anchored at quantiles of a reference draw (the recipes do
not pin exact grids); the anchors land in each table's metadata so every run
is regenerable from its header alone.  All tables are deterministic functions
of (preset arguments, seed).
"""

from __future__ import annotations

import datetime
import io
import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from ._kernels import row_norms
from .bounds import (
    breakdown_lower_bounds_from_values,
    perturbation_bound,
    sample_winsorized_values,
)
from .distributions import PopulationModel, make_rng
from .simulate import apply_contamination, map_replications
from .subspace import _angles, _check_dim, _spectra
from .transform import _check_radii, as_data_matrix

__all__ = [
    "ResultTable",
    "format_value",
    "run_effect_of_radius",
    "run_high_dim",
    "run_breakdown_bounds",
    "run_perturbation_sweep",
    "PRESETS",
]

# Spawn-key offset reserved for grid-anchoring reference draws, far above
# any replication index so the two stream families never collide.
_REF_KEY = 1_000_000

# Entries over all fits past which a run is refused before anything is drawn:
# the default fig1 fits 8e6 in about 3.5 s on 2 vCPUs, so 1e12 is five days.
_MAX_FIT_ENTRIES = 10**12


def _check_size(fits: int, n: int, p: int) -> None:
    """Refuse a run of ``fits`` fits of datasets of up to n x p entries past the cap."""
    if fits * n * p > _MAX_FIT_ENTRIES:
        raise ValueError(f"run too large: its fits read 10^{math.log10(fits * n * p):.1f} "
                         f"entries, past the cap of {_MAX_FIT_ENTRIES:.0e}")


def format_value(v) -> str:
    """CSV cell formatting: 17 significant digits, '+inf' sentinel, '' for None."""
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return "+inf" if float(v) == math.inf else format(float(v), ".17g")


@dataclass
class ResultTable:
    """Columns, rows, and reproducibility metadata for one experiment run."""

    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)
    metadata: dict[str, str] = field(default_factory=dict)

    def add(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(f"expected {len(self.columns)} values, got {len(values)}")
        self.rows.append(tuple(values))

    def csv_text(self, timestamp: bool = True) -> str:
        out = io.StringIO()
        for key, val in self.metadata.items():
            # Escaped, a backslash first, a CR or LF cannot end its '#' line early.
            val = val.replace("\\", "\\\\").replace("\r", "\\r").replace("\n", "\\n")
            out.write(f"# {key}={val}\n")
        if timestamp:
            now = datetime.datetime.now(datetime.timezone.utc)
            out.write(f"# timestamp={now.isoformat()}\n")
        out.write(",".join(self.columns) + "\n")
        for row in self.rows:
            out.write(",".join(format_value(v) for v in row) + "\n")
        return out.getvalue()


def _base_metadata(preset: str, seed: int, **extra) -> dict[str, str]:
    meta = {"preset": preset, "seed": str(int(seed)), "build": f"winpca-{__version__}"}
    return meta | {key: format_value(val) for key, val in extra.items()}


def _norm_grid(X, lo: float, hi: float, count: int) -> tuple[np.ndarray, str]:
    """``count`` radii log-spaced from lo x the median to hi x the largest row
    norm of the reference draw X, and the metadata text that regenerates them."""
    norms = row_norms(X)
    grid = np.geomspace(lo * float(np.median(norms)), hi * float(norms.max()), count)
    return grid, f"geomspace({format_value(grid[0])},{format_value(grid[-1])},{count})"


def _replicate(one, count: int, jobs: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error of ``one(rep)`` over replications 0..count-1."""
    stack = np.stack(map_replications(one, count, jobs))
    mean = stack.mean(axis=0)
    if count > 1:
        return mean, stack.std(axis=0, ddof=1) / math.sqrt(count)
    return mean, np.full(mean.shape, math.nan)


def _path_sines(datasets, d: int, radii, target: np.ndarray) -> np.ndarray:
    """sin theta to the p x d orthonormal basis ``target`` of every
    ``fit_pc_path`` fit, one row per dataset.

    One map solves every dataset's matrices, one stacked pass the angle of
    each distinct solve.  Pass ``datasets`` as a generator: no two coexist.
    """
    d, radii = _check_dim(d, target.shape[0]), _check_radii(radii, allow_inf=True, path=True)
    return np.array([[math.sin(a) for a in _angles(
        np.stack([vecs[:, :d] for _, vecs in spectra]), target)[which, -1]]
        for _, which, spectra in _spectra(map(as_data_matrix, datasets), d, radii)])


def run_effect_of_radius(
    scale: float = 1.0, seed: int = 42, n_radii: int = 30, jobs: int = 1
) -> ResultTable:
    """Loss versus winsorization radius on a single-spike model ("fig1").

    The model is p=100, leading eigenvalue 100 over a unit bulk, d=1, with
    n=200*scale rows and 100*scale replications per cell.  Cells are the
    product of distribution (gaussian, t3) and contamination level (0, 0.05,
    spiking coordinate 2 at magnitude 100*n*p); the radius grid is log-spaced
    from 0.05x the median reference norm to 2x the max, plus a no-winsorize
    endpoint reported with radius +inf.
    """
    if not (scale > 0 and math.isfinite(200 * scale)):
        raise ValueError(f"scale must be positive and finite, got {scale}")
    if int(n_radii) < 1:
        raise ValueError(f"n_radii must be at least 1, got {n_radii}")
    p, d = 100, 1
    n = max(4, round(200 * scale))
    reps = max(2, round(100 * scale))
    _check_size(4 * reps, n, p)  # 2 distributions x 2 contamination levels
    spike = np.eye(1, p, 1)[0] * (100.0 * n * p)
    eigs = np.concatenate(([100.0], np.ones(p - 1)))
    eps_levels = (0.0, 0.05)
    outliers = [round(eps * n) for eps in eps_levels]
    target = np.eye(p, d)
    table = ResultTable(
        ("distribution", "epsilon", "radius_kind", "radius", "statistic",
         "value", "std_error"),
        metadata=_base_metadata("fig1", seed, scale=scale, n=n, p=p, d=d,
                                replications=reps),
    )
    models = (
        ("gaussian", PopulationModel.gaussian(eigs)),
        ("t3", PopulationModel.student_t(eigs, 3.0)),
    )
    for di, (dist, model) in enumerate(models):
        grid, table.metadata[f"r_grid_{dist}"] = _norm_grid(
            model.draw(n, make_rng(seed, (di, _REF_KEY))), 0.05, 2.0, int(n_radii))
        # The grid plus the no-winsorize endpoint.
        path = np.append(grid, math.inf)

        # The replication bodies may read the loop's variables, because
        # map_replications returns before the loop moves on.
        def one(rep: int) -> np.ndarray:
            X0 = model.draw(n, make_rng(seed, (di, rep)))
            return _path_sines((apply_contamination(X0, m, spike) if m else X0
                                for m in outliers), d, path, target)

        mean, se = _replicate(one, reps, jobs)
        for ei, eps in enumerate(eps_levels):
            for r, value, std_error in zip(path, mean[ei], se[ei]):
                table.add(dist, eps, "fixed" if r < math.inf else "pca", float(r),
                          "mean_sin_theta", float(value), float(std_error))
    return table


def run_high_dim(
    scale: float = 0.2, seed: int = 42, replications: int = 10, jobs: int = 1,
) -> ResultTable:
    """Loss of three radius policies as dimension grows ("fig2").

    For k in 1..4: p = max(3, round(1000*scale))*k and n = 2*k*p, so
    p/n = 1/(2k) shrinks as p grows.  Radii are 1, sqrt(p), and
    sqrt(p log p); models are non-spiked diag(9, 4, 1...) and spiked
    diag(9 sqrt(p), 4 sqrt(p), 1...); d=2; two rows are replaced by a spike
    of magnitude n*p in coordinate 3.  Both models of a replication are
    written in turn into its one whitened draw, pairing their losses.
    """
    if not 0 < scale <= 1:
        raise ValueError("scale must lie in (0, 1]")
    replications = int(replications)
    if replications < 1:
        raise ValueError("need at least one replication")
    d, m_out = 2, 2
    # p >= d + 1, so the contamination spike in coordinate d exists.
    base = max(d + 1, round(1000 * scale))
    _check_size(16 * replications, 8 * base, 4 * base)  # 4 k x 2 dists x 2 models
    table = ResultTable(
        ("k", "p", "n", "distribution", "model", "radius_label", "radius",
         "statistic", "value", "std_error"),
        metadata=_base_metadata("fig2", seed, scale=scale, replications=replications,
                                filler=1.0, base_p=base),
    )
    dists = ("gaussian", "t3")
    for ki, k in enumerate((1, 2, 3, 4)):
        p = base * k
        n = 2 * k * p
        radii = (
            ("r_1", 1.0),
            ("r_sqrt_p", math.sqrt(p)),
            ("r_sqrt_plogp", math.sqrt(p * math.log(p))),
        )
        fill = np.ones(p - d)
        model_eigs = (
            ("non_spiked", np.concatenate(([9.0, 4.0], fill))),
            ("spiked", np.concatenate(([9.0 * math.sqrt(p), 4.0 * math.sqrt(p)], fill))),
        )
        spike = np.eye(1, p, d)[0] * (float(n) * p)
        target = np.eye(p, d)
        for zi, dist in enumerate(dists):
            whitener = (PopulationModel.gaussian(np.ones(p)) if dist == "gaussian"
                        else PopulationModel.student_t(np.ones(p), 3.0))

            def one(rep: int) -> np.ndarray:
                y = whitener.draw_whitened(n, make_rng(seed, (ki, zi, rep)))
                head = y[:, :d].copy()

                def model(eigs) -> np.ndarray:  # y * sqrt(eigs): the bulk scale is 1
                    y[:, :d] = head * np.sqrt(eigs[:d])
                    y[:m_out] = spike
                    return y

                return _path_sines((model(eigs) for _, eigs in model_eigs),
                                   d, [r for _, r in radii], target)

            mean, se = _replicate(one, replications, jobs)
            for mi, (mname, _) in enumerate(model_eigs):
                for ri, (rlabel, r) in enumerate(radii):
                    table.add(k, p, n, dist, mname, rlabel, float(r),
                              "mean_sin_theta", float(mean[mi, ri]), float(se[mi, ri]))
    return table


def run_breakdown_bounds(
    seed: int = 42, replications: int = 1000, n_radii: int = 40, jobs: int = 1
) -> ResultTable:
    """Breakdown-point lower bounds across a radius grid ("fig3").

    Gaussian data with n=1000, p=4, covariance diag(25, 25, 5, 1), d=2.  Per
    radius the winsorized sample spectrum yields the weak and strong
    breakdown lower bounds; means and standard errors are reported over the
    replications.  The grid is log-spaced over [0.1 median norm, 3 max norm]
    of a reference draw.
    """
    n, p, d = 1000, 4, 2
    replications = int(replications)
    if replications < 1:
        raise ValueError("need at least one replication")
    if int(n_radii) < 1:
        raise ValueError(f"n_radii must be at least 1, got {n_radii}")
    _check_size(replications, n, p)
    model = PopulationModel.gaussian(np.array([25.0, 25.0, 5.0, 1.0]))
    grid, r_grid = _norm_grid(model.draw(n, make_rng(seed, (_REF_KEY,))), 0.1, 3.0,
                              int(n_radii))
    table = ResultTable(
        ("radius", "statistic", "value", "std_error"),
        metadata=_base_metadata("fig3", seed, n=n, p=p, d=d,
                                replications=replications, r_grid=r_grid),
    )

    def one(rep: int) -> np.ndarray:
        X = model.draw(n, make_rng(seed, (rep,)))
        return breakdown_lower_bounds_from_values(
            sample_winsorized_values(X, grid), grid ** 2, d)

    mean, se = _replicate(one, replications, jobs)
    for ri, r in enumerate(grid):
        table.add(float(r), "weak_lb", float(mean[ri, 0]), float(se[ri, 0]))
        table.add(float(r), "strong_lb", float(mean[ri, 1]), float(se[ri, 1]))
    return table


def run_perturbation_sweep(seed: int = 42, n: int = 1000) -> ResultTable:
    """Observed angle versus perturbation bounds on one dataset ("fig4").

    One Gaussian draw with n rows, p=2, covariance diag(25, 1), d=1; the
    radius is the median row norm.  For m = 0 .. n // 2 - 1, fractions m / n
    below 1/2, the first m rows are replaced by (0, max norm squared + 100)
    and the fitted subspace is compared with the fit on the pure data.  Rows
    carry both deterministic bounds (the sharper one blank where its
    validity condition fails) and the weak breakdown lower bound of the pure
    fit as a constant marker column.
    """
    p, d = 2, 1
    n = int(n)
    if n < 4:
        raise ValueError("need n >= 4")
    _check_size(n // 2, n, p)
    model = PopulationModel.gaussian(np.array([25.0, 1.0]))
    X0 = model.draw(n, make_rng(seed))
    norms = row_norms(X0)
    r = float(np.median(norms))
    outlier = np.array([0.0, float(norms.max()) ** 2 + 100.0])
    # One map solves every contaminated dataset, all p = d + 1 eigenpairs each;
    # m = 0 is the pure fit, whose spectrum is the winsorized sample spectrum at r.
    fits = [spectra[0] for _, _, spectra in _spectra(
        (apply_contamination(X0, m, outlier) for m in range(n // 2)), d, np.array([r]))]
    vals, pure = fits[0][0], fits[0][1][:, :d]
    angles = _angles(np.stack([vecs[:, :d] for _, vecs in fits]), pure)[:, -1]
    weak_lb, strong_lb = breakdown_lower_bounds_from_values(vals, r * r, d)
    table = ResultTable(
        ("m", "epsilon", "observed_angle", "observed_sin", "bound1", "bound2",
         "min_bound", "weak_lb"),
        metadata=_base_metadata(
            "fig4", seed, n=n, p=p, d=d, radius=r,
            outlier=outlier[1],
            weak_lb=weak_lb, strong_lb=strong_lb,
        ),
    )
    for m, angle in enumerate(angles.tolist()):
        eps = m / n
        bd = perturbation_bound(vals[d - 1], vals[d], r, eps)
        bound2 = bd.components.get("bound2")
        table.add(m, eps, angle, math.sin(angle),
                  bd.components["bound1"], bound2, bd.value, weak_lb)
    return table


PRESETS = {
    "fig1": run_effect_of_radius,
    "fig2": run_high_dim,
    "fig3": run_breakdown_bounds,
    "fig4": run_perturbation_sweep,
}

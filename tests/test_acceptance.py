"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single
``[acceptance] <name>: PASS|FAIL`` line that bypasses pytest capture, so the
gate's verdict is readable straight off the run log.  Criteria mix exact
dominance checks (every observed loss below its closed-form bound), banded
statistical reproduction of the preset experiment grids, and cross-validation
of independent numerical routes.
"""

import math
import time

import numpy as np
import pytest
import scipy.stats

from winpca import (
    PopulationModel,
    RadiusSpec,
    apply_contamination,
    breakdown_lower_bounds_from_values,
    estimate_winsorized_eigenvalues,
    fit_pc_path,
    fit_pc_subspace,
    make_rng,
    perturbation_bound,
    principal_angles,
    resolve_radius,
    run_breakdown_bounds,
    run_effect_of_radius,
    run_high_dim,
    run_perturbation_sweep,
    sample_winsorized_spectrum,
    winsorize_dataset,
    winsorized_second_moments,
)
from winpca.cli import main as cli_main

from oracles import sin_theta_operator

pytestmark = pytest.mark.acceptance


@pytest.fixture
def report(capfd):
    start = time.perf_counter()

    def _report(name, failures):
        elapsed = time.perf_counter() - start
        ok = not failures
        verdict = "PASS" if ok else f"FAIL ({'; '.join(failures[:3])})"
        with capfd.disabled():
            print(f"[acceptance] {name}: {verdict} [{elapsed:.1f}s]", flush=True)
        assert ok, f"{name}: {failures}"

    return _report


def _col(table, name):
    return [row[table.columns.index(name)] for row in table.rows]


def _random_basis(rng, p, d):
    Q, _ = np.linalg.qr(rng.standard_normal((p, d)))
    return Q


def _contaminated_pair(rng):
    p = int(rng.integers(2, 7))
    n = int(rng.integers(40, 160))
    eigs = np.sort(rng.uniform(0.5, 30.0, p))[::-1]
    X0 = PopulationModel.gaussian(eigs).draw(n, make_rng(int(rng.integers(2**31))))
    norms = np.linalg.norm(X0, axis=1)
    r = float(rng.uniform(0.5 * np.median(norms), 2.0 * norms.max()))
    m = int(rng.integers(1, int(0.4 * n)))
    direction = rng.standard_normal(p)
    direction /= np.linalg.norm(direction)
    magnitude = 10.0 ** rng.uniform(1.0, 6.0) * norms.max()
    return X0, apply_contamination(X0, m, magnitude * direction), r, m / n


def test_contamination_bound_dominates_observed_loss(report):
    # deterministic sine bounds hold for every dataset, radius, and outlier set
    rng = np.random.default_rng(1001)
    failures = []
    for trial in range(200):
        X0, Xe, r, eps = _contaminated_pair(rng)
        p = X0.shape[1]
        d = int(rng.integers(1, p))
        wspec = sample_winsorized_spectrum(X0, r)
        bd = perturbation_bound(wspec[d - 1], wspec[d], r, eps)
        fit0 = fit_pc_subspace(X0, d, RadiusSpec.fixed(r))
        fite = fit_pc_subspace(Xe, d, RadiusSpec.fixed(r))
        observed = math.sin(principal_angles(fite.basis, fit0.basis)[-1])
        if observed > bd.components["bound1"] + 1e-9:
            failures.append(
                f"trial {trial}: sin {observed:.6f} > bound1 "
                f"{bd.components['bound1']:.6f}")
        if "bound2" in bd.components and observed > bd.components["bound2"] + 1e-9:
            failures.append(
                f"trial {trial}: sin {observed:.6f} > bound2 "
                f"{bd.components['bound2']:.6f}")
    report("contamination bounds dominate observed loss", failures)


def test_covariance_shift_capped_by_contamination_mass(report):
    rng = np.random.default_rng(1002)
    failures = []
    for trial in range(200):
        X0, Xe, r, eps = _contaminated_pair(rng)
        S0 = winsorized_second_moments(X0, [r])[0]
        Se = winsorized_second_moments(Xe, [r])[0]
        shift = float(np.max(np.abs(np.linalg.eigvalsh(Se - S0))))
        if shift > eps * r * r + 1e-10:
            failures.append(f"trial {trial}: shift {shift:.6f} > {eps * r * r:.6f}")
    report("covariance shift capped by eps r^2", failures)


def test_angle_routes_agree(report):
    failures = []
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(100):
        p = int(rng.integers(3, 12))
        d = int(rng.integers(1, min(4, p)))
        U = _random_basis(rng, p, d)
        W = _random_basis(rng, p, d)
        svd_route = math.sin(principal_angles(U, W)[-1])
        worst = max(worst, abs(svd_route - sin_theta_operator(U, W)))
    if worst > 1e-8:
        failures.append(f"SVD vs operator route differ by {worst:.3e}")

    # one-dimensional planar case against a dense direction grid
    phis = np.linspace(0.0, math.pi, 400_000, endpoint=False)
    dirs = np.column_stack([np.cos(phis), np.sin(phis)])
    worst_grid = 0.0
    for _ in range(20):
        U = _random_basis(rng, 2, 1)
        W = _random_basis(rng, 2, 1)
        pu = phis[np.argmax(np.abs(dirs @ U[:, 0]))]
        pw = phis[np.argmax(np.abs(dirs @ W[:, 0]))]
        diff = abs(pu - pw) % math.pi
        grid_angle = min(diff, math.pi - diff)
        worst_grid = max(worst_grid,
                         abs(grid_angle - principal_angles(U, W)[-1]))
    if worst_grid > 1e-4:
        failures.append(f"grid search differs by {worst_grid:.3e}")
    report("principal-angle routes agree", failures)


def test_radius_sweep_profile(report):
    failures = []
    table = run_effect_of_radius(scale=1.0, seed=42, jobs=4)
    cols = table.columns
    rows = [row for row in table.rows
            if row[cols.index("distribution")] == "t3"
            and row[cols.index("radius_kind")] == "fixed"]

    def sweep(eps):
        pts = [(row[cols.index("radius")], row[cols.index("value")])
               for row in rows if row[cols.index("epsilon")] == eps]
        pts.sort()
        return [v for _, v in pts]

    dirty = sweep(0.05)
    clean = sweep(0.0)
    if not 0.8 <= dirty[-1] <= 1.0:
        failures.append(f"contaminated loss at largest radius {dirty[-1]:.3f} "
                        "outside [0.8, 1.0]")
    if not 0.10 <= clean[-1] <= 0.30:
        failures.append(f"clean loss at largest radius {clean[-1]:.3f} "
                        "outside [0.10, 0.30]")
    margin = dirty[-1] - min(dirty)
    if margin < 0.2:
        failures.append(f"interior minimum margin {margin:.3f} < 0.2")
    report("radius sweep profile", failures)


def test_dimension_growth_profile(report):
    failures = []
    table = run_high_dim(scale=0.2, seed=42, replications=10, jobs=4)
    cols = table.columns
    tight = sorted(
        (row[cols.index("k")], row[cols.index("value")],
         row[cols.index("std_error")])
        for row in table.rows
        if row[cols.index("distribution")] == "t3"
        and row[cols.index("model")] == "non_spiked"
        and row[cols.index("radius_label")] == "r_1"
    )
    for (k0, v0, s0), (k1, v1, s1) in zip(tight, tight[1:]):
        if not v1 + 3.0 * math.hypot(s0, s1) < v0:
            failures.append(f"loss not decreasing from k={k0} to k={k1} "
                            f"({v0:.4f} -> {v1:.4f})")
    by_cell = {}
    for row in table.rows:
        key = tuple(row[cols.index(c)]
                    for c in ("k", "distribution", "radius_label"))
        by_cell.setdefault(key, {})[row[cols.index("model")]] = \
            row[cols.index("value")]
    diffs = [cell["spiked"] - cell["non_spiked"] for cell in by_cell.values()]
    if not np.mean(diffs) <= 0.0:
        failures.append(f"spiked losses average {np.mean(diffs):+.4f} above "
                        "non-spiked")
    report("dimension growth profile", failures)


def test_breakdown_bound_decay(report):
    failures = []
    table = run_breakdown_bounds(seed=42, replications=250, jobs=4)
    cols = table.columns
    series = {"weak_lb": [], "strong_lb": []}
    for row in table.rows:
        series[row[cols.index("statistic")]].append(
            (row[cols.index("radius")], row[cols.index("value")]))
    weak = dict(series["weak_lb"])
    strong = dict(series["strong_lb"])
    for r in weak:
        if strong[r] < weak[r] - 1e-12:
            failures.append(f"strong < weak at r={r:.3f}")
    for name, pts in series.items():
        pts.sort()
        radii = [r for r, _ in pts]
        vals = [v for _, v in pts]
        rho = scipy.stats.spearmanr(radii, vals).statistic
        if not rho <= -0.9:
            failures.append(f"{name} not decaying with radius (spearman {rho:.3f})")
        if max(vals) > 0.5 or min(vals) < 0.0:
            failures.append(f"{name} outside [0, 0.5]")
    report("breakdown bound decay", failures)


def test_outlier_sweep_transitions(report):
    failures = []
    table = run_perturbation_sweep(seed=42)
    cols = table.columns
    weak_lb = table.rows[0][cols.index("weak_lb")]
    for row in table.rows:
        eps = row[cols.index("epsilon")]
        angle = row[cols.index("observed_angle")]
        sin = row[cols.index("observed_sin")]
        b1 = row[cols.index("bound1")]
        if eps < 0.5 * weak_lb and not angle < math.pi / 4:
            failures.append(f"eps={eps:.3f}: angle {angle:.3f} >= pi/4 below "
                            "half the breakdown bound")
        if eps >= weak_lb + 0.1 and not angle > 1.2:
            failures.append(f"eps={eps:.3f}: angle {angle:.3f} <= 1.2 well "
                            "past the breakdown bound")
        if sin > b1 + 1e-9:
            failures.append(f"eps={eps:.3f}: sin {sin:.6f} > bound1 {b1:.6f}")
    report("outlier sweep transitions", failures)


@pytest.mark.parametrize("family", ["gaussian", "t3"])
def test_consistency_as_n_grows_and_eps_shrinks(report, family):
    # The paper's consistency claim: with n growing and the outlier fraction
    # eps_n = 0.5 / sqrt(n) shrinking, the median-radius fit converges to the
    # population subspace span(e1, e2) at rate about n^-1/2.  The outliers
    # point along (e2 + e6) / sqrt(2), which mixes the span with its
    # complement, so classical PCA (radius +inf) stays at sin 1/sqrt(2).
    # Sign symmetry keeps the winsorized covariance of this diagonal model
    # diagonal, so the target span is exact.
    failures = []
    p, d, reps, seed = 20, 2, 20, 42
    eigs = np.concatenate(([25.0, 9.0], np.ones(p - d)))
    model = (PopulationModel.gaussian(eigs) if family == "gaussian"
             else PopulationModel.student_t(eigs, 3.0))
    outlier = 1e6 * (np.eye(p)[1] + np.eye(p)[5]) / math.sqrt(2)
    target = np.eye(p, d)
    ns = (250, 1000, 4000, 16000)
    wpca, pca = np.zeros(len(ns)), np.zeros(len(ns))
    for ni, n in enumerate(ns):
        for rep in range(reps):
            X = apply_contamination(model.draw(n, make_rng(seed, (ni, rep))),
                                    round(0.5 * math.sqrt(n)), outlier)
            r = resolve_radius(X, RadiusSpec.median_norm())
            fits = fit_pc_path(X, d, [r, math.inf])
            wpca[ni] += math.sin(principal_angles(fits[0].basis, target)[-1]) / reps
            pca[ni] += math.sin(principal_angles(fits[1].basis, target)[-1]) / reps
    slope = np.polyfit(np.log(ns), np.log(wpca), 1)[0]
    if not -0.6 <= slope <= -0.4:
        failures.append(f"log-log slope {slope:.3f} outside [-0.6, -0.4]")
    if not wpca[-1] < 0.05:
        failures.append(f"WPCA mean sin {wpca[-1]:.4f} >= 0.05 at n={ns[-1]}")
    if not np.all(pca > 0.7):
        failures.append(f"classical PCA mean sin {pca.min():.4f} <= 0.7")
    report(f"consistency as n grows and eps shrinks ({family})", failures)


def test_single_outlier_breaks_classical_fit_only(report):
    failures = []
    n = 200
    X0 = PopulationModel.gaussian([25.0, 4.0, 1.0]).draw(n, make_rng(42))
    fit0 = fit_pc_subspace(X0, 1, RadiusSpec.none())
    u0 = fit0.basis[:, 0]
    axis = int(np.argmin(np.abs(u0)))
    w = np.eye(3)[axis] - u0[axis] * u0
    w /= np.linalg.norm(w)
    magnitude = 1e6 * float(np.linalg.norm(X0, axis=1).max())
    Xm = X0.copy()
    Xm[0] = magnitude * w

    broken = fit_pc_subspace(Xm, 1, RadiusSpec.none())
    sin_classical = math.sin(principal_angles(broken.basis, fit0.basis)[-1])
    if sin_classical < 0.99:
        failures.append(f"one outlier only moved the classical fit by "
                        f"sin {sin_classical:.4f}")

    r = float(np.median(np.linalg.norm(Xm, axis=1)))
    wspec = sample_winsorized_spectrum(X0, r)
    bound1 = perturbation_bound(
        wspec[0], wspec[1], r, 1.0 / n).components["bound1"]
    rfit0 = fit_pc_subspace(X0, 1, RadiusSpec.fixed(r))
    rfitm = fit_pc_subspace(Xm, 1, RadiusSpec.fixed(r))
    sin_robust = math.sin(principal_angles(rfitm.basis, rfit0.basis)[-1])
    if sin_robust > bound1 + 1e-9:
        failures.append(f"winsorized fit moved by sin {sin_robust:.6f} > "
                        f"bound {bound1:.6f}")
    report("single outlier breaks only the classical fit", failures)


# Frozen from an independent adaptive-quadrature evaluation of the winsorized
# second-moment integral in polar coordinates (nested scipy.integrate.quad,
# absolute and relative tolerance 1e-12) for a Gaussian with covariance
# diag(25, 1).
_QUAD_ORACLE = {
    1.0: (0.809433308298, 0.144529442747),
    3.0: (6.029061457566, 0.609958663842),
    10.0: (22.978622175103, 0.987610109976),
}


def test_winsorized_eigenvalue_estimator_matches_quadrature(report):
    failures = []
    model = PopulationModel.gaussian(np.array([25.0, 1.0]))
    for r, expected in _QUAD_ORACLE.items():
        ws = estimate_winsorized_eigenvalues(model, r, 100_000, seed=42)
        err = np.abs(ws.values - np.asarray(expected))
        if np.any(err > 3.0 * ws.standard_errors):
            z = err / ws.standard_errors
            failures.append(f"r={r}: z-scores {np.round(z, 2)}")
    report("winsorized eigenvalue estimator matches quadrature", failures)


def _rotation(p, rng):
    Q, R = np.linalg.qr(rng.standard_normal((p, p)))
    return Q * np.sign(np.diag(R))


def test_invariants_and_cli_determinism(report, tmp_path):
    failures = []
    rng = np.random.default_rng(1010)

    for _ in range(20):
        n, p = int(rng.integers(5, 40)), int(rng.integers(1, 8))
        X = rng.standard_normal((n, p)) * rng.uniform(0.1, 10.0)
        r = float(rng.uniform(0.2, 3.0) * max(np.linalg.norm(X, axis=1).mean(), 1e-3))
        W = winsorize_dataset(X, r)
        if not np.array_equal(winsorize_dataset(W, r), W):
            failures.append("winsorization is not idempotent")
        if np.any(np.linalg.norm(W, axis=1) > r * (1.0 + 1e-12)):
            failures.append("a winsorized norm exceeds the radius")
        dots = np.einsum("ij,ij->i", X, W)
        scale = np.linalg.norm(X, axis=1) * np.linalg.norm(W, axis=1)
        live = scale > 0
        if np.any(dots[live] < (1.0 - 1e-12) * scale[live]):
            failures.append("winsorization changed a direction")
        R = _rotation(p, rng)
        if not np.allclose(winsorize_dataset(X @ R.T, r), W @ R.T,
                           rtol=0, atol=1e-10 * max(r, 1.0)):
            failures.append("winsorization does not commute with rotation")

    for _ in range(10):
        U = _random_basis(rng, 6, 2)
        W = _random_basis(rng, 6, 2)
        fwd = principal_angles(U, W)
        if np.max(np.abs(fwd - principal_angles(W, U))) > 1e-10:
            failures.append("principal angles are not symmetric")
        Q = _rotation(2, rng)
        if np.max(np.abs(principal_angles(U @ Q, W) - fwd)) > 1e-10:
            failures.append("principal angles depend on the basis choice")

    for _ in range(10):
        X = rng.standard_normal((30, 4)) * rng.uniform(0.5, 5.0)
        r = float(rng.uniform(0.5, 5.0))
        ws = sample_winsorized_spectrum(X, r)
        if ws.sum() > r * r * (1.0 + 1e-9):
            failures.append("winsorized spectrum sums above r^2")

    for _ in range(100):
        bd = perturbation_bound(rng.uniform(0.1, 3.0), 0.0,
                                rng.uniform(0.5, 2.0), rng.uniform(0.0, 0.49))
        if "bound2" in bd.components and \
                bd.components["bound2"] > bd.components["bound1"] + 1e-15:
            failures.append("valid sharper bound exceeds the coarse bound")
        vals = np.sort(rng.uniform(0.0, 5.0, int(rng.integers(2, 8))))[::-1]
        weak, strong = breakdown_lower_bounds_from_values(
            vals, rng.uniform(0.5, 10.0), int(rng.integers(1, vals.size)))
        if strong < weak:
            failures.append("strong breakdown bound below the weak bound")

    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (first, second):
        code = cli_main(["experiment", "fig3", "--replications", "3",
                         "--out", str(path)])
        if code != 0:
            failures.append(f"experiment exited with {code}")

    def stable(path):
        return "\n".join(l for l in path.read_text().splitlines()
                         if not l.startswith("# timestamp="))

    if stable(first) != stable(second):
        failures.append("identical runs produced different bytes")
    report("invariants and CLI determinism", failures)

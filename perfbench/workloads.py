"""The four benchmark workloads and the checks on their outputs.

Each workload drives winpca only through public functions of its modules,
looked up on the module at call time so the tracer's rebinding takes effect.
A pass returns its outputs as named CSV tables (the text the package itself
formats), which the checks parse, compare with a stored reference table, and
compare between traced and untraced passes.

Sizes: ``full`` is the measured workload; ``tiny`` is the size the self-test
runs; ``warmup`` is the warm-up pass of every set-up, the tiny inputs run
on one thread.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

# Seed at which outputs are compared cell by cell with the stored reference
# tables; it is the presets' own default seed.
REFERENCE_SEED = 42
# Largest difference allowed between a cell and its reference value,
# relative to the reference value when that exceeds 1 in magnitude.
REFERENCE_TOL = 1e-12
# The cli_fit basis must be orthonormal, and agree with an independent
# plain-numpy fit in sin(theta), to within this.
BASIS_TOL = 1e-10


@dataclass
class Pass:
    """Outputs of one pass: CSV tables by name, and sizes for the metrics."""

    tables: dict[str, str]
    solves: int
    csv_bytes: int
    exit_code: int = 0


class Checker:
    """Counts output checks attempted and failed, keeping the first failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)


def parse_table(text: str) -> tuple[list[str], list[list[str]]]:
    """Header and body rows of a CSV table, skipping '#' metadata lines."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def column(text: str, name: str, numeric: bool = True) -> np.ndarray:
    """One column of a table; blank numeric cells read as NaN."""
    header, rows = parse_table(text)
    j = header.index(name)
    if not numeric:
        return np.array([r[j] for r in rows])
    return np.array([float(r[j]) if r[j] else math.nan for r in rows])


def compare_tables(checker: Checker, label: str, got: str, want: str) -> None:
    """One check per row: same header, same cells within REFERENCE_TOL."""
    gh, grows = parse_table(got)
    wh, wrows = parse_table(want)
    checker.check(gh == wh and len(grows) == len(wrows),
                  f"{label}: header or row count differs from the reference")
    for i, (g, w) in enumerate(zip(grows, wrows)):
        ok = len(g) == len(w)
        for a, b in zip(g, w):
            a, b = _cell(a), _cell(b)
            if isinstance(a, float) and isinstance(b, float):
                if math.isinf(b) or math.isnan(b):
                    ok &= a == b or (math.isnan(a) and math.isnan(b))
                else:
                    ok &= abs(a - b) <= REFERENCE_TOL * max(1.0, abs(b))
            else:
                ok &= a == b
        checker.check(ok, f"{label}: row {i + 1} differs from the reference: {g} vs {w}")


def _check_sin_column(checker: Checker, label: str, text: str, name: str) -> None:
    for i, v in enumerate(column(text, name)):
        checker.check(0.0 <= v <= 1.0, f"{label}: row {i + 1} {name}={v} outside [0, 1]")


def _table_solves(text: str, per_row: float) -> int:
    """Rows times replications, from the table and its metadata header."""
    meta = dict(ln[2:].split("=", 1) for ln in text.splitlines() if ln.startswith("# "))
    return round(len(parse_table(text)[1]) * per_row * int(meta["replications"]))


class RadiusSweep:
    """fig1: many small fits of one matrix at 31 radii per dataset."""

    name = "radius_sweep"
    sizes = {"full": {"scale": 0.5, "n_radii": 30},
             "tiny": {"scale": 0.05, "n_radii": 3}}
    sizes["warmup"] = sizes["tiny"]

    def prepare(self, seed, size, workdir):
        return {"seed": seed, **self.sizes[size]}

    def run(self, pkg, inputs) -> Pass:
        table = pkg.experiments.run_effect_of_radius(
            scale=inputs["scale"], seed=inputs["seed"], n_radii=inputs["n_radii"], jobs=1)
        text = table.csv_text(timestamp=False)
        # Every row is one (distribution, epsilon, radius) cell, fitted once
        # per replication.
        return Pass({"fig1": text}, _table_solves(text, 1), len(text.encode()))

    def check(self, checker, inputs, out: Pass) -> None:
        _check_sin_column(checker, "fig1", out.tables["fig1"], "value")


class HighDim:
    """fig2: few radii on matrices up to 3200 x 400, two worker threads."""

    name = "high_dim"
    sizes = {"full": {"scale": 0.1, "replications": 6, "jobs": 2},
             "tiny": {"scale": 0.01, "replications": 2, "jobs": 2},
             # No thread pool in the warm-up: a pool of two on tiny inputs
             # makes the set-up time twice as noisy.
             "warmup": {"scale": 0.01, "replications": 2, "jobs": 1}}

    def prepare(self, seed, size, workdir):
        return {"seed": seed, **self.sizes[size]}

    def run(self, pkg, inputs) -> Pass:
        table = pkg.experiments.run_high_dim(
            scale=inputs["scale"], seed=inputs["seed"],
            replications=inputs["replications"], jobs=inputs["jobs"])
        text = table.csv_text(timestamp=False)
        return Pass({"fig2": text}, _table_solves(text, 1), len(text.encode()))

    def check(self, checker, inputs, out: Pass) -> None:
        _check_sin_column(checker, "fig2", out.tables["fig2"], "value")


class Breakdown:
    """fig3 and fig4 plus Monte Carlo winsorized eigenvalues on fig3's model."""

    name = "breakdown"
    sizes = {"full": {"replications": 1000, "n_radii": 40, "fig4_n": 1000,
                      "mc_radii": 5, "mc_draws": 4_000_000},
             "tiny": {"replications": 3, "n_radii": 4, "fig4_n": 20,
                      "mc_radii": 2, "mc_draws": 1000}}
    sizes["warmup"] = sizes["tiny"]
    # Covariance eigenvalues of the fig3 model.
    fig3_eigenvalues = (25.0, 25.0, 5.0, 1.0)

    def prepare(self, seed, size, workdir):
        return {"seed": seed, **self.sizes[size]}

    def run(self, pkg, inputs) -> Pass:
        seed = inputs["seed"]
        fig3 = pkg.experiments.run_breakdown_bounds(
            seed=seed, replications=inputs["replications"],
            n_radii=inputs["n_radii"], jobs=1).csv_text(timestamp=False)
        fig4 = pkg.experiments.run_perturbation_sweep(
            seed=seed, n=inputs["fig4_n"]).csv_text(timestamp=False)
        model = pkg.distributions.PopulationModel.gaussian(np.array(self.fig3_eigenvalues))
        grid = column(fig3, "radius")[::2]
        picks = np.linspace(0, grid.size - 1, inputs["mc_radii"]).round().astype(int)
        lines = ["radius,index,value,std_error"]
        for r in grid[picks]:
            spec = pkg.bounds.estimate_winsorized_eigenvalues(
                model, float(r), inputs["mc_draws"], seed)
            for j, (v, se) in enumerate(zip(spec.values, spec.standard_errors)):
                lines.append(f"{float(r)!r},{j + 1},{float(v)!r},{float(se)!r}")
        mc = "\n".join(lines) + "\n"
        # fig3: one spectrum per radius and replication (two rows per
        # radius); fig4: one fit per contamination level m; one Monte Carlo
        # spectrum per radius.
        solves = (_table_solves(fig3, 0.5) + len(parse_table(fig4)[1])
                  + inputs["mc_radii"])
        return Pass({"fig3": fig3, "fig4": fig4, "mc": mc}, solves,
                    len(fig3.encode()) + len(fig4.encode()))

    def check(self, checker, inputs, out: Pass) -> None:
        fig3 = out.tables["fig3"]
        stat, value = column(fig3, "statistic", numeric=False), column(fig3, "value")
        weak, strong = value[stat == "weak_lb"], value[stat == "strong_lb"]
        for i, (w, s) in enumerate(zip(weak, strong)):
            checker.check(0.0 <= w <= s <= 0.5,
                          f"fig3: radius {i + 1} violates 0 <= weak={w} <= strong={s} <= 0.5")
        fig4 = out.tables["fig4"]
        _check_sin_column(checker, "fig4", fig4, "observed_sin")
        for i, (s, b) in enumerate(zip(column(fig4, "observed_sin"),
                                       column(fig4, "min_bound"))):
            checker.check(s <= b, f"fig4: row {i + 1} observed_sin={s} above min_bound={b}")
        mc = out.tables["mc"]
        radius, value = column(mc, "radius"), column(mc, "value")
        for r in np.unique(radius):
            vals = value[radius == r]
            # Each winsorized draw has squared norm at most r^2.
            checker.check(np.all(vals >= 0) and vals.sum() <= r * r * (1 + 1e-12),
                          f"mc: radius {r} eigenvalues {vals} outside [0, r^2]")


def plain_winsorized_basis(X: np.ndarray, d: int) -> np.ndarray:
    """Top-d eigenvectors after winsorizing at the median row norm, in numpy only."""
    norms = np.sqrt(np.einsum("ij,ij->i", X, X))
    W = X * np.minimum(1.0, np.median(norms) / norms)[:, None]
    _, V = np.linalg.eigh(W.T @ W / X.shape[0])
    return V[:, ::-1][:, :d]


class CliFit:
    """``winpca fit`` on a tall Gaussian CSV, parsing included."""

    name = "cli_fit"
    sizes = {"full": {"n": 20000, "p": 100}, "tiny": {"n": 300, "p": 10}}
    sizes["warmup"] = sizes["tiny"]
    d = 3
    # Leading covariance eigenvalues; the rest are 1, so the top-3 subspace
    # has a wide gap.
    spikes = (25.0, 16.0, 9.0)

    def prepare(self, seed, size, workdir):
        n, p = self.sizes[size]["n"], self.sizes[size]["p"]
        rng = np.random.Generator(np.random.PCG64(seed))
        scale = np.sqrt(np.concatenate((self.spikes, np.ones(p - len(self.spikes)))))
        X = rng.standard_normal((n, p)) * scale
        # Relative to the working directory, so the path the CLI echoes in its
        # header names no location outside the checkout.
        path = os.path.relpath(os.path.join(workdir, f"cli_fit-{size}.csv"))
        header = ",".join(f"x{j + 1}" for j in range(p))
        np.savetxt(path, X, fmt="%.17g", delimiter=",", header=header, comments="")
        return {"X": X, "path": path, "out": os.path.join(workdir, f"cli_fit-{size}-basis.csv")}

    def run(self, pkg, inputs) -> Pass:
        code = pkg.cli.main(["fit", inputs["path"], "--d", str(self.d),
                             "--out", inputs["out"]])
        with open(inputs["out"], encoding="utf-8") as fh:
            text = fh.read()
        return Pass({"fit": text}, 1, os.path.getsize(inputs["path"]), code)

    def check(self, checker, inputs, out: Pass) -> None:
        checker.check(out.exit_code == 0, f"fit: exit code {out.exit_code}")
        _, rows = parse_table(out.tables["fit"])
        B = np.array(rows, dtype=np.float64)
        err = np.max(np.abs(B.T @ B - np.eye(B.shape[1])))
        checker.check(err <= BASIS_TOL, f"fit: basis off orthonormal by {err}")
        V = plain_winsorized_basis(inputs["X"], self.d)
        # sin of the largest principal angle, accurate for tiny angles.
        sin = np.linalg.norm(B @ B.T - V @ V.T, 2)
        checker.check(sin <= BASIS_TOL, f"fit: sin(theta)={sin} to the plain-numpy fit")


WORKLOADS = {w.name: w for w in (RadiusSweep(), HighDim(), Breakdown(), CliFit())}


def reference_path(directory: str, workload: str, table: str) -> str:
    return os.path.join(directory, f"{workload}.{table}.csv")

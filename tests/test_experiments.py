import math

import numpy as np
import pytest

from winpca import experiments, subspace
from winpca import (
    PRESETS,
    PopulationModel,
    RadiusSpec,
    ResultTable,
    apply_contamination,
    fit_pc_subspace,
    format_value,
    make_rng,
    perturbation_bound,
    principal_angles,
    run_breakdown_bounds,
    run_effect_of_radius,
    run_high_dim,
    run_perturbation_sweep,
    sample_winsorized_values,
    wpca_breakdown_lower_bounds,
)


def _col(table, name):
    return [row[table.columns.index(name)] for row in table.rows]


@pytest.fixture(scope="module")
def radius_table():
    return run_effect_of_radius(scale=0.05, seed=7, n_radii=4)


@pytest.fixture(scope="module")
def highdim_table():
    return run_high_dim(scale=0.01, seed=3, replications=3)


@pytest.fixture(scope="module")
def breakdown_table():
    return run_breakdown_bounds(seed=5, replications=30, n_radii=8)


@pytest.fixture(scope="module")
def sweep_table():
    return run_perturbation_sweep(seed=5, n=200, m_max=30)


class TestFormatValue:
    def test_sentinels(self):
        assert format_value(None) == ""
        assert format_value(math.inf) == "+inf"
        assert format_value(-math.inf) == "-inf"
        assert format_value(math.nan) == "nan"

    def test_integers_stay_integral(self):
        assert format_value(3) == "3"
        assert format_value(np.int64(7)) == "7"

    def test_floats_round_trip(self):
        for x in (0.1, 1 / 3, 2.5e-17, 12345.6789):
            assert float(format_value(x)) == x

    def test_strings_pass_through(self):
        assert format_value("t3") == "t3"


class TestResultTable:
    def test_add_checks_arity(self):
        table = ResultTable(("a", "b"))
        table.add(1, 2)
        with pytest.raises(ValueError, match="expected 2"):
            table.add(1, 2, 3)

    def test_csv_layout(self):
        table = ResultTable(("x", "y"), metadata={"preset": "demo", "seed": "1"})
        table.add(1, 0.5)
        table.add(2, None)
        text = table.csv_text(timestamp=False)
        lines = text.splitlines()
        assert lines[0] == "# preset=demo"
        assert lines[1] == "# seed=1"
        assert lines[2] == "x,y"
        assert lines[3] == "1,0.5"
        assert lines[4] == "2,"

    def test_timestamp_toggle(self):
        table = ResultTable(("x",))
        assert "# timestamp=" in table.csv_text()
        assert "# timestamp=" not in table.csv_text(timestamp=False)

    def test_deterministic_without_timestamp(self):
        table = ResultTable(("x",), metadata={"k": "v"})
        table.add(1.25)
        assert table.csv_text(timestamp=False) == table.csv_text(timestamp=False)


class TestEffectOfRadius:
    def test_row_count_and_grid(self, radius_table):
        # 2 distributions x 2 contamination levels x (4 radii + 1 pca endpoint)
        assert len(radius_table.rows) == 20
        kinds = _col(radius_table, "radius_kind")
        assert kinds.count("pca") == 4
        radii = _col(radius_table, "radius")
        assert all(math.isinf(r) for k, r in zip(kinds, radii) if k == "pca")
        assert all(math.isfinite(r) for k, r in zip(kinds, radii) if k == "fixed")

    def test_losses_are_sines(self, radius_table):
        vals = np.array(_col(radius_table, "value"))
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_metadata(self, radius_table):
        md = radius_table.metadata
        assert md["preset"] == "fig1"
        assert md["seed"] == "7"
        assert md["n"] == "10"
        assert md["p"] == "100"
        assert "r_grid_gaussian" in md and "r_grid_t3" in md
        assert md["build"].startswith("winpca-")

    def test_deterministic(self, radius_table):
        again = run_effect_of_radius(scale=0.05, seed=7, n_radii=4)
        assert again.csv_text(timestamp=False) == radius_table.csv_text(timestamp=False)

    def test_jobs_do_not_change_rows(self, radius_table):
        threaded = run_effect_of_radius(scale=0.05, seed=7, n_radii=4, jobs=3)
        assert threaded.rows == radius_table.rows

    # n = 10 < p = 100 takes the thin SVD of the winsorized rows, and
    # n = p = 100 the dsyevr route.
    @pytest.mark.parametrize("scale, n_radii, solver", [
        (0.05, 30, "_thin_svd_spectrum"),
        (0.5, 6, "top_eigh"),
    ])
    def test_one_solve_per_distinct_matrix(self, monkeypatch, scale, n_radii, solver):
        # Radii that clip no row share the raw rows' matrix, radii that clip
        # every row share one solve of the unit rows' matrix, and every
        # other radius has a matrix of its own.
        # The hook sits on the reduction of each dataset of a batch.
        solves, keys, old_keys = [], [], []
        real_distinct, real_solve = subspace._distinct, getattr(subspace, solver)

        def solve(*args):
            solves.append(1)
            return real_solve(*args)

        def distinct(A, d, radii):
            norms = np.linalg.norm(A, axis=1)
            slack = radii * (1.0 + subspace.BOUNDARY_REL_TOL)
            raw = slack >= norms.max()
            low = slack < norms.min()
            keys.append(len(set(radii[~raw & ~low])) + raw.any() + low.any())
            old_keys.append(len(set(radii[~raw])) + raw.any())
            return real_distinct(A, d, radii)

        monkeypatch.setattr(subspace, solver, solve)
        monkeypatch.setattr(subspace, "_distinct", distinct)
        run_effect_of_radius(scale=scale, seed=42, n_radii=n_radii)
        assert len(solves) == sum(keys) < sum(old_keys)

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            run_effect_of_radius(scale=0.0)
        # 1e308 is finite, but its row count 200 * scale is not.
        for scale in (math.inf, math.nan, 1e308):
            with pytest.raises(ValueError, match="scale must be positive and finite"):
                run_effect_of_radius(scale=scale)


class TestHighDim:
    def test_row_count_and_shapes(self, highdim_table):
        # 4 k values x 2 distributions x 2 models x 3 radii
        assert len(highdim_table.rows) == 48
        ps = sorted(set(_col(highdim_table, "p")))
        assert ps == [10, 20, 30, 40]
        for k, p, n in zip(_col(highdim_table, "k"), _col(highdim_table, "p"), _col(highdim_table, "n")):
            assert p == 10 * k and n == 2 * k * p

    def test_radius_labels_match_values(self, highdim_table):
        for row in highdim_table.rows:
            label = row[highdim_table.columns.index("radius_label")]
            r = row[highdim_table.columns.index("radius")]
            p = row[highdim_table.columns.index("p")]
            expected = {"r_1": 1.0, "r_sqrt_p": math.sqrt(p),
                        "r_sqrt_plogp": math.sqrt(p * math.log(p))}[label]
            assert r == pytest.approx(expected)

    def test_losses_are_sines(self, highdim_table):
        vals = np.array(_col(highdim_table, "value"))
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_deterministic(self, highdim_table):
        again = run_high_dim(scale=0.01, seed=3, replications=3)
        assert again.csv_text(timestamp=False) == highdim_table.csv_text(timestamp=False)

    def test_jobs_do_not_change_rows(self, highdim_table):
        threaded = run_high_dim(scale=0.01, seed=3, replications=3, jobs=3)
        assert threaded.csv_text(timestamp=False) == highdim_table.csv_text(timestamp=False)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_high_dim(scale=0.0)
        with pytest.raises(ValueError):
            run_high_dim(scale=2.0)
        with pytest.raises(ValueError, match="at least one replication"):
            run_high_dim(scale=0.01, replications=0)

    @pytest.mark.parametrize("scale", [0.001, 0.0025])
    def test_tiny_scale_keeps_p_above_d(self, scale):
        # p = 2 = d left no coordinate for the contamination spike.
        table = run_high_dim(scale=scale, seed=3, replications=2)
        assert table.metadata["base_p"] == "3"
        assert sorted(set(_col(table, "p"))) == [3, 6, 9, 12]

    def test_fractional_replications_recorded_as_run(self):
        table = run_high_dim(scale=0.003, seed=3, replications=2.7)
        assert table.metadata["replications"] == "2"
        again = run_high_dim(scale=0.003, seed=3, replications=2)
        assert table.csv_text(timestamp=False) == again.csv_text(timestamp=False)


class TestBreakdownBounds:
    def test_layout(self, breakdown_table):
        assert len(breakdown_table.rows) == 16
        stats = _col(breakdown_table, "statistic")
        assert stats.count("weak_lb") == 8 and stats.count("strong_lb") == 8

    def test_strong_dominates_weak_at_every_radius(self, breakdown_table):
        rows = {}
        for row in breakdown_table.rows:
            r = row[breakdown_table.columns.index("radius")]
            rows.setdefault(r, {})[row[breakdown_table.columns.index("statistic")]] = \
                row[breakdown_table.columns.index("value")]
        for r, pair in rows.items():
            assert pair["strong_lb"] >= pair["weak_lb"] - 1e-12

    def test_values_capped_at_half(self, breakdown_table):
        vals = np.array(_col(breakdown_table, "value"))
        assert np.all((vals >= 0.0) & (vals <= 0.5))

    def test_weak_bound_decays_with_radius(self, breakdown_table):
        # a larger radius dilutes the gap-to-r^2 ratio; allow noise slack
        weak = [(row[0], row[2], row[3]) for row in breakdown_table.rows if row[1] == "weak_lb"]
        weak.sort()
        for (r0, v0, s0), (r1, v1, s1) in zip(weak, weak[1:]):
            assert v1 <= v0 + 3.0 * math.hypot(s0, s1) + 1e-12

    def test_deterministic(self, breakdown_table):
        again = run_breakdown_bounds(seed=5, replications=30, n_radii=8)
        assert again.csv_text(timestamp=False) == breakdown_table.csv_text(timestamp=False)

    def test_jobs_do_not_change_rows(self, breakdown_table):
        threaded = run_breakdown_bounds(seed=5, replications=30, n_radii=8, jobs=3)
        assert threaded.csv_text(timestamp=False) == breakdown_table.csv_text(timestamp=False)

    def test_single_replication_has_nan_se(self):
        table = run_breakdown_bounds(seed=5, replications=1, n_radii=3)
        assert np.all(np.isnan(_col(table, "std_error")))
        assert np.all(np.isfinite(_col(table, "value")))
        with pytest.raises(ValueError, match="at least one replication"):
            run_breakdown_bounds(replications=0)

    def test_equals_per_spectrum_bounds(self):
        # The same table through one breakdown-bound call per radius.
        table = run_breakdown_bounds(seed=9, replications=4, n_radii=6)
        grid = [row[0] for row in table.rows[::2]]
        model = PopulationModel.gaussian(np.array([25.0, 25.0, 5.0, 1.0]))
        stack = np.array([
            [wpca_breakdown_lower_bounds(v, r, 2)
             for v, r in zip(sample_winsorized_values(
                 model.draw(1000, make_rng(9, (rep,))), grid), grid)]
            for rep in range(4)])
        mean = stack.mean(axis=0)
        se = stack.std(axis=0, ddof=1) / 2.0
        want = []
        for ri, r in enumerate(grid):
            want.append((r, "weak_lb", mean[ri, 0], se[ri, 0]))
            want.append((r, "strong_lb", mean[ri, 1], se[ri, 1]))
        assert table.rows == want


class TestPerturbationSweep:
    def test_layout(self, sweep_table):
        assert len(sweep_table.rows) == 31
        assert _col(sweep_table, "m") == list(range(31))
        eps = _col(sweep_table, "epsilon")
        assert eps[10] == pytest.approx(0.05)

    def test_clean_row_is_exactly_zero(self, sweep_table):
        row = sweep_table.rows[0]
        assert row[sweep_table.columns.index("observed_angle")] == 0.0
        assert row[sweep_table.columns.index("observed_sin")] == 0.0
        assert row[sweep_table.columns.index("bound1")] == 0.0

    def test_observed_never_exceeds_first_bound(self, sweep_table):
        for sin, b1 in zip(_col(sweep_table, "observed_sin"), _col(sweep_table, "bound1")):
            assert sin <= b1 + 1e-9

    def test_min_bound_is_smallest_available(self, sweep_table):
        for row in sweep_table.rows:
            b1 = row[sweep_table.columns.index("bound1")]
            b2 = row[sweep_table.columns.index("bound2")]
            mb = row[sweep_table.columns.index("min_bound")]
            candidates = [b1] if b2 is None else [b1, b2]
            assert mb == min(candidates)

    def test_sharper_bound_blank_once_gap_condition_fails(self, sweep_table):
        b2 = _col(sweep_table, "bound2")
        assert b2[0] is not None
        assert any(v is None for v in b2)
        # once invalid it stays invalid: eps only grows with m
        first_none = b2.index(None)
        assert all(v is None for v in b2[first_none:])
        text = sweep_table.csv_text(timestamp=False)
        tail_line = text.splitlines()[-1].split(",")
        assert tail_line[sweep_table.columns.index("bound2")] == ""

    def test_weak_lb_constant_marker(self, sweep_table):
        weak = set(_col(sweep_table, "weak_lb"))
        assert len(weak) == 1
        assert sweep_table.metadata["weak_lb"] == format_value(weak.pop())

    def test_equals_one_fit_per_level(self, sweep_table):
        # The batched solve and angle pass give, bit for bit, the table of one
        # fit_pc_subspace and one principal_angles call per contamination level.
        X0 = PopulationModel.gaussian(np.array([25.0, 1.0])).draw(200, make_rng(5))
        r = float(np.median(np.linalg.norm(X0, axis=1)))
        assert sweep_table.metadata["radius"] == format_value(r)
        outlier = np.array([0.0, float(sweep_table.metadata["outlier"])])
        fit0 = fit_pc_subspace(X0, 1, RadiusSpec.fixed(r))
        vals = fit0.spectrum.eigenvalues
        for row in sweep_table.rows:
            m = row[0]
            fit = fit_pc_subspace(apply_contamination(X0, m, outlier), 1, RadiusSpec.fixed(r))
            report = principal_angles(fit.subspace, fit0.subspace)
            bd = perturbation_bound(vals[0], vals[1], r, m / 200)
            assert row[2:6] == (report.largest, report.sin_largest,
                                bd.components["bound1"], bd.components.get("bound2"))

    def test_deterministic(self, sweep_table):
        again = run_perturbation_sweep(seed=5, n=200, m_max=30)
        assert again.csv_text(timestamp=False) == sweep_table.csv_text(timestamp=False)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_perturbation_sweep(n=2)
        with pytest.raises(ValueError):
            run_perturbation_sweep(n=100, m_max=50)


@pytest.mark.parametrize("run, kwargs", [
    (run_effect_of_radius, {"scale": 1e300}),
    (run_effect_of_radius, {"scale": 1e4}),
    (run_high_dim, {"scale": 1.0, "replications": 10**6}),
    (run_breakdown_bounds, {"replications": 10**12}),
    (run_perturbation_sweep, {"n": 10**7}),
])
def test_absurd_sizes_refused_before_drawing(monkeypatch, run, kwargs):
    def no_draws(*args, **kw):
        raise AssertionError("a run too large to finish started drawing")

    monkeypatch.setattr(experiments, "make_rng", no_draws)
    with pytest.raises(ValueError, match="too large"):
        run(**kwargs)


@pytest.mark.parametrize("run", [run_effect_of_radius, run_breakdown_bounds])
@pytest.mark.parametrize("n_radii", [0, -2])
def test_empty_radius_grid_raises_value_error(run, n_radii):
    with pytest.raises(ValueError, match="n_radii must be at least 1"):
        run(n_radii=n_radii)


@pytest.mark.parametrize("run, kwargs", [
    (run_effect_of_radius, {"scale": 0.05}),
    (run_breakdown_bounds, {"replications": 3}),
])
def test_float_radius_count_reads_as_its_integer(run, kwargs):
    as_float = run(seed=7, n_radii=4.0, **kwargs).csv_text(timestamp=False)
    assert as_float == run(seed=7, n_radii=4, **kwargs).csv_text(timestamp=False)


class TestPresetRegistry:
    def test_all_presets_registered(self):
        assert set(PRESETS) == {"fig1", "fig2", "fig3", "fig4"}
        assert PRESETS["fig3"] is run_breakdown_bounds

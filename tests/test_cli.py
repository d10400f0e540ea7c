import inspect
import math
import os
import stat

import numpy as np
import pytest

from winpca import PopulationModel, make_rng, principal_angles
from winpca.cli import main, parse_radius, read_matrix_csv
from winpca.experiments import PRESETS, ResultTable


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def meta_of(text):
    pairs = {}
    for line in text.splitlines():
        if line.startswith("# ") and "=" in line:
            key, val = line[2:].split("=", 1)
            pairs[key] = val
    return pairs


def quantities_of(text):
    lines = text.splitlines()
    start = lines.index("quantity,value") + 1
    out = {}
    for line in lines[start:]:
        name, val = line.split(",", 1)
        out[name] = val
    return out


@pytest.fixture
def unit_square(tmp_path):
    path = tmp_path / "square.csv"
    path.write_text("x,y\n1,0\n0,1\n")
    return str(path)


@pytest.fixture
def spiked_data(tmp_path):
    X = PopulationModel.gaussian([25.0, 1.0]).draw(500, make_rng(3))
    path = tmp_path / "data.csv"
    path.write_text("\n".join(",".join(map(str, row)) for row in X) + "\n")
    return str(path)


class TestParseRadius:
    def test_kinds(self):
        assert parse_radius("none").kind == "none"
        assert parse_radius("spherical").kind == "spherical"
        assert parse_radius("median").kind == "median_norm"
        spec = parse_radius("fixed:2.5")
        assert (spec.kind, spec.value) == ("fixed", 2.5)
        spec = parse_radius("power:-0.25")
        assert (spec.kind, spec.value) == ("power_law", -0.25)

    def test_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown radius"):
            parse_radius("big")


class TestReadMatrixCsv:
    def test_header_and_comments_skipped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# generated\na,b\n\n1,2\n3,4\n")
        assert np.array_equal(read_matrix_csv(str(path)),
                              [[1.0, 2.0], [3.0, 4.0]])

    def test_headerless(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4\n")
        assert read_matrix_csv(str(path)).shape == (2, 2)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="no data rows"):
            read_matrix_csv(str(path))

    def test_header_only(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n")
        with pytest.raises(ValueError, match="no data rows"):
            read_matrix_csv(str(path))

    def test_ragged(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ValueError, match="ragged"):
            read_matrix_csv(str(path))

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(ValueError, match="row 2"):
            read_matrix_csv(str(path))


class TestFit:
    def test_degenerate_square(self, capsys, unit_square):
        code, out, err = run_cli(capsys, "fit", unit_square, "--d", "1")
        assert code == 0
        md = meta_of(out)
        assert md["eigenvalues"] == "0.5,0.5"
        assert md["mode"] == "winsorize"
        assert md["degenerate_gap"] == "true"
        assert "warning" in md
        assert "not unique" in err
        lines = out.splitlines()
        assert "basis_1" in lines
        assert len(lines[lines.index("basis_1") + 1:]) == 2

    def test_recovers_leading_axis(self, capsys, spiked_data, tmp_path):
        out_path = tmp_path / "basis.csv"
        code, _, err = run_cli(capsys, "fit", spiked_data, "--d", "1",
                               "--radius", "median", "--out", str(out_path))
        assert code == 0
        basis = read_matrix_csv(str(out_path))
        angle = principal_angles(basis, np.array([[1.0], [0.0]])).largest
        assert angle < 0.15

    def test_center_flag_changes_metadata_and_data(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("10,0\n12,1\n14,-1\n12,0\n")
        code, out, _ = run_cli(capsys, "fit", str(path), "--d", "1",
                               "--radius", "none", "--center")
        assert code == 0
        md = meta_of(out)
        assert md["center"] == "true"
        # centering removes the mean offset, so the top eigenvalue is small
        assert float(md["eigenvalues"].split(",")[0]) < 5.0

    def test_d_out_of_range(self, capsys, unit_square):
        code, _, err = run_cli(capsys, "fit", unit_square, "--d", "2")
        assert code == 2 and "error:" in err
        code, _, err = run_cli(capsys, "fit", unit_square, "--d", "0")
        assert code == 2 and "error:" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "fit", str(tmp_path / "nope.csv"), "--d", "1")
        assert code == 2 and "error:" in err

    def test_bad_radius(self, capsys, unit_square):
        code, _, err = run_cli(capsys, "fit", unit_square, "--d", "1",
                               "--radius", "huge")
        assert code == 2 and "unknown radius" in err

    def test_stdout_matches_file_output(self, capsys, unit_square, tmp_path):
        code, out, _ = run_cli(capsys, "fit", unit_square, "--d", "1")
        out_path = tmp_path / "fit.csv"
        code2, stdout2, _ = run_cli(capsys, "fit", unit_square, "--d", "1",
                                    "--out", str(out_path))
        assert code == code2 == 0
        assert stdout2 == ""
        assert out_path.read_text() == out


class TestAngles:
    def _write_basis(self, tmp_path, name, cols):
        path = tmp_path / name
        path.write_text("\n".join(",".join(map(str, row)) for row in cols) + "\n")
        return str(path)

    def test_identical_bases(self, capsys, tmp_path):
        a = self._write_basis(tmp_path, "a.csv", [[1.0], [0.0]])
        code, out, _ = run_cli(capsys, "angles", a, a)
        assert code == 0
        md = meta_of(out)
        assert md["largest"] == "0"
        assert md["sin_largest"] == "0"
        assert out.splitlines()[-1] == "1,0"

    def test_forty_five_degrees(self, capsys, tmp_path):
        a = self._write_basis(tmp_path, "a.csv", [[1.0], [0.0]])
        s = 1.0 / math.sqrt(2.0)
        b = self._write_basis(tmp_path, "b.csv", [[s], [s]])
        code, out, _ = run_cli(capsys, "angles", a, b)
        assert code == 0
        assert float(meta_of(out)["largest"]) == pytest.approx(math.pi / 4, abs=1e-6)

    def test_two_dimensional_pair(self, capsys, tmp_path):
        a = self._write_basis(tmp_path, "a.csv",
                              [[1, 0], [0, 1], [0, 0], [0, 0]])
        b = self._write_basis(tmp_path, "b.csv",
                              [[1, 0], [0, 0], [0, 1], [0, 0]])
        code, out, _ = run_cli(capsys, "angles", a, b)
        assert code == 0
        rows = [l.split(",") for l in out.splitlines()[-2:]]
        assert float(rows[0][1]) == pytest.approx(0.0, abs=1e-12)
        assert float(rows[1][1]) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_shape_mismatch(self, capsys, tmp_path):
        a = self._write_basis(tmp_path, "a.csv", [[1.0], [0.0]])
        b = self._write_basis(tmp_path, "b.csv", [[1.0], [0.0], [0.0]])
        code, _, err = run_cli(capsys, "angles", a, b)
        assert code == 2 and "shapes differ" in err

    def test_non_orthonormal_input_rescued(self, capsys, tmp_path):
        a = self._write_basis(tmp_path, "a.csv", [[2.0], [0.0]])
        b = self._write_basis(tmp_path, "b.csv", [[0.0], [1.0]])
        code, out, err = run_cli(capsys, "angles", a, b)
        assert code == 0
        assert "re-orthonormalizing" in err
        assert float(meta_of(out)["largest"]) == pytest.approx(math.pi / 2)

    def test_basis_off_by_1e_7_rescued(self, capsys, tmp_path):
        # The CLI shares the package's 1e-8 orthonormality tolerance.
        a = self._write_basis(tmp_path, "a.csv", [[1.0 + 1e-7], [0.0]])
        b = self._write_basis(tmp_path, "b.csv", [[1.0], [0.0]])
        code, out, err = run_cli(capsys, "angles", a, b)
        assert code == 0
        assert "within 1e-08; re-orthonormalizing" in err
        assert float(meta_of(out)["largest"]) == 0.0

    def test_round_trip_with_fit(self, capsys, spiked_data, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run_cli(capsys, "fit", spiked_data, "--d", "1",
                                 "--out", str(path))
            assert code == 0
        code, out, err = run_cli(capsys, "angles", str(a), str(b))
        assert code == 0
        assert err == ""
        assert float(meta_of(out)["largest"]) == 0.0


class TestBounds:
    def test_perturbation_hand_values(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "perturbation",
                               "--gap", "1.0", "--eps", "0.1")
        assert code == 0
        q = quantities_of(out)
        assert float(q["bound1"]) == pytest.approx(0.2)
        assert float(q["bound2"]) == pytest.approx(0.125)
        assert float(q["min_bound"]) == pytest.approx(0.125)

    def test_perturbation_zero_gap(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "perturbation",
                               "--gap", "0", "--eps", "0.1")
        assert code == 0
        q = quantities_of(out)
        assert q["bound1"] == "+inf"
        assert q["bound2"] == ""
        assert q["min_bound"] == "+inf"

    def test_perturbation_validation(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "perturbation",
                               "--gap", "-1", "--eps", "0.1")
        assert code == 2 and "error:" in err
        code, _, err = run_cli(capsys, "bounds", "perturbation",
                               "--gap", "1", "--eps", "0.6")
        assert code == 2 and "error:" in err

    def test_breakdown_hand_values(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "breakdown",
                               "--eigs", "3,2,1,0.5", "--r2", "4", "--d", "2")
        assert code == 0
        q = quantities_of(out)
        assert float(q["weak_lb"]) == pytest.approx(0.125)
        assert float(q["strong_lb"]) == pytest.approx(0.25)

    def test_breakdown_rejects_ascending(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "breakdown",
                               "--eigs", "1,2", "--r2", "4", "--d", "1")
        assert code == 2 and "error:" in err

    def test_concentration_elliptical(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "concentration", "--lam1", "1", "--lamp", "1",
            "--weigs", "0.75,0.25", "--r", "1", "--d", "1", "--eps", "0.1",
            "--n", "100", "--p", "100")
        assert code == 0
        assert meta_of(out)["family"] == "elliptical"
        q = quantities_of(out)
        assert float(q["value"]) == pytest.approx(5.52)
        assert float(q["contamination"]) == pytest.approx(0.4)
        assert float(q["sampling"]) == pytest.approx(5.12)
        assert float(q["clipped"]) == 1.0

    def test_concentration_subgaussian(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "concentration", "--lam1", "1", "--lamp", "1",
            "--weigs", "0.75,0.25", "--r", "1", "--d", "1", "--eps", "0.1",
            "--n", "100", "--p", "100", "--sigma", "0.05")
        assert code == 0
        assert meta_of(out)["family"] == "subgaussian"
        assert float(quantities_of(out)["value"]) == pytest.approx(1.68)

    def test_concentration_accepts_unsorted_weigs(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "concentration", "--lam1", "1", "--lamp", "1",
            "--weigs", "0.25,0.75", "--r", "1", "--d", "1", "--eps", "0.1",
            "--n", "100", "--p", "100")
        assert code == 0
        assert float(quantities_of(out)["value"]) == pytest.approx(5.52)

    def test_rate(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "rate", "--beta", "-0.5",
                               "--p", "100", "--n", "400")
        assert code == 0
        q = quantities_of(out)
        assert float(q["contamination_term"]) == 0.0
        assert float(q["sampling_term"]) == 0.5

    def test_rate_subgaussian_flag(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "rate", "--beta", "1",
                               "--p", "10", "--n", "1000", "--eps", "0.1",
                               "--subgaussian")
        assert code == 0
        q = quantities_of(out)
        assert float(q["contamination_term"]) == pytest.approx(100.0)
        assert float(q["sampling_term"]) == pytest.approx(0.1)


def _fake_preset(real, calls, **defaults):
    """A stand-in for a preset with the same parameters but other defaults.

    It records the arguments of each call, defaults applied.
    """
    sig = inspect.signature(real)
    sig = sig.replace(parameters=[
        prm.replace(default=defaults.get(name, prm.default))
        for name, prm in sig.parameters.items()])

    def fake(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(dict(bound.arguments))
        return ResultTable(("x",))

    fake.__signature__ = sig
    return fake


def _strip_timestamp(text):
    return "\n".join(l for l in text.splitlines() if not l.startswith("# timestamp="))


class TestExperiment:
    def test_fig3_reproducible(self, capsys):
        code, first, _ = run_cli(capsys, "experiment", "fig3",
                                 "--replications", "5")
        code2, second, _ = run_cli(capsys, "experiment", "fig3",
                                   "--replications", "5")
        assert code == code2 == 0
        assert "# timestamp=" in first
        assert _strip_timestamp(first) == _strip_timestamp(second)
        assert meta_of(first)["preset"] == "fig3"

    def test_fig3_scale_sets_replications(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "fig3", "--scale", "0.002")
        assert code == 0
        assert meta_of(out)["replications"] == "2"

    def test_fig4_ignores_scale_with_note(self, capsys):
        code, out, err = run_cli(capsys, "experiment", "fig4", "--scale", "0.5")
        assert code == 0
        assert "ignored" in err
        assert meta_of(out)["preset"] == "fig4"

    def test_fig4_ignores_jobs_with_note(self, capsys):
        code, out, err = run_cli(capsys, "experiment", "fig4", "--jobs", "2")
        assert code == 0
        assert "fig4 takes no --jobs; ignored" in err
        assert meta_of(out)["preset"] == "fig4"

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_runs_each_preset_with_its_own_defaults(self, capsys, monkeypatch, preset):
        calls = []
        fake = _fake_preset(PRESETS[preset], calls, scale=0.125, replications=8)
        monkeypatch.setitem(PRESETS, preset, fake)
        code, _, _ = run_cli(capsys, "experiment", preset)
        assert code == 0
        defaults = {name: prm.default
                    for name, prm in inspect.signature(fake).parameters.items()}
        assert calls == [defaults]

    def test_fig3_scale_multiplies_the_preset_replications(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setitem(PRESETS, "fig3",
                            _fake_preset(PRESETS["fig3"], calls, replications=8))
        code, _, _ = run_cli(capsys, "experiment", "fig3", "--scale", "0.5")
        assert code == 0
        assert calls[0]["replications"] == 4

    @pytest.mark.parametrize("preset, flags", [
        ("fig2", ("--replications", "0")),
        ("fig3", ("--replications", "0")),
        ("fig3", ("--replications", "-2")),
        ("fig3", ("--scale", "0")),
        ("fig3", ("--scale", "-1")),
        ("fig3", ("--scale", "nan")),
        ("fig1", ("--scale", "0")),
        ("fig4", ("--replications", "0")),
        ("fig1", ("--jobs", "0")),
        ("fig1", ("--jobs", "-3")),
        ("fig3", ("--jobs", "0")),
        ("fig1", ("--scale", "inf")),
        ("fig3", ("--scale", "1e308")),
        ("fig3", ("--scale", "inf")),
    ])
    def test_rejects_non_positive_sizes(self, capsys, monkeypatch, preset, flags):
        calls = []
        monkeypatch.setitem(PRESETS, preset, _fake_preset(PRESETS[preset], calls))
        code, _, err = run_cli(capsys, "experiment", preset, *flags)
        assert code == 2
        assert calls == []
        assert f"{flags[0]} must be" in err

    def test_unknown_preset(self, capsys):
        code, _, err = run_cli(capsys, "experiment", "fig9")
        assert code == 2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "fig3.csv"
        code, out, _ = run_cli(capsys, "experiment", "fig3",
                               "--replications", "2", "--out", str(target))
        assert code == 0 and out == ""
        assert "radius,statistic,value,std_error" in target.read_text()


class TestOutputRouting:
    def test_out_dir_env_resolves_relative_paths(self, capsys, tmp_path,
                                                 monkeypatch, unit_square):
        monkeypatch.setenv("WINPCA_OUT_DIR", str(tmp_path))
        code, _, _ = run_cli(capsys, "fit", unit_square, "--d", "1",
                             "--out", os.path.join("sub", "basis.csv"))
        assert code == 0
        assert (tmp_path / "sub" / "basis.csv").exists()

    def test_absolute_out_ignores_env(self, capsys, tmp_path, monkeypatch,
                                      unit_square):
        monkeypatch.setenv("WINPCA_OUT_DIR", str(tmp_path / "elsewhere"))
        target = tmp_path / "direct.csv"
        code, _, _ = run_cli(capsys, "fit", unit_square, "--d", "1",
                             "--out", str(target))
        assert code == 0
        assert target.exists()
        assert not (tmp_path / "elsewhere").exists()

    def test_no_stray_temp_files(self, capsys, tmp_path, unit_square):
        target = tmp_path / "results" / "basis.csv"
        run_cli(capsys, "fit", unit_square, "--d", "1", "--out", str(target))
        assert [p.name for p in target.parent.iterdir()] == ["basis.csv"]

    @pytest.mark.parametrize("umask", [0o022, 0o002, 0o077],
                             ids=["022", "002", "077"])
    def test_out_file_mode_follows_umask(self, capsys, tmp_path, unit_square, umask):
        # The atomic write goes through a private temp file; the result gets
        # the mode a plain open() would give it.
        target = tmp_path / "basis.csv"
        old = os.umask(umask)
        try:
            code, _, _ = run_cli(capsys, "fit", unit_square, "--d", "1",
                                 "--out", str(target))
        finally:
            os.umask(old)
        assert code == 0
        assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask


class TestConfigFile:
    def test_fit_section_preloads_flags(self, capsys, tmp_path, unit_square):
        cfg = tmp_path / "winpca.ini"
        cfg.write_text("[fit]\nradius = fixed:2.5\ncenter = true\n")
        code, out, _ = run_cli(capsys, "fit", unit_square, "--d", "1",
                               "--config", str(cfg))
        assert code == 0
        md = meta_of(out)
        assert md["radius"] == "fixed:2.5"
        assert md["center"] == "true"

    def test_explicit_flag_wins_over_config(self, capsys, tmp_path, unit_square):
        cfg = tmp_path / "winpca.ini"
        cfg.write_text("[fit]\nradius = fixed:2.5\n")
        code, out, _ = run_cli(capsys, "fit", unit_square, "--d", "1",
                               "--config", str(cfg), "--radius", "none")
        assert code == 0
        assert meta_of(out)["radius"] == "none"

    def test_false_bool_key_stays_off(self, capsys, tmp_path, unit_square):
        cfg = tmp_path / "winpca.ini"
        cfg.write_text("[fit]\ncenter = false\n")
        code, out, _ = run_cli(capsys, "fit", unit_square, "--d", "1",
                               "--config", str(cfg))
        assert code == 0
        assert meta_of(out)["center"] == "false"

    def test_bounds_subcommand_section(self, capsys, tmp_path):
        cfg = tmp_path / "winpca.ini"
        cfg.write_text("[bounds.breakdown]\neigs = 3,2,1,0.5\nr2 = 4\nd = 2\n")
        code, out, _ = run_cli(capsys, "bounds", "breakdown", "--config", str(cfg))
        assert code == 0
        assert float(quantities_of(out)["weak_lb"]) == pytest.approx(0.125)

    def test_config_equals_form(self, capsys, tmp_path, unit_square):
        cfg = tmp_path / "winpca.ini"
        cfg.write_text("[fit]\nradius = fixed:2.5\n")
        code, out, _ = run_cli(capsys, "fit", unit_square, "--d", "1",
                               f"--config={cfg}")
        assert code == 0
        assert meta_of(out)["radius"] == "fixed:2.5"

    def test_missing_config_file(self, capsys, tmp_path, unit_square):
        code, _, err = run_cli(capsys, "fit", unit_square, "--d", "1",
                               "--config", str(tmp_path / "nope.ini"))
        assert code == 2 and "error:" in err

    def test_second_config_is_rejected(self, capsys, tmp_path):
        first, second = tmp_path / "a.ini", tmp_path / "b.ini"
        first.write_text("[bounds.breakdown]\nr2 = 4\n")
        second.write_text("[bounds.breakdown]\nr2 = 9\n")
        code, out, err = run_cli(capsys, "bounds", "breakdown", "--eigs", "3,2,1,0.5",
                                 "--d", "2", "--config", str(first),
                                 "--config", str(second))
        assert code == 2 and out == ""
        assert "--config" in err

    def test_unrelated_section_is_ignored(self, capsys, tmp_path, unit_square):
        cfg = tmp_path / "winpca.ini"
        cfg.write_text("[experiment]\nseed = 7\n")
        code, out, _ = run_cli(capsys, "fit", unit_square, "--d", "1",
                               "--config", str(cfg))
        assert code == 0
        assert meta_of(out)["radius"] == "median"


class TestTopLevel:
    def test_version(self, capsys):
        code, out, _ = run_cli(capsys, "--version")
        assert code == 0
        assert out.startswith("winpca ")

    def test_no_command(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 2

    def test_unknown_flag(self, capsys, unit_square):
        code, _, err = run_cli(capsys, "fit", unit_square, "--d", "1", "--nope")
        assert code == 2

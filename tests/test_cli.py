import inspect
import math
import os
import stat

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from winpca import PopulationModel, cli, experiments, make_rng, principal_angles
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

    @pytest.mark.parametrize("text", ["1,\n3,4\n", "0x10,2\n3,4\n"])
    def test_first_row_with_one_bad_cell_is_data(self, tmp_path, text):
        # Only a row with no numeric cell is a header; a mixed row is data.
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="non-numeric cell in row 1"):
            read_matrix_csv(str(path))

    def test_utf8_bom_keeps_first_row(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"\xef\xbb\xbf1,2\n3,4\n")
        assert read_matrix_csv(str(path)).tolist() == [[1.0, 2.0], [3.0, 4.0]]

    @pytest.mark.parametrize("text, message", [
        ("# c\n\n1,2\n3\n", "ragged CSV, row 4 has 1 cells, expected 2"),
        ("# c\n\n1,2\n3,x\n", "non-numeric cell in row 4"),
        ('1,2\n"3\n",x\n', "non-numeric cell in row 3"),
        # The '#' line inside a quoted cell is cell text, not a comment.
        ('1,2\n"3\n#x\n",4\n', "non-numeric cell in row 4"),
        # A quoted '#' cell is data: only the raw line decides a comment.
        ('1,2\n"#x",3\n4,5\n', "non-numeric cell in row 2"),
    ])
    def test_errors_name_the_file_line(self, tmp_path, text, message):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            read_matrix_csv(str(path))

    def test_cell_over_the_csv_field_limit_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n1," + "x" * 200_000 + "\n")
        with pytest.raises(ValueError, match="row 2"):
            read_matrix_csv(str(path))
        code, _, err = run_cli(capsys, "fit", str(path), "--d", "1")
        assert code == 2
        assert err.startswith("error:") and "field larger than field limit" in err

    @pytest.mark.parametrize("text, expected, fast", [
        ('"x","y"\n"1",2\n3,"4"\n', [[1.0, 2.0], [3.0, 4.0]], True),
        ("a,b\r\n1,2\r\n3,4\r\n", [[1.0, 2.0], [3.0, 4.0]], True),
        ("1,2\n3,4", [[1.0, 2.0], [3.0, 4.0]], True),
        (" 1 ,\t2\t\n\t3,  4 \n", [[1.0, 2.0], [3.0, 4.0]], True),
        ("x\n1\n2\n3\n", [[1.0], [2.0], [3.0]], True),
        ("a,b,c\n1,2,3\n", [[1.0, 2.0, 3.0]], True),
        ("  # indented comment\n1,2\n", [[1.0, 2.0]], True),
        # Forms numpy's reader rejects, which the record loop reads.
        ("1_000,2\n3,4_5\n", [[1000.0, 2.0], [3.0, 45.0]], False),
        ("1,2\n,,\n3,4\n", [[1.0, 2.0], [3.0, 4.0]], False),
        ('1,"2\n"\n', [[1.0, 2.0]], False),
    ], ids=["quoted", "crlf", "no-final-newline", "whitespace", "one-column",
            "one-row", "indented-comment", "underscores", "blank-cells-line",
            "cell-spans-lines"])
    def test_accepted_forms(self, tmp_path, text, expected, fast):
        path = tmp_path / "m.csv"
        path.write_text(text, newline="")
        X = read_matrix_csv(str(path))
        assert X.shape == np.shape(expected)
        assert X.tolist() == expected
        with open(path, newline="", encoding="utf-8-sig") as fh:
            if fast:
                assert cli._read_fast(fh).tolist() == expected
            else:
                with pytest.raises(ValueError):
                    cli._read_fast(fh)

    @staticmethod
    def _read_pipe(data: bytes) -> np.ndarray:
        r, w = os.pipe()
        os.write(w, data)
        os.close(w)
        try:
            return read_matrix_csv(f"/dev/fd/{r}")
        finally:
            os.close(r)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_input_reads_through_the_record_loop(self):
        # A pipe cannot be re-read, so it skips the fast route.
        assert self._read_pipe(b"a,b\n1_000,2\n").tolist() == [[1000.0, 2.0]]

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_input_keeps_a_quoted_hash_row(self):
        with pytest.raises(ValueError, match="non-numeric cell in row 2"):
            self._read_pipe(b'1,2\n"#x",3\n4,5\n')

    def test_infinities_and_nan(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("inf,-Infinity,nan\n1,2,-nan\n")
        X = read_matrix_csv(str(path))
        assert X[0, 0] == math.inf and X[0, 1] == -math.inf
        assert np.isnan(X[0, 2]) and np.isnan(X[1, 2])
        # The sign bit of "-nan" survives, as with float().
        assert np.signbit(X[1, 2]) and not np.signbit(X[0, 2])

    def test_header_only_has_no_data_rows(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# c\na,b\n\n")
        with pytest.raises(ValueError, match="header present but no data rows"):
            read_matrix_csv(str(path))

    @pytest.mark.parametrize("text", ["1,2#x\n3,4\n", "1,2\n3,4 # x\n"])
    def test_mid_line_hash_is_not_a_comment(self, tmp_path, text):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="non-numeric cell"):
            read_matrix_csv(str(path))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 5),
           st.booleans())
    def test_fast_route_matches_record_loop(self, tmp_path_factory, seed, n, p, header):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, p)) * 10.0 ** rng.integers(-300, 300, (n, p))
        path = tmp_path_factory.mktemp("csv") / "m.csv"
        np.savetxt(path, X, fmt="%.17g", delimiter=",", comments="",
                   header=",".join(f"x{j}" for j in range(p)) if header else "")
        with open(path, newline="", encoding="utf-8-sig") as fh:
            fast = cli._read_fast(fh)
        with open(path, newline="", encoding="utf-8-sig") as fh:
            loop = cli._read_records(fh, str(path))
        assert fast.shape == loop.shape == (n, p)
        assert fast.tobytes() == loop.tobytes() == X.tobytes()


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

    def test_median_radius_of_huge_rows_reports_the_overflow(self, capsys, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("1e308,1\n1e308,2\n")
        code, _, err = run_cli(capsys, "fit", str(path), "--d", "1")
        assert code == 2 and "second moments overflow float64" in err

    def test_spherical_radius_names_a_zero_row(self, capsys, tmp_path):
        path = tmp_path / "zero.csv"
        path.write_text("1,0\n0,0\n3,4\n")
        code, out, err = run_cli(capsys, "fit", str(path), "--d", "1",
                                 "--radius", "spherical")
        assert (code, out) == (2, "")
        assert "cannot spherize zero rows at indices [1]" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "fit", str(tmp_path / "nope.csv"), "--d", "1")
        assert code == 2 and "error:" in err

    def test_bad_radius(self, capsys, unit_square):
        code, _, err = run_cli(capsys, "fit", unit_square, "--d", "1",
                               "--radius", "huge")
        assert code == 2 and "unknown radius" in err

    @pytest.mark.parametrize("beta", ["1e308", "-1e308"])
    def test_power_radius_outside_float_range(self, capsys, unit_square, beta):
        code, out, err = run_cli(capsys, "fit", unit_square, "--d", "1",
                                 "--radius", f"power:{beta}")
        assert (code, out) == (2, "")
        assert f"p=2, beta={float(beta)}" in err and "finite and positive" in err

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

    @pytest.mark.parametrize("a_cols, b_cols", [
        ([[1, 0], [0, 0], [0, 0]], [[1, 0], [0, 1], [0, 0]]),
        ([[1, 0], [0, 0], [0, 0]], [[1, 0], [0, 0], [0, 1]]),
        ([[1, 2], [2, 4], [3, 6]], [[1, 0], [0, 1], [0, 0]]),
        ([[0.0], [0.0]], [[1.0], [0.0]]),
        ([[1, 0, 0], [0, 1, 0]], [[1, 0, 0], [0, 1, 0]]),  # wide: d > p
    ], ids=["zero-column", "zero-column-other-b", "parallel-columns", "zero-basis", "wide"])
    def test_rank_deficient_basis_rejected(self, capsys, tmp_path, a_cols, b_cols):
        # QR would complete the basis with an arbitrary direction; refuse it.
        a = self._write_basis(tmp_path, "a.csv", a_cols)
        b = self._write_basis(tmp_path, "b.csv", b_cols)
        assert run_cli(capsys, "angles", a, b) == (
            2, "", f"error: {a}: basis columns are linearly dependent\n")

    def test_non_finite_basis_rejected_before_rescue(self, capsys, tmp_path):
        a = self._write_basis(tmp_path, "a.csv", [[1.0], [0.0]])
        b = self._write_basis(tmp_path, "b.csv", [[float("nan")], [1.0]])
        code, _, err = run_cli(capsys, "angles", a, b)
        assert code == 2
        assert err == f"error: {b}: basis must be finite\n"

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

    @pytest.mark.parametrize("gap", ["nan", "inf"])
    def test_perturbation_rejects_non_finite_gap(self, capsys, gap):
        code, out, err = run_cli(capsys, "bounds", "perturbation",
                                 "--gap", gap, "--eps", "0.1")
        assert (code, out) == (2, "")
        assert err.startswith("error: need finite lam_d_r >= lam_d1_r >= 0")

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

    @pytest.mark.parametrize("beta", ["nan", "inf"])
    def test_rate_rejects_non_finite_beta(self, capsys, beta):
        code, out, err = run_cli(capsys, "bounds", "rate", "--beta", beta,
                                 "--p", "10", "--n", "1000")
        assert (code, out) == (2, "")
        assert err == f"error: power-law exponent must be finite, got {beta}\n"

    @pytest.mark.parametrize("beta", ["1e308", "200"])
    def test_rate_rejects_overflowing_exponent(self, capsys, beta):
        code, out, err = run_cli(capsys, "bounds", "rate", "--beta", beta,
                                 "--p", "10", "--n", "100")
        assert (code, out) == (2, "")
        assert err == (f"error: p**(1 + 2 beta) overflows float64 for p=10, "
                       f"beta={float(beta)}\n")

    @pytest.mark.parametrize("lam1", ["inf", "nan"])
    def test_concentration_rejects_non_finite_lam1(self, capsys, lam1):
        code, out, err = run_cli(
            capsys, "bounds", "concentration", "--lam1", lam1, "--lamp", "1",
            "--weigs", "0.75,0.25", "--r", "1", "--d", "1", "--eps", "0.1",
            "--n", "100", "--p", "100")
        assert (code, out) == (2, "")
        assert err == f"error: need finite lam1 >= lamp > 0, got {lam1}, 1.0\n"

    def test_rate_subgaussian_flag(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "rate", "--beta", "1",
                               "--p", "10", "--n", "1000", "--eps", "0.1",
                               "--subgaussian")
        assert code == 0
        q = quantities_of(out)
        assert float(q["contamination_term"]) == pytest.approx(100.0)
        assert float(q["sampling_term"]) == pytest.approx(0.1)

# Exact stdout of each ``bounds`` subcommand: metadata keys in flag order,
# an unset optional flag echoed as ``none`` and a switch as ``true``/``false``.
_CONC = ("--lam1", "1", "--lamp", "1", "--weigs", "0.75,0.25", "--r", "1", "--d", "1",
         "--eps", "0.1", "--n", "100", "--p", "100")
_CONC_META = ("# lam1=1\n# lamp=1\n# weigs=0.75,0.25\n# r=1\n# d=1\n"
              "# eps=0.10000000000000001\n# n=100\n# p=100\n")
_CONC4 = ("--lam1", "9", "--lamp", "1", "--weigs", "0.1,1.5,0.7,1.1", "--r", "2",
          "--d", "2", "--eps", "0.05", "--n", "1000", "--p", "4")
_CONC4_META = ("# lam1=9\n# lamp=1\n# weigs=0.1,1.5,0.7,1.1\n# r=2\n# d=2\n"
               "# eps=0.050000000000000003\n# n=1000\n# p=4\n")
_BOUNDS_GOLDEN = [
    (("perturbation", "--gap", "1.0", "--eps", "0.1"),
     "# command=bounds.perturbation\n# gap=1\n# r=1\n# eps=0.10000000000000001\n"
     "quantity,value\nbound1,0.20000000000000001\nbound2,0.125\nmin_bound,0.125\n"),
    (("perturbation", "--gap", "0", "--eps", "0.1"),
     "# command=bounds.perturbation\n# gap=0\n# r=1\n# eps=0.10000000000000001\n"
     "quantity,value\nbound1,+inf\nbound2,\nmin_bound,+inf\n"),
    (("breakdown", "--eigs", "3,2,1,0.5", "--r2", "4", "--d", "2"),
     "# command=bounds.breakdown\n# eigs=3,2,1,0.5\n# r2=4\n# d=2\n"
     "quantity,value\nweak_lb,0.125\nstrong_lb,0.25\n"),
    (("concentration",) + _CONC,
     "# command=bounds.concentration\n# family=elliptical\n" + _CONC_META +
     "# sigma=none\nquantity,value\nvalue,5.5200000000000005\n"
     "contamination,0.40000000000000002\nsampling,5.1200000000000001\nclipped,1\n"),
    (("concentration",) + _CONC + ("--sigma", "0.05"),
     "# command=bounds.concentration\n# family=subgaussian\n" + _CONC_META +
     "# sigma=0.050000000000000003\nquantity,value\nvalue,1.6800000000000002\n"
     "contamination,0.40000000000000002\nsampling,1.2800000000000002\nclipped,1\n"),
    (("rate", "--beta", "-0.5", "--p", "100", "--n", "400"),
     "# command=bounds.rate\n# beta=-0.5\n# p=100\n# n=400\n# eps=0\n"
     "# subgaussian=false\nquantity,value\ncontamination_term,0\nsampling_term,0.5\n"),
    (("rate", "--beta", "1", "--p", "10", "--n", "1000", "--eps", "0.1", "--subgaussian"),
     "# command=bounds.rate\n# beta=1\n# p=10\n# n=1000\n# eps=0.10000000000000001\n"
     "# subgaussian=true\nquantity,value\ncontamination_term,100\n"
     "sampling_term,0.10000000000000001\n"),
    # Unsorted weigs at r = 2, p = 4: the values reach the bound sorted, with
    # the radius beside them.
    (("concentration",) + _CONC4,
     "# command=bounds.concentration\n# family=elliptical\n" + _CONC4_META +
     "# sigma=none\nquantity,value\nvalue,365.29438645139714\n"
     "contamination,0.99999999999999978\nsampling,364.29438645139714\nclipped,1\n"),
    (("concentration",) + _CONC4 + ("--sigma", "0.1"),
     "# command=bounds.concentration\n# family=subgaussian\n" + _CONC4_META +
     "# sigma=0.10000000000000001\nquantity,value\nvalue,4.6429438645139722\n"
     "contamination,0.99999999999999978\nsampling,3.6429438645139722\nclipped,1\n"),
]


@pytest.mark.parametrize("argv,expected", _BOUNDS_GOLDEN,
                         ids=[f"{a[0]}-{k}" for k, (a, _) in enumerate(_BOUNDS_GOLDEN)])
def test_bounds_golden_bytes(capsys, argv, expected):
    assert run_cli(capsys, "bounds", *argv) == (0, expected, "")


@pytest.mark.parametrize("weigs, r, message", [
    ("0.7,0.6", "1", "winsorized eigenvalues sum to more than the radius squared"),
    ("1.5,0.25", "1", "a winsorized eigenvalue exceeds the radius squared"),
    ("0.75,-0.25", "1", "eigenvalues must be finite and nonnegative"),
    ("0.75,0.25", "nan", "radius must be finite and positive"),
    ("0.75,0.25", "inf", "radius must be finite and positive"),
])
def test_concentration_rejects_spectrum_beyond_radius(capsys, weigs, r, message):
    code, out, err = run_cli(
        capsys, "bounds", "concentration", "--lam1", "1", "--lamp", "1", "--weigs", weigs,
        "--r", r, "--d", "1", "--eps", "0.1", "--n", "100", "--p", "100")
    assert (code, out, err) == (2, "", f"error: {message}\n")


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

    @pytest.mark.parametrize("preset, flags", [
        ("fig3", ("--scale", "1e300")),
        ("fig1", ("--scale", "1e300")),
        ("fig2", ("--scale", "1", "--replications", "1000000")),
    ])
    def test_rejects_absurd_sizes_before_drawing(self, capsys, monkeypatch, preset, flags):
        def no_draws(*args, **kwargs):
            raise AssertionError("a run too large to finish started drawing")

        monkeypatch.setattr(experiments, "make_rng", no_draws)
        code, _, err = run_cli(capsys, "experiment", preset, *flags)
        assert code == 2
        assert "too large" in err

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

    @pytest.mark.parametrize("switch, sampling", [("true", 0.1), ("false", 10.0)])
    def test_bounds_rate_section_switch(self, capsys, tmp_path, switch, sampling):
        cfg = tmp_path / "winpca.ini"
        cfg.write_text(f"[bounds.rate]\nbeta = 1\np = 10\nn = 1000\neps = 0.1\n"
                       f"subgaussian = {switch}\n")
        code, out, _ = run_cli(capsys, "bounds", "rate", "--config", str(cfg))
        assert code == 0
        assert f"# subgaussian={switch}\n" in out
        assert float(quantities_of(out)["sampling_term"]) == pytest.approx(sampling)

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

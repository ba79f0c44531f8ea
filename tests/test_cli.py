import argparse
import csv
import io
import json
import math

import mpmath
import numpy as np
import pytest

import image_references as refs
from annulus_green import EvalResult
from annulus_green import cli
from annulus_green.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestEvalGreen:
    def test_json_record_round_trips(self, capsys):
        code, out = run_cli(
            capsys,
            "eval-green", "--n", "3", "--a", "0.5",
            "0.6", "0.1", "0", "0.8", "-0.2", "0.1",
        )
        assert code == 0
        record = json.loads(out)
        assert json.loads(json.dumps(record)) == record
        assert record["converged"] is True
        assert record["tail_bound"] >= 0.0
        # both evaluation paths present and in agreement
        assert record["path_difference"] <= (
            record["tail_bound"] + record["piecewise_tail_bound"] + 1e-9
        )

    def test_boundary_point_is_zero(self, capsys):
        code, out = run_cli(
            capsys,
            "eval-green", "--n", "3", "--a", "0.5",
            "1.0", "0", "0", "0.7", "0", "0",
        )
        assert code == 0
        record = json.loads(out)
        assert abs(record["value"]) <= record["tail_bound"] + 1e-8

    def test_coincident_points_exit_2(self, capsys):
        code, out = run_cli(
            capsys,
            "eval-green", "--n", "3", "--a", "0.5",
            "0.7", "0", "0", "0.7", "0", "0",
        )
        assert code == 2
        record = json.loads(out)
        assert record["error"] == "SingularityError"

    def test_near_equal_radii_exit_0_when_green_eval_converges(self, capsys):
        code, out = run_cli(
            capsys, "eval-green", "--n", "3", "0.7", "0", "0", "0", "0.70001", "0"
        )
        assert code == 0
        record = json.loads(out)
        assert record["converged"] is True
        # radii within 1 % of each other skip the piecewise cross-check
        for key in (
            "piecewise_value",
            "piecewise_tail_bound",
            "piecewise_terms_used",
            "piecewise_converged",
            "path_difference",
        ):
            assert key not in record

    def test_wrong_coordinate_count_exit_2(self, capsys):
        code, _ = run_cli(capsys, "eval-green", "--n", "3", "--a", "0.5", "0.7", "0", "0")
        assert code == 2


class TestEvalRobin:
    def test_three_dimensions(self, capsys):
        code, out = run_cli(capsys, "eval-robin", "--n", "3", "--a", "0.5", "0.7")
        assert code == 0
        record = json.loads(out)
        assert record["value"] < 0
        assert record["converged"] is True

    def test_two_dimensions(self, capsys):
        code, out = run_cli(capsys, "eval-robin", "--n", "2", "--a", "0.2", "0.57")
        assert code == 0
        record = json.loads(out)
        assert record["value"] > 0

    def test_invalid_radius_exit_2(self, capsys):
        code, _ = run_cli(capsys, "eval-robin", "--n", "3", "--a", "0.5", "0.4")
        assert code == 2

    @pytest.mark.parametrize("a", ["0", "1", "1.5", "nan"])
    def test_invalid_planar_inner_radius_exit_2(self, capsys, a):
        # the geometry validates the plane's a as it does every other dimension's
        code, out = run_cli(capsys, "eval-robin", "--n", "2", "--a", a, "0.7")
        assert code == 2
        assert json.loads(out)["error"] == "DomainValidationError"

    def test_budget_exhaustion_exit_3(self, capsys):
        code, out = run_cli(
            capsys, "eval-robin", "--n", "3", "--a", "0.5", "--max-terms", "4", "0.99"
        )
        assert code == 3
        record = json.loads(out)
        assert record["converged"] is False


class TestCriticalPoint:
    def test_record_fields(self, capsys):
        code, out = run_cli(capsys, "critical-point", "--n", "3", "--a", "0.5")
        assert code == 0
        record = json.loads(out)
        assert 0.5 < record["r0"] < 1.0
        assert record["residual"] <= 1e-10
        assert record["is_radial_minimum"] is False
        assert record["nondegenerate"] is True
        assert record["certificate"] == "residual"
        assert "concentration_root" not in record
        # r0 lies within residual / |slope| of the 50-digit mpmath root
        root, slope = refs.root(3, 0.5, record["r0"])
        with mpmath.workdps(refs.DPS):
            error = float(abs(mpmath.mpf(record["r0"]) - root))
        assert error <= record["residual"] / abs(float(slope))

    def test_planar_record(self, capsys):
        code, out = run_cli(capsys, "critical-point", "--n", "2", "--a", "0.2")
        assert code == 0
        record = json.loads(out)
        assert record["is_radial_minimum"] is True
        assert "concentration_root" not in record

    @pytest.mark.parametrize("solver_tol", ["nan", "inf", "0", "-1"])
    def test_solver_tol_must_be_positive_and_finite(self, capsys, solver_tol):
        code, out = run_cli(
            capsys, "critical-point", "--n", "3", "--a", "0.5", "--solver-tol", solver_tol
        )
        assert code == 2
        assert json.loads(out)["error"] == "DomainValidationError"

    def test_invalid_inner_radius_exit_2(self, capsys):
        code, _ = run_cli(capsys, "critical-point", "--n", "3", "--a", "1.5")
        assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("eval-robin", "--n", "456", "--a", "0.5", "0.75"),
        ("critical-point", "--n", "456", "--a", "0.5"),
        ("export-grid", "robin", "--n", "456", "--a", "0.5"),
        (
            "export-grid", "green-slice", "--n", "456", "--a", "0.5", "--grid-points", "3",
            "--y=" + ",".join(["0", "0.7"] + ["0"] * 454),
        ),
    ],
)
def test_underflowing_sphere_area_exit_3(capsys, argv):
    # omega underflows to 0 for n >= 456: the Robin family leaves the double
    # range there, a typed error and not a ZeroDivisionError
    code, out = run_cli(capsys, *argv)
    assert code == 3
    assert json.loads(out)["error"] == "TailEnvelopeError"


class TestCsvRecords:
    @staticmethod
    def _read(out):
        return list(csv.reader(io.StringIO(out)))

    def test_critical_point_method_keeps_its_comma(self, capsys):
        argv = ("critical-point", "--n", "6", "--a", "0.942")
        code, out = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        assert out.endswith("\n") and "\r" not in out
        header, row = self._read(out)
        assert len(header) == len(row)
        fields = dict(zip(header, row))
        _, json_out = run_cli(capsys, *argv)
        record = json.loads(json_out)
        assert sorted(record) == sorted(header)
        assert "," in record["method"]
        assert fields["method"] == record["method"]
        assert float(fields["r0"]) == record["r0"]
        assert fields["is_radial_minimum"] == "False"

    def test_eval_green_record(self, capsys):
        argv = ("eval-green", "--n", "3", "--a", "0.5", "0.6", "0.1", "0", "0.8", "-0.2", "0.1")
        code, out = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        header, row = self._read(out)
        assert len(header) == len(row)
        fields = dict(zip(header, row))
        _, json_out = run_cli(capsys, *argv)
        record = json.loads(json_out)
        assert float(fields["value"]) == record["value"]
        assert [float(v) for v in fields["x"].split(";")] == record["x"]
        assert int(fields["terms_used"]) == record["terms_used"]


class TestCachedParser:
    SEQUENCE = (
        ["eval-robin", "--n", "3", "--a", "0.5", "0.7"],
        ["critical-point", "--n", "4", "--a", "0.3"],
        ["critical-point", "--n", "3", "--a", "1.5"],
        ["eval-robin", "--n", "3", "--a", "0.5", "0.7"],
    )

    def _run_all(self, capsys, fresh):
        runs = []
        for argv in self.SEQUENCE:
            if fresh:
                cli._build_parser.cache_clear()
            runs.append(run_cli(capsys, *argv))
        return runs

    def test_no_state_carried_between_calls(self, capsys):
        cached = self._run_all(capsys, fresh=False)
        assert [code for code, _ in cached] == [0, 0, 2, 0]
        assert cached[0][1] == cached[3][1]
        assert cached == self._run_all(capsys, fresh=True)

    def test_parser_is_built_once(self, capsys):
        cli._build_parser.cache_clear()
        run_cli(capsys, *self.SEQUENCE[0])
        run_cli(capsys, *self.SEQUENCE[1])
        assert cli._build_parser.cache_info().misses == 1


class TestVerifyCommand:
    def test_seeded_runs_are_byte_identical(self, capsys):
        code1, out1 = run_cli(
            capsys, "verify", "--seed", "7", "--suite", "distance-series"
        )
        code2, out2 = run_cli(
            capsys, "verify", "--seed", "7", "--suite", "distance-series"
        )
        assert code1 == code2 == 0
        assert out1 == out2

    def test_repeated_suite_flag_prints_one_line_per_suite(self, capsys):
        verify = ("verify", "--seed", "7")
        code, out = run_cli(
            capsys, *verify, "--suite", "distance-series", "--suite", "special-functions"
        )
        _, alone = run_cli(capsys, *verify, "--suite", "distance-series")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "verification seed=7"
        assert [line.split()[1] for line in lines[1:-1]] == [
            "distance-series",
            "special-functions",
        ]
        assert lines[-1].startswith("RESULT PASS checks=")
        # a suite's draws do not depend on which other suites run
        assert lines[1] == alone.splitlines()[1]

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval-green", "0.6", "0.1", "0", "0.8", "-0.2", "0.1"),
            ("eval-robin", "0.7"),
            ("critical-point",),
            ("export-grid", "robin"),
        ],
    )
    def test_seed_belongs_to_verify_alone(self, capsys, argv):
        assert run_cli(capsys, *argv)[0] == 0
        assert run_cli(capsys, *argv, "--seed", "7")[0] == 2

    def test_out_writes_the_printed_summary(self, capsys, tmp_path):
        path = tmp_path / "summary.txt"
        argv = ("verify", "--seed", "7", "--suite", "special-functions")
        code, out = run_cli(capsys, *argv)
        assert run_cli(capsys, *argv, "--out", str(path)) == (code, "")
        assert path.read_bytes() == out.encode()

    def test_failed_check_exits_1(self, capsys, monkeypatch):
        wrong = EvalResult(value=-1.0, terms_used=1, tail_bound=0.0, converged=True)
        monkeypatch.setattr(
            "annulus_green.verify.newtonian_series_outer", lambda *args: wrong
        )
        code, out = run_cli(capsys, "verify", "--seed", "7", "--suite", "distance-series")
        assert code == 1
        assert "FAIL" in out

    @pytest.mark.parametrize(
        "option",
        [
            ("--default-policy",),
            ("--tol", "1e-6"),
            ("--max-terms", "2"),
            ("--tail-safety", "1"),
            ("--n", "4"),
            ("--a", "0.3"),
        ],
    )
    def test_policy_options_are_refused(self, capsys, option):
        argv = ("verify", "--seed", "7", "--suite", "special-functions")
        assert run_cli(capsys, *argv, *option)[0] == 2


class TestExportGrid:
    def test_robin_csv_shape(self, capsys, tmp_path):
        path = tmp_path / "robin.csv"
        code, _ = run_cli(
            capsys,
            "export-grid", "robin", "--n", "3", "--a", "0.5",
            "--grid-points", "40", "--format", "csv", "--out", str(path),
        )
        assert code == 0
        raw = path.read_bytes()
        assert b"\r" not in raw  # LF endings only
        lines = raw.decode().strip().split("\n")
        assert lines[0] == "r,robin,tail_bound,terms_used,converged"
        assert len(lines) == 41
        value = float(lines[1].split(",")[1])
        assert value < 0

    def test_gradient_column_changes_sign_once(self, capsys, tmp_path):
        path = tmp_path / "grad.csv"
        code, _ = run_cli(
            capsys,
            "export-grid", "gradient", "--n", "3", "--a", "0.5",
            "--grid-points", "200", "--r-min", "0.55", "--r-max", "0.95",
            "--format", "csv", "--out", str(path),
        )
        assert code == 0
        rows = path.read_text().strip().split("\n")[1:]
        signs = [float(row.split(",")[1]) > 0 for row in rows]
        flips = sum(1 for s1, s2 in zip(signs, signs[1:]) if s1 != s2)
        assert flips == 1
        # the sign change brackets the reported critical radius
        code, out = run_cli(capsys, "critical-point", "--n", "3", "--a", "0.5")
        r0 = json.loads(out)["r0"]
        radii = [float(row.split(",")[0]) for row in rows]
        flip_at = next(i for i, (s1, s2) in enumerate(zip(signs, signs[1:])) if s1 != s2)
        assert radii[flip_at] < r0 < radii[flip_at + 1]

    def test_green_slice_vanishes_at_both_walls(self, capsys, tmp_path):
        path = tmp_path / "slice.csv"
        code, _ = run_cli(
            capsys,
            "export-grid", "green-slice", "--n", "3", "--a", "0.5",
            "--y", "0,0.7,0", "--grid-points", "30", "--format", "csv", "--out", str(path),
        )
        assert code == 0
        rows = path.read_text().strip().split("\n")[1:]
        first = rows[0].split(",")
        last = rows[-1].split(",")
        assert float(first[0]) == 0.5 and float(last[0]) == 1.0
        for row in (first, last):
            assert abs(float(row[1])) <= float(row[2]) + 1e-8

    def test_modal_coefficient_grid(self, capsys, tmp_path):
        path = tmp_path / "modal.json"
        code, _ = run_cli(
            capsys,
            "export-grid", "modal-coefficient", "--n", "3", "--a", "0.5",
            "--mode", "2", "--s-radius", "0.8", "--grid-points", "11",
            "--format", "json", "--out", str(path),
        )
        assert code == 0
        record = json.loads(path.read_text())
        assert record["columns"] == ["r", "coefficient", "tail_bound"]
        assert len(record["rows"]) == 11

    def test_modal_coefficient_at_a_high_mode(self, capsys):
        # lo^beta and (lo hi)^(m+n-2) underflow on their own at this mode
        code, out = run_cli(
            capsys,
            "export-grid", "modal-coefficient", "--mode", "2000", "--s-radius", "0.7",
            "--grid-points", "3",
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 3
        assert all(math.isfinite(v) and v >= 0.0 for row in rows for v in row)

    def test_full_precision_rendering(self, capsys, tmp_path):
        path = tmp_path / "robin.csv"
        run_cli(
            capsys,
            "export-grid", "robin", "--n", "3", "--a", "0.5",
            "--grid-points", "3", "--r-min", "0.7", "--r-max", "0.8",
            "--format", "csv", "--out", str(path),
        )
        cell = path.read_text().strip().split("\n")[1].split(",")[1]
        assert float(cell) == float(format(float(cell), ".17g"))
        assert len(cell.replace("-", "").replace(".", "").lstrip("0")) >= 15

    def test_malformed_window_exit_2(self, capsys):
        code, _ = run_cli(
            capsys,
            "export-grid", "robin", "--n", "3", "--a", "0.5",
            "--r-min", "0.9", "--r-max", "0.6",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "option, end, code",
        [
            ("--r-min", 0.5 - 5e-10, 0),
            ("--r-max", 1.0 + 5e-10, 0),
            ("--r-min", 0.5 - 2e-9, 2),
            ("--r-max", 1.0 + 2e-9, 2),
        ],
    )
    def test_green_slice_window_takes_the_radius_slack(self, capsys, option, end, code):
        # a window end may miss [a, 1] by RADIUS_SLACK = 1e-9, as green_eval's
        # radii may, and no further
        argv = ["export-grid", "green-slice", "--n", "3", "--a", "0.5", "--y", "0,0.7,0"]
        got, out = run_cli(capsys, *argv, "--grid-points", "3", option, repr(end))
        assert got == code
        if code:
            record = json.loads(out)
            assert record["message"] == f"radius {end!r} outside the annulus range [0.5, 1]"
        else:
            assert json.loads(out)["rows"][0 if option == "--r-min" else -1][0] == end

    @pytest.mark.parametrize("points", ["0", "1"])
    def test_green_slice_needs_two_grid_points(self, capsys, points):
        code, out = run_cli(
            capsys,
            "export-grid", "green-slice", "--n", "3", "--a", "0.5", "--y", "0,0.7,0",
            "--grid-points", points,
        )
        assert code == 2
        assert json.loads(out)["message"] == "need at least 2 grid points"

    @pytest.mark.parametrize("points", [cli._MAX_GRID_POINTS + 1, 10**13])
    @pytest.mark.parametrize("quantity", ["robin", "gradient", "green-slice"])
    def test_grid_points_above_the_cap_exit_2(self, capsys, tmp_path, quantity, points):
        # refused before any radius is allocated: 10^13 points would need
        # tens of TiB
        argv = ["export-grid", quantity, "--n", "3", "--a", "0.5", "--y", "0,0.7,0"]
        argv += ["--grid-points", str(points)]
        code, out = run_cli(capsys, *argv)
        assert code == 2
        record = json.loads(out)
        assert record["error"] == "DomainValidationError"
        assert "rows" not in record
        path = tmp_path / "grid.csv"
        assert run_cli(capsys, *argv, "--format", "csv", "--out", str(path)) == (2, "")
        assert not path.exists()

    def test_missing_source_point_exit_2(self, capsys):
        code, _ = run_cli(capsys, "export-grid", "green-slice", "--n", "3", "--a", "0.5")
        assert code == 2

    def test_green_slice_row_one_ulp_inside_the_guard_is_a_nan_row(self, capsys, tmp_path):
        # |x - y| of the first row rounds to 1e-6 less one ulp: that row is
        # refused and written as NaNs, the others are evaluated
        path = tmp_path / "slice.csv"
        code, _ = run_cli(
            capsys,
            "export-grid", "green-slice", "--n", "3", "--a", "0.5",
            "--r-min", "0.7210468281493043", "--r-max", "0.95", "--grid-points", "3",
            "--y=0.721046828149682,9.209929812912979e-07,3.8957916834967444e-07",
            "--format", "csv", "--out", str(path),
        )
        assert code == 0
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert rows[0] == ["0.72104682814930432", "nan", "nan", "0", "False"]
        assert [row[4] for row in rows[1:]] == ["True", "True"]


def test_table_text_is_pinned(capsys):
    columns = [
        np.array([0.5, 0.75, 1.0]),
        np.array([-0.0, math.nan, 1.0 / 3.0]),
        np.array([0.0, math.nan, math.inf]),
        np.array([12, 0, 7], dtype=np.int64),
        np.array([True, False, True]),
    ]
    header = ["r", "green", "tail_bound", "terms_used", "converged"]
    cli._emit_table(argparse.Namespace(format="csv", out=None), header, columns)
    text = capsys.readouterr().out
    assert text == (
        "r,green,tail_bound,terms_used,converged\n"
        "0.5,-0,0,12,True\n"
        "0.75,nan,nan,0,False\n"
        "1,0.33333333333333331,inf,7,True\n"
    )
    # each field as format(x, ".17g") or str(x) writes it
    rows = zip(*(c.tolist() for c in columns))
    assert text.splitlines()[1:] == [
        ",".join(format(v, ".17g") if isinstance(v, float) else str(v) for v in row)
        for row in rows
    ]
    cli._emit_table(argparse.Namespace(format="json", out=None), header, columns)
    record = json.loads(capsys.readouterr().out)
    assert record["rows"][2] == [1.0, 1.0 / 3.0, math.inf, 7, True]

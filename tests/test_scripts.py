"""Smoke tests of the example scripts, each run in-process as ``__main__``."""

import collections
import csv
import random
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from annulus_green import critical, green, grid, specfun

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, name, *argv):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return exc.value.code


def test_tail_crossover_prints_both_routes(monkeypatch, capsys):
    argv = ["--n", "2", "3", "--a", "0.5", "0.99", "--head", "16", "24", "--repeat", "1"]
    argv += ["--rel", "0", "0.05"]
    assert run_script(monkeypatch, "tail_crossover.py", *argv) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0] == [
        "evaluator", "n", "a", "r", "rel", "M", "mode_terms", "mode_us", "image_terms",
        "image_us", "route",
    ]
    # two planar and three spatial evaluators, three radii, two a, two M,
    # two relative targets
    assert len(rows) == 1 + (2 + 3) * 3 * 2 * 2 * 2
    relaxed_modes = 0
    for row in rows[1:]:
        a, rel, route = row[2], float(row[4]), row[10]
        mode_terms, image_terms = int(row[6]), int(row[8])
        assert image_terms > int(row[5])
        if rel == 0.0:
            # abs_tol 1e-10 alone sends a = 0.99 to the images, a = 0.5 not
            assert route == ("images" if a == "0.99" else "modes")
            if a == "0.99":
                assert image_terms < mode_terms
        elif a == "0.99" and route == "modes":
            # taken only where the mode series stops within N modes and a
            # stopping streak
            assert mode_terms <= green._RELATIVE_MODES + 2
            relaxed_modes += 1
    # the relative target takes some thin-annulus calls to the mode series,
    # but not those mid-gap, where it needs hundreds of modes
    assert 0 < relaxed_modes < 2 * 5 * 3


def test_solver_phases_prints_every_phase(monkeypatch, capsys):
    assert run_script(monkeypatch, "solver_phases.py", "--count", "12", "--seed", "3") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("12 solves, 0 failed")
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == [*critical.PHASES, "total"]
    evals = [float(row[1]) for row in rows]
    # each of the six printed means is rounded to 0.005 at most
    assert abs(evals[-1] - sum(evals[:-1])) <= 6 * 0.005
    # the sweep's two ends and the second-derivative phase's slope series
    assert evals[0] == 2.0 and evals[-2] == 1.0
    # each phase's most evaluations in one solve, at least its mean; the
    # total's is at most the sum of the phases' and at least its own mean
    most = [int(row[2]) for row in rows]
    assert all(m >= e for m, e in zip(most, evals))
    assert most[0] == 2 and most[-2] == 1
    assert most[-1] <= sum(most[:-1])


def test_output_digest_repeats_itself(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends --src
    outputs = []
    for _ in range(2):
        assert run_script(monkeypatch, "output_digest.py", "--count", "2", "--seed", "3") == 0
        outputs.append(capsys.readouterr().out)
    rows = [line.split() for line in outputs[0].splitlines()]
    assert [row[0] for row in rows] == [
        "robin", "robin_grid", "robin2d", "robin2d_grid", "radial_closed", "green",
        "green_piecewise", "gegenbauer", "harmonic", "frames", "critical", "critical_values",
        "errors",
    ]
    assert all(int(row[1]) > 0 and len(row[2]) == 64 for row in rows)
    assert outputs[1] == outputs[0]


def test_output_digest_critical_values_ignore_the_counts(monkeypatch):
    # an all-absolute solve sums more terms to the same report, so its
    # "critical" record moves and its "critical_values" record does not
    import annulus_green as ag

    records = runpy.run_path(str(SCRIPTS / "output_digest.py"))["_critical_records"]
    geometries = [ag.AnnulusGeometry(n, a) for n, a in ((2, 0.3), (3, 0.5), (5, 0.96))]
    relaxed = [records(ag, geom) for geom in geometries]
    monkeypatch.setattr(critical, "_SIGN_REL_TOL", 0.0)
    absolute = [records(ag, geom) for geom in geometries]
    for (report, values), (abs_report, abs_values) in zip(relaxed, absolute):
        assert report != abs_report and values == abs_values
        assert "evaluations" in report and "evaluations" not in values
    # an error is recorded in both groups
    error = records(ag, ag.AnnulusGeometry(456, 0.5))
    assert error[0] == error[1] and error[0][0] == "TailEnvelopeError"


def test_output_digest_sees_every_bit_of_a_green_slice():
    # numpy's repr prints an array to 8 significant digits, so the record of
    # a (distances, rows) pair must hold its fields as exact floats
    import annulus_green as ag

    record = runpy.run_path(str(SCRIPTS / "output_digest.py"))["_record"]
    y, policy = np.array([0.0, 0.7, 0.0]), ag.TruncationPolicy()
    d, rows = grid._green_slice(ag.AnnulusGeometry(3, 0.4), np.linspace(0.4, 1.0, 5), y, policy)
    value, tail = rows.value.copy(), rows.tail_bound.copy()
    value[2] *= 1.0 + 1e-12
    tail[3] *= 1.0 + 1e-12
    same = record(lambda: (d, rows))
    assert record(lambda: (d.copy(), rows._replace(value=rows.value.copy()))) == same
    assert record(lambda: (d, rows._replace(value=value))) != same
    assert record(lambda: (d, rows._replace(tail_bound=tail))) != same
    assert record(lambda: (d * (1.0 + 1e-12), rows)) != same


def test_output_digest_frames_draw_forms_framed_rows(monkeypatch):
    # the "frames" group exists to reach the binary frame: at one radius and
    # on a grid, in the plane and in space
    import annulus_green as ag

    script = runpy.run_path(str(SCRIPTS / "output_digest.py"))
    series, framed = green._robin_series, green._framed_images
    current, seen = [], set()

    def each_series(s, geom, r, policy):
        current[:] = [(isinstance(geom, ag.AnnulusGeometry), isinstance(r, np.ndarray))]
        return series(s, geom, r, policy)

    def counted(bases, starts, powers, polys, tools):
        seen.add((*current[0], tools is grid.TOOLS))
        return framed(bases, starts, powers, polys, tools)

    monkeypatch.setattr(green, "_robin_series", each_series)
    monkeypatch.setattr(green, "_framed_images", counted)
    records = script["_frames_draw"](ag, random.Random(5))
    assert not any(isinstance(rec[0], str) for rec in records)  # no errors
    # (spatial, grid evaluator, grid tools)
    assert seen == {(s, g, g) for s in (False, True) for g in (False, True)}


def test_mode_cost_prints_every_table_backed_evaluator(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends --src
    seen = []  # the shapes the store held at each clearing

    class Store(collections.OrderedDict):
        def clear(self):
            seen.append(len(self))
            super().clear()

    monkeypatch.setattr(specfun, "_TABLES", Store())
    argv = ["--n", "4", "--a", "0.2", "--repeat", "1"]
    assert run_script(monkeypatch, "mode_cost.py", *argv) == 0
    # one clearing before each of the 28 cold calls, one before the pass that
    # fills the listed store and one at the end; each cold call found the
    # store empty and filled at least one table
    assert len(seen) == 12 * 2 + 2 * 2 + 2
    assert all(held > 0 for held in seen[1:])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[0] == ["evaluator", "radius", "r", "terms", "cold_ns", "warm_ns"]
    rows, grid, store = rows[:29], rows[29:35], rows[35:]
    assert {row[1] for row in rows[1:]} == {"mid", "layer", "q0.98", "q0.99"}
    assert all(int(row[3]) > 0 and float(row[4]) > 0 and float(row[5]) > 0 for row in rows[1:])
    # the deep rows: series of 1 000 to 4 000 terms
    deep = {(row[0], row[1]): int(row[3]) for row in rows[1:] if row[1].startswith("q")}
    assert sorted(deep) == [
        (name, q) for name in ("gegenbauer_generating_sum", "newtonian_series_outer")
        for q in ("q0.98", "q0.99")
    ]
    assert all(1_000 <= terms <= 4_000 for terms in deep.values())
    # the grid twins on export-grid's default windows
    assert grid[0] == ["grid_evaluator", "rows", "terms_per_row", "us_per_row"]
    assert [row[0] for row in grid[1:]] == [
        "robin_eval_grid",
        "robin_radial_gradient_grid",
        "robin2d_eval_grid",
        "robin2d_first_grid",
        "_green_slice",
    ]
    assert all(int(row[1]) == 200 and float(row[2]) > 0 and float(row[3]) > 0 for row in grid[1:])
    # the store: lam = 1's Gegenbauer table is full, and the Robin-family
    # tables hold the few rows their series read
    assert store[0] == ["mode_table", "rows", "shape"]
    held = [(row[0], int(row[1]), " ".join(row[2:])) for row in store[1:]]
    assert ("_gegenbauer_modes", specfun._STORED_MODES, "1.0") in held
    robin = [rows for name, rows, _ in held if name == "_robin_modes"]
    assert len(robin) >= 4 and all(0 < rows < 100 for rows in robin)
    assert {name for name, _, _ in held} == {"_gegenbauer_modes", "_robin_modes"}


def test_import_cost_prints_both_measures_with_and_without_bytecode(monkeypatch, capsys):
    assert run_script(monkeypatch, "import_cost.py", "--count", "2") == 0
    timing, largest = capsys.readouterr().out.split("\n\n")
    rows = [line.split() for line in timing.splitlines()]
    assert rows[0] == ["measure", "bytecode", "median_ms", "q1_ms", "q3_ms"]
    assert [row[:2] for row in rows[1:]] == [
        [measure, bytecode]
        for measure in ("critical-point", "eval-green", "export-grid", "import")
        for bytecode in ("off", "on")
    ]
    for row in rows[1:]:
        median, q1, q3 = map(float, row[2:])
        assert 0 < q1 <= median <= q3
    # a process includes its import
    medians = {tuple(row[:2]): float(row[2]) for row in rows[1:]}
    for process in ("critical-point", "eval-green", "export-grid"):
        assert all(medians[process, b] > medians["import", b] for b in ("off", "on"))
    # the 8 largest self times of the package import, largest first, for
    # each bytecode setting; the interpreter's start is not counted
    rows = [line.split() for line in largest.splitlines()]
    assert rows[0] == ["bytecode", "self_ms", "module"]
    assert [row[0] for row in rows[1:]] == ["off"] * 8 + ["on"] * 8
    for bytecode in ("off", "on"):
        listed = [(float(ms), module) for b, ms, module in rows[1:] if b == bytecode]
        assert [ms for ms, _ in listed] == sorted((ms for ms, _ in listed), reverse=True)
        modules = [module for _, module in listed]
        assert "site" not in modules and len(set(modules)) == 8
    assert ("off", "annulus_green.green") in {(b, module) for b, _, module in rows[1:]}


def test_cost_count_repeats_across_fresh_processes():
    # --check counts a small slice of every workload in two fresh
    # interpreters and exits 1 where the counts differ
    argv = [sys.executable, str(SCRIPTS / "cost_count.py"), "--check", "--requests", "3"]
    done = subprocess.run(argv, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "3 of 3 slices repeat their counts exactly" in done.stdout

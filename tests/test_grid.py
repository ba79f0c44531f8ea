"""The grid twins (one (modes x radii) table per call) against the scalar
evaluators, a 50-digit mpmath reference and the export-grid contract.

The scalar evaluators are a separate code path: each radius has its own
generator and its own sum_series call.  A grid entry must use the same number
of terms, reach the same convergence verdict, and agree with the scalar value
within the sum of both bounds.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from annulus_green import (
    AnnulusGeometry,
    DomainValidationError,
    TailEnvelopeError,
    TruncationPolicy,
    green_eval,
    robin2d_eval,
    robin2d_eval_grid,
    robin2d_first,
    robin2d_first_grid,
    robin_eval,
    robin_eval_grid,
    robin_radial_gradient,
    robin_radial_gradient_grid,
)
from annulus_green.cli import main
from annulus_green import green, summation
from test_green_split import _error, mp_green
from test_robin_split import mp_reference

POLICY = TruncationPolicy(abs_tol=1e-10, max_terms=300_000)

# quantity -> (grid twin, scalar evaluator), each called as f(n, a, r, policy)
QUANTITIES = {
    "robin": (
        lambda n, a, r, p: robin_eval_grid(AnnulusGeometry(n, a), r, p),
        lambda n, a, r, p: robin_eval(AnnulusGeometry(n, a), r, p),
    ),
    "gradient": (
        lambda n, a, r, p: robin_radial_gradient_grid(AnnulusGeometry(n, a), r, p),
        lambda n, a, r, p: robin_radial_gradient(AnnulusGeometry(n, a), r, p),
    ),
    "robin2d": (
        lambda n, a, r, p: robin2d_eval_grid(a, r, p),
        lambda n, a, r, p: robin2d_eval(a, r, p),
    ),
    "robin2d_first": (
        lambda n, a, r, p: robin2d_first_grid(a, r, p),
        lambda n, a, r, p: robin2d_first(a, r, p),
    ),
}


def _radii(a, fracs):
    return np.array([a + f * (1.0 - a) for f in fracs])


def _source(n, a, s_frac, angle):
    y = np.zeros(n)
    s = a + s_frac * (1.0 - a)
    y[0], y[1] = s * math.cos(angle), s * math.sin(angle)
    return y


def assert_matches_scalar(grid, scalars):
    assert grid.value.size == len(scalars)
    for i, res in enumerate(scalars):
        assert grid.terms_used[i] == res.terms_used
        assert grid.converged[i] == res.converged
        assert abs(grid.value[i] - res.value) <= grid.tail_bound[i] + res.tail_bound


# fractions of the gap, down to the 1e-3 standoff of export-grid's windows
FRACS = st.lists(
    st.one_of(st.floats(min_value=1e-3, max_value=1.0 - 1e-3), st.sampled_from([1e-3, 1.0 - 1e-3])),
    min_size=1,
    max_size=12,
)


@given(
    name=st.sampled_from(sorted(QUANTITIES)),
    n=st.integers(min_value=3, max_value=6),
    a=st.floats(min_value=0.05, max_value=0.95),
    fracs=FRACS,
)
def test_robin_family_grid_matches_scalar(name, n, a, fracs):
    grid_fn, scalar_fn = QUANTITIES[name]
    n = 2 if name.startswith("robin2d") else n
    radii = _radii(a, fracs)
    grid = grid_fn(n, a, radii, POLICY)
    assert_matches_scalar(grid, [scalar_fn(n, a, float(r), POLICY) for r in radii])


def _refusal(call):
    """The message of the DomainValidationError that ``call`` raises, or None
    where it returns."""
    try:
        call()
    except DomainValidationError as exc:
        return str(exc)
    return None


# a = 0.5: the Robin family's grid twins at the spheres, just past them and
# at NaN, and green_eval at r e1 against _green_slice, whose radii may miss
# [a, 1] by RADIUS_SLACK = 1e-9 (a NaN coordinate is refused as a point)
SPHERE_RADII = [0.5 - 2e-9, 1.0 + 2e-9, 0.5, 1.0]
PAIRS_AT_SPHERES = [(name, r) for name in sorted(QUANTITIES) for r in SPHERE_RADII + [math.nan]]
PAIRS_AT_SPHERES += [("green", r) for r in SPHERE_RADII]


@pytest.mark.parametrize("name, r", PAIRS_AT_SPHERES)
def test_scalar_and_grid_refuse_the_same_radii(name, r):
    # the geometry checks a float and an array of radii by one rule, so both
    # members of a pair refuse a radius with the same message or both accept
    if name == "green":
        geom, y = AnnulusGeometry(3, 0.5), np.array([0.0, 0.7, 0.0])
        scalar = _refusal(lambda: green_eval(geom, [r, 0.0, 0.0], y, POLICY))
        grid = _refusal(lambda: green._green_slice(geom, np.array([0.75, r]), y, POLICY))
    else:
        grid_fn, scalar_fn = QUANTITIES[name]
        n = 2 if name.startswith("robin2d") else 3
        scalar = _refusal(lambda: scalar_fn(n, 0.5, r, POLICY))
        grid = _refusal(lambda: grid_fn(n, 0.5, np.array([0.75, r]), POLICY))
    assert scalar == grid
    # the Robin family is interior, and green_eval takes the closed range
    assert (scalar is None) == (name == "green" and r in (0.5, 1.0))


@given(
    n=st.integers(min_value=3, max_value=6),
    a=st.floats(min_value=0.05, max_value=0.95),
    fracs=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12),
    s_frac=st.floats(min_value=0.05, max_value=0.95),
    angle=st.floats(min_value=1e-3, max_value=math.pi),
)
def test_green_slice_matches_scalar(n, a, fracs, s_frac, angle):
    geom = AnnulusGeometry(n, a)
    y = _source(n, a, s_frac, angle)
    radii = _radii(a, fracs)
    grid = green._green_slice(geom, radii, y, POLICY)[1]
    e1 = np.eye(n)[0]
    assert_matches_scalar(grid, [green_eval(geom, float(r) * e1, y, POLICY) for r in radii])


@pytest.mark.parametrize("modes", [7, summation.TABLE_MODES])
@pytest.mark.parametrize("name", sorted(QUANTITIES))
def test_series_past_one_chunk(name, modes, monkeypatch):
    # a = 0.95 needs hundreds of modes at the end rows, so the stopping state
    # crosses many chunk edges; the interior rows stop at other depths.  The
    # mode series is forced: the image route stops within 40 terms here
    monkeypatch.setattr(summation, "TABLE_MODES", modes)
    monkeypatch.setattr(green, "_SWITCH_MODES", 10**9)
    a = 0.95
    n = 2 if name.startswith("robin2d") else 4
    policy = TruncationPolicy(abs_tol=1e-12, tail_safety=3)
    radii = _radii(a, [1e-3, 0.3, 0.5, 0.77, 1.0 - 1e-3])
    grid_fn, scalar_fn = QUANTITIES[name]
    grid = grid_fn(n, a, radii, policy)
    assert grid.terms_used.min() > 3 * modes
    assert len(set(grid.terms_used.tolist())) > 1
    assert_matches_scalar(grid, [scalar_fn(n, a, float(r), policy) for r in radii])


@pytest.mark.parametrize("modes", [7, summation.TABLE_MODES])
@pytest.mark.parametrize("name", ["robin", "gradient", "robin2d_first"])
def test_image_route_past_one_chunk(name, modes, monkeypatch):
    # at a = 0.99 the head modes and the image rows cross at least three
    # chunk edges.  Each image row shrinks by a^(k + 2M), far more than the
    # rows' envelopes differ from one radius to the next, so here every
    # radius stops on the same row
    monkeypatch.setattr(summation, "TABLE_MODES", modes)
    a = 0.99
    n = 2 if name.startswith("robin2d") else 4
    policy = TruncationPolicy(abs_tol=1e-12, tail_safety=3)
    radii = _radii(a, [1e-3, 0.3, 0.5, 0.77, 1.0 - 1e-3])
    grid_fn, scalar_fn = QUANTITIES[name]
    grid = grid_fn(n, a, radii, policy)
    assert grid.terms_used.min() > 3 * modes
    assert_matches_scalar(grid, [scalar_fn(n, a, float(r), policy) for r in radii])


@pytest.mark.parametrize("modes", [7, summation.TABLE_MODES])
def test_green_slice_past_one_chunk(modes, monkeypatch):
    monkeypatch.setattr(summation, "TABLE_MODES", modes)
    geom = AnnulusGeometry(4, 0.95)
    y = _source(4, 0.95, 0.5, 0.4)
    radii = np.linspace(0.95, 1.0, 9)
    policy = TruncationPolicy(abs_tol=1e-12, tail_safety=3)
    grid = green._green_slice(geom, radii, y, policy)[1]
    assert grid.terms_used.max() > 3 * modes
    e1 = np.eye(4)[0]
    assert_matches_scalar(grid, [green_eval(geom, float(r) * e1, y, policy) for r in radii])


MP_NAMES = {
    "robin": "robin_eval",
    "gradient": "robin_radial_gradient",
    "robin2d": "robin2d_eval",
    "robin2d_first": "robin2d_first",
}


@pytest.mark.parametrize("name", sorted(QUANTITIES))
@pytest.mark.parametrize("a", [0.1, 0.5, 0.9])
def test_end_rows_bound_covers_mpmath_error(name, a):
    # export-grid's default window: the rows 1e-3 of the gap from each sphere
    n = 2 if name.startswith("robin2d") else 3
    radii = _radii(a, [1e-3, 1.0 - 1e-3])
    grid = QUANTITIES[name][0](n, a, radii, POLICY)
    for i, r in enumerate(radii.tolist()):
        assert grid.converged[i]
        assert _error(grid.value[i], mp_reference(MP_NAMES[name], n, a, r)) <= grid.tail_bound[i]


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("a", [0.1, 0.5, 0.9])
def test_green_slice_end_rows_against_mpmath(n, a):
    geom = AnnulusGeometry(n, a)
    y = _source(n, a, 0.5, 0.7)
    radii = np.array([a, a + 1e-3 * (1.0 - a), 1.0 - 1e-3 * (1.0 - a), 1.0])
    grid = green._green_slice(geom, radii, y, POLICY)[1]
    for i, r in enumerate(radii.tolist()):
        x = np.zeros(n)
        x[0] = r
        assert grid.converged[i]
        assert _error(grid.value[i], mp_green(n, a, x, y)) <= grid.tail_bound[i]
    # the sphere rows are zeros of the Green function, within the bound
    assert abs(grid.value[0]) <= grid.tail_bound[0]
    assert abs(grid.value[-1]) <= grid.tail_bound[-1]


def test_empty_grid():
    grid = robin_eval_grid(AnnulusGeometry(3, 0.5), np.array([]), POLICY)
    assert grid.value.size == 0


@pytest.mark.parametrize(
    "fn",
    [
        lambda r: robin_eval_grid(AnnulusGeometry(400, 0.5), r, POLICY),
        lambda r: robin_radial_gradient_grid(AnnulusGeometry(400, 0.5), r, POLICY),
        lambda r: green._green_slice(AnnulusGeometry(400, 0.5), r, np.eye(400)[1] * 0.7, POLICY),
    ],
)
def test_overflow_at_large_n_is_a_typed_error(fn):
    with pytest.raises(TailEnvelopeError):
        fn(np.array([0.6, 0.75, 0.999]))


def _export(capsys, *argv):
    code = main(["export-grid", *argv, "--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_cli_window_at_the_inner_sphere_exits_2(capsys):
    for quantity in ("robin", "gradient"):
        code, record = _export(capsys, quantity, "--n", "3", "--a", "0.5", "--r-min", "0.5")
        assert code == 2
        assert record["error"] == "DomainValidationError"


@pytest.mark.parametrize(
    "quantity, n",
    [("robin", 2), ("robin", 3), ("gradient", 2), ("gradient", 3), ("green-slice", 3)],
)
def test_cli_term_cap_keeps_the_scalar_columns(capsys, quantity, n):
    a = 0.5
    argv = [quantity, "--n", str(n), "--a", str(a), "--max-terms", "3", "--grid-points", "7"]
    y = np.array([0.0, 0.7, 0.0])
    if quantity == "green-slice":
        argv.append("--y=0,0.7,0")
    code, record = _export(capsys, *argv)
    assert code == 3
    policy = TruncationPolicy(abs_tol=1e-10, max_terms=3)
    geom = AnnulusGeometry(n, a)
    for r, _value, _tail, terms, converged in record["rows"]:
        if quantity == "green-slice":
            res = green_eval(geom, np.array([r, 0.0, 0.0]), y, policy)
        elif quantity == "robin":
            res = robin2d_eval(a, r, policy) if n == 2 else robin_eval(geom, r, policy)
        else:
            res = robin2d_first(a, r, policy) if n == 2 else robin_radial_gradient(geom, r, policy)
        assert (terms, converged) == (res.terms_used, res.converged)


@pytest.mark.parametrize("quantity", ["robin", "gradient", "green-slice"])
def test_cli_overflow_at_large_n_exits_3(capsys, quantity):
    argv = [quantity, "--n", "400", "--a", "0.5"]
    if quantity == "green-slice":
        argv.append("--y=0,0.7" + ",0" * 398)
    code, record = _export(capsys, *argv)
    assert code == 3
    assert record["error"] == "TailEnvelopeError"


def test_cli_rows_before_a_refused_radius_raise_first(capsys):
    # a window ending on the outer sphere refuses its last row, but the
    # overflow of the rows before it comes first, as one row at a time
    code, record = _export(capsys, "robin", "--n", "400", "--a", "0.5", "--r-max", "1.0")
    assert code == 3
    assert record["error"] == "TailEnvelopeError"
    code, record = _export(capsys, "robin", "--n", "3", "--a", "0.5", "--r-max", "1.0")
    assert code == 2
    assert record["error"] == "DomainValidationError"


def test_cli_green_slice_row_at_the_source_is_refused(capsys, tmp_path):
    path = tmp_path / "slice.csv"
    code = main(
        [
            "export-grid", "green-slice", "--n", "3", "--a", "0.5", "--y=0.75,0,0",
            "--grid-points", "11", "--format", "csv", "--out", str(path),
        ]
    )
    capsys.readouterr()
    assert code == 0
    rows = [line.split(",") for line in path.read_text().strip().split("\n")[1:]]
    at_source = [row for row in rows if float(row[0]) == 0.75]
    assert at_source == [["0.75", "nan", "nan", "0", "False"]]
    assert all(row[4] == "True" for row in rows if row is not at_source[0])


def test_cli_rows_carry_scalar_term_counts(capsys):
    code, record = _export(capsys, "robin", "--n", "4", "--a", "0.8", "--grid-points", "25")
    assert code == 0
    geom = AnnulusGeometry(4, 0.8)
    policy = TruncationPolicy()
    for r, value, tail, terms, converged in record["rows"]:
        res = robin_eval(geom, r, policy)
        assert (terms, converged) == (res.terms_used, res.converged)
        assert abs(value - res.value) <= tail + res.tail_bound

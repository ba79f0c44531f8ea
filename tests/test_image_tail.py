"""The image route of the Robin family against 50-digit references.

Where the mode series would need more than green._SWITCH_MODES modes, the
switched evaluators sum their first green._HEAD_MODES remainder modes and
then the deeper modes as rows of images (green._image_rows).  The references
never expand A_m / (1 - A_m) into images: ``image_references`` sums the
remainder mode by mode, and ``mp_split_remainder`` sums the image rows' modes
m >= M the same way.  The values and roots of thin annuli come from
``fixtures/image_references.json``, and a sample of its entries is recomputed
here.
"""

import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mpf

import image_references as refs
from annulus_green import (
    AnnulusGeometry,
    TruncationPolicy,
    find_critical_point,
    robin2d_first,
    robin2d_second,
    robin_eval,
    robin_radial_gradient,
    robin_radial_gradient_derivative,
)
from annulus_green import green
from annulus_green.green import (
    _GRID,
    _HEAD_MODES,
    _SCALAR,
    _image_rows,
    _image_weights,
    _imaged_grid,
    _remainder_rows,
)
from annulus_green.summation import sum_series, sum_series_table
from test_grid import QUANTITIES, _radii, assert_matches_scalar
from test_robin_split import PLANAR_PARTS, SPATIAL_PARTS, mp_split_remainder

# abs_tol 1e-13 takes the image route from a = 0.79 on
POLICY = TruncationPolicy(abs_tol=1e-13, max_terms=300_000)
FIXTURE = json.loads(refs.FIXTURE.read_text())

EVALUATORS = {
    "robin_eval": robin_eval,
    "robin_radial_gradient": robin_radial_gradient,
    "robin_radial_gradient_derivative": robin_radial_gradient_derivative,
    "robin2d_first": robin2d_first,
    "robin2d_second": robin2d_second,
}


def _evaluate(name, n, a, r, policy):
    first = a if n == 2 else AnnulusGeometry(n, a)
    return EVALUATORS[name](first, r, policy)


def _error(value, ref):
    with mpmath.workdps(refs.DPS):
        return float(abs(mpf(value) - mpf(ref)))


def _images_taken(a, policy):
    return policy.abs_tol < a ** (2 * green._SWITCH_MODES)


def _case_id(case):
    return f"{case['name']}-n{case['n']}-a{case['a']}-{case['where']}"


@pytest.mark.parametrize("case", FIXTURE["values"], ids=_case_id)
def test_bound_covers_reference(case):
    name, n, a, r = case["name"], case["n"], case["a"], case["r"]
    assert _images_taken(a, POLICY)
    res = _evaluate(name, n, a, r, POLICY)
    assert res.converged
    assert _error(res.value, case["value"]) <= res.tail_bound


# one position per dimension at a = 0.95, and mid-gap at a = 0.99 for n = 4
GUARDED = [(2, 0.95, "inner"), (3, 0.95, "mid"), (4, 0.95, "outer"), (5, 0.95, "inner"),
           (6, 0.95, "mid"), (4, 0.99, "mid")]


@pytest.mark.parametrize("n, a, where", GUARDED)
def test_fixture_matches_live_reference(n, a, where):
    r = refs.radius(a, where)
    powers = refs.robin_powers(n, a, r)
    cases = [c for c in FIXTURE["values"] if (c["n"], c["a"], c["where"]) == (n, a, where)]
    assert len(cases) == len(refs.PLANAR if n == 2 else refs.SPATIAL)
    for case in cases:
        assert case["r"] == r
        live = refs.reference(case["name"], n, a, r, powers)
        with mpmath.workdps(refs.DPS):
            assert abs(live - mpf(case["value"])) <= mpf(10) ** -30 * abs(live)


@pytest.mark.parametrize("case", FIXTURE["roots"], ids=lambda c: f"n{c['n']}-a{c['a']}")
def test_thin_annulus_solve_brackets_reference_root(case):
    # on the mode series alone, a = 0.9999 runs to max_terms near the root
    # and the solve cannot bracket it
    n, a = case["n"], case["a"]
    report = find_critical_point(AnnulusGeometry(n, a))
    assert report.is_radial_minimum == (n == 2)
    with mpmath.workdps(refs.DPS):
        root = mpf(case["root"])
        assert report.bracket[0] < root < report.bracket[1]
        assert _error(report.r0, root) <= report.residual / abs(float(mpf(case["slope"])))


def _remainder(name, n, a, r):
    """(k, scale, parts, m0) of the split remainder of ``name`` at (n, a, r),
    with m0 the first mode the image rows hold."""
    if n == 2:
        parts, factor = PLANAR_PARTS[name]
        return 0, factor(r), parts, 1 + _HEAD_MODES
    k = n - 2
    parts, factor = SPATIAL_PARTS[name]
    return k, -factor(r) / (k * AnnulusGeometry(n, a).omega), parts(k), _HEAD_MODES


SWITCHED = {2: ("robin2d_first", "robin2d_second"), 3: tuple(SPATIAL_PARTS)}
IMAGE_ROW_CASES = [
    (name, n, a, frac)
    for n in (2, 3, 6)
    for name in SWITCHED[min(n, 3)]
    for a, frac in ((0.9, 1e-3), (0.9, 1.0 - 1e-3), (0.97, 0.5))
]


@pytest.mark.parametrize("name, n, a, frac", IMAGE_ROW_CASES)
def test_image_rows_cover_mpmath_remainder(name, n, a, frac):
    # the image rows alone against the modes m >= M they stand for: with
    # tol 1e-30 the only budget is the rows' own rounding count
    r = a + frac * (1.0 - a)
    k, scale, parts, m0 = _remainder(name, n, a, r)
    policy = TruncationPolicy(abs_tol=1e-30, max_terms=300_000)
    rows = _image_rows(k, a, r, scale, parts, m0, _SCALAR)
    res = sum_series(rows, policy)
    ref = mp_split_remainder(k, a, r, scale, parts, start=m0)
    assert res.converged
    assert _error(res.value, ref) <= res.tail_bound
    # the grid twin, with the row of the same radius twice: the image rows
    # as _imaged_grid passes them on after no head modes
    radii, scales = np.array([r, r]), np.array([scale, scale])

    def table(cols):
        sc = scales[cols] if n == 2 else scale
        return _imaged_grid((), _image_rows(k, a, radii[cols], sc, parts, m0, _GRID))

    grid = sum_series_table(table, 2, policy)
    for j in range(2):
        assert grid.terms_used[j] == res.terms_used
        assert _error(grid.value[j], ref) <= grid.tail_bound[j]


@given(
    name=st.sampled_from(sorted(EVALUATORS)),
    n=st.integers(min_value=3, max_value=6),
    a=st.floats(min_value=0.8, max_value=0.99),
    frac=st.floats(min_value=1e-3, max_value=1.0 - 1e-3),
)
def test_image_route_agrees_with_mode_series(name, n, a, frac):
    n = 2 if name.startswith("robin2d") else n
    r = a + frac * (1.0 - a)
    k, scale, parts, _ = _remainder(name, n, a, r)
    policy = TruncationPolicy(abs_tol=1e-10, max_terms=300_000)
    plain = sum_series(_remainder_rows(k, a, r, scale, parts, False, _SCALAR), policy)
    imaged = sum_series(_remainder_rows(k, a, r, scale, parts, True, _SCALAR), policy)
    assert plain.converged and imaged.converged
    assert abs(plain.value - imaged.value) <= plain.tail_bound + imaged.tail_bound


@pytest.mark.parametrize("a", [0.85, 0.99, 0.999])
@pytest.mark.parametrize("name", ["robin", "gradient", "robin2d_first"])
def test_image_grid_matches_scalar(name, a):
    grid_fn, scalar_fn = QUANTITIES[name]
    n = 2 if name.startswith("robin2d") else 4
    radii = _radii(a, [1e-3, 0.1, 0.5, 0.9, 1.0 - 1e-3])
    grid = grid_fn(n, a, radii, POLICY)
    assert_matches_scalar(grid, [scalar_fn(n, a, float(r), POLICY) for r in radii])


@pytest.mark.parametrize("tol", [1e-10, 5e-14])
def test_mode_series_below_the_gate_is_unchanged(tol, monkeypatch):
    # a <= 0.75 stays on the mode series at the CLI's and the solver's tol
    policy = TruncationPolicy(abs_tol=tol)
    cases = [(name, n, a, a + frac * (1.0 - a)) for name in EVALUATORS for n in (2, 3, 6)
             for a in (0.3, 0.75) for frac in (1e-3, 0.5)]
    cases = [(name, n, a, r) for name, n, a, r in cases if (n == 2) == name.startswith("robin2d")]
    before = [_evaluate(*case, policy) for case in cases]
    monkeypatch.setattr(green, "_SWITCH_MODES", 10**9)
    assert [_evaluate(*case, policy) for case in cases] == before


@pytest.mark.parametrize(
    "k, d, e", [(1, 0, 0), (1, 1, 1), (2, 0, 2), (4, 4, 1), (0, -1, 1), (0, 1, 1)]
)
def test_image_weights_are_newton_differences(k, d, e):
    # w(m0 + l) = sum_s C(l, s) D^s w(m0), every D^s w(m0) an integer >= 0
    m0 = _HEAD_MODES + (0 if k else 1)
    diffs = _image_weights(k, d, e, m0)[::-1]
    assert all(x >= 0 and x == int(x) for x in diffs)
    for l in range(len(diffs) + 3):
        m = m0 + l
        w = math.comb(k + m - 1, m) * (m + d) ** e if k else (2 * m + d) ** e
        assert sum(math.comb(l, s) * int(x) for s, x in enumerate(diffs)) == w

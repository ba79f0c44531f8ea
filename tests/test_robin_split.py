"""The two-image split of the Robin family against independent references.

Three references, none sharing the split's closed forms or its rounding:

- ``direct_series``: the unsplit series, summed mode by mode (interior radii);
- ``references.reference``: the Robin function, its gradient and slope at
  50 digits, the remainder summed mode by mode and differentiated exactly;
- sign changes of the direct gradient around each computed critical radius.

The remainders are also checked alone, scalar generator and grid twin,
against their own 50-digit sums (``references.mp_split_remainder``), so that
their rounding allowances are tested by themselves, and so is the first image
layer that the split sums in closed form, against its modes summed one by
one at 50 digits.
"""

import itertools
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import direct_series
import references as refs
from annulus_green import (
    AnnulusGeometry,
    TailEnvelopeError,
    TruncationPolicy,
    find_critical_point,
    robin_eval,
    robin_radial_gradient,
    robin_radial_gradient_derivative,
)
from annulus_green.cli import main
from annulus_green.green import _SCALAR, _SERIES, _Series, _normalised, _robin_remainder
from annulus_green.grid import TOOLS, _robin_remainder_grid, sum_series_table
from annulus_green.summation import sum_series

POLICY = TruncationPolicy(abs_tol=1e-10, max_terms=300_000)

# the unsplit twin of each evaluator that references.evaluate calls
SPATIAL = {
    "robin_eval": direct_series.robin_eval,
    "robin_radial_gradient": direct_series.robin_radial_gradient,
    "robin_radial_gradient_derivative": direct_series.robin_radial_gradient_derivative,
    "critical_equation_eval": direct_series.critical_equation_eval,
}
PLANAR = {
    "robin2d_eval": direct_series.robin2d_eval,
    "robin2d_first": direct_series.robin2d_first,
    "robin2d_second": direct_series.robin2d_second,
}


@given(
    name=st.sampled_from(sorted(SPATIAL) + sorted(PLANAR)),
    n=st.integers(min_value=3, max_value=6),
    a=st.floats(min_value=0.05, max_value=0.95),
    frac=st.floats(min_value=0.05, max_value=0.95),
)
def test_split_matches_direct_series(name, n, a, frac):
    r = a + frac * (1.0 - a)
    if name in PLANAR:
        split, direct = refs.evaluate(name, 2, a, r, POLICY), PLANAR[name](a, r, POLICY)
    else:
        split = refs.evaluate(name, n, a, r, POLICY)
        direct = SPATIAL[name](AnnulusGeometry(n, a), r, POLICY)
    assert split.converged and direct.converged
    assert abs(split.value - direct.value) <= split.tail_bound + direct.tail_bound


BOUNDARY_CASES = [
    (name, n, a, side)
    for n in (2, 3, 4, 5, 6)
    for name in (sorted(PLANAR) if n == 2 else sorted(SPATIAL))
    for a in (0.1, 0.5, 0.9)
    for side in ("inner", "outer")
]


@pytest.mark.parametrize("name, n, a, side", BOUNDARY_CASES)
def test_boundary_layer_bound_covers_mpmath_error(name, n, a, side):
    r = a + 1e-3 * (1.0 - a) if side == "inner" else 1.0 - 1e-3 * (1.0 - a)
    res = refs.evaluate(name, n, a, r, POLICY)
    assert res.converged
    assert refs.error(res.value, refs.reference(name, n, a, r)) <= res.tail_bound


@pytest.mark.parametrize("name", sorted(SPATIAL) + sorted(PLANAR))
def test_mpmath_reference_matches_direct_series_mid_gap(name):
    # guards the reference itself: an independent route at an interior radius
    n, a = (2, 0.3) if name in PLANAR else (4, 0.3)
    r = 0.62
    if n == 2:
        direct = PLANAR[name](a, r, TruncationPolicy(abs_tol=1e-13))
    else:
        direct = SPATIAL[name](AnnulusGeometry(n, a), r, TruncationPolicy(abs_tol=1e-13))
    ref = refs.reference(name, n, a, r)
    assert refs.error(direct.value, ref) <= 1e-11 * max(1.0, abs(direct.value))


def test_boundary_layer_probe_needs_tens_of_terms():
    res = robin_eval(AnnulusGeometry(3, 0.5), 0.999, TruncationPolicy(abs_tol=1e-12))
    assert res.converged
    assert res.terms_used <= 40


@pytest.mark.parametrize("n, a", [(4, 0.89), (3, 0.85), (2, 0.95)])
def test_thin_annulus_critical_point_brackets(n, a):
    geom = AnnulusGeometry(n, a)
    report = find_critical_point(geom, None, solver_tol=1e-12)
    assert report.residual <= 1e-12
    assert report.is_radial_minimum == (n == 2)
    # the direct gradient changes sign across r0: decreasing for n >= 3,
    # increasing for the planar R'
    policy = TruncationPolicy(abs_tol=1e-13, max_terms=300_000)
    delta = 1e-8 * (1.0 - a)
    if n == 2:
        below = direct_series.robin2d_first(a, report.r0 - delta, policy)
        above = direct_series.robin2d_first(a, report.r0 + delta, policy)
        assert below.value < -below.tail_bound and above.value > above.tail_bound
    else:
        below = direct_series.robin_radial_gradient(geom, report.r0 - delta, policy)
        above = direct_series.robin_radial_gradient(geom, report.r0 + delta, policy)
        assert below.value > below.tail_bound and above.value < -above.tail_bound


@pytest.mark.parametrize("n, a", [(4, 0.937), (5, 0.853), (6, 0.784), (6, 0.942)])
def test_thin_annulus_sign_pinned_root_against_mpmath(n, a):
    # no double certifies a residual of 1e-12 here: the gradient moves by
    # more than that from one double to the next
    report = find_critical_point(AnnulusGeometry(n, a), None, solver_tol=1e-12)
    assert report.certificate == "sign-pinned"
    assert report.residual > 1e-12
    root, slope = refs.root(n, a, report.r0)
    assert refs.error(report.r0, root) <= report.residual / abs(float(slope))


@pytest.mark.parametrize("r", [0.75, 0.999])
@pytest.mark.parametrize(
    "fn", [robin_eval, robin_radial_gradient, robin_radial_gradient_derivative]
)
def test_overflow_at_large_n_is_a_typed_error(fn, r):
    with pytest.raises(TailEnvelopeError):
        fn(AnnulusGeometry(400, 0.5), r, POLICY)


def test_overflow_at_large_n_exits_3(capsys):
    code = main(["eval-robin", "--n", "400", "--a", "0.5", "0.75"])
    record = json.loads(capsys.readouterr().out)
    assert code == 3
    assert record["error"] == "TailEnvelopeError"


@pytest.mark.parametrize("r", [0.55, 0.75, 0.999])
def test_fifty_dimensions_is_certified(r):
    res = robin_eval(AnnulusGeometry(50, 0.5), r, POLICY)
    assert res.converged and math.isfinite(res.value)
    ref = refs.reference("robin_eval", 50, 0.5, r)
    assert refs.error(res.value, ref) <= res.tail_bound
    assert res.tail_bound <= 1e-12 * abs(res.value)


def test_reference_waits_for_the_modes_to_shrink():
    # at n = 20 and a = 0.999 the binomial C(m+17, m) makes the modes grow
    # for the first ~5 700 of them, though their envelopes are tiny beside
    # the value at m = 20; a reference that stopped there was off by 5.5e44,
    # against a tail_bound of 4.7e39
    res = robin_eval(AnnulusGeometry(20, 0.999), 0.9995, POLICY)
    assert res.converged
    assert refs.error(res.value, refs.reference("robin_eval", 20, 0.999, 0.9995)) <= res.tail_bound


# a near 1 with mid-gap radii, where the remainder is of the size of the value
SPLIT_REMAINDER_CASES = [
    (name, n, a, frac)
    for n in (2, 3, 4, 6)
    for name in (sorted(refs.PLANAR_PARTS) if n == 2 else sorted(refs.SPATIAL_PARTS))
    for a in (0.9, 0.97)
    for frac in (0.3, 0.7)
]


@pytest.mark.parametrize("name, n, a, frac", SPLIT_REMAINDER_CASES)
def test_remainder_rounding_allowance_covers_mpmath_error(name, n, a, frac):
    # the remainder alone, so the closed form's allowance cannot cover for
    # it: the only budget is the remainder's own rounding count plus a
    # truncation tail that tol 1e-30 makes negligible
    k = n - 2
    r = a + frac * (1.0 - a)
    policy = TruncationPolicy(abs_tol=1e-30, max_terms=300_000)
    radii = np.array([r, r])
    if n == 2:
        parts, factor = refs.PLANAR_PARTS[name]
        scale = factor(r)
        res = sum_series(_robin_remainder(0, a, r, scale, parts), policy)
        scales = np.array([scale, scale])
        grid = sum_series_table(
            lambda cols: _robin_remainder_grid(0, a, radii[cols], scales[cols], parts), 2, policy
        )
    else:
        parts, factor = refs.SPATIAL_PARTS[name]
        parts = parts(k)
        scale = -factor(r) / (k * AnnulusGeometry(n, a).omega)
        res = sum_series(_robin_remainder(k, a, r, scale, parts), policy)
        grid = sum_series_table(
            lambda cols: _robin_remainder_grid(k, a, radii[cols], scale, parts), 2, policy
        )
    ref = refs.mp_split_remainder(k, a, r, scale, parts)
    assert res.converged
    assert refs.error(res.value, ref) <= res.tail_bound
    # the grid twin, with the row of the same radius twice
    for j in range(2):
        assert grid.terms_used[j] == res.terms_used
        assert refs.error(grid.value[j], ref) <= grid.tail_bound[j]


LAYER_CASES = SPLIT_REMAINDER_CASES + [
    (name, n, 0.3, frac)
    for n in (2, 3, 9)
    for name in (sorted(refs.PLANAR_PARTS) if n == 2 else sorted(refs.SPATIAL_PARTS))
    for frac in (1e-3, 0.5, 1.0 - 1e-3)
]


@pytest.mark.parametrize("name, n, a, frac", LAYER_CASES)
def test_layer_rounding_allowance_covers_mpmath_layer(name, n, a, frac):
    # the first image layer alone, as _normalised adds it to a closed form
    # that is here empty, against its modes summed at 50 digits: the only
    # budget is the layer's rounding count; at one radius and, in the grid
    # twins' arithmetic, at an array of it twice
    r = a + frac * (1.0 - a)
    series = _Series(lambda *args: ((), 0.0, 0.0, 0), _SERIES[name].remainder)
    geom = AnnulusGeometry(n, a)
    value, rounding, scale, parts = _normalised(series, geom, r, _SCALAR)
    ref = refs.mp_split_remainder(n - 2, a, r, scale, parts, part=refs.LAYER)
    assert refs.error(value, ref) <= rounding
    values, roundings, _, _ = _normalised(series, geom, np.array([r, r]), TOOLS)
    for v, bound in zip(values, roundings):
        assert refs.error(v, ref) <= bound


# every remainder stream: the spatial parts for k = 0..6, where k = 0 sums
# them as the plane does, and the planar parts
ROW_STREAMS = [
    (k, parts(k)) for k in range(7) for parts, _ in refs.SPATIAL_PARTS.values()
] + [(0, parts) for parts, _ in refs.PLANAR_PARTS.values()]


@settings(max_examples=200)
@given(
    a=st.floats(min_value=0.02, max_value=0.9999),
    side=st.sampled_from(["inner", "outer"]),
    depth=st.floats(min_value=1e-6, max_value=0.05),
)
# a normal k = 6 row whose image power b^(2m) is subnormal, lifted by its
# binomial weight: the direct product broke the ratio by 3e-9 of the row
@example(a=0.02, side="inner", depth=0.01800014147702665)
def test_remainder_rows_keep_the_tail_contract(a, side, depth):
    # what every Robin-family tail bound rests on: each envelope covers its
    # term and each ratio bounds the next envelope, in the scalar rows and
    # in the grid twin's, at radii in either boundary layer.  A ratio is a
    # relative bound, which subnormal envelopes (below 2^-1022, reached within
    # 80 modes for small a) cannot keep; the tail they leave is far below any
    # tolerance.
    r = a + depth * (1.0 - a) if side == "inner" else 1.0 - depth * (1.0 - a)
    assume(a < r < 1.0)
    for k, parts in ROW_STREAMS:
        chunks = _robin_remainder_grid(k, a, np.array([r]), 1.0, parts)
        grid = itertools.chain.from_iterable(zip(*(x[:, 0] for x in c)) for c in chunks)
        for stream in (_robin_remainder(k, a, r, 1.0, parts), grid):
            rows = list(itertools.islice(stream, 80))
            for term, env, _, _ in rows:
                assert abs(term) <= env
            for (_, env, rho, _), (_, nxt, _, _) in zip(rows, rows[1:]):
                assert nxt <= rho * env * (1.0 + 1e-9) or nxt < sys.float_info.min

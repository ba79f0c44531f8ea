"""The two-image split of the Robin family against independent references.

Three references, none sharing the split's closed forms or its rounding:

- ``direct_series``: the unsplit series, summed mode by mode (interior radii);
- a 50-digit mpmath evaluation of the Robin function itself, with the
  gradient and slope taken by mpmath's numerical differentiation;
- sign changes of the direct gradient around each computed critical radius.

The remainders are also checked alone, scalar generator and grid twin,
against their own 50-digit sums, so that their rounding allowances are
tested by themselves.
"""

import itertools
import json
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mpf

import direct_series
from annulus_green import (
    AnnulusGeometry,
    TailEnvelopeError,
    TruncationPolicy,
    critical_equation_eval,
    find_critical_point,
    robin2d_eval,
    robin2d_first,
    robin2d_second,
    robin_eval,
    robin_radial_gradient,
    robin_radial_gradient_derivative,
)
from annulus_green.cli import main
from annulus_green.green import (
    _ROBIN2D_FIRST_PARTS,
    _ROBIN2D_PARTS,
    _robin_remainder,
    _robin_remainder_grid,
)
from annulus_green.summation import sum_series, sum_series_table

POLICY = TruncationPolicy(abs_tol=1e-10, max_terms=300_000)
DPS = 50

SPATIAL = {
    "robin_eval": (robin_eval, direct_series.robin_eval),
    "robin_radial_gradient": (robin_radial_gradient, direct_series.robin_radial_gradient),
    "robin_radial_gradient_derivative": (
        robin_radial_gradient_derivative,
        direct_series.robin_radial_gradient_derivative,
    ),
    "critical_equation_eval": (critical_equation_eval, direct_series.critical_equation_eval),
}
PLANAR = {
    "robin2d_eval": (robin2d_eval, direct_series.robin2d_eval),
    "robin2d_first": (robin2d_first, direct_series.robin2d_first),
    "robin2d_second": (robin2d_second, direct_series.robin2d_second),
}


def _mp_remainder(term, ratio, head):
    """Sum term(m) for m = 0, 1, ... until the geometric tail bound of a
    series with term ratio at most ratio(m) is negligible against head."""
    total = mpf(0)
    m = 0
    while True:
        t = term(m)
        total += t
        rho = ratio(m)
        if rho < 1 and abs(t) * rho / (1 - rho) <= mpf(10) ** (8 - DPS) * abs(head + total):
            return total
        m += 1


def mp_robin(n, a, r):
    """Robin function at 50 digits: two-image closed form plus remainder."""
    a, r = mpf(a), mpf(r)
    k = n - 2
    omega = 2 * mpmath.pi ** (mpf(n) / 2) / mpmath.gamma(mpf(n) / 2)
    closed = (
        (1 - r * r) ** -k + a**k * (r * r - a * a) ** -k - 2 * (a / r) ** k * (1 - a * a) ** -k
    )
    c2, c4 = (a / r) ** k, a**k * r ** (-2 * k)

    def term(m):
        big_a = a ** (k + 2 * m)
        images = r ** (2 * m) + c4 * (a / r) ** (2 * m) - 2 * c2 * a ** (2 * m)
        return mpmath.binomial(k + m - 1, m) * images * big_a / (1 - big_a)

    def ratio(m):
        return mpf(k + m) / (m + 1) * a * a * max(r * r, (a / r) ** 2)

    return -(closed + _mp_remainder(term, ratio, closed)) / (k * omega)


def mp_robin2d(a, r):
    """Planar Robin function at 50 digits, split through sum x^m/m = -log(1-x)."""
    a, r = mpf(a), mpf(r)
    closed = (
        -mpmath.log(r) ** 2 / mpmath.log(a)
        - mpmath.log(1 - r * r)
        + 2 * mpmath.log(1 - a * a)
        - mpmath.log(1 - (a / r) ** 2)
    )

    def term(m):
        m += 1
        big_a = a ** (2 * m)
        return (r ** (2 * m) - 2 * big_a + (a / r) ** (2 * m)) / m * big_a / (1 - big_a)

    def ratio(m):
        return a * a * max(r * r, (a / r) ** 2)

    return closed + _mp_remainder(term, ratio, closed)


def mp_reference(name, n, a, r):
    with mpmath.workdps(DPS):
        r = mpf(r)
        if n == 2:
            f = lambda x: mp_robin2d(a, x)  # noqa: E731
            order = {"robin2d_eval": 0, "robin2d_first": 1, "robin2d_second": 2}[name]
            return f(r) if order == 0 else mpmath.diff(f, r, order)
        omega = 2 * mpmath.pi ** (mpf(n) / 2) / mpmath.gamma(mpf(n) / 2)
        f = lambda x: mp_robin(n, a, x)  # noqa: E731
        grad = lambda x: x * mpmath.diff(f, x)  # noqa: E731
        if name == "robin_eval":
            return f(r)
        if name == "robin_radial_gradient":
            return grad(r)
        if name == "critical_equation_eval":
            return -omega / 2 * grad(r)
        return mpmath.diff(grad, r)


def _evaluate(name, n, a, r, policy):
    if n == 2:
        return PLANAR[name][0](a, r, policy)
    return SPATIAL[name][0](AnnulusGeometry(n, a), r, policy)


def _error(value, ref):
    with mpmath.workdps(DPS):
        return float(abs(mpf(value) - ref))


@given(
    name=st.sampled_from(sorted(SPATIAL) + sorted(PLANAR)),
    n=st.integers(min_value=3, max_value=6),
    a=st.floats(min_value=0.05, max_value=0.95),
    frac=st.floats(min_value=0.05, max_value=0.95),
)
def test_split_matches_direct_series(name, n, a, frac):
    r = a + frac * (1.0 - a)
    if name in PLANAR:
        split_fn, direct_fn = PLANAR[name]
        split, direct = split_fn(a, r, POLICY), direct_fn(a, r, POLICY)
    else:
        split_fn, direct_fn = SPATIAL[name]
        geom = AnnulusGeometry(n, a)
        split, direct = split_fn(geom, r, POLICY), direct_fn(geom, r, POLICY)
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
    res = _evaluate(name, n, a, r, POLICY)
    assert res.converged
    assert _error(res.value, mp_reference(name, n, a, r)) <= res.tail_bound


@pytest.mark.parametrize("name", sorted(SPATIAL) + sorted(PLANAR))
def test_mpmath_reference_matches_direct_series_mid_gap(name):
    # guards the reference itself: an independent route at an interior radius
    n, a = (2, 0.3) if name in PLANAR else (4, 0.3)
    r = 0.62
    if n == 2:
        direct = PLANAR[name][1](a, r, TruncationPolicy(abs_tol=1e-13))
    else:
        direct = SPATIAL[name][1](AnnulusGeometry(n, a), r, TruncationPolicy(abs_tol=1e-13))
    assert _error(direct.value, mp_reference(name, n, a, r)) <= 1e-11 * max(1.0, abs(direct.value))


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
    with mpmath.workdps(DPS):
        # two Newton steps on the reference gradient r R'(r) from r0
        root = mpf(report.r0)
        for _ in range(2):
            _, first, second = mpmath.diffs(lambda x: mp_robin(n, a, x), root, 2)
            slope = first + root * second
            root -= root * first / slope
    assert _error(report.r0, root) <= report.residual / abs(float(slope))


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
    with mpmath.workdps(DPS):
        ref = mp_robin(50, 0.5, r)
    assert _error(res.value, ref) <= res.tail_bound
    assert res.tail_bound <= 1e-12 * abs(res.value)


# (parts, scale factor) of each split remainder as green.py sums it: the
# spatial parts as functions of k, the planar scale factors of r
SPATIAL_PARTS = {
    "robin_eval": (lambda k: ((1, 0, 0), (-2, 0, 0), (1, 0, 0)), lambda r: 1.0),
    "robin_radial_gradient": (lambda k: ((1, 0, 1), (k, 0, 0), (-1, k, 1)), lambda r: 2.0),
    "robin_radial_gradient_derivative": (
        lambda k: ((2, 0, 2), (-k * k, 0, 0), (2, k, 2)),
        lambda r: 2.0 / r,
    ),
}
PLANAR_PARTS = {
    "robin2d_eval": (_ROBIN2D_PARTS, lambda r: 1.0),
    "robin2d_first": (_ROBIN2D_FIRST_PARTS, lambda r: 2.0 / r),
    "robin2d_second": (((1, -1, 1), (0, 0, 0), (1, 1, 1)), lambda r: 2.0 / (r * r)),
}


def mp_split_remainder(k, a, r, scale, parts, start=None):
    """A split remainder at 50 digits from the float inputs:
    scale sum_m C(k+m-1, m) sum_i coef_i (m + d_i)^e_i c_i x_i^m A_m / (1 - A_m)
    over x = (r^2, a^2, a^2/r^2), c = (1, (a/r)^k, (a/r^2)^k), A_m = a^(k+2m)
    for k >= 1, and for k = 0 the planar sum over m >= 1 with weights
    coef_i (2m + d_i)^e_i and no binomial.  ``start`` sums the modes
    m >= start only."""
    with mpmath.workdps(DPS):
        a, r, scale = mpf(a), mpf(r), mpf(scale)
        m = (0 if k else 1) if start is None else start
        big_a = a ** (k + 2 * m)
        # C(k+m-1, m) for k >= 1
        binom = mpmath.binomial(k + m - 1, m) if k else mpf(1)
        xs = (r * r, a * a, (a / r) ** 2)
        # c_i x_i^m, with c = (1, (a/r)^k, (a/r^2)^k)
        images = [c * x**m for c, x in zip((1, (a / r) ** k, (a / (r * r)) ** k), xs)]
        total = mpf(0)
        while True:
            base = m if k else 2 * m
            weights = [coef * mpf(base + d) ** e for coef, d, e in parts]
            factor = scale * binom * big_a / (1 - big_a)
            total += factor * mpmath.fsum(w * y for w, y in zip(weights, images))
            env = abs(factor) * mpmath.fsum(abs(w) * y for w, y in zip(weights, images))
            # the modes shrink by at least a^2 max(r^2, a^2/r^2) <= a^2 <= 0.95
            # times a polynomial factor near 1, so the rest is under 100 env
            if m >= (start or 0) + 20 and env <= mpf(10) ** (10 - DPS) * abs(total):
                return total
            if k:
                binom = binom * (k + m) / (m + 1)
            images = [y * x for y, x in zip(images, xs)]
            big_a *= a * a
            m += 1


# a near 1 with mid-gap radii, where the remainder is of the size of the value
SPLIT_REMAINDER_CASES = [
    (name, n, a, frac)
    for n in (2, 3, 4, 6)
    for name in (sorted(PLANAR_PARTS) if n == 2 else sorted(SPATIAL_PARTS))
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
        parts, factor = PLANAR_PARTS[name]
        scale = factor(r)
        res = sum_series(_robin_remainder(0, a, r, scale, parts), policy)
        scales = np.array([scale, scale])
        grid = sum_series_table(
            lambda cols: _robin_remainder_grid(0, a, radii[cols], scales[cols], parts), 2, policy
        )
    else:
        parts, factor = SPATIAL_PARTS[name]
        parts = parts(k)
        scale = -factor(r) / (k * AnnulusGeometry(n, a).omega)
        res = sum_series(_robin_remainder(k, a, r, scale, parts), policy)
        grid = sum_series_table(
            lambda cols: _robin_remainder_grid(k, a, radii[cols], scale, parts), 2, policy
        )
    ref = mp_split_remainder(k, a, r, scale, parts)
    assert res.converged
    assert _error(res.value, ref) <= res.tail_bound
    # the grid twin, with the row of the same radius twice
    for j in range(2):
        assert grid.terms_used[j] == res.terms_used
        assert _error(grid.value[j], ref) <= grid.tail_bound[j]


# every remainder stream: the spatial parts for k = 0..6, where k = 0 sums
# them as the plane does, and the planar parts
ROW_STREAMS = [(k, parts(k)) for k in range(7) for parts, _ in SPATIAL_PARTS.values()] + [
    (0, parts) for parts, _ in PLANAR_PARTS.values()
]


@settings(max_examples=200)
@given(
    a=st.floats(min_value=0.02, max_value=0.9999),
    side=st.sampled_from(["inner", "outer"]),
    depth=st.floats(min_value=1e-6, max_value=0.05),
)
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

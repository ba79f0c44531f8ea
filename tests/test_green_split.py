"""The four-image split of green_eval against independent references.

Two references, neither sharing the split's closed forms or its rounding:

- ``direct_series.green_eval``: the unsplit correction series, summed mode by
  mode (interior radii);
- a 50-digit mpmath evaluation, whose images are summed in their
  generating-function form c_i (1 - 2 q_i t + q_i^2)^(-k/2) from the exact
  inputs, with its own Gegenbauer recurrence for the remainder.

The remainder is also checked alone, scalar generator and grid twin, against
its own 50-digit sum, so that its rounding allowance is tested by itself.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mpf

import direct_series
from annulus_green import AnnulusGeometry, TailEnvelopeError, TruncationPolicy, green_eval
from annulus_green.green import _green_remainder, _green_remainder_grid
from annulus_green.summation import sum_series, sum_series_table

POLICY = TruncationPolicy(abs_tol=1e-10, max_terms=300_000)
DPS = 50


def mp_green(n, a, x, y):
    """Green function at 50 digits from the float coordinates x, y: the
    Newtonian term minus four generating-function images and the remainder."""
    with mpmath.workdps(DPS):
        a = mpf(a)
        xs, ys = [mpf(v) for v in x], [mpf(v) for v in y]
        r = mpmath.sqrt(mpmath.fsum(v * v for v in xs))
        s = mpmath.sqrt(mpmath.fsum(v * v for v in ys))
        d = mpmath.sqrt(mpmath.fsum((u - v) ** 2 for u, v in zip(xs, ys)))
        t = mpmath.fsum(u * v for u, v in zip(xs, ys)) / (r * s)
        k = n - 2
        lam = mpf(k) / 2
        omega = 2 * mpmath.pi ** (mpf(n) / 2) / mpmath.gamma(mpf(n) / 2)
        lo, hi = min(r, s), max(r, s)
        qs = (lo * hi, a * a * lo / hi, a * a * hi / lo, a * a / (lo * hi))
        cs = (mpf(1), (a / hi) ** k, (a / lo) ** k, (a / (lo * hi)) ** k)
        images = [c * (1 - 2 * q * t + q * q) ** -lam for c, q in zip(cs, qs)]
        images = images[0] - images[1] - images[2] + images[3]
        head = d**-k - images
        # remainder: sum_m sum_i sign_i g_i P_m(t) A_m / (1 - A_m), g_i = c_i q_i^m
        total = mpf(0)
        p_prev, p = mpf(0), mpf(1)
        binom = mpf(1)
        gs = list(cs)
        big_a = a**k
        qmax = a * a * max(qs[0], qs[3])
        stop = mpf(10) ** (8 - DPS) * abs(head)
        m = 0
        while True:
            parts = gs[0] - gs[1] - gs[2] + gs[3]
            total += parts * p * big_a / (1 - big_a)
            env = binom * (gs[0] + gs[3]) * big_a / (1 - a**k)
            rho = (k + m) / mpf(m + 1) * qmax
            if rho < 1 and env * rho / (1 - rho) <= stop:
                break
            p_prev, p = p, (2 * t * (m + lam) * p - (m + 2 * lam - 1) * p_prev) / (m + 1)
            binom *= (k + m) / mpf(m + 1)
            gs = [g * q for g, q in zip(gs, qs)]
            big_a *= a * a
            m += 1
        return (head - total) / (k * omega)


def _error(value, ref):
    with mpmath.workdps(DPS):
        return float(abs(mpf(value) - ref))


def _pair(n, r, s, angle):
    x = np.zeros(n)
    y = np.zeros(n)
    x[0] = r
    y[0] = s * math.cos(angle)
    y[1] = s * math.sin(angle)
    return x, y


@given(
    n=st.integers(min_value=3, max_value=6),
    a=st.floats(min_value=0.05, max_value=0.95),
    r_frac=st.floats(min_value=0.05, max_value=0.95),
    s_frac=st.floats(min_value=0.05, max_value=0.95),
    angle=st.floats(min_value=1e-3, max_value=math.pi),
)
def test_split_matches_direct_series(n, a, r_frac, s_frac, angle):
    geom = AnnulusGeometry(n, a)
    x, y = _pair(n, a + r_frac * (1.0 - a), a + s_frac * (1.0 - a), angle)
    split, direct = green_eval(geom, x, y, POLICY), direct_series.green_eval(geom, x, y, POLICY)
    assert split.converged and direct.converged
    assert abs(split.value - direct.value) <= split.tail_bound + direct.tail_bound


def _layer_radii(a, side):
    span = 1.0 - a
    if side == "outer":
        return 1.0 - 1e-3 * span, 1.0 - 2e-3 * span
    return a + 1e-3 * span, a + 2e-3 * span


# (i, j) picks the two radii from _layer_radii: 1e-3 and 2e-3 of the gap
# from the sphere
BOUNDARY_CASES = [
    (n, a, side, i, j, angle)
    for n in (3, 4, 6)
    for a in (0.1, 0.5, 0.9)
    for side in ("inner", "outer")
    for i, j in ((0, 0), (0, 1), (1, 1))
    for angle in (1e-1, 1e-3, 1e-5)
]


@pytest.mark.parametrize("n, a, side, i, j, angle", BOUNDARY_CASES)
def test_boundary_layer_bound_covers_mpmath_error(n, a, side, i, j, angle):
    radii = _layer_radii(a, side)
    x, y = _pair(n, radii[i], radii[j], angle)
    res = green_eval(AnnulusGeometry(n, a), x, y, POLICY)
    assert res.converged
    assert _error(res.value, mp_green(n, a, x, y)) <= res.tail_bound


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("a", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("end", ["inner", "outer"])
def test_grid_end_rows_vanish_within_bound(n, a, end):
    # the green-slice grid's first and last rows, x = a e1 and x = e1
    geom = AnnulusGeometry(n, a)
    x = np.zeros(n)
    x[0] = a if end == "inner" else 1.0
    y = np.full(n, 0.5 * (1.0 + a) / math.sqrt(n))
    res = green_eval(geom, x, y, POLICY)
    assert res.converged
    assert abs(res.value) <= res.tail_bound
    assert _error(res.value, mp_green(n, a, x, y)) <= res.tail_bound


def test_mpmath_reference_matches_direct_series_mid_gap():
    # guards the reference itself: an independent route at interior radii
    geom = AnnulusGeometry(4, 0.3)
    x, y = _pair(4, 0.55, 0.8, 0.7)
    direct = direct_series.green_eval(geom, x, y, TruncationPolicy(abs_tol=1e-13))
    assert _error(direct.value, mp_green(4, 0.3, x, y)) <= 1e-11 * max(1.0, abs(direct.value))


def test_boundary_layer_pair_needs_tens_of_terms():
    x, y = _pair(3, 0.999, 0.998, 0.0)
    res = green_eval(AnnulusGeometry(3, 0.5), x, y, TruncationPolicy(abs_tol=1e-12))
    assert res.converged
    assert res.terms_used <= 40


def test_overflow_at_large_n_is_a_typed_error():
    x, y = _pair(400, 0.75, 0.75, 1e-3)
    with pytest.raises(TailEnvelopeError):
        green_eval(AnnulusGeometry(400, 0.5), x, y, POLICY)


def mp_remainder(k, a, lo, hi, t, scale):
    """The split's remainder at 50 digits from the same doubles:
    scale * sum_m (h1 - h2 - h3 + h4) P_m(t) / (1 - A_m), with the h_i of
    _green_remainder's docstring, summed until its envelope is negligible."""
    with mpmath.workdps(DPS):
        a, lo, hi, t, scale = (mpf(v) for v in (a, lo, hi, t, scale))
        lam = mpf(k) / 2
        a2 = a * a
        bs = (a2 * lo * hi, a2 * a2 * lo / hi, a2 * a2 * hi / lo, a2 * a2 / (lo * hi))
        hs = [a**k, (a2 / hi) ** k, (a2 / lo) ** k, (a2 / (lo * hi)) ** k]
        qmax = max(bs[0], bs[3])
        total = mpf(0)
        p_prev, p, binom = mpf(0), mpf(1), mpf(1)
        m = 0
        while True:
            big_a = a ** (k + 2 * m)
            total += (hs[0] - hs[1] - hs[2] + hs[3]) * p / (1 - big_a)
            env = binom * (hs[0] + hs[3]) / (1 - a**k)
            rho = (k + m) / mpf(m + 1) * qmax
            if rho < 1 and env * rho / (1 - rho) <= mpf(10) ** (8 - DPS) * abs(total):
                return scale * total
            p_prev, p = p, (2 * t * (m + lam) * p - (m + 2 * lam - 1) * p_prev) / (m + 1)
            binom *= (k + m) / mpf(m + 1)
            hs = [h * b for h, b in zip(hs, bs)]
            m += 1


# a near 1 with mid-gap radii, where the remainder is of the size of the value
REMAINDER_CASES = [
    (n, a, lo_frac, hi_frac, t)
    for n in (3, 4, 6)
    for a in (0.9, 0.97)
    for lo_frac, hi_frac in ((0.3, 0.6), (0.5, 0.5))
    for t in (1.0, 0.3, -0.9)
]


@pytest.mark.parametrize("n, a, lo_frac, hi_frac, t", REMAINDER_CASES)
def test_remainder_rounding_allowance_covers_mpmath_error(n, a, lo_frac, hi_frac, t):
    # the remainder alone, so the closed form's allowance cannot cover for
    # it: the only budget is the remainder's own rounding count plus a
    # truncation tail that tol 1e-30 makes negligible
    k = n - 2
    lo, hi = a + lo_frac * (1.0 - a), a + hi_frac * (1.0 - a)
    scale = -1.0 / (k * AnnulusGeometry(n, a).omega)
    policy = TruncationPolicy(abs_tol=1e-30, max_terms=300_000)
    ref = mp_remainder(k, a, lo, hi, t, scale)

    res = sum_series(_green_remainder(k, a, lo, hi, t, scale), policy)
    assert res.converged
    assert _error(res.value, ref) <= res.tail_bound

    # the grid twin, with the row of the same radii twice
    arrays = [np.array([v, v]) for v in (lo, hi, t)]
    grid = sum_series_table(
        lambda cols: _green_remainder_grid(k, a, *(v[cols] for v in arrays), scale),
        2,
        policy,
    )
    for j in range(2):
        assert grid.terms_used[j] == res.terms_used
        assert _error(grid.value[j], ref) <= grid.tail_bound[j]

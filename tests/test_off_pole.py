"""The off-pole Gegenbauer envelope: the mode table's ``off`` column bounds
2 max_j a_j a_(m-j) at 50 digits, off_m / sin(theta) bounds |P_m(t)|, the
streams that switch to it keep certified bounds against 50-digit references,
and at large n they return and raise wherever the pole envelope alone does."""

import itertools
import math
import random

import mpmath
import numpy as np
import pytest
from mpmath import mpf

import references as refs
from annulus_green import (
    AnnulusGeometry,
    TailEnvelopeError,
    TruncationPolicy,
    gegenbauer_generating_sum,
    green,
    green_piecewise_eval,
    newtonian_series_exterior,
    newtonian_series_inner,
    newtonian_series_outer,
    specfun,
)

LAMS = (0.25, 0.5, 1.0, 1.5, 2.0, 9.0, 49.0)
MODES = 2001  # m <= 2 000


def _largest_products(lam: float, modes: int) -> list:
    """2 max_j a_j a_(m-j) for m < modes at 50 digits, a_j = (lam)_j / j!.

    numpy finds the largest product of each m in logs; mpmath evaluates it
    and its neighbours, so a near tie cannot pick the smaller one."""
    with mpmath.workdps(refs.DPS):
        a = [mpf(1)]
        for j in range(modes - 1):
            a.append(a[-1] * (j + mpf(lam)) / (j + 1))
        logs = np.array([float(mpmath.log(v)) for v in a])
        out = []
        for m in range(modes):
            j = int(np.argmax(logs[: m + 1] + logs[m::-1]))
            near = range(max(0, j - 1), min(m, j + 1) + 1)
            out.append(2 * max(a[i] * a[m - i] for i in near))
        return out


@pytest.mark.parametrize("lam", LAMS)
def test_off_column_bounds_the_largest_product(lam, monkeypatch):
    monkeypatch.setattr(specfun, "_TABLES", type(specfun._TABLES)())
    built = [row[5] for row in itertools.islice(specfun._gegenbauer_modes(lam), MODES)]
    # streams that resume the builder from a stored row: from row 300, and
    # past a full store of 700 rows
    monkeypatch.setattr(specfun, "_STORED_MODES", 700)

    def streamed(count):
        table = specfun._mode_table(specfun._gegenbauer_modes, lam)
        return [row[5] for row in itertools.islice(table, count)]

    first, resumed = streamed(300), streamed(MODES)
    stored = [row[5] for row in specfun._TABLES[(specfun._gegenbauer_modes, lam)]]
    assert first == built[:300] and resumed == streamed(MODES) == built
    assert stored == built[:700]
    with mpmath.workdps(refs.DPS):
        exact = _largest_products(lam, MODES)
        assert all(mpf(c) >= e for c, e in zip(built, exact))
        # and it is tight: the slack of 4u per mode is all it adds
        assert all(mpf(c) <= e * (1 + mpf(2) ** -40) for c, e in zip(built, exact))


def _cosines(rng: random.Random, count: int) -> list:
    """Cosines near 0 and within 1e-6 of -1 and 1."""
    out = []
    for i in range(count):
        if i % 3 == 0:
            out.append(rng.uniform(-0.1, 0.1))
        else:
            out.append(math.copysign(1.0 - rng.uniform(0.0, 1e-6), rng.choice((-1, 1))))
    return out


def test_off_pole_bound_covers_the_polynomial():
    rng = random.Random(20261020)
    worst = 0.0
    with mpmath.workdps(refs.DPS):
        for t in _cosines(rng, 240):
            lam = rng.choice(LAMS[:-1])
            m = rng.randrange(0, 400)
            off = next(itertools.islice(specfun._gegenbauer_modes(lam), m, None))[5]
            exact = abs(mpmath.gegenbauer(m, lam, mpf(t)))
            ratio = float(exact / (mpf(off) * specfun._inverse_sine(t, 0.0)))
            assert ratio <= 1.0, (lam, m, t)
            worst = max(worst, ratio)
    assert worst > 0.1  # the grid reaches where the bound is close


def test_inverse_sine_bounds_every_cosine_within_the_error():
    rng = random.Random(7)
    with mpmath.workdps(refs.DPS):
        for _ in range(300):
            t = rng.choice((rng.uniform(-1.0, 1.0), 1.0 - 10.0 ** rng.uniform(-16, -2)))
            units = rng.choice((0.0, 3.0, 66.0))
            inv = specfun._inverse_sine(t, units)
            far = abs(mpf(t)) + units * mpf(2) ** -53
            if far >= 1:
                assert inv == math.inf
            else:
                assert mpf(inv) >= 1 / mpmath.sqrt(1 - far * far)
    assert specfun._inverse_sine(1.0, 0.0) == specfun._inverse_sine(-1.0, 0.0) == math.inf


def _point(n, radius, t):
    """The point of R^n at ``radius`` and at the cosine t to e1, in the
    (e1, e2) plane."""
    v = np.zeros(n)
    v[0], v[1] = t, math.sqrt(1.0 - t * t)
    return radius * v


def _cosine(rng: random.Random) -> float:
    """A cosine mid-range, or within 1e-3 of -1 or 1, where sin(theta) is
    small and a tail bound that left it out would fall short."""
    if rng.random() < 0.5:
        return rng.uniform(-0.95, 0.95)
    return math.copysign(1.0 - 10.0 ** rng.uniform(-6.0, -3.0), rng.choice((-1, 1)))


def _calls(rng, policy):
    """(name, n, q, call, reference) for the five changed evaluators: n in
    {3, 4, 6, 9, 20} and series variables q up to 0.999."""
    for n in (3, 4, 6, 9, 20):
        lam = 0.5 * (n - 2)
        a = rng.uniform(0.2, 0.5)
        geom = AnnulusGeometry(n, a)
        e1 = np.eye(n)[0]
        for q in (0.5, 0.9, 0.99, 0.999):
            t, u = _cosine(rng), _cosine(rng)
            y = _point(n, q, t)
            yield ("gegenbauer_generating_sum", n, q,
                   lambda: gegenbauer_generating_sum(lam, t, q, policy),
                   lambda: (1 - 2 * mpf(q) * mpf(t) + mpf(q) ** 2) ** -mpf(lam))
            yield ("newtonian_series_outer", n, q,
                   lambda: newtonian_series_outer(geom, e1, y, policy),
                   lambda: refs.mp_distance_power(n, e1, y))
            y_in = _point(n, a / q, t)  # the inner series' variable is a/|y|
            yield ("newtonian_series_inner", n, q,
                   lambda: newtonian_series_inner(geom, e1, y_in, policy),
                   lambda: refs.mp_distance_power(n, a * e1, y_in))
            x_ex, y_ex = 0.9 * e1, _point(n, 0.9 * q, t)
            yield ("newtonian_series_exterior", n, q,
                   lambda: newtonian_series_exterior(geom, x_ex, y_ex, policy),
                   lambda: refs.mp_distance_power(n, x_ex, y_ex))
            # lo/hi = q with hi mid-gap; a point on e1 and one at the cosine u
            hi = a + 0.6 * (1.0 - a)
            lo_pt, hi_pt = q * hi * e1, _point(n, hi, u)
            if q * hi > a:
                yield ("green_piecewise_eval", n, q,
                       lambda: green_piecewise_eval(geom, lo_pt, hi_pt, policy),
                       lambda: refs.mp_green(n, a, lo_pt, hi_pt))


POLICY = TruncationPolicy(abs_tol=1e-12)


@pytest.mark.parametrize(
    "abs_tol, max_terms", [(1e-12, 100_000), (1e-6, 100_000), (1e-3, 100_000), (1e-6, 300)]
)
def test_changed_evaluators_stay_inside_their_bounds(abs_tol, max_terms):
    # at abs_tol 1e-6 and 1e-3, and where 300 terms stop a series early, the
    # truncation tail rather than the rounding sets the bound; a series
    # stopped early has a bound too
    policy = TruncationPolicy(abs_tol=abs_tol, max_terms=max_terms)
    converged = set()
    # each call runs while its generator step is current: the closures read
    # the step's variables
    for name, n, q, call, ref in _calls(random.Random(31), policy):
        res = call()
        err = refs.error(res.value, ref())
        assert err <= res.tail_bound, (name, n, q, res, err)
        if res.converged:
            converged.add(name)
    assert len(converged) == 5


def _outcome(call):
    try:
        res = call()
    except TailEnvelopeError:
        return "TailEnvelopeError", None
    return res, math.isfinite(res.value)


@pytest.mark.parametrize("n", [100, 200, 400])
def test_large_n_returns_and_raises_where_the_pole_envelope_does(n, monkeypatch):
    # the pole envelope alone is the streams' envelope where sin(theta) is
    # taken as 0: every row keeps it, as every stream did before the switch
    rng = random.Random(n)
    lam = 0.5 * (n - 2)
    calls = []
    for a in (0.1, 0.5, 0.9):
        geom = AnnulusGeometry(n, a)
        e1 = np.eye(n)[0]
        for q in (0.3, 0.7, 0.95):
            t = rng.uniform(-0.9, 0.9)
            calls += [
                lambda t=t, q=q: gegenbauer_generating_sum(lam, t, q, POLICY),
                lambda g=geom, y=_point(n, q, t): newtonian_series_outer(g, e1, y, POLICY),
                lambda g=geom, y=_point(n, min(a / q, 0.999), t): newtonian_series_inner(
                    g, e1, y, POLICY),
                lambda g=geom, y=_point(n, 0.9 * q, t): newtonian_series_exterior(
                    g, 0.95 * e1, y, POLICY),
                lambda g=geom, y=_point(n, a + q * (1 - a), t), x=a + 0.5 * q * (1 - a):
                    green_piecewise_eval(g, x * e1, y, POLICY),
            ]
    switched = [_outcome(call) for call in calls]
    monkeypatch.setattr(specfun, "_inverse_sine", lambda t, units: math.inf)
    monkeypatch.setattr(green, "_inverse_sine", lambda t, units: math.inf)
    pole = [_outcome(call) for call in calls]
    assert any(p[0] == "TailEnvelopeError" for p in pole)
    for (res, finite), (pole_res, pole_finite) in zip(switched, pole):
        if pole_res == "TailEnvelopeError":
            assert res == "TailEnvelopeError"
        else:
            assert res != "TailEnvelopeError" and finite == pole_finite
            assert res.terms_used <= pole_res.terms_used

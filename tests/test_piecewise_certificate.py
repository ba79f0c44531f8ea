"""green_piecewise_eval's certificate against 50-digit references, over the
strata of the wide probe: n from 3 to 20, a toward 0 and 1, points next to
both spheres, pairs 1e-3 apart in angle, and abs_tol 1e-16 and 1e-10.

The references are kept in fixtures/piecewise_references.json, which
scripts/piecewise_references.py writes from references.mp_green; a thin
annulus takes seconds at 50 digits.  A seeded 5 % of the entries with
a <= 0.95, whose references take milliseconds, is recomputed live, so a
stale fixture fails.  Two more tests check the inputs' share of the bound:
it must cover the cosine's _E_COSINE units where the modes are most
sensitive to them, and each row must charge the count that _modal_rows
derives."""

import json
import math
import random

import mpmath
import pytest

import references as refs
from annulus_green import AnnulusError, AnnulusGeometry, TruncationPolicy, green_piecewise_eval
from annulus_green.green import _E_COSINE, _E_RADIUS, _modal_rows

DRAWS = json.loads(refs.PIECEWISE_FIXTURE.read_text())["draws"]


def _evaluate(draw, abs_tol):
    """The evaluator's result on a draw, or None where it raises a typed
    error."""
    geom = AnnulusGeometry(draw["n"], draw["a"])
    try:
        return green_piecewise_eval(geom, draw["x"], draw["y"], TruncationPolicy(abs_tol=abs_tol))
    except AnnulusError:
        return None


@pytest.mark.parametrize("abs_tol", [1e-16, 1e-10])
def test_bound_covers_every_reference(abs_tol):
    outside = []
    for draw in DRAWS:
        res = _evaluate(draw, abs_tol)
        if res is None:
            continue
        err = refs.error(res.value, draw["value"])
        if not (math.isfinite(res.value) and err <= res.tail_bound):
            outside.append((draw["name"], res, err))
    assert not outside


def test_fixture_holds_the_strata_and_the_named_cases():
    names = [draw["name"] for draw in DRAWS]
    assert {"n20-ray", "n20-cancel"} <= set(names) and len(names) >= 60
    assert {draw["n"] for draw in DRAWS} == {3, 4, 5, 6, 9, 20}
    assert min(draw["a"] for draw in DRAWS) < 0.05 and max(draw["a"] for draw in DRAWS) > 0.95
    # both named cases are summed to a result: they test the bound, not a raise
    assert all(_evaluate(d, 1e-10) is not None for d in DRAWS if d["name"].startswith("n20-"))


def test_fixture_matches_live_references():
    cheap = [draw for draw in DRAWS if draw["a"] <= 0.95]
    picked = random.Random(5).sample(cheap, max(1, round(0.05 * len(DRAWS))))
    for draw in picked:
        live = refs.mp_green(draw["n"], draw["a"], draw["x"], draw["y"])
        assert mpmath.nstr(live, refs.DPS) == draw["value"], draw["name"]


@pytest.mark.parametrize("n", [3, 4])
def test_bound_covers_every_cosine_within_its_error(n):
    # on one ray the computed cosine is exactly 1, where the modes are most
    # sensitive to it: at lo/hi = 0.99 the cosine _E_COSINE units below moves
    # the value by 0.27 to 0.38 of the bound, and by 1.3 to 1.8 of it where
    # the cosine's error is not counted
    lo, hi = 0.594, 0.6
    x, y = [lo] + [0.0] * (n - 1), [hi] + [0.0] * (n - 1)
    res = green_piecewise_eval(AnnulusGeometry(n, 0.05), x, y, TruncationPolicy(abs_tol=1e-16))
    with mpmath.workdps(refs.DPS):
        ref = refs.mp_green_polar(n, 0.05, lo, hi, 1 - _E_COSINE * mpmath.mpf(2) ** -53)
    assert res.converged and refs.error(res.value, ref) <= res.tail_bound


@pytest.mark.parametrize("n, a, lo, hi, t", [(3, 0.3, 0.5, 0.8, 0.3), (9, 0.9, 0.92, 0.95, -0.7)])
def test_rows_charge_the_documented_count(n, a, lo, hi, t):
    # each row's allowance is (2 + _E_COSINE)(m+1)^2
    # + (8m + 2n + 14 + 2 (2m + n) _E_RADIUS) amp + omega_units units of its
    # pole envelope (see _modal_rows), here written in closed form
    geom = AnnulusGeometry(n, a)
    omega, omega_units = geom.omega, geom.omega_rel_error / 2.0**-53
    amp = 1.0 / (1.0 - a ** (n - 2))
    env_k = amp / ((n - 2) * omega)
    rows = _modal_rows(n, a, lo, hi, t, omega, omega_units)
    for m, (_, _, _, allowance) in zip(range(300), rows):
        pole = env_k * math.comb(n + m - 3, m) * hi ** (2 - n) * (lo / hi) ** m
        units = (
            (2.0 + _E_COSINE) * (m + 1) ** 2
            + (8 * m + 2 * n + 14 + 2 * (2 * m + n) * _E_RADIUS) * amp
            + omega_units
        )
        assert allowance == pytest.approx(pole * units, rel=1e-12), m

"""green_piecewise_eval's certificate against 50-digit references, over the
strata of the wide probe: n from 3 to 20, a toward 0 and 1, points next to
both spheres, pairs 1e-3 apart in angle, and abs_tol 1e-16 and 1e-10.

The references are kept in fixtures/piecewise_references.json, which
scripts/piecewise_references.py writes from references.mp_green; a thin
annulus takes seconds at 50 digits.  A seeded 5 % of the entries with
a <= 0.95, whose references take milliseconds, is recomputed live, so a
stale fixture fails."""

import json
import math
import random

import mpmath
import pytest

import references as refs
from annulus_green import AnnulusError, AnnulusGeometry, TruncationPolicy, green_piecewise_eval

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

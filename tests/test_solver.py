"""The Brent-Dekker critical-point solver against the pure-bisection oracle.

``bisection_oracle`` is the solver this package used before: bisection of
the sweep bracket to adjacent doubles with an absolute residual certificate.
The new solver must end on the same adjacent-double pair, and so on the same
root, in far fewer evaluations.
"""

import random

import pytest

import bisection_oracle
from annulus_green import (
    AnnulusGeometry,
    BracketingError,
    concentration_root,
    find_critical_point,
)
from annulus_green import critical
from annulus_green.green import robin2d_first, robin_radial_gradient

SOLVER_TOL = 1e-12

# rounding flips the computed gradient's sign one ulp beyond Brent's final
# bracket here, so bisection must evaluate past that bracket to end on the
# same pair
SIGN_NOISE_CASE = (3, 0.1401626201573381)


def _seeded_geometries(count, seed=20261018):
    rng = random.Random(seed)
    return [(rng.randint(2, 6), rng.uniform(0.05, 0.95)) for _ in range(count)]


def _gradient(n, a):
    policy = critical._series_policy(None, SOLVER_TOL)
    if n == 2:
        return critical._CountedSeries(lambda r: robin2d_first(a, r, policy))
    geom = AnnulusGeometry(n, a)
    return critical._CountedSeries(lambda r: robin_radial_gradient(geom, r, policy))


def test_same_adjacent_pair_as_bisection():
    certified = 0
    for n, a in _seeded_geometries(120) + [SIGN_NOISE_CASE]:
        f = _gradient(n, a)
        standoff = critical.DEFAULT_STANDOFF_FACTOR * (1.0 - a)
        lo, res_lo, hi, res_hi, sign_lo = critical._sweep_bracket(f, a, standoff)

        oracle_pair = bisection_oracle.bisect_bracket(f, lo, hi, sign_lo)
        try:
            oracle_root, _ = bisection_oracle.bisect(f, lo, hi, sign_lo, SOLVER_TOL)
        except BracketingError:
            oracle_root = None

        p, res_p, q, res_q = critical._brent(f, lo, res_lo, hi, res_hi)
        x_lo, _, x_hi, _ = critical._bisect(f, lo, hi, sign_lo, p, res_p, q, res_q)
        assert (x_lo, x_hi) == oracle_pair, (n, a)

        report = find_critical_point(AnnulusGeometry(n, a), None, SOLVER_TOL)
        if oracle_root is None:
            assert report.certificate == "sign-pinned", (n, a)
        else:
            certified += 1
            assert report.certificate == "residual", (n, a)
            assert report.r0 == oracle_root, (n, a)
            assert report.residual <= SOLVER_TOL
    # the comparison is not vacuous: most of the draw certifies by residual
    assert certified >= 100


@pytest.mark.parametrize("n, a", [(3, 0.5), (2, 0.2)])
def test_evaluation_count(n, a):
    # pure bisection took 58 evaluations on both
    report = find_critical_point(AnnulusGeometry(n, a), None, SOLVER_TOL)
    assert report.evaluations <= 30


def test_concentration_root_is_the_same_root():
    # the concentration equation is the gradient times -omega/2, so the
    # shared solver ends on the same adjacent-double pair
    for n, a in ((3, 0.5), (4, 0.3), (6, 0.8)):
        geom = AnnulusGeometry(n, a)
        root = concentration_root(geom, None, SOLVER_TOL)
        assert root == find_critical_point(geom, None, SOLVER_TOL).r0

import random

import mpmath
import pytest
from mpmath import mpf

import references as refs
from annulus_green import (
    AnnulusGeometry,
    BracketingError,
    TruncationPolicy,
    concentration_root,
    count_gradient_sign_changes,
    find_critical_point,
    grid_scan_extremum,
    robin2d_eval_grid,
    robin2d_second,
    robin_eval,
)

POLICY = TruncationPolicy(abs_tol=1e-12, max_terms=300_000)

# two seeded geometries per dimension n = 2..6 with a in [0.05, 0.95], thin
# annuli, and the sign-pinned geometries of test_robin_split
_DRAW = random.Random(29)
CURVATURE_CASES = (
    [(n, _DRAW.uniform(0.05, 0.95)) for n in range(2, 7) for _ in range(2)]
    + [(2, 0.99), (3, 0.99), (6, 0.99), (6, 0.999)]
    + [(4, 0.937), (5, 0.853), (6, 0.784), (6, 0.942)]
)


class TestPlanarCriticalPoint:
    def test_matches_grid_scan(self):
        geom = AnnulusGeometry(2, 0.2)
        report = find_critical_point(geom, POLICY, solver_tol=1e-12)
        r_scan, _ = grid_scan_extremum(
            lambda r: robin2d_eval_grid(0.2, r, POLICY).value, 0.24, 0.96, 20_001, kind="min"
        )
        assert abs(report.r0 - r_scan) <= 1e-6
        assert report.is_radial_minimum
        assert robin2d_second(0.2, report.r0, POLICY).value > 0
        assert report.residual <= 1e-12


class TestSpatialCriticalPoint:
    def test_report_contract(self):
        geom = AnnulusGeometry(3, 0.5)
        report = find_critical_point(geom, POLICY, solver_tol=1e-12)
        lo, hi = report.bracket
        assert geom.a < lo < report.r0 < hi < 1.0
        assert report.residual <= 1e-12
        assert report.evaluations > 0
        assert "bisection" in report.method
        assert report.nondegenerate
        # observed curvature at the critical radius: a radial maximum
        assert not report.is_radial_minimum

    def test_curvature_sign_matches_second_difference(self):
        geom = AnnulusGeometry(3, 0.5)
        report = find_critical_point(geom, POLICY, solver_tol=1e-12)
        h = 1e-3
        vals = [robin_eval(geom, report.r0 + k * h, POLICY).value for k in (-1, 0, 1)]
        second_fd = (vals[0] - 2 * vals[1] + vals[2]) / h**2
        assert (second_fd > 0) == (report.second_derivative > 0)
        assert report.second_derivative == pytest.approx(second_fd, rel=1e-3)

    def test_regression_pair_from_grid_scans(self, golden):
        fix = golden["critical_radius_regression"]
        for a_str, frozen in fix["values"].items():
            geom = AnnulusGeometry(3, float(a_str))
            report = find_critical_point(geom, POLICY, solver_tol=1e-12)
            assert report.r0 == pytest.approx(frozen, abs=1e-6)
        # recorded ordering: the critical radius moves out with the hole
        assert fix["values"]["0.3"] < fix["values"]["0.5"]

    def test_concentration_root_agrees(self):
        # the root equation is the gradient times -omega/2: the same root
        for n, a in ((3, 0.5), (4, 0.3)):
            geom = AnnulusGeometry(n, a)
            report = find_critical_point(geom, POLICY, solver_tol=1e-12)
            assert concentration_root(geom, POLICY, solver_tol=1e-12) == report.r0

    def test_root_matches_the_mpmath_root(self):
        # the 50-digit root shares no arithmetic with the series; r0 lies
        # within the certificate's own bound residual / |slope| of it
        for n, a in ((2, 0.2), (3, 0.5), (4, 0.3)):
            report = find_critical_point(AnnulusGeometry(n, a), POLICY, solver_tol=1e-12)
            root, slope = refs.root(n, a, report.r0)
            with mpmath.workdps(refs.DPS):
                error = float(abs(mpf(report.r0) - root))
            assert error <= report.residual / abs(float(slope))


class TestSignChanges:
    def test_exactly_one_change(self):
        for n, a in ((2, 0.2), (3, 0.5), (4, 0.3)):
            geom = AnnulusGeometry(n, a)
            changes, locations = count_gradient_sign_changes(
                geom, TruncationPolicy(abs_tol=1e-8, max_terms=500_000), num=800
            )
            assert changes == 1
            assert geom.a < locations[0] < 1.0


class TestFailureModes:
    def test_impossible_policy_reports_bracketing_failure(self):
        geom = AnnulusGeometry(3, 0.5)
        starving = TruncationPolicy(abs_tol=1e-12, max_terms=3, tail_safety=1)
        with pytest.raises(BracketingError):
            find_critical_point(geom, starving, solver_tol=1e-12)


@pytest.mark.parametrize("n, a", CURVATURE_CASES, ids=lambda v: f"{v:.4g}")
def test_second_derivative_uncertainty_covers_mpmath_error(n, a):
    report = find_critical_point(AnnulusGeometry(n, a), None, solver_tol=1e-12)
    # R, D R and D^2 R with D = r d/dr, at 50 digits and at the reported double
    _, first, second = refs.robin_powers(n, a, report.r0)
    with mpmath.workdps(refs.DPS):
        r0 = mpf(report.r0)
        exact = (second - first) / (r0 * r0)
        error = float(abs(mpf(report.second_derivative) - exact))
    assert error <= report.second_derivative_uncertainty
    # sharp enough to be evidence: within a few thousand ulps of |R''|
    assert report.second_derivative_uncertainty <= 1e-12 * abs(report.second_derivative)
    assert report.nondegenerate

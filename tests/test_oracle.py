import math

import numpy as np
import pytest

from annulus_green import (
    AnnulusGeometry,
    DomainValidationError,
    FDGrid,
    GridEdgeError,
    ModalOperator,
    SingularityError,
    ball_green_closed_form,
    grid_scan_extremum,
    modal_bvp_fd,
    modal_coefficient,
    modal_green_analytic,
    modal_green_fd,
    poisson_coeff_b,
)


class TestModalAnalytic:
    def test_vanishes_at_endpoints(self):
        for m in (0, 1, 6):
            assert modal_green_analytic(3, m, 0.5, 0.5, 0.8) == pytest.approx(0.0, abs=1e-15)
            assert modal_green_analytic(3, m, 0.5, 0.7, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_symmetric(self, rng):
        for _ in range(20):
            r, s = rng.uniform(0.5, 1.0, size=2)
            m = int(rng.integers(0, 30))
            assert modal_green_analytic(3, m, 0.5, r, s) == modal_green_analytic(
                3, m, 0.5, s, r
            )

    def test_mode_zero_proportional_to_series_coefficient(self):
        geom = AnnulusGeometry(3, 0.5)
        got = modal_green_analytic(3, 0, 0.5, 0.6, 0.8)
        ref = geom.omega * modal_coefficient(geom, 0, 0.6, 0.8)
        assert got == pytest.approx(ref, rel=1e-13)

    def test_normalization_constant_is_one(self, rng):
        # ratio against the series coefficient must be the constant 1 across
        # modes; anything else flags a prefactor defect
        for n, a in ((3, 0.5), (4, 0.3)):
            geom = AnnulusGeometry(n, a)
            for _ in range(10):
                r, s = rng.uniform(a + 0.01, 0.99, size=2)
                for m in range(0, 51, 7):
                    ratio = modal_green_analytic(n, m, a, r, s) / (
                        geom.omega * modal_coefficient(geom, m, r, s)
                    )
                    assert ratio == pytest.approx(1.0, abs=1e-10)

    def test_operator_validation(self):
        with pytest.raises(DomainValidationError):
            ModalOperator(2, 0, 0.5)
        with pytest.raises(DomainValidationError):
            ModalOperator(3, -1, 0.5)
        assert ModalOperator(4, 3, 0.5).eigenvalue == 3 * 5


class TestModalFD:
    def test_boundary_rows_exact_zero(self):
        grid = FDGrid(201, 0.5)
        prof = modal_green_fd(3, 1, 0.5, 0.8, grid)
        assert prof[0] == 0.0
        assert prof[-1] == 0.0

    def test_accuracy_at_fine_grid(self):
        grid = FDGrid(2001, 0.5)
        prof = modal_green_fd(3, 2, 0.5, 0.8, grid)
        exact = np.array([modal_green_analytic(3, 2, 0.5, float(r), 0.8) for r in grid.nodes])
        scale = np.max(np.abs(exact))
        assert np.max(np.abs(prof - exact)) / scale <= 1e-4

    def test_second_order_convergence(self):
        errs = []
        for num in (501, 1001, 2001):
            grid = FDGrid(num, 0.3)
            prof = modal_green_fd(4, 1, 0.3, 0.72, grid)
            exact = np.array(
                [modal_green_analytic(4, 1, 0.3, float(r), 0.72) for r in grid.nodes]
            )
            scale = np.max(np.abs(exact))
            errs.append(np.max(np.abs(prof - exact)) / scale)
        for k in (0, 1):
            order = math.log2(errs[k] / errs[k + 1])
            assert order == pytest.approx(2.0, abs=0.2)

    def test_rejects_mismatched_grid(self):
        with pytest.raises(DomainValidationError):
            modal_green_fd(4, 1, 0.3, 0.72, FDGrid(501, 0.5))

    def test_source_placement_validation(self):
        with pytest.raises(DomainValidationError):
            modal_green_fd(3, 0, 0.5, 0.5, FDGrid(501, 0.5))
        with pytest.raises(DomainValidationError):
            modal_green_fd(3, 0, 0.5, 0.8, FDGrid(50, 0.5))

    def test_bvp_solver_matches_closed_form(self):
        # mode-1 harmonic profile with data (0, 1) is b_1(r) * r
        geom = AnnulusGeometry(3, 0.5)
        grid = FDGrid(2001, 0.5)
        prof = modal_bvp_fd(3, 1, 0.5, 0.0, 1.0, grid)
        exact = np.array([poisson_coeff_b(geom, 1, float(r)) * float(r) for r in grid.nodes])
        assert np.max(np.abs(prof - exact)) <= 1e-7


class TestBallGreen:
    def test_dirichlet_zero_on_sphere(self):
        x = np.array([1.0, 0.0, 0.0])
        y = np.array([0.3, 0.2, 0.0])
        assert ball_green_closed_form(3, x, y) == pytest.approx(0.0, abs=1e-14)

    def test_symmetry(self, rng):
        for _ in range(20):
            x = rng.uniform(-0.5, 0.5, size=3)
            y = rng.uniform(-0.5, 0.5, size=3)
            if np.linalg.norm(x - y) < 1e-6:
                continue
            assert ball_green_closed_form(3, x, y) == pytest.approx(
                ball_green_closed_form(3, y, x), rel=1e-13
            )

    def test_center_formula(self):
        x = np.array([0.4, 0.0, 0.0])
        expected = (1 / 0.4 - 1.0) / (4 * math.pi)
        assert ball_green_closed_form(3, x, np.zeros(3)) == pytest.approx(expected, rel=1e-13)

    def test_errors(self):
        with pytest.raises(SingularityError):
            ball_green_closed_form(3, np.array([0.3, 0, 0]), np.array([0.3, 0, 0]))
        with pytest.raises(DomainValidationError):
            ball_green_closed_form(3, np.array([1.3, 0, 0]), np.zeros(3))


class TestGridScan:
    def test_known_parabola(self):
        r, v = grid_scan_extremum(lambda x: (x - 0.6) ** 2, 0.5, 0.7, 10_001, kind="min")
        assert r == pytest.approx(0.6, abs=1e-8)
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_maximum_mode(self):
        r, v = grid_scan_extremum(lambda x: -((x - 0.55) ** 2) + 2, 0.3, 0.9, 2_001, kind="max")
        assert r == pytest.approx(0.55, abs=1e-8)
        assert v == pytest.approx(2.0, abs=1e-12)

    def test_monotone_reports_edge(self):
        with pytest.raises(GridEdgeError):
            grid_scan_extremum(lambda x: x, 0.0, 1.0, 1_000, kind="min")

    def test_rejects_small_grid(self):
        with pytest.raises(DomainValidationError):
            grid_scan_extremum(lambda x: x * x, -1.0, 1.0, 999)

    def test_rejects_fn_without_one_value_per_node(self):
        # fn is called once on the whole grid and must map it elementwise
        with pytest.raises(DomainValidationError):
            grid_scan_extremum(lambda x: float(x[0]), 0.0, 1.0, 1_000)

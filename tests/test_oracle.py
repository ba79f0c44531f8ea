import math

import mpmath
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
from annulus_green import oracle


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


def _mp_thomas(lower, diag, upper, rhs):
    """The tridiagonal system of _thomas solved in 50-digit arithmetic, and
    the largest residual of that solution relative to |A| |x| per row."""
    with mpmath.workdps(50):
        lo, d, up, b = ([mpmath.mpf(float(v)) for v in w] for w in (lower, diag, upper, rhs))
        size = len(d)
        c, x = [mpmath.mpf(0)] * size, [mpmath.mpf(0)] * size
        c[0], x[0] = up[0] / d[0], b[0] / d[0]
        for i in range(1, size):
            pivot = d[i] - lo[i] * c[i - 1]
            c[i], x[i] = up[i] / pivot, (b[i] - lo[i] * x[i - 1]) / pivot
        for i in range(size - 2, -1, -1):
            x[i] -= c[i] * x[i + 1]
        worst = mpmath.mpf(0)
        for i in range(size):
            row = [(d[i], x[i])]
            row += [(lo[i], x[i - 1])] if i > 0 else []
            row += [(up[i], x[i + 1])] if i < size - 1 else []
            res = b[i] - sum(coef * xj for coef, xj in row)
            worst = max(worst, abs(res) / sum(abs(coef * xj) for coef, xj in row))
        return x, float(worst)


class TestThomasSolve:
    """oracle._thomas, the tridiagonal LU solve without pivoting behind
    modal_green_fd and modal_bvp_fd."""

    @pytest.fixture()
    def systems(self, monkeypatch):
        """Each (lower, diag, upper, rhs, solution) that _thomas solves."""
        seen, solve = [], oracle._thomas

        def spy(*system):
            x = solve(*system)
            seen.append((*system, x))
            return x

        monkeypatch.setattr(oracle, "_thomas", spy)
        return seen

    @pytest.mark.parametrize("num", [501, 2001])
    @pytest.mark.parametrize("m", [0, 1, 2])
    @pytest.mark.parametrize("n, a, s", [(3, 0.5, 0.8), (4, 0.3, 0.72)])
    def test_modal_system_against_mpmath(self, systems, n, m, a, s, num):
        # the float system the oracle built, solved to 50 digits.  Without
        # pivoting on an M-matrix, (A + dA) x_hat = b with |dA| <= 4u |A| to
        # first order (Higham, Accuracy and Stability of Numerical
        # Algorithms, section 9.5), so |x_hat - x| <= 4u A^-1 |A| |x_hat| row
        # by row, A^-1 being >= 0; 8u leaves room for the O(u^2) terms
        modal_green_fd(n, m, a, s, FDGrid(num, a))
        [(lower, diag, upper, rhs, x_hat)] = systems
        assert lower.max() <= 0.0 and upper.max() <= 0.0 and diag.min() > 0.0
        exact, residual = _mp_thomas(lower, diag, upper, rhs)
        assert residual <= 1e-40
        abs_ax = np.abs(diag * x_hat)
        abs_ax[1:] += np.abs(lower[1:] * x_hat[:-1])
        abs_ax[:-1] += np.abs(upper[:-1] * x_hat[1:])
        spread, _ = _mp_thomas(lower, diag, upper, abs_ax)
        u = 2.0**-53
        for xi, ref, sp in zip(x_hat.tolist(), exact, spread):
            assert float(abs(mpmath.mpf(xi) - ref)) <= 8.0 * u * float(sp)

    def test_diagonally_dominant_systems_match_numpy(self, rng):
        for size in (1, 2, 3, 7, 40, 200):
            for _ in range(5):
                lower, upper = rng.uniform(-1.0, 1.0, size=(2, size))
                lower[0] = upper[-1] = 0.0
                margin = rng.uniform(0.05, 2.0, size=size)
                diag = rng.choice([-1.0, 1.0], size=size) * (abs(lower) + abs(upper) + margin)
                rhs = rng.normal(size=size)
                dense = np.diag(diag) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)
                want = np.linalg.solve(dense, rhs)
                got = oracle._thomas(lower, diag, upper, rhs)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize(
        "solve",
        [
            lambda: modal_bvp_fd(4, 1, 0.1, 0.0, 1.0, FDGrid(3, 0.1)),
            lambda: modal_green_fd(20, 1, 0.01, 0.5, FDGrid(100, 0.01)),
        ],
    )
    def test_refuses_grids_outside_the_m_matrix_range(self, solve):
        # (n - 1) h > 2 r at the first interior node: 1.35 > 1.1 and 0.19 > 0.04
        with pytest.raises(DomainValidationError, match="too coarse"):
            solve()


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

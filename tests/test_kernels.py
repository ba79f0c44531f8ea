import math

import mpmath
import numpy as np
import pytest

from annulus_green import (
    AnnulusGeometry,
    BoundaryData,
    DomainValidationError,
    QuadratureDegreeError,
    SeriesDivergenceError,
    SphereQuadrature,
    TailEnvelopeError,
    TruncationPolicy,
    build_sphere_quadrature,
    gegenbauer_eval,
    harmonic_extension,
    modal_bvp_fd,
    newtonian_series_exterior,
    newtonian_series_inner,
    newtonian_series_outer,
    poisson_coeff_b,
    poisson_coeff_c,
    sphere_surface_area,
    zonal_direct,
    zonal_from_gegenbauer,
)
from annulus_green.oracle import FDGrid
from conftest import random_unit

POLICY = TruncationPolicy(abs_tol=1e-12, max_terms=100_000)


class TestOuterSeries:
    def test_center_value(self):
        geom = AnnulusGeometry(3, 0.5)
        res = newtonian_series_outer(geom, [1.0, 0.0, 0.0], np.zeros(3), POLICY)
        assert res.value == 1.0
        assert res.tail_bound == 0.0
        assert res.converged

    def test_aligned_collapses_to_geometric(self):
        geom = AnnulusGeometry(3, 0.5)
        xi = np.array([1.0, 0.0, 0.0])
        res = newtonian_series_outer(geom, xi, 0.3 * xi, POLICY)
        assert res.value == pytest.approx(1 / 0.7, abs=1e-11)

    def test_matches_direct_distance(self, rng):
        geom = AnnulusGeometry(4, 0.5)
        for _ in range(25):
            xi = random_unit(rng, 4)
            y = rng.uniform(0.0, 0.9) * random_unit(rng, 4)
            res = newtonian_series_outer(geom, xi, y, POLICY)
            direct = np.linalg.norm(xi - y) ** -2.0
            assert res.converged
            assert abs(res.value - direct) <= res.tail_bound + 1e-12

    def test_divergence_flag(self):
        geom = AnnulusGeometry(3, 0.5)
        with pytest.raises(SeriesDivergenceError):
            newtonian_series_outer(geom, [1.0, 0, 0], [0.0, 1.0, 0.1], POLICY)


class TestInnerSeries:
    def test_aligned(self):
        geom = AnnulusGeometry(3, 0.5)
        xi = np.array([1.0, 0.0, 0.0])
        res = newtonian_series_inner(geom, xi, 0.8 * xi, POLICY)
        assert res.value == pytest.approx(1 / 0.3, abs=1e-9)

    def test_anti_aligned(self):
        geom = AnnulusGeometry(3, 0.5)
        xi = np.array([1.0, 0.0, 0.0])
        res = newtonian_series_inner(geom, xi, -0.8 * xi, POLICY)
        assert res.value == pytest.approx(1 / 1.3, abs=1e-11)

    def test_matches_direct_distance(self, rng):
        geom = AnnulusGeometry(4, 0.3)
        for _ in range(25):
            xi = random_unit(rng, 4)
            y = 0.9 * random_unit(rng, 4)
            res = newtonian_series_inner(geom, xi, y, POLICY)
            direct = np.linalg.norm(0.3 * xi - y) ** -2.0
            assert abs(res.value - direct) <= res.tail_bound + 1e-12

    def test_divergence_flag(self):
        geom = AnnulusGeometry(3, 0.5)
        with pytest.raises(SeriesDivergenceError):
            newtonian_series_inner(geom, [1.0, 0, 0], [0.2, 0.1, 0.0], POLICY)


class TestExteriorSeries:
    def test_small_source_limit(self):
        geom = AnnulusGeometry(3, 0.5)
        x = np.array([0.9, 0.0, 0.0])
        res = newtonian_series_exterior(geom, x, np.array([1e-12, 0.0, 0.0]), POLICY)
        assert res.value == pytest.approx(1 / 0.9, rel=1e-11)

    def test_aligned_and_orthogonal(self):
        geom = AnnulusGeometry(3, 0.5)
        x = np.array([0.9, 0.0, 0.0])
        res = newtonian_series_exterior(geom, x, np.array([0.3, 0.0, 0.0]), POLICY)
        assert res.value == pytest.approx(1 / 0.6, abs=1e-11)
        res = newtonian_series_exterior(geom, x, np.array([0.0, 0.3, 0.0]), POLICY)
        assert res.value == pytest.approx(1 / math.sqrt(0.90), abs=1e-11)

    def test_divergence_flag(self):
        geom = AnnulusGeometry(3, 0.5)
        with pytest.raises(SeriesDivergenceError):
            newtonian_series_exterior(geom, [0.3, 0, 0], [0.0, 0.4, 0.0], POLICY)


class TestPoissonCoefficients:
    def test_boundary_values(self):
        geom = AnnulusGeometry(3, 0.5)
        for m in (0, 1, 5, 20):
            assert poisson_coeff_b(geom, m, geom.a) == pytest.approx(0.0, abs=1e-15)
            assert poisson_coeff_b(geom, m, 1.0) == pytest.approx(1.0, rel=1e-15)
            assert poisson_coeff_c(geom, m, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_rejects_outside_range(self):
        geom = AnnulusGeometry(3, 0.5)
        with pytest.raises(DomainValidationError):
            poisson_coeff_b(geom, 1, 0.4)
        with pytest.raises(DomainValidationError):
            poisson_coeff_c(geom, 1, 1.1)

    @pytest.mark.parametrize(
        "n, m, r",
        [
            (3, 1200, 0.55),  # 7.1e261, where r^-m alone overflows
            (3, 8000, 0.9),  # 4e-1677, which is 0.0 as a double
            (10, 1413, 0.55),  # 1.1e308, where (a/r^2)^m alone would overflow
        ],
    )
    def test_inner_coefficient_where_a_power_leaves_the_range(self, n, m, r):
        with mpmath.workdps(50):
            a, rr, beta = mpmath.mpf(0.5), mpmath.mpf(r), 2 * m + n - 2
            ref = rr ** (-m) * (a / rr) ** (m + n - 2) * (1 - rr**beta) / (1 - a**beta)
            want = float(ref)
        got = poisson_coeff_c(AnnulusGeometry(n, 0.5), m, r)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_inner_coefficient_beyond_the_range_is_a_typed_error(self):
        # the value is 7.3e309
        with pytest.raises(TailEnvelopeError):
            poisson_coeff_c(AnnulusGeometry(3, 0.5), 1420, 0.55)


def _axis(n, i, length=1.0):
    v = np.zeros(n)
    v[i] = length
    return v


@pytest.mark.parametrize(
    "call",
    [
        # |y|^(2-n) overflows, at |y| = 0.55 and n = 1200
        lambda: newtonian_series_inner(
            AnnulusGeometry(1200, 0.5), _axis(1200, 0), _axis(1200, 1, 0.55), POLICY
        ),
        # |x|^(2-n) overflows, at |x| = 0.9 and n = 7000
        lambda: newtonian_series_exterior(
            AnnulusGeometry(7000, 0.5), _axis(7000, 0, 0.9), _axis(7000, 1, 0.5), POLICY
        ),
        # P_2000(1) = C(2799, 2000), about 1.5e725
        lambda: gegenbauer_eval(400.0, 2000, 1.0),
        lambda: zonal_from_gegenbauer(802, 2000, _axis(802, 0), _axis(802, 0)),
    ],
    ids=["newtonian_series_inner", "newtonian_series_exterior", "gegenbauer_eval", "zonal"],
)
def test_values_beyond_the_double_range_are_typed_errors(call):
    # an evaluator never returns a NaN and never raises an untyped error
    with pytest.raises(TailEnvelopeError):
        call()


class TestQuadrature:
    def test_weight_sum_and_nodes(self):
        quad = build_sphere_quadrature(48)
        assert quad.weights.sum() == pytest.approx(sphere_surface_area(3), rel=1e-13)
        assert np.max(np.abs(np.linalg.norm(quad.nodes, axis=1) - 1.0)) < 1e-12
        assert np.all(quad.weights > 0)
        assert quad.max_exact_degree >= 48

    def test_integrates_harmonics_to_zero(self, rng):
        from annulus_green import harmonic_space_dim, zonal_from_gegenbauer

        quad = build_sphere_quadrature(30)
        eta = random_unit(rng, 3)
        for m in (1, 2, 5, 11, 23, quad.max_exact_degree):
            # normalize the degree-m harmonic to unit sup (its diagonal value)
            scale = harmonic_space_dim(3, m)
            vals = np.array(
                [zonal_from_gegenbauer(3, m, node, eta) / scale for node in quad.nodes]
            )
            integral = float(quad.weights @ vals)
            assert abs(integral) <= 1e-12 * quad.weights.sum()

    def test_validation(self):
        nodes = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(DomainValidationError):
            SphereQuadrature(nodes=nodes, weights=np.array([1.0, -1.0]), max_exact_degree=1)
        with pytest.raises(DomainValidationError):
            SphereQuadrature(nodes=2 * nodes, weights=np.array([1.0, 1.0]), max_exact_degree=1)


@pytest.fixture(scope="module")
def quad():
    return build_sphere_quadrature(2 * 47 + 2)


class TestHarmonicExtension:
    GEOM = AnnulusGeometry(3, 0.5)
    POL = TruncationPolicy(abs_tol=1e-9, max_terms=48)

    def test_constant_is_fixed_point(self, quad, rng):
        ones = BoundaryData(outer=lambda v: 1.0, inner=lambda v: 1.0)
        for _ in range(10):
            x = rng.uniform(0.55, 0.95) * random_unit(rng, 3)
            res = harmonic_extension(self.GEOM, ones, x, self.POL, quad)
            assert abs(res.value - 1.0) <= 1e-8

    def test_coordinate_function(self, quad):
        coord = BoundaryData(outer=lambda v: v[0], inner=lambda v: 0.5 * v[0])
        res = harmonic_extension(self.GEOM, coord, np.array([0.7, 0.0, 0.0]), self.POL, quad)
        assert res.value == pytest.approx(0.7, abs=1e-6)
        res = harmonic_extension(self.GEOM, coord, np.array([0.3, 0.5, -0.4]), self.POL, quad)
        assert res.value == pytest.approx(0.3, abs=1e-6)

    def test_mode_one_profile_against_fd(self, quad):
        # outer data = first coordinate restricted to the sphere, inner data 0
        data = BoundaryData(outer=lambda v: v[0], inner=lambda v: 0.0)
        grid = FDGrid(4001, 0.5)
        profile = modal_bvp_fd(3, 1, 0.5, 0.0, 1.0, grid)
        e1 = np.array([1.0, 0.0, 0.0])
        for idx in (700, 1500, 2600, 3400):
            r = float(grid.nodes[idx])
            res = harmonic_extension(self.GEOM, data, r * e1, self.POL, quad)
            assert abs(res.value - profile[idx]) <= 1e-6

    def test_quadrature_degree_insufficiency(self):
        small = build_sphere_quadrature(10)
        wide = TruncationPolicy(abs_tol=1e-12, max_terms=400)
        ones = BoundaryData(outer=lambda v: 1.0, inner=lambda v: 1.0)
        with pytest.raises(QuadratureDegreeError):
            harmonic_extension(self.GEOM, ones, np.array([0.9, 0.0, 0.0]), wide, small)

    def test_rejects_nonfinite_data(self, quad):
        bad = BoundaryData(outer=lambda v: float("inf"), inner=lambda v: 0.0)
        with pytest.raises(DomainValidationError):
            harmonic_extension(self.GEOM, bad, np.array([0.7, 0.0, 0.0]), self.POL, quad)

    def test_rejects_quadrature_of_another_dimension(self, quad):
        geom4 = AnnulusGeometry(4, 0.5)
        ones = BoundaryData(outer=lambda v: 1.0, inner=lambda v: 1.0)
        with pytest.raises(DomainValidationError, match="quadrature dimension"):
            harmonic_extension(geom4, ones, np.array([0.7, 0.0, 0.0, 0.0]), self.POL, quad)

    def test_rejects_boundary_point(self, quad):
        ones = BoundaryData(outer=lambda v: 1.0, inner=lambda v: 1.0)
        with pytest.raises(DomainValidationError):
            harmonic_extension(self.GEOM, ones, np.array([1.0, 0.0, 0.0]), self.POL, quad)


class TestGeneratingSeriesRounding:
    """The three expansions count the rounding of the generating series in
    their tail bound, checked against 50-digit values of |p - q|^(2-n) at
    the normalised directions the evaluators use."""

    def test_cancelling_terms_stay_inside_the_bound(self):
        # terms reach 1.6e11 and alternate, yet the value is 8.1e-3
        geom = AnnulusGeometry(9, 0.5)
        e1 = np.eye(9)[0]
        res = newtonian_series_exterior(geom, e1, -0.99 * e1, TruncationPolicy(abs_tol=1e-12))
        assert res.converged
        assert abs(res.value - 1.99**-7) <= res.tail_bound

    def test_seeded_draw_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        rng = np.random.default_rng(20261018)
        policy = TruncationPolicy(abs_tol=1e-12)

        def exact(p, q, n):
            d2 = sum((mp.mpf(float(u)) - mp.mpf(float(v))) ** 2 for u, v in zip(p, q))
            return d2 ** (mp.mpf(2 - n) / 2)

        def direction(v):
            # the exact unit vector along the given doubles
            norm = mp.sqrt(sum(mp.mpf(float(c)) ** 2 for c in v))
            return [mp.mpf(float(c)) / norm for c in v]

        checked = 0
        for n in (3, 4, 5, 6, 9):
            geom = AnnulusGeometry(n, float(rng.uniform(0.2, 0.8)))
            for _ in range(20):
                xi = random_unit(rng, n)
                # source radii up to 0.99 of the far one, so that terms cancel
                y = rng.uniform(0.0, 0.99) * random_unit(rng, n)
                res = newtonian_series_outer(geom, xi, y, policy)
                ref = exact(direction(xi), y, n)
                assert res.converged and abs(res.value - ref) <= res.tail_bound, (n, xi, y)

                s = float(np.linalg.norm(y))
                if s > geom.a:
                    res = newtonian_series_inner(geom, xi, y, policy)
                    ref = exact([geom.a * c for c in direction(xi)], y, n)
                    assert res.converged and abs(res.value - ref) <= res.tail_bound, (n, xi, y)

                x = rng.uniform(0.3, 1.0) * random_unit(rng, n)
                y = rng.uniform(0.0, 0.99) * float(np.linalg.norm(x)) * random_unit(rng, n)
                res = newtonian_series_exterior(geom, x, y, policy)
                ref = exact(x, y, n)
                assert res.converged and abs(res.value - ref) <= res.tail_bound, (n, x, y)
                checked += 1
        assert checked == 100

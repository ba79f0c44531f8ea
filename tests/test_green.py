import math
import random

import mpmath
import numpy as np
import pytest

import references as refs
import rounding_oracle as ro
from annulus_green import (
    AnnulusGeometry,
    DomainValidationError,
    SingularityError,
    TailEnvelopeError,
    TruncationPolicy,
    ball_green_closed_form,
    critical_equation_eval,
    find_critical_point,
    green_eval,
    green_piecewise_eval,
    modal_coefficient,
    newtonian_potential,
    robin2d_eval,
    robin2d_eval_grid,
    robin2d_first,
    robin2d_first_grid,
    robin2d_second,
    robin_eval,
    robin_eval_grid,
    robin_radial_gradient,
    robin_radial_gradient_derivative,
    robin_radial_gradient_grid,
)
from annulus_green import green, kernels
from annulus_green.grid import _green_slice
from conftest import random_unit

POLICY = TruncationPolicy(abs_tol=1e-12, max_terms=300_000)


def neville_to_zero(xs, vals):
    tab = [float(v) for v in vals]
    for j in range(1, len(tab)):
        for i in range(len(tab) - 1, j - 1, -1):
            tab[i] = (xs[i - j] * tab[i] - xs[i] * tab[i - 1]) / (xs[i - j] - xs[i])
    return tab[-1]


class TestModalCoefficient:
    GEOM = AnnulusGeometry(3, 0.5)

    def test_vanishes_on_boundaries(self):
        for m in (0, 1, 7):
            assert modal_coefficient(self.GEOM, m, 0.5, 0.8) == 0.0
            assert modal_coefficient(self.GEOM, m, 0.7, 1.0) == 0.0

    def test_hand_evaluated_mode_zero(self):
        # n = 3, m = 0: (r - a)(1 - s) / ((r s)(1 - a)) / (4 pi) at r=0.6, s=0.8
        expected = (0.6 - 0.5) * (1 - 0.8) / (1.0 * 0.48 * 0.5) / (4 * math.pi)
        assert modal_coefficient(self.GEOM, 0, 0.6, 0.8) == pytest.approx(expected, rel=1e-14)

    def test_symmetry_and_positivity(self, rng):
        for _ in range(30):
            r, s = rng.uniform(0.5, 1.0, size=2)
            m = int(rng.integers(0, 40))
            v1 = modal_coefficient(self.GEOM, m, r, s)
            v2 = modal_coefficient(self.GEOM, m, s, r)
            assert v1 == v2  # radius-ordered internally
            if 0.5 < r < 1 and 0.5 < s < 1:
                assert v1 > 0.0

    def test_rejects_outside_annulus(self):
        with pytest.raises(DomainValidationError):
            modal_coefficient(self.GEOM, 0, 0.4, 0.8)

    @pytest.mark.parametrize("m", [800, 2000])
    def test_high_modes_against_mpmath(self, m):
        # lo^beta and (lo hi)^(m+n-2) underflow on their own from m ~ 1000,
        # long before the coefficient does
        value = modal_coefficient(self.GEOM, m, 0.6, 0.7)
        with mpmath.workdps(50):
            a, lo, hi = mpmath.mpf(0.5), mpmath.mpf(0.6), mpmath.mpf(0.7)
            beta = 2 * m + 1
            exact = (
                (lo**beta - a**beta)
                * (1 - hi**beta)
                / (beta * (lo * hi) ** (m + 1) * (1 - a**beta) * refs.omega(3))
            )
            assert abs(value - exact) <= 1e-12 * exact

    def test_underflowing_sphere_area_is_a_tail_envelope_error(self):
        with pytest.raises(TailEnvelopeError):
            modal_coefficient(AnnulusGeometry(456, 0.5), 2, 0.6, 0.7)

    @pytest.mark.parametrize("n", [400, 445, 455])
    def test_overflowing_product_is_a_tail_envelope_error(self, n):
        # omega is tiny but normal or subnormal here: the quotient overflows
        # to inf without raising OverflowError
        with pytest.raises(TailEnvelopeError):
            modal_coefficient(AnnulusGeometry(n, 0.5), 0, 0.5005, 0.8)


    def test_rounding_count_covers_the_propagated_error(self):
        # _modal_closed's bound, run on rounding_oracle.E, against the error
        # that the oracle propagates through the same operations; radii up to
        # the spheres, where 1 - P or 1 - Q cancels
        rng = random.Random(31)
        for _ in range(600):
            n = rng.choice((3, 4, 5, 6, 9, 20))
            a = rng.uniform(0.05, 0.95) if rng.random() < 0.8 else 1.0 - 10.0 ** rng.uniform(-5, -1)
            m = rng.choice((0, 1, rng.randint(2, 40), rng.randint(41, 2000)))
            lo, hi = sorted(a + (1.0 - a) * rng.choice((rng.random(), 1e-4 * rng.random(),
                                                      1.0 - 1e-4 * rng.random(), 0.0, 1.0))
                            for _ in range(2))
            omega = AnnulusGeometry(n, a).omega
            value, bound = kernels._modal_closed(m, n, ro.E(a), ro.E(lo), ro.E(hi), ro.E(omega))
            assert (value.v, bound.v) == kernels._modal_closed(m, n, a, lo, hi, omega)
            assert value.err <= bound.v * (1.0 + 1e-12), (n, a, m, lo, hi)


class TestGreenEval:
    GEOM = AnnulusGeometry(3, 0.5)

    def test_dirichlet_boundary(self):
        res = green_eval(self.GEOM, [1.0, 0.0, 0.0], [0.7, 0.0, 0.0], POLICY)
        assert res.converged
        assert abs(res.value) <= res.tail_bound + 1e-9

    def test_symmetry(self):
        x = np.array([0.6, 0.1, 0.0])
        y = np.array([0.8, -0.2, 0.1])
        g1 = green_eval(self.GEOM, x, y, POLICY)
        g2 = green_eval(self.GEOM, y, x, POLICY)
        assert abs(g1.value - g2.value) <= 1e-10 * max(1.0, abs(g1.value))

    def test_small_hole_matches_ball(self):
        geom = AnnulusGeometry(3, 0.01)
        x = np.array([0.5, 0.0, 0.0])
        y = np.array([0.3, 0.2, 0.0])
        res = green_eval(geom, x, y, POLICY)
        ref = ball_green_closed_form(3, x, y)
        # the hole perturbs at scale a^(n-2) = a
        assert abs(res.value - ref) <= 2 * 0.01

    def test_refuses_near_diagonal(self):
        x = np.array([0.7, 0.0, 0.0])
        with pytest.raises(SingularityError):
            green_eval(self.GEOM, x, x, POLICY)
        with pytest.raises(SingularityError):
            green_eval(self.GEOM, x, x + 1e-8, POLICY)

    def test_rejects_outside_annulus(self):
        with pytest.raises(DomainValidationError):
            green_eval(self.GEOM, [0.3, 0.0, 0.0], [0.7, 0.0, 0.0], POLICY)


# radii that miss a sphere of a = 0.5 by at most RADIUS_SLACK = 1e-9: the
# clamp moves such a point onto the sphere, where G = 0 exactly
PAST_A_SPHERE = [0.5 - 5e-10, 0.5 - 1e-9, 1.0 + 5e-10, 1.0 + 1e-9]


@pytest.mark.parametrize("policy", [TruncationPolicy(), POLICY], ids=["default", "fine"])
@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("r", PAST_A_SPHERE)
def test_points_past_a_sphere_vanish_within_the_bound(r, n, policy):
    geom = AnnulusGeometry(n, 0.5)
    e1, e2 = np.eye(n)[:2]
    ray = np.zeros(n)
    ray[:3] = [1.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0]  # coordinates that round when scaled
    past_other = 0.5 - 7e-10 if r > 0.75 else 1.0 + 7e-10
    pairs = [
        (r * e1, 0.7 * e2),
        (0.7 * e2, r * e1),
        (r * ray, 0.6 * e1),
        (r * ray, past_other * e2),  # both points moved
    ]
    for x, y in pairs:
        res = green_eval(geom, x, y, policy)
        assert abs(res.value) <= res.tail_bound
    # the slice's row at r, with a source inside or past the other sphere
    for y in (0.7 * e2, past_other * ray):
        grid = _green_slice(geom, np.array([r, 0.75]), y, policy)[1]
        assert abs(grid.value[0]) <= grid.tail_bound[0]
    grid = _green_slice(geom, np.array([0.6, 0.75, 0.9]), r * ray, policy)[1]
    assert (abs(grid.value) <= grid.tail_bound).all()


class TestPiecewiseRoute:
    GEOM = AnnulusGeometry(3, 0.5)

    def test_boundary_gives_zero(self):
        res = green_piecewise_eval(self.GEOM, [1.0, 0.0, 0.0], [0.7, 0.0, 0.0], POLICY)
        assert abs(res.value) <= res.tail_bound + 1e-12

    def test_agrees_with_subtracted_route(self):
        x = np.array([0.55, 0.0, 0.0])
        y = np.array([0.0, 0.9, 0.0])
        g1 = green_eval(self.GEOM, x, y, POLICY)
        g2 = green_piecewise_eval(self.GEOM, x, y, POLICY)
        assert abs(g1.value - g2.value) <= g1.tail_bound + g2.tail_bound + 1e-9

    def test_agrees_in_four_dimensions(self):
        geom = AnnulusGeometry(4, 0.3)
        x = np.array([0.5, 0.0, 0.0, 0.0])
        y = np.array([0.8, 0.0, 0.0, 0.0])
        g1 = green_eval(geom, x, y, POLICY)
        g2 = green_piecewise_eval(geom, x, y, POLICY)
        assert abs(g1.value - g2.value) <= g1.tail_bound + g2.tail_bound + 1e-9

    def test_refuses_equal_radii(self):
        x = np.array([0.7, 0.0, 0.0])
        y = np.array([0.0, 0.7, 0.0])
        with pytest.raises(DomainValidationError):
            green_piecewise_eval(self.GEOM, x, y, POLICY)

    def test_underflowing_sphere_area_is_a_tail_envelope_error(self):
        # omega underflows to 0 for n >= 456; green_eval refuses these points too
        geom = AnnulusGeometry(456, 0.5)
        x, y = np.zeros(456), np.zeros(456)
        x[0], y[1] = 0.6, 0.8
        for fn in (green_eval, green_piecewise_eval):
            with pytest.raises(TailEnvelopeError):
                fn(geom, x, y, POLICY)
        with pytest.raises(TailEnvelopeError):
            _green_slice(geom, np.array([0.6, 0.7]), y, POLICY)


class TestRobin:
    GEOM = AnnulusGeometry(3, 0.5)

    def test_golden_value(self, golden):
        fix = golden["robin_n3_a05_r07"]
        res = robin_eval(self.GEOM, 0.7, POLICY)
        assert res.converged
        assert res.value == pytest.approx(fix["value"], abs=1e-10)
        assert res.value == pytest.approx(fix["cross_value"], abs=1e-6)

    def test_diagonal_limit_of_green(self):
        # recompute the independent route: polynomial extrapolation of
        # (green - fundamental solution) along an aligned radial approach
        r = 0.7
        e1 = np.array([1.0, 0.0, 0.0])
        hs = [1e-2, 5e-3, 2.5e-3, 1.25e-3]
        vals = []
        for h in hs:
            x = (r + h) * e1
            y = r * e1
            vals.append(green_eval(self.GEOM, x, y, POLICY).value - newtonian_potential(self.GEOM, x, y))
        lim = neville_to_zero(hs, vals)
        assert robin_eval(self.GEOM, r, POLICY).value == pytest.approx(lim, abs=1e-6)

    def test_negative_and_divergent_at_outer_wall(self):
        wide = TruncationPolicy(abs_tol=1e-8, max_terms=500_000)
        v = robin_eval(self.GEOM, 1 - 9e-4, wide)
        assert v.converged and v.value < -10.0
        closer = robin_eval(self.GEOM, 1 - 4.5e-4, wide)
        assert closer.value < v.value

    def test_truncation_difference_within_tail(self):
        short = TruncationPolicy(abs_tol=0.0, max_terms=15, tail_safety=1)
        longer = TruncationPolicy(abs_tol=0.0, max_terms=30, tail_safety=1)
        v_short = robin_eval(self.GEOM, 0.7, short)
        v_long = robin_eval(self.GEOM, 0.7, longer)
        assert abs(v_short.value - v_long.value) <= v_short.tail_bound

    def test_rejects_boundary_radius(self):
        for bad in (0.5, 1.0, 0.4, 1.2):
            with pytest.raises(DomainValidationError):
                robin_eval(self.GEOM, bad, POLICY)


class TestRadialGradient:
    GEOM = AnnulusGeometry(3, 0.5)

    def test_matches_finite_difference(self):
        h = 1e-4
        for r in (0.65, 0.7, 0.8):
            grad = robin_radial_gradient(self.GEOM, r, POLICY)
            fd = (
                robin_eval(self.GEOM, r + h, POLICY).value
                - robin_eval(self.GEOM, r - h, POLICY).value
            ) / (2 * h) * r
            assert abs(grad.value - fd) / max(1.0, abs(grad.value)) <= 1e-6

    def test_signs_near_boundaries(self):
        assert robin_radial_gradient(self.GEOM, 0.51, POLICY).value > 0
        assert robin_radial_gradient(self.GEOM, 0.99, POLICY).value < 0

    def test_critical_equation_is_proportional(self):
        # the root equation is the gradient series without its -2/omega
        # factor; the two accumulations round independently
        for r in (0.6, 0.75, 0.9):
            grad = robin_radial_gradient(self.GEOM, r, POLICY).value
            raw = critical_equation_eval(self.GEOM, r, POLICY).value
            assert raw == pytest.approx(-0.5 * self.GEOM.omega * grad, rel=1e-10)


class TestGradientDerivative:
    def test_negative_everywhere_sampled(self):
        for n, a in ((3, 0.5), (4, 0.3)):
            geom = AnnulusGeometry(n, a)
            for r in np.linspace(a + 0.05 * (1 - a), 1 - 0.05 * (1 - a), 20):
                assert robin_radial_gradient_derivative(geom, float(r), POLICY).value < 0

    def test_matches_finite_difference_of_gradient(self):
        geom = AnnulusGeometry(3, 0.5)
        h = 1e-4
        for r in (0.68, 0.75, 0.82):
            slope = robin_radial_gradient_derivative(geom, r, POLICY)
            fd = (
                robin_radial_gradient(geom, r + h, POLICY).value
                - robin_radial_gradient(geom, r - h, POLICY).value
            ) / (2 * h)
            assert abs(slope.value - fd) / max(1.0, abs(slope.value)) <= 1e-6

    @pytest.mark.parametrize("n, r", [(3, 0.0), (3, -0.0), (2, 0.0), (3, 2.0), (3, math.nan)])
    def test_rejects_bad_radii_before_its_prefactor(self, n, r):
        # the prefactor 2/r is formed only once r is known to be interior
        with pytest.raises(DomainValidationError):
            robin_radial_gradient_derivative(AnnulusGeometry(n, 0.5), r, POLICY)


@pytest.mark.parametrize(
    "fn, r",
    [
        (robin_eval, 0.7),
        (robin_radial_gradient, 0.7),
        (robin_radial_gradient_derivative, 0.7),
        (critical_equation_eval, 0.7),
        (robin_eval_grid, np.array([0.6, 0.7])),
        (robin_radial_gradient_grid, np.array([0.6, 0.7])),
    ],
)
def test_spatial_evaluators_refuse_the_plane(fn, r):
    # one function sums the Robin series of both families; the spatial entry
    # points still refuse n = 2, whose series are the robin2d_* ones
    with pytest.raises(DomainValidationError, match="n >= 3"):
        fn(AnnulusGeometry(2, 0.5), r, POLICY)


class TestPlanarRobin:
    def test_derivative_consistency(self):
        h = 1e-5
        for r in (0.3, 0.5, 0.8):
            fd = (
                robin2d_eval(0.2, r + h, POLICY).value
                - robin2d_eval(0.2, r - h, POLICY).value
            ) / (2 * h)
            assert robin2d_first(0.2, r, POLICY).value == pytest.approx(fd, abs=1e-6)

    def test_convexity(self):
        for r in np.linspace(0.21, 0.99, 50):
            assert robin2d_second(0.2, float(r), POLICY).value > 0

    def test_derivative_sign_change(self):
        assert robin2d_first(0.2, 0.21, POLICY).value < 0
        assert robin2d_first(0.2, 0.99, POLICY).value > 0

    def test_second_derivative_consistency(self):
        h = 1e-4
        for r in (0.4, 0.6):
            fd = (
                robin2d_first(0.2, r + h, POLICY).value
                - robin2d_first(0.2, r - h, POLICY).value
            ) / (2 * h)
            assert robin2d_second(0.2, r, POLICY).value == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize("fn", [robin2d_eval, robin2d_first, robin2d_second])
    def test_closed_form_out_of_range_is_a_tail_envelope_error(self, fn):
        # r^2 underflows at r = 2e-300, so the closed form has no double
        # value; the planar tail reports that as the spatial one does
        with pytest.raises(TailEnvelopeError):
            fn(1e-300, 2e-300, POLICY)

    def test_rejects_bad_radii(self):
        with pytest.raises(DomainValidationError):
            robin2d_eval(0.2, 0.15, POLICY)
        with pytest.raises(DomainValidationError):
            robin2d_eval(1.2, 0.5, POLICY)
        for grid in (robin2d_eval_grid, robin2d_first_grid):
            with pytest.raises(DomainValidationError, match="0 < a < 1"):
                grid(1.2, [0.5], POLICY)
            with pytest.raises(DomainValidationError, match="strictly between"):
                grid(0.2, [0.5, 0.15], POLICY)


class TestGreenProperties:
    def test_positivity_random_pairs(self, rng):
        geom = AnnulusGeometry(3, 0.5)
        for _ in range(40):
            x = rng.uniform(0.52, 0.98) * random_unit(rng, 3)
            y = rng.uniform(0.52, 0.98) * random_unit(rng, 3)
            if np.linalg.norm(x - y) < 1e-3:
                continue
            assert green_eval(geom, x, y, POLICY).value > -1e-10

    def test_regular_part_harmonic(self, rng):
        geom = AnnulusGeometry(3, 0.5)
        tight = TruncationPolicy(abs_tol=1e-13, max_terms=300_000)
        h = 1e-3
        for _ in range(5):
            x = rng.uniform(0.6, 0.9) * random_unit(rng, 3)
            y = rng.uniform(0.6, 0.9) * random_unit(rng, 3)
            if np.linalg.norm(x - y) < 0.05:
                continue

            def regular(p):
                return green_eval(geom, p, y, tight).value - newtonian_potential(geom, p, y)

            lap = -6.0 * regular(x)
            for i in range(3):
                e = np.zeros(3)
                e[i] = h
                lap += regular(x + e) + regular(x - e)
            assert abs(lap) / h**2 <= 1e-4


class TestRadialFamily:
    """green._radial stands for the public evaluators of each dimension."""

    # field: (planar evaluator, spatial evaluator)
    SERIES = {
        "value": (robin2d_eval, robin_eval),
        "gradient": (robin2d_first, robin_radial_gradient),
        "slope": (robin2d_second, robin_radial_gradient_derivative),
    }
    GRIDS = {
        "value_grid": (robin2d_eval_grid, robin_eval_grid),
        "gradient_grid": (robin2d_first_grid, robin_radial_gradient_grid),
    }
    # a = 0.97 sums the deep modes through images
    RADII = (0.975, 0.98, 0.99, 0.999)

    @staticmethod
    def _bits(res):
        fields = (res.value, res.terms_used, res.tail_bound, res.converged)
        return tuple(np.asarray(f).tobytes() for f in fields)

    @pytest.mark.parametrize("a", [0.3, 0.97])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_fields_are_bit_identical_to_the_public_evaluators(self, n, a):
        geom = AnnulusGeometry(n, a)
        family = green._radial(geom)
        first = a if n == 2 else geom
        radii = np.array([a + (r - 0.97) / 0.03 * (1.0 - a) for r in self.RADII])
        for name, evaluators in self.SERIES.items():
            public = evaluators[n > 2]
            for r in radii.tolist():
                got = getattr(family, name)(r, POLICY)
                assert self._bits(got) == self._bits(public(first, r, POLICY)), (name, r)
        for name, evaluators in self.GRIDS.items():
            got = getattr(family, name)(radii, POLICY)
            assert self._bits(got) == self._bits(evaluators[n > 2](first, radii, POLICY)), name

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_d_turns_the_gradient_into_r_times_the_derivative(self, n):
        geom = AnnulusGeometry(n, 0.4)
        family = green._radial(geom)
        r, h = 0.7, 1e-5
        derivative = (
            family.value(r + h, POLICY).value - family.value(r - h, POLICY).value
        ) / (2 * h)
        gradient = family.gradient(r, POLICY).value
        assert gradient / family.d(r) == pytest.approx(derivative, rel=1e-7)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_closed_part_has_the_gradient_sign_at_the_ends(self, n):
        family = green._radial(AnnulusGeometry(n, 0.4))
        # the closed part carries the gradient's poles: its sign at the ends
        near = 1e-3 * 0.6
        assert family.closed(0.4 + near) * family.gradient(0.4 + near, POLICY).value > 0
        assert family.closed(1.0 - near) * family.gradient(1.0 - near, POLICY).value > 0

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 20])
    def test_seed_reads_the_series_closed_form(self, n):
        # the solver's seed reads the closed form that the gradient series
        # adds, with its first image layer, to its remainder
        geom = AnnulusGeometry(n, 0.4)
        family = green._radial(geom)
        series = green._SERIES["robin_radial_gradient" if n > 2 else "robin2d_first"]
        for r in (0.4 + 1e-9, 0.41, 0.7, 0.99, 1.0 - 1e-9):
            closed, rounding, scale, parts = green._normalised(series, geom, r, green._SCALAR)
            layer = scale * green._robin_layer(n - 2, 0.4, r, parts, green._SCALAR)[0]
            assert layer != 0.0
            assert abs(family.closed(r) + layer - closed) <= rounding

    def test_method_keeps_both_wordings(self):
        assert green._radial(AnnulusGeometry(2, 0.2)).name == "R'(r)"
        assert green._radial(AnnulusGeometry(3, 0.5)).name == "r*R'(r)"
        for n, name in ((2, "R'(r)"), (3, "r*R'(r)"), (5, "r*R'(r)")):
            report = find_critical_point(AnnulusGeometry(n, 0.3))
            assert report.method == (
                "Anderson-Bjorck regula falsi then bisection to adjacent doubles "
                f"on {name}, series second derivative"
            )

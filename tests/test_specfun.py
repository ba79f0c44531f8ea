import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from annulus_green import (
    DomainValidationError,
    TruncationPolicy,
    gegenbauer_endpoint_exact,
    gegenbauer_eval,
    gegenbauer_generating_sum,
    harmonic_space_dim,
    zonal_direct,
    zonal_from_gegenbauer,
)
from conftest import random_unit


def taylor_coefficient(fn, order, h=1e-2):
    """Numeric Taylor coefficient of fn around 0 (orders 0..2 used here)."""
    if order == 0:
        return fn(0.0)
    if order == 1:
        return (fn(h) - fn(-h)) / (2 * h) - 0.0
    # fourth-order accurate second derivative, halved
    d2 = (-fn(2 * h) + 16 * fn(h) - 30 * fn(0.0) + 16 * fn(-h) - fn(2 * -h)) / (12 * h * h)
    return d2 / 2.0


class TestGegenbauer:
    def test_constant_term(self):
        assert gegenbauer_eval(0.5, 0, 0.3) == 1.0

    def test_endpoint_value(self):
        # degree 3, parameter 1 (four dimensions): C(4, 3)
        assert gegenbauer_eval(1.0, 3, 1.0) == pytest.approx(4.0, rel=1e-14)

    def test_zero_of_degree_two(self):
        # independent oracle: coefficient of r^2 in the Taylor expansion of
        # the generating function at t = 0.5
        fn = lambda r: (1 - 2 * r * 0.5 + r * r) ** (-1.0)
        c2 = taylor_coefficient(fn, 2)
        assert abs(c2) <= 1e-6
        assert gegenbauer_eval(1.0, 2, 0.5) == pytest.approx(0.0, abs=1e-12)
        assert gegenbauer_eval(1.0, 2, 0.5) == pytest.approx(c2, abs=1e-6)

    def test_legendre_special_case(self):
        # parameter 1/2 gives the Legendre family: P_2(t) = (3t^2 - 1)/2
        for t in (-1.0, -0.3, 0.0, 0.7, 1.0):
            assert gegenbauer_eval(0.5, 2, t) == pytest.approx(1.5 * t * t - 0.5, abs=1e-14)

    @pytest.mark.parametrize("lam", [-1.0, 0.0])
    def test_rejects_bad_parameter(self, lam):
        with pytest.raises(DomainValidationError):
            gegenbauer_eval(lam, 2, 0.5)

    def test_rejects_bad_argument_and_degree(self):
        with pytest.raises(DomainValidationError):
            gegenbauer_eval(1.0, 2, 1.0 + 1e-9)
        with pytest.raises(DomainValidationError):
            gegenbauer_eval(1.0, -1, 0.5)

    @given(
        n=st.integers(min_value=3, max_value=8),
        m=st.integers(min_value=0, max_value=25),
        t=st.floats(min_value=-1.0, max_value=1.0),
    )
    def test_bounded_by_endpoint(self, n, m, t):
        lam = 0.5 * (n - 2)
        assert abs(gegenbauer_eval(lam, m, t)) <= gegenbauer_eval(lam, m, 1.0) * (1 + 1e-12)


class TestEndpointIdentity:
    def test_exact_integers(self):
        for n in range(3, 9):
            for m in range(31):
                assert gegenbauer_endpoint_exact(n, m) == math.comb(n + m - 3, m)

    def test_float_recurrence_matches(self):
        for n in range(3, 9):
            for m in range(0, 31, 5):
                ref = math.comb(n + m - 3, m)
                assert gegenbauer_eval(0.5 * (n - 2), m, 1.0) == pytest.approx(ref, rel=1e-12)


class TestGeneratingFunction:
    def test_policy_sum_certifies(self):
        policy = TruncationPolicy(abs_tol=1e-11, max_terms=5000)
        for lam in (0.5, 1.0, 1.5, 2.5):
            for t in (-1.0, -0.5, 0.0, 0.5, 1.0):
                for r in (0.1, 0.5, 0.9):
                    res = gegenbauer_generating_sum(lam, t, r, policy)
                    closed = (1 - 2 * r * t + r * r) ** (-lam)
                    assert res.converged
                    assert abs(res.value - closed) <= 1e-9


class TestHarmonicSpaceDim:
    def test_examples(self):
        assert harmonic_space_dim(3, 0) == 1
        assert harmonic_space_dim(3, 2) == 5
        assert harmonic_space_dim(4, 1) == 4

    def test_three_dimensions_closed_form(self):
        for m in range(40):
            assert harmonic_space_dim(3, m) == 2 * m + 1

    def test_matches_zonal_diagonal(self):
        # independent oracle: the diagonal value of the finite zonal expansion
        xi = np.array([0.0, 1.0, 0.0])
        assert zonal_direct(3, 2, xi, xi) == pytest.approx(5.0, rel=1e-12)

    def test_difference_of_binomials_identity(self):
        # classical equivalent form C(n+m-1, m) - C(n+m-3, m-2)
        for n in range(3, 8):
            for m in range(2, 25):
                ref = math.comb(n + m - 1, m) - math.comb(n + m - 3, m - 2)
                assert harmonic_space_dim(n, m) == ref

    def test_rejects_plane(self):
        with pytest.raises(DomainValidationError):
            harmonic_space_dim(2, 3)


class TestZonal:
    def test_degree_zero(self, rng):
        x = rng.normal(size=4)
        xi = random_unit(rng, 4)
        assert zonal_direct(4, 0, x, xi) == 1.0

    def test_diagonal_example(self):
        xi = np.array([1.0, 0.0, 0.0])
        assert zonal_direct(3, 2, xi, xi) == pytest.approx(5.0, rel=1e-13)

    def test_orthogonal_degree_one(self):
        x = np.array([0.4, 0.0, 0.0])
        xi = np.array([0.0, 1.0, 0.0])
        assert zonal_direct(3, 1, x, xi) == pytest.approx(0.0, abs=1e-15)

    def test_degree_two_profile(self):
        # n = 3 degree-2 kernel on unit vectors is 5 (1.5 t^2 - 0.5)
        xi = np.array([1.0, 0.0, 0.0])
        for t in (-0.8, -0.2, 0.5, 1.0):
            x = np.array([t, math.sqrt(1 - t * t), 0.0])
            assert zonal_direct(3, 2, x, xi) == pytest.approx(
                5 * (1.5 * t * t - 0.5), abs=1e-12
            )

    @given(
        n=st.integers(min_value=3, max_value=6),
        m=st.integers(min_value=0, max_value=10),
        c=st.floats(min_value=0.1, max_value=3.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_homogeneous_in_first_argument(self, n, m, c, seed):
        gen = np.random.default_rng(seed)
        x = gen.normal(size=n)
        xi = random_unit(gen, n)
        lhs = zonal_direct(n, m, c * x, xi)
        rhs = c**m * zonal_direct(n, m, x, xi)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    @given(
        n=st.integers(min_value=3, max_value=6),
        m=st.integers(min_value=0, max_value=15),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_route_agreement(self, n, m, seed):
        gen = np.random.default_rng(seed)
        xi = random_unit(gen, n)
        eta = random_unit(gen, n)
        d = harmonic_space_dim(n, m)
        direct = zonal_direct(n, m, xi, eta)
        via_poly = zonal_from_gegenbauer(n, m, xi, eta)
        assert abs(direct - via_poly) / d <= 1e-10
        # kernels peak on the diagonal
        assert abs(direct) <= d * (1 + 1e-9)

    def test_from_gegenbauer_examples(self):
        xi = np.array([1.0, 0.0, 0.0])
        eta = np.array([0.5, math.sqrt(0.75), 0.0])
        assert zonal_from_gegenbauer(3, 1, xi, eta) == pytest.approx(1.5, rel=1e-13)
        xi5 = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        eta5 = np.array([0.0, 0.6, 0.8, 0.0, 0.0])
        assert zonal_from_gegenbauer(5, 0, xi5, eta5) == 1.0
        assert zonal_from_gegenbauer(3, 2, xi, xi) == pytest.approx(5.0, rel=1e-13)

    def test_rejects_non_unit(self):
        with pytest.raises(DomainValidationError):
            zonal_direct(3, 2, np.ones(3), np.array([0.5, 0.0, 0.0]))


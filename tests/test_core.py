import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import annulus_green
from annulus_green import (
    AnnulusGeometry,
    DomainValidationError,
    EvalResult,
    SingularityError,
    TailEnvelopeError,
    TruncationPolicy,
    green_eval,
    newtonian_potential,
    robin_eval,
    robin_radial_gradient,
    sphere_surface_area,
)
from annulus_green import core, critical, green, kernels, oracle, specfun
from annulus_green.core import sphere_surface_area_rel_error

# 16-digit reference values of 2 pi^(n/2) / Gamma(n/2), computed from an
# independent Gamma table (integer and half-integer arguments)
SURFACE_AREAS = {
    2: 6.283185307179586,
    3: 12.566370614359172,
    4: 19.739208802178716,
    5: 26.318945069571622,
    6: 31.006276680299820,
    7: 33.073361792319810,
    8: 32.469697011334146,
    9: 29.686580124648362,
    10: 25.501640398773455,
}


def test_surface_area_reference_table():
    for n, ref in SURFACE_AREAS.items():
        assert sphere_surface_area(n) == pytest.approx(ref, rel=1e-14)


def test_surface_area_known_shapes():
    assert sphere_surface_area(2) == pytest.approx(2 * math.pi, rel=1e-15)
    assert sphere_surface_area(3) == pytest.approx(4 * math.pi, rel=1e-15)
    assert sphere_surface_area(4) == pytest.approx(2 * math.pi**2, rel=1e-15)


def test_surface_area_gamma_recursion():
    # Gamma(z+1) = z Gamma(z) translates to S(n+2) = 2 pi S(n) / n
    for n in range(2, 9):
        lhs = sphere_surface_area(n + 2)
        rhs = 2 * math.pi * sphere_surface_area(n) / n
        assert lhs == pytest.approx(rhs, rel=1e-14)


@pytest.mark.parametrize("n", list(range(2, 41)) + [57, 120, 301, 400])
def test_surface_area_rounding_bound(n):
    # the Robin family adds this share of |value| to its certified bound
    with mpmath.workdps(40):
        exact = 2 * mpmath.pi ** (mpmath.mpf(n) / 2) / mpmath.gamma(mpmath.mpf(n) / 2)
        rel = float(abs(mpmath.mpf(sphere_surface_area(n)) / exact - 1))
    assert rel <= sphere_surface_area_rel_error(n)


def test_omega_is_computed_once_per_geometry(monkeypatch):
    calls = []

    def counted(n):
        calls.append(n)
        return sphere_surface_area(n)

    monkeypatch.setattr(core, "sphere_surface_area", counted)
    geom = AnnulusGeometry(5, 0.4)
    assert geom.omega == geom.omega == sphere_surface_area(5)
    assert calls == [5]
    # the cache is not a field: equality and hashing still see (n, a) only
    assert geom == AnnulusGeometry(5, 0.4)
    assert hash(geom) == hash(AnnulusGeometry(5, 0.4))


def test_omega_rounding_bound_is_computed_once_per_geometry(monkeypatch):
    calls = []

    def counted(n):
        calls.append(n)
        return sphere_surface_area_rel_error(n)

    monkeypatch.setattr(core, "sphere_surface_area_rel_error", counted)
    geom = AnnulusGeometry(4, 0.5)
    policy = TruncationPolicy()
    robin_eval(geom, 0.7, policy)
    robin_radial_gradient(geom, 0.7, policy)
    green_eval(geom, [0.6, 0.0, 0.0, 0.0], [0.0, 0.8, 0.0, 0.0], policy)
    assert geom.omega_rel_error == sphere_surface_area_rel_error(4)
    assert calls == [4]


@pytest.mark.parametrize("bad", [1, 0, -3, 2.5, True])
def test_surface_area_rejects_bad_dimension(bad):
    with pytest.raises(DomainValidationError):
        sphere_surface_area(bad)


def test_newtonian_examples():
    geom = AnnulusGeometry(3, 0.5)
    x = np.array([1.0, 0.0, 0.0])
    assert newtonian_potential(geom, x, np.zeros(3)) == pytest.approx(
        1 / (4 * math.pi), rel=1e-14
    )
    assert newtonian_potential(geom, x, np.array([0.5, 0.0, 0.0])) == pytest.approx(
        1 / (2 * math.pi), rel=1e-14
    )
    geom4 = AnnulusGeometry(4, 0.5)
    x4 = np.array([0.5, 0.0, 0.0, 0.0])
    expected = 1.0 / (2 * 2 * math.pi**2 * 0.25)
    assert newtonian_potential(geom4, x4, np.zeros(4)) == pytest.approx(expected, rel=1e-14)


def test_newtonian_symmetry_exact(rng):
    geom = AnnulusGeometry(3, 0.5)
    for _ in range(20):
        x = rng.normal(size=3)
        y = rng.normal(size=3)
        assert newtonian_potential(geom, x, y) == newtonian_potential(geom, y, x)


@given(
    d=st.floats(min_value=1e-3, max_value=10.0),
    n=st.integers(min_value=3, max_value=8),
)
def test_newtonian_scaling_law(d, n):
    geom = AnnulusGeometry(n, 0.5)
    e1 = np.zeros(n)
    e1[0] = 1.0
    v1 = newtonian_potential(geom, d * e1, np.zeros(n))
    ref = newtonian_potential(geom, e1, np.zeros(n))
    assert v1 == pytest.approx(ref * d ** (2 - n), rel=1e-14)


def test_newtonian_rejects_singularity_and_plane():
    geom = AnnulusGeometry(3, 0.5)
    x = np.array([0.7, 0.0, 0.0])
    with pytest.raises(SingularityError):
        newtonian_potential(geom, x, x)
    with pytest.raises(DomainValidationError):
        newtonian_potential(AnnulusGeometry(2, 0.5), [0.7, 0.0], [0.6, 0.0])


@pytest.mark.parametrize("n", [455, 456])
def test_newtonian_out_of_range_is_a_tail_envelope_error(n):
    # at n = 455 the quotient overflows to inf; from 456 on omega is 0
    geom = AnnulusGeometry(n, 0.5)
    x, y = np.zeros(n), np.zeros(n)
    x[0], y[1] = 0.6, 0.8
    with pytest.raises(TailEnvelopeError):
        newtonian_potential(geom, x, y)


@pytest.mark.parametrize("n,a", [(1, 0.5), (3, 0.0), (3, 1.0), (3, -0.1), (3, 1.5)])
def test_geometry_invariants(n, a):
    with pytest.raises(DomainValidationError):
        AnnulusGeometry(n, a)


def test_geometry_point_validation():
    geom = AnnulusGeometry(3, 0.5)
    with pytest.raises(DomainValidationError):
        geom.point([1.0, 2.0])
    with pytest.raises(DomainValidationError):
        geom.point([1.0, float("nan"), 0.0])
    arr = geom.point([0.7, 0.1, 0.0])
    assert arr.shape == (3,)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(abs_tol=-1.0),
        dict(abs_tol=float("nan")),
        dict(max_terms=0),
        dict(tail_safety=0),
    ],
)
def test_policy_invariants(kwargs):
    with pytest.raises(DomainValidationError):
        TruncationPolicy(**kwargs)


GEOM3 = AnnulusGeometry(3, 0.5)
UNIT = np.array([0.0, 0.6, 0.8])
# each entry point that takes an integer, as a function of that integer alone,
# and the value it is called with where it is valid
INTEGER_ARGUMENTS = {
    "AnnulusGeometry.n": (lambda v: AnnulusGeometry(v, 0.5).omega, 3),
    "sphere_surface_area": (sphere_surface_area, 3),
    "TruncationPolicy.max_terms": (lambda v: TruncationPolicy(max_terms=v).max_terms, 30),
    "TruncationPolicy.tail_safety": (lambda v: TruncationPolicy(tail_safety=v).tail_safety, 2),
    "modal_coefficient": (lambda v: green.modal_coefficient(GEOM3, v, 0.6, 0.8), 2),
    "poisson_coeff_b": (lambda v: kernels.poisson_coeff_b(GEOM3, v, 0.7), 2),
    "poisson_coeff_c": (lambda v: kernels.poisson_coeff_c(GEOM3, v, 0.7), 2),
    "gegenbauer_eval": (lambda v: specfun.gegenbauer_eval(1.0, v, 0.3), 2),
    "gegenbauer_endpoint_exact.n": (lambda v: specfun.gegenbauer_endpoint_exact(v, 2), 3),
    "gegenbauer_endpoint_exact.m": (lambda v: specfun.gegenbauer_endpoint_exact(3, v), 2),
    "harmonic_space_dim.n": (lambda v: specfun.harmonic_space_dim(v, 2), 3),
    "harmonic_space_dim.m": (lambda v: specfun.harmonic_space_dim(3, v), 2),
    "zonal_direct.n": (lambda v: specfun.zonal_direct(v, 2, UNIT, UNIT), 3),
    "zonal_direct.m": (lambda v: specfun.zonal_direct(3, v, UNIT, UNIT), 2),
    "zonal_from_gegenbauer.n": (lambda v: specfun.zonal_from_gegenbauer(v, 2, UNIT, UNIT), 3),
    "zonal_from_gegenbauer.m": (lambda v: specfun.zonal_from_gegenbauer(3, v, UNIT, UNIT), 2),
    "ModalOperator.n": (lambda v: oracle.ModalOperator(v, 2, 0.5).eigenvalue, 3),
    "ModalOperator.m": (lambda v: oracle.ModalOperator(3, v, 0.5).eigenvalue, 2),
    "modal_green_analytic": (lambda v: oracle.modal_green_analytic(3, v, 0.5, 0.6, 0.8), 2),
    "build_sphere_quadrature": (lambda v: kernels.build_sphere_quadrature(v).weights.sum(), 4),
    "FDGrid.num_nodes": (lambda v: oracle.FDGrid(v, 0.5).spacing, 5),
    "count_gradient_sign_changes": (
        lambda v: critical.count_gradient_sign_changes(GEOM3, None, num=v), 5
    ),
    "grid_scan_extremum": (
        lambda v: oracle.grid_scan_extremum(lambda x: (x - 0.3) ** 2, 0.0, 1.0, v), 1000
    ),
    "modal_green_fd": (lambda v: oracle.modal_green_fd(3, 2, 0.5, 0.7, v).tolist(), 150),
    "modal_bvp_fd": (lambda v: oracle.modal_bvp_fd(3, 2, 0.5, 1.0, 2.0, v).tolist(), 150),
}


@pytest.mark.parametrize("name", sorted(INTEGER_ARGUMENTS))
def test_integer_arguments_are_checked_where_they_enter(name):
    call, valid = INTEGER_ARGUMENTS[name]
    for bad in (valid + 0.5, True):
        # refused by the integer check, not by some later test it fails
        with pytest.raises(DomainValidationError, match="must be an integer"):
            call(bad)
    # a numpy integer is taken, and gives the same doubles as an int
    assert call(np.int64(valid)) == call(valid)


@pytest.mark.parametrize(
    "mode_fn",
    [
        lambda m: green.modal_coefficient(GEOM3, m, 0.6, 0.8),
        lambda m: kernels.poisson_coeff_b(GEOM3, m, 0.6),
        lambda m: kernels.poisson_coeff_c(GEOM3, m, 0.6),
        lambda m: oracle.modal_green_analytic(3, m, 0.5, 0.6, 0.8),
    ],
    ids=["modal_coefficient", "poisson_coeff_b", "poisson_coeff_c", "modal_green_analytic"],
)
def test_numpy_integer_modes_give_the_int_modes_doubles(mode_fn):
    # a float raised to a numpy integer goes through numpy's power, which
    # may differ from Python's by an ulp
    assert [mode_fn(np.int64(m)) for m in range(60)] == [mode_fn(m) for m in range(60)]


def test_eval_result_scaled():
    res = EvalResult(value=2.0, terms_used=5, tail_bound=1e-9, converged=True)
    scaled = res.scaled(-3.0)
    assert scaled.value == -6.0
    assert scaled.tail_bound == pytest.approx(3e-9)
    assert scaled.converged and scaled.terms_used == 5


def test_public_surface_is_sorted_unique_and_resolves():
    # a name left in __all__ after its function is deleted breaks
    # `from annulus_green import *`
    names = annulus_green.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(annulus_green, name)] == []


def test_package_and_cli_import_without_scipy():
    # a fresh interpreter, so that no other test's imports are counted: the
    # package's import time is what every CLI process pays first
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys; import annulus_green, annulus_green.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"

import json
import math
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import annulus_green
import references as refs
from annulus_green import (
    AnnulusGeometry,
    CriticalPointReport,
    DomainValidationError,
    EvalGrid,
    EvalResult,
    SingularityError,
    TailEnvelopeError,
    TruncationPolicy,
    green_eval,
    green_piecewise_eval,
    newtonian_potential,
    robin_eval,
    robin_radial_gradient,
    find_critical_point,
    sphere_surface_area,
)
from annulus_green import core, critical, kernels, oracle, specfun
from annulus_green.core import sphere_surface_area_rel_error
from conftest import random_unit

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
    with mpmath.workdps(refs.DPS):
        rel = float(abs(mpmath.mpf(sphere_surface_area(n)) / refs.omega(n) - 1))
    assert rel <= sphere_surface_area_rel_error(n)


def test_surface_area_rounding_bound_stops_at_the_normal_range():
    # omega is subnormal from n = 439 and 0 from n = 456; there a relative
    # bound in units of u was false by up to 1.6e12 times from n = 443
    normal = 0
    for n in range(430, 461):
        omega = sphere_surface_area(n)
        if omega < sys.float_info.min:
            with pytest.raises(TailEnvelopeError):
                sphere_surface_area_rel_error(n)
            with pytest.raises(TailEnvelopeError):
                AnnulusGeometry(n, 0.5).omega_rel_error
            continue
        normal += 1
        with mpmath.workdps(refs.DPS):
            rel = float(abs(mpmath.mpf(omega) / refs.omega(n) - 1))
        assert rel <= sphere_surface_area_rel_error(n), n
    assert normal == 9


def test_omega_is_computed_once_per_geometry(monkeypatch):
    calls = []

    def counted(n):
        calls.append(n)
        return sphere_surface_area(n)

    monkeypatch.setattr(core, "sphere_surface_area", counted)
    core._omega.cache_clear()
    geom = AnnulusGeometry(5, 0.4)
    assert geom.omega == geom.omega == sphere_surface_area(5)
    assert calls == [5]
    # the memo is per dimension: another geometry of the same n reads it
    assert AnnulusGeometry(5, 0.7).omega == geom.omega
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
    core._omega.cache_clear()
    geom = AnnulusGeometry(4, 0.5)
    policy = TruncationPolicy()
    robin_eval(geom, 0.7, policy)
    robin_radial_gradient(geom, 0.7, policy)
    green_eval(geom, [0.6, 0.0, 0.0, 0.0], [0.0, 0.8, 0.0, 0.0], policy)
    assert geom.omega_rel_error == sphere_surface_area_rel_error(4)
    assert calls == [4]
    # the memo is per dimension: another geometry of the same n reads it
    robin_eval(AnnulusGeometry(4, 0.3), 0.7, policy)
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


class _OneElementFloat(np.ndarray):
    """An array that float() reads when it holds one element, at any shape,
    as NumPy before 2.4 does."""

    def __float__(self):
        return float(self.reshape(-1)[0])


class _ArrayProtocol:
    """An array-like that is not a sequence and exposes only ``__array__``,
    as pandas, xarray and torch objects do."""

    def __init__(self, values):
        self._values = np.asarray(values)

    def __array__(self, dtype=None, copy=None):
        return self._values if dtype is None else self._values.astype(dtype)


class _ArrayInterface:
    """An array-like that exposes only ``__array_interface__``."""

    def __init__(self, values):
        self._values = np.asarray(values)
        self.__array_interface__ = self._values.__array_interface__


def test_geometry_point_validation():
    geom = AnnulusGeometry(3, 0.5)
    with pytest.raises(DomainValidationError):
        geom.point([1.0, 2.0])
    with pytest.raises(DomainValidationError):
        geom.point([1.0, float("nan"), 0.0])
    arr = geom.point([0.7, 0.1, 0.0])
    assert arr.shape == (3,)
    assert arr.dtype == np.float64 and arr.tolist() == geom.coordinates([0.7, 0.1, 0.0])
    # one rule for both routes: length, nesting, shape, finiteness and
    # real numbers
    refused = [
        [0.7, 0.1],
        (0.7, 0.1, 0.0, 0.0),
        np.zeros(4),
        [0.7, math.inf, 0.0],
        [-math.inf, 0.1, 0.0],
        np.array([0.7, math.nan, 0.0]),
        ["0.7", "nan", "0"],
        [[0.7], [0.1], [0.0]],
        [0.7, [0.1], 0.0],
        [0.7, np.array([0.1]), 0.0],
        [0.7, np.array([0.1]).view(_OneElementFloat), 0.0],
        [0.7, np.array([[0.1]]).view(_OneElementFloat), 0.0],
        _ArrayProtocol([[0.7], [0.1], [0.0]]),
        _ArrayProtocol([0.7, 0.1]),
        np.array([[0.7], [0.1], [0.0]]),
        np.array([[0.7, 0.1, 0.0]]),
        np.array(0.7),
        0.7,
        b"0.7",
        [np.complex128(0.7 + 0.5j), 0.1, 0.0],
        [0.7, np.complex64(0.1), 0.0],
    ]
    for x in refused:
        for read in (geom.coordinates, geom.point):
            with pytest.raises(DomainValidationError):
                read(x)


def _float32_point(rng, n, lo, hi):
    """A point of R^n at a radius in about [lo, hi] whose coordinates are
    float32 values, so that every form below holds the same doubles."""
    v = (rng.uniform(lo, hi) * random_unit(rng, n)).astype(np.float32)
    return v.astype(float).tolist()


def _exact_unit(rng, n):
    """A unit vector of R^n whose coordinates are float32 values and whose
    norm is exactly 1: a signed axis, or at n = 4 a vector of signed halves."""
    if n == 4:
        return (0.5 * rng.choice([-1.0, 1.0], size=4)).tolist()
    v = [0.0] * n
    v[int(rng.integers(n))] = float(rng.choice([-1.0, 1.0]))
    return v


_LOOSE = TruncationPolicy(abs_tol=1e-8)
# each evaluator that takes points, with a draw of a valid pair of them
_POINT_DRAWS = {
    "green_eval": (
        lambda g, x, y: green_eval(g, x, y, _LOOSE),
        lambda rng, n: (_float32_point(rng, n, 0.55, 0.95), _float32_point(rng, n, 0.55, 0.95)),
    ),
    "green_piecewise_eval": (
        lambda g, x, y: green_piecewise_eval(g, x, y, _LOOSE),
        lambda rng, n: (_float32_point(rng, n, 0.55, 0.7), _float32_point(rng, n, 0.8, 0.95)),
    ),
    "newtonian_series_outer": (
        lambda g, x, y: kernels.newtonian_series_outer(g, x, y, _LOOSE),
        lambda rng, n: (_exact_unit(rng, n), _float32_point(rng, n, 0.05, 0.9)),
    ),
    "newtonian_series_inner": (
        lambda g, x, y: kernels.newtonian_series_inner(g, x, y, _LOOSE),
        lambda rng, n: (_exact_unit(rng, n), _float32_point(rng, n, 0.55, 0.95)),
    ),
    "newtonian_series_exterior": (
        lambda g, x, y: kernels.newtonian_series_exterior(g, x, y, _LOOSE),
        lambda rng, n: (_float32_point(rng, n, 0.6, 0.95), _float32_point(rng, n, 0.05, 0.5)),
    ),
    "newtonian_potential": (
        newtonian_potential,
        lambda rng, n: (_float32_point(rng, n, 0.55, 0.95), _float32_point(rng, n, 0.55, 0.95)),
    ),
}


def _point_forms(xs):
    """The forms of the point with float32-valued coordinates ``xs`` that
    numpy's conversion accepts, each holding the same doubles."""
    return {
        "list": list(xs),
        "tuple": tuple(xs),
        "float64 array": np.array(xs),
        "float32 array": np.array(xs, dtype=np.float32),
        "numpy float64 scalars": [np.float64(v) for v in xs],
        "numpy float32 scalars": [np.float32(v) for v in xs],
        "numeric strings": [repr(v) for v in xs],
        "0-d arrays": [np.array(v) for v in xs],
        "__array__ object": _ArrayProtocol(xs),
        "__array_interface__ object": _ArrayInterface(np.array(xs, dtype=np.float32)),
    }


@pytest.mark.parametrize("seed", [3, 17])
@pytest.mark.parametrize("evaluator", sorted(_POINT_DRAWS))
def test_every_accepted_point_form_gives_the_same_result(evaluator, seed):
    evaluate, draw = _POINT_DRAWS[evaluator]
    rng = np.random.default_rng(seed)
    for _ in range(6):
        n = int(rng.choice([3, 4, 5]))
        geom = AnnulusGeometry(n, 0.5)
        x, y = draw(rng, n)
        want = evaluate(geom, x, y)
        xf, yf = _point_forms(x), _point_forms(y)
        for form in xf:
            # the doubles numpy's conversion gives, and so the same result
            assert geom.coordinates(xf[form]) == np.asarray(xf[form], dtype=float).tolist() == x
            assert evaluate(geom, xf[form], yf[form]) == want, form
    # integer, bool and numpy-integer coordinates, at a point on the outer sphere
    geom = AnnulusGeometry(3, 0.5)
    y = {"newtonian_series_outer": [0.0, 0.3, 0.0], "newtonian_series_exterior": [0.0, 0.3, 0.0]}
    y = y.get(evaluator, [0.0, 0.7, 0.0])
    want = evaluate(geom, [1.0, 0.0, 0.0], y)
    for x in ([1, 0, 0], [True, False, False], [np.int64(1), np.int8(0), np.uint16(0)]):
        assert evaluate(geom, x, y) == want


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
    "modal_coefficient": (lambda v: kernels.modal_coefficient(GEOM3, v, 0.6, 0.8), 2),
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
        lambda m: kernels.modal_coefficient(GEOM3, m, 0.6, 0.8),
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


@pytest.mark.parametrize(
    "build",
    [
        lambda: TruncationPolicy()._replace(abs_tol=-1.0),
        lambda: TruncationPolicy._make([1e-10, 0, 2, 0.0]),
        lambda: AnnulusGeometry(3, 0.5)._replace(a=1.5),
        lambda: AnnulusGeometry._make([1, 0.5]),
    ],
    ids=["policy._replace", "TruncationPolicy._make", "geom._replace", "AnnulusGeometry._make"],
)
def test_every_construction_path_checks_the_fields(build):
    # namedtuple's own _make and _replace build through tuple.__new__, which
    # would skip the checks in __new__
    with pytest.raises(DomainValidationError):
        build()


def test_checked_records_replace_and_make_as_named_tuples():
    policy = TruncationPolicy()._replace(rel_tol=0.1)
    assert type(policy) is TruncationPolicy
    assert policy == TruncationPolicy(rel_tol=0.1) == (1e-10, 100_000, 2, 0.1)
    assert TruncationPolicy._make(policy) == policy
    assert AnnulusGeometry._make([4, 0.25])._asdict() == {"n": 4, "a": 0.25}
    with pytest.raises(TypeError):
        policy._replace(tolerance=1.0)


def test_records_pickle_and_unpickle_equal():
    geom = AnnulusGeometry(3, 0.5)
    report = find_critical_point(geom)
    assert type(report) is CriticalPointReport
    records = [geom, TruncationPolicy(rel_tol=0.05), EvalResult(1.0, 2, 3.0, True), report,
               report.phases[0]]
    for record in records:
        back = pickle.loads(pickle.dumps(record))
        assert type(back) is type(record) and back == record
    grid = EvalGrid(np.array([1.0, 2.0]), np.array([3, 4]), np.array([0.5, 0.25]),
                    np.array([True, False]))
    back = pickle.loads(pickle.dumps(grid))
    assert type(back) is EvalGrid
    assert all(np.array_equal(x, y) for x, y in zip(back, grid))


def test_record_reprs_name_their_fields():
    res = EvalResult(1.0, 2, 3.0, True)
    assert repr(res) == "EvalResult(value=1.0, terms_used=2, tail_bound=3.0, converged=True)"
    assert repr(AnnulusGeometry(3, 0.5)) == "AnnulusGeometry(n=3, a=0.5)"
    report = find_critical_point(AnnulusGeometry(3, 0.5))
    assert repr(report).startswith(f"CriticalPointReport(r0={report.r0!r}, bracket=")
    assert "phases=(PhaseCounts(phase='sweep', evaluations=" in repr(report)


def test_eval_grids_compare_by_identity():
    arrays = [np.array([1.0, 2.0]), np.array([3, 4]), np.array([0.5, 0.25]),
              np.array([True, True])]
    one = EvalGrid(*arrays)
    other = EvalGrid(*(x.copy() for x in arrays))
    # no elementwise comparison of the arrays, so no ambiguous truth value
    assert one == one and not one != one
    assert one != other and not one == other
    assert len({one, other, one}) == 2


def test_public_surface_is_sorted_unique_and_resolves():
    # a name left in __all__ after its function is deleted breaks
    # `from annulus_green import *`
    names = annulus_green.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(annulus_green, name)] == []


def _fresh_interpreter(code: str) -> str:
    """The standard output of ``code`` run by a fresh interpreter on src/,
    so that no other test's imports are counted."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, check=True,
    )
    return out.stdout


def test_package_and_cli_import_without_scipy():
    # the package's import time is what every CLI process pays first: no
    # scipy, and no numpy, grid module, fractions or csv until a command
    # needs them, and no dataclasses or inspect (the records are named
    # tuples); a site hook may load those two itself, so only the modules
    # loaded after it count.  The scalar commands, eval-green among them,
    # and the Newtonian series build no arrays and load no numpy.  Neither
    # the import nor the other commands load the solver, which only
    # critical-point loads, or json, which only JSON output loads: the
    # harness snapshots the modules before it imports json itself
    head = """
        import contextlib, io, sys
        before = set(sys.modules)
        import annulus_green, annulus_green.cli as cli

        def run(*argv):
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(list(argv))

        def new(*names):
            return sorted(set(names) & (set(sys.modules) - before))

        deferred = ("annulus_green.critical", "json")
        on_import = new(*deferred)
    """
    code = head + """
        scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        scalar = [
            run("eval-robin", "--n", "3", "--a", "0.5", "0.7"),
            run("eval-green", "--n", "3", "0.6", "0", "0", "0", "0.8", "0"),
        ]
        before_solve = new("annulus_green.critical")
        scalar.append(run("critical-point", "--n", "3", "--a", "0.5"))
        after_solve = new("annulus_green.critical")
        unused = ("numpy", "annulus_green.verify", "annulus_green.grid", "fractions", "csv")
        loaded = [m for m in unused if m in sys.modules]
        loaded += new("dataclasses", "inspect")
        # the Newtonian series read their points without numpy too
        geom, policy = annulus_green.AnnulusGeometry(3, 0.5), annulus_green.TruncationPolicy()
        newtonian = annulus_green.kernels.newtonian_series_outer(
            geom, [1.0, 0.0, 0.0], [0.0, 0.5, 0.0], policy
        ).converged
        numpy_free = "numpy" not in sys.modules
        arrays = [run("export-grid", "robin", "--grid-points", "5")]
        after = [m in sys.modules for m in ("numpy", "annulus_green.grid")]
        import json
        print(json.dumps([on_import, before_solve, after_solve, scipy, scalar, loaded,
                          newtonian, numpy_free, arrays, after]))
    """
    (on_import, before_solve, after_solve, scipy, scalar, loaded, newtonian, numpy_free,
     arrays, after) = json.loads(_fresh_interpreter(code))
    assert on_import == [] and before_solve == []
    assert after_solve == ["annulus_green.critical"]
    assert scipy == []
    assert scalar == [0, 0, 0]
    assert loaded == []
    assert newtonian and numpy_free
    assert arrays == [0] and after == [True, True]

    # CSV output loads no json, and no command but critical-point the solver
    code = head + """
        exits = [
            run("eval-robin", "--n", "3", "--a", "0.5", "0.7", "--format", "csv"),
            run("eval-green", "--n", "3", "--format", "csv", "0.6", "0", "0", "0", "0.8", "0"),
            run("export-grid", "robin", "--grid-points", "5", "--format", "csv"),
        ]
        print(on_import, new(*deferred), exits)
    """
    assert _fresh_interpreter(code) == "[] [] [0, 0, 0]\n"


def test_numpy_imported_after_the_package_is_recognised():
    # whether a value is a numpy array or integer is read when it is passed,
    # not fixed when the package is imported
    code = """
        import json
        import annulus_green as ag
        import numpy as np

        geom, policy = ag.AnnulusGeometry(3, 0.5), ag.TruncationPolicy()
        values = [
            ag.robin_eval(geom, r, policy).value for r in (0.7, np.float64(0.7), np.array(0.7))
        ]
        try:
            ag.robin_eval(geom, np.array([0.7]), policy)
            refused = None
        except ag.DomainValidationError as exc:
            refused = str(exc)
        n = ag.AnnulusGeometry(np.int64(3), 0.5).n
        grid = ag.robin_eval_grid(geom, np.array([0.6, 0.7, 0.8]), policy)
        print(json.dumps([[v.hex() for v in values], refused, int(n), grid.value.tolist(),
                          grid.terms_used.tolist(), grid.tail_bound.tolist()]))
    """
    values, refused, n, value, terms, tails = json.loads(_fresh_interpreter(code))
    policy = TruncationPolicy()
    want = robin_eval(AnnulusGeometry(3, 0.5), 0.7, policy).value.hex()
    assert values == [want] * 3
    assert refused == "expected a scalar radius, got an array of shape (1,)"
    assert n == 3
    grid = annulus_green.robin_eval_grid(AnnulusGeometry(3, 0.5), np.array([0.6, 0.7, 0.8]), policy)
    assert value == grid.value.tolist()
    assert terms == grid.terms_used.tolist() and tails == grid.tail_bound.tolist()


def test_package_namespace_holds_what_the_benchmark_reads(monkeypatch):
    # bench/run.py collects the typed failures from vars(annulus_green), so
    # every error class is bound there eagerly; bench/tracing.py reads these
    # submodules but grid as package attributes and swaps wrappers into them
    modules = ("core", "summation", "specfun", "kernels", "green", "critical", "cli",
               "verify", "oracle", "grid")
    for name in modules:
        module = getattr(annulus_green, name)
        assert module is sys.modules[f"annulus_green.{name}"]
        for value in vars(module).values():
            if isinstance(value, type) and issubclass(value, annulus_green.AnnulusError):
                assert vars(annulus_green)[value.__name__] is value
    # a lazily exported name is read from its submodule on every access and
    # never stored in the package, so a wrapper does not outlive its removal
    original = kernels.newtonian_series_outer
    with monkeypatch.context() as patch:
        patch.setattr(kernels, "newtonian_series_outer", lambda *args: None)
        assert annulus_green.newtonian_series_outer is kernels.newtonian_series_outer
    assert annulus_green.newtonian_series_outer is original
    assert "newtonian_series_outer" not in vars(annulus_green)
    assert annulus_green.sum_series_table is annulus_green.grid.sum_series_table
    with pytest.raises(AttributeError):
        annulus_green.no_such_name

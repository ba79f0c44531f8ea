"""The mode tables of specfun and green: the stored rows and the rows built
past them give the same results, the cache stays bounded, and callers
building one table at once see the rows a single caller sees."""

import math
import random
import sys
import threading

import numpy as np
import pytest

from annulus_green import (
    AnnulusGeometry,
    DomainValidationError,
    TruncationPolicy,
    gegenbauer_eval,
    gegenbauer_generating_sum,
    green_eval,
    green_piecewise_eval,
    newtonian_series_exterior,
    newtonian_series_inner,
    newtonian_series_outer,
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
    specfun,
)
from annulus_green import green
from annulus_green.grid import _green_slice, _robin_remainder_grid, sum_series_table
from annulus_green.summation import sum_series

POLICY = TruncationPolicy()
FINE = TruncationPolicy(abs_tol=1e-12)


@pytest.fixture()
def fresh_tables():
    specfun._stored_rows.cache_clear()
    yield
    specfun._stored_rows.cache_clear()


def _lam_table(lam):
    return specfun._stored_rows(specfun._gegenbauer_modes, lam)


def _fields(res):
    return tuple(np.asarray(getattr(res, f)).tolist()
                 for f in ("value", "tail_bound", "terms_used", "converged"))


def _deep_calls(seed: int) -> list:
    """A seeded draw of calls to every table-backed evaluator and grid twin,
    with series that pass 256 modes."""
    rng = random.Random(seed)
    calls = []
    for _ in range(2):
        n = rng.choice((3, 4, 6, 9))
        k, lam = n - 2, 0.5 * (n - 2)
        q = 1.0 - 10.0 ** rng.uniform(-1.7, -1.3)
        angle, t = rng.uniform(0.0, 3.0), rng.uniform(-1.0, 1.0)
        xi, y = np.zeros(n), np.zeros(n)
        xi[0], y[0], y[1] = 1.0, np.cos(angle), np.sin(angle)
        mid = AnnulusGeometry(n, 0.5)
        calls += [
            (newtonian_series_outer, mid, xi, q * y, POLICY),
            (newtonian_series_inner, AnnulusGeometry(n, 0.9 * q), xi, 0.9 * y, POLICY),
            (newtonian_series_exterior, mid, 0.95 * xi, 0.95 * q * y, POLICY),
            (gegenbauer_generating_sum, lam, t, q, POLICY),
            (gegenbauer_eval, lam, 300, t),
            # modal series of ratio lo/hi near 1, Green remainders at a thin annulus
            (green_piecewise_eval, mid, 0.8 * xi, 0.8 * q * y, POLICY),
            (green_eval, AnnulusGeometry(n, 0.99), 0.995 * xi, 0.993 * y, POLICY),
            (_slice, AnnulusGeometry(n, 0.99), np.array([0.992, 0.997]), 0.993 * y),
        ]
        a = rng.uniform(0.97, 0.98)
        radii = np.array([a + f * (1.0 - a) for f in (0.01, 0.5, 0.99)])
        geom = AnnulusGeometry(n, a)
        calls += [(fn, a, r, FINE) for fn in (robin2d_eval, robin2d_first, robin2d_second)
                  for r in radii]
        calls += [(fn, a, radii, FINE) for fn in (robin2d_eval_grid, robin2d_first_grid)]
        calls += [(fn, geom, r, FINE) for fn in
                  (robin_eval, robin_radial_gradient, robin_radial_gradient_derivative)
                  for r in radii]
        calls += [(fn, geom, radii, FINE) for fn in (robin_eval_grid, robin_radial_gradient_grid)]
        # the spatial mode series, which the evaluators sum through images here
        for series in ("robin_eval", "robin_radial_gradient", "robin_radial_gradient_derivative"):
            parts = green._SERIES[series].remainder(k, radii[1])[1]
            calls += [(_modes, k, a, radii[1], parts), (_modes_grid, k, a, radii, parts)]
    return calls


def _slice(geom, radii, y):
    return _green_slice(geom, radii, y, POLICY)[1]


def _modes(k, a, r, parts):
    return sum_series(green._robin_remainder(k, a, r, 1.0, parts), FINE)


def _modes_grid(k, a, radii, parts):
    return sum_series_table(
        lambda cols: _robin_remainder_grid(k, a, radii[cols], 1.0, parts), radii.size, FINE
    )


def _run(calls) -> list:
    out = []
    for fn, *args in calls:
        res = fn(*args)
        out.append(_fields(res) if hasattr(res, "terms_used") else res)
    return out


@pytest.mark.parametrize("stored", [1, 7, 256])
def test_stored_and_built_rows_agree(monkeypatch, fresh_tables, stored):
    calls = _deep_calls(11)
    want = _run(calls)
    terms = [r[2] for r in want if isinstance(r, tuple)]
    assert max(np.max(t) for t in terms) > 256
    specfun._stored_rows.cache_clear()
    monkeypatch.setattr(specfun, "_STORED_MODES", stored)
    assert _run(calls) == want
    assert _run(calls) == want  # with the tables stored


def test_tables_stay_bounded(fresh_tables):
    assert robin2d_eval(0.999, 0.9995, FINE).terms_used > 256
    long = TruncationPolicy(abs_tol=0.0, max_terms=100_000)
    res = gegenbauer_generating_sum(1.5, 0.3, 0.9999, long)
    assert res.terms_used == 100_000
    assert len(_lam_table(1.5)) == specfun._STORED_MODES
    shapes = []
    for n in range(3, 201):
        geom = AnnulusGeometry(n, 0.5)
        robin_radial_gradient(geom, 0.7, POLICY)
        newtonian_series_outer(geom, np.eye(n)[0], 0.3 * np.eye(n)[1], POLICY)
        shapes.append((n - 2, green._SERIES["robin_radial_gradient"].remainder(n - 2, 0.7)[1]))
        info = specfun._stored_rows.cache_info()
        assert info.currsize <= specfun._SHAPES
    # the last shapes of the sweep are still held, each of exactly
    # _STORED_MODES rows
    misses = specfun._stored_rows.cache_info().misses
    for k, parts in shapes[-10:]:
        assert len(specfun._stored_rows(green._robin_modes, k, parts)) == specfun._STORED_MODES
        assert len(_lam_table(0.5 * k)) == specfun._STORED_MODES
    assert specfun._stored_rows.cache_info().misses == misses
    assert specfun._stored_rows.cache_info().maxsize == specfun._SHAPES


def test_threads_filling_one_table_agree(fresh_tables):
    calls = [
        (gegenbauer_generating_sum, 3.25, -0.4, 0.995, POLICY),
        (robin2d_eval, 0.993, 0.996, FINE),
        (robin2d_eval_grid, 0.993, np.array([0.994, 0.998]), FINE),
    ]
    want = _run(calls)
    parts = green._SERIES["robin2d_eval"].remainder(0, 0.5)[1]
    rows = [_lam_table(3.25), specfun._stored_rows(green._robin_modes, 0, parts)]
    specfun._stored_rows.cache_clear()
    barrier = threading.Barrier(4)
    results = [None] * 4

    def work(i):
        barrier.wait()
        results[i] = _run(calls)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often inside a table's build
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert results == [want] * 4
    assert _lam_table(3.25) == rows[0]
    assert specfun._stored_rows(green._robin_modes, 0, parts) == rows[1]


SCALAR_ROBIN = [
    (robin_eval, AnnulusGeometry(4, 0.5)),
    (robin_radial_gradient, AnnulusGeometry(4, 0.5)),
    (robin_radial_gradient_derivative, AnnulusGeometry(3, 0.5)),
    (robin2d_eval, 0.5),
    (robin2d_first, 0.5),
    (robin2d_second, 0.5),
]


@pytest.mark.parametrize("fn, geom", SCALAR_ROBIN, ids=lambda v: getattr(v, "__name__", ""))
@pytest.mark.parametrize("radius", [np.float64(0.7), np.array(0.7), np.float32(0.7)],
                         ids=["float64", "0-d", "float32"])
def test_scalar_robin_evaluators_take_any_real_scalar(fn, geom, radius):
    policy = TruncationPolicy(abs_tol=5e-14)
    want = fn(geom, float(radius), policy)
    got = fn(geom, radius, policy)
    assert got == want
    assert type(got.value) is float and type(got.tail_bound) is float
    for radii in (np.array([0.7]), np.array([[0.7]])):
        with pytest.raises(DomainValidationError, match="scalar radius"):
            fn(geom, radii, policy)


@pytest.mark.parametrize("lam", [0.25, 0.5, 1.5, 3.5])
@pytest.mark.parametrize("t", [-1.0, -0.7, -0.0, 0.0, 0.31, 1.0])
def test_generating_rows_give_iter_gegenbauers_polynomials(lam, t):
    # at r = 1 and scale 1 each row's value is its P_m(t) times 1.0 exactly,
    # so the stream's own recurrence must give iter_gegenbauer's doubles,
    # past the stored modes too
    rows = specfun._generating_rows(lam, t, 1.0)
    got = [row[0] for _, row in zip(range(300), rows)]
    want = [p for _, p in zip(range(300), specfun.iter_gegenbauer(lam, t))]
    assert [math.copysign(1.0, v) for v in got] == [math.copysign(1.0, v) for v in want]
    assert got == want


@pytest.mark.parametrize("lam", [0.25, 0.5, 1.5])
def test_first_recurrence_step_keeps_signed_zeros(lam):
    # mode 0's table constant for P_{-1} is 0.0, so P_1(t) = (2 lam) t
    # exactly, the sign of a zero t included
    assert math.copysign(1.0, gegenbauer_eval(lam, 1, -0.0)) == -1.0
    assert gegenbauer_eval(lam, 1, 0.3) == (2.0 * lam) * 0.3

"""The mode tables of specfun and green: the stored rows and the rows built
past them give the same results at every depth of the store, a table holds
the rows its streams read and the store stays bounded, and threads filling
one table publish prefixes of one sequence of rows."""

import collections
import functools
import itertools
import math
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annulus_green import (
    AnnulusGeometry,
    DomainValidationError,
    TailEnvelopeError,
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
    specfun._TABLES.clear()
    yield
    specfun._TABLES.clear()


def _held(build, *shape):
    """The rows the store holds for a shape, () where it holds none."""
    return specfun._TABLES.get((build, *shape), ())


def _built(key, count):
    """The first ``count`` rows of a shape, from its builder alone."""
    build, *shape = key
    return tuple(itertools.islice(build(*shape), count))


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


@functools.lru_cache(maxsize=None)
def _reference(seed: int) -> list:
    """(call, its outputs, the shapes it reads) per call of _deep_calls(seed),
    each run on an empty store."""
    out = []
    for call in _deep_calls(seed):
        specfun._TABLES.clear()
        out.append((call, _run([call])[0], tuple(specfun._TABLES)))
    specfun._TABLES.clear()
    return out


def test_deep_calls_pass_the_stored_modes():
    terms = [np.max(want[2]) for _, want, _ in _reference(11) if isinstance(want, tuple)]
    assert max(terms) > 1024
    assert sum(t > 256 for t in terms) > 10


@pytest.mark.parametrize("stored", [1, 7, 256, 1024])
@settings(max_examples=20)
@given(depth=st.integers(min_value=0, max_value=1100), pick=st.integers(min_value=0))
def test_stored_and_built_rows_agree(stored, depth, pick):
    # one stream fills a shape to the drawn depth; every call that reads the
    # shape then gives its outputs on an empty store, reading the stored
    # rows and continuing the builder from the last of them
    reference = _reference(11)
    shapes = sorted({key for _, _, keys in reference for key in keys}, key=repr)
    key = shapes[pick % len(shapes)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(specfun, "_STORED_MODES", stored)
        specfun._TABLES.clear()
        stream = specfun._mode_table(*key)
        assert tuple(itertools.islice(stream, depth)) == _built(key, depth)
        del stream
        assert _held(*key) == _built(key, min(depth, stored))
        calls = [(call, want) for call, want, keys in reference if key in keys]
        assert _run([call for call, _ in calls]) == [want for _, want in calls]
        assert _run([call for call, _ in calls]) == [want for _, want in calls]
        assert len(_held(*key)) <= stored
    specfun._TABLES.clear()


def test_tables_stay_bounded(fresh_tables):
    assert robin2d_eval(0.999, 0.9995, FINE).terms_used > specfun._STORED_MODES
    long = TruncationPolicy(abs_tol=0.0, max_terms=100_000)
    res = gegenbauer_generating_sum(1.5, 0.3, 0.9999, long)
    assert res.terms_used == 100_000
    assert _held(specfun._gegenbauer_modes, 1.5) == _built(
        (specfun._gegenbauer_modes, 1.5), specfun._STORED_MODES
    )
    for n in range(3, 201):
        geom = AnnulusGeometry(n, 0.5)
        # a mid-gap Robin call leaves only the rows it read, one per term
        res = robin_radial_gradient(geom, 0.7, POLICY)
        parts = green._SERIES["robin_radial_gradient"].remainder(n - 2, 0.7)[1]
        assert len(_held(green._robin_modes, n - 2, parts)) == res.terms_used
        newtonian_series_outer(geom, np.eye(n)[0], 0.3 * np.eye(n)[1], POLICY)
        assert len(specfun._TABLES) <= specfun._SHAPES
        assert all(len(rows) <= specfun._STORED_MODES for rows in specfun._TABLES.values())
    # the last shapes of the sweep are still held
    keys = list(specfun._TABLES)
    assert keys[-1] == (specfun._gegenbauer_modes, 99.0)
    assert keys[-2] == (green._robin_modes, 198, parts)
    assert len(keys) == specfun._SHAPES


def test_streams_leave_exactly_the_rows_they_read(fresh_tables):
    gegenbauer = (specfun._gegenbauer_modes, 1.5)
    # a stream its consumer stops early, and one it closes
    polys = specfun.iter_gegenbauer(1.5, 0.3)
    assert len(list(itertools.islice(polys, 37))) == 37
    del polys
    assert _held(*gegenbauer) == _built(gegenbauer, 37)
    stream = specfun._mode_table(*gegenbauer)
    assert len(list(itertools.islice(stream, 50))) == 50
    assert _held(*gegenbauer) == _built(gegenbauer, 37)  # still open
    del stream
    assert _held(*gegenbauer) == _built(gegenbauer, 50)
    # of two streams open at once, the one that read fewer rows and closes
    # last leaves the longer table
    short, long = specfun._mode_table(*gegenbauer), specfun._mode_table(*gegenbauer)
    assert len(list(itertools.islice(short, 60))) == 60
    assert len(list(itertools.islice(long, 70))) == 70
    del long
    assert _held(*gegenbauer) == _built(gegenbauer, 70)
    del short
    assert _held(*gegenbauer) == _built(gegenbauer, 70)
    # a series that converges reads one row per term, and a shallower one
    # leaves the table as it was
    res = gegenbauer_generating_sum(1.5, 0.3, 0.9, POLICY)
    assert _held(*gegenbauer) == _built(gegenbauer, res.terms_used)
    gegenbauer_generating_sum(1.5, 0.3, 0.3, POLICY)
    assert len(_held(*gegenbauer)) == res.terms_used
    # a series whose consumer raises at the term of index i read i + 1 rows
    try:
        gegenbauer_generating_sum(300.0, 1.0, 0.999, POLICY)
    except TailEnvelopeError as exc:
        prefix, index = str(exc).rsplit(" ", 1)
        assert prefix.endswith("at index")
    else:
        pytest.fail("the series does not leave the double range")
    assert _held(specfun._gegenbauer_modes, 300.0) == _built(
        (specfun._gegenbauer_modes, 300.0), int(index) + 1
    )
    with pytest.raises(TailEnvelopeError):
        gegenbauer_eval(300.0, 500, 1.0)
    assert len(_held(specfun._gegenbauer_modes, 300.0)) == 501


class _Published(collections.OrderedDict):
    """A store that keeps every table written to it, per shape."""

    def __init__(self):
        super().__init__()
        self.seen = collections.defaultdict(list)

    def __setitem__(self, key, rows):
        self.seen[key].append(rows)
        super().__setitem__(key, rows)


def test_threads_filling_one_table_agree(monkeypatch, fresh_tables):
    calls = [
        (gegenbauer_generating_sum, 3.25, -0.4, 0.995, POLICY),
        (robin2d_eval, 0.993, 0.996, FINE),
        (robin2d_eval_grid, 0.993, np.array([0.994, 0.998]), FINE),
    ]
    want = _run(calls)
    store = _Published()
    monkeypatch.setattr(specfun, "_TABLES", store)
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
    # every table published is a prefix of its shape's one sequence of rows,
    # and the store holds the longest
    parts = green._SERIES["robin2d_eval"].remainder(0, 0.5)[1]
    assert {(specfun._gegenbauer_modes, 3.25), (green._robin_modes, 0, parts)} <= set(store.seen)
    for key, published in store.seen.items():
        longest = max(published, key=len)
        assert longest == _built(key, len(longest))
        assert all(rows == longest[: len(rows)] for rows in published)
        assert store[key] == longest


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

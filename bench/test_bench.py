"""Tests of the benchmark itself: the mpmath reference and the seeded inputs.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath
import pytest
from mpmath import mpf

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def close(x, y, rel):
    return abs(x - y) <= rel * max(abs(x), abs(y))


def slope(f, r):
    """Central difference with step 1e-15: the reference keeps 50 digits, so
    the quotient keeps about 35, and the step error is 1e-30 times the third
    derivative."""
    h = mpf(10) ** -15
    return (f(r + h) - f(r - h)) / (2 * h)


def ball_green(n, x, y):
    """Green function of the unit ball by reflection, in mpmath."""
    x, y = [mpf(c) for c in x], [mpf(c) for c in y]
    d2 = sum((p - q) ** 2 for p, q in zip(x, y))
    refl2 = sum(p * p for p in x) * sum(q * q for q in y) - 2 * sum(p * q for p, q in zip(x, y)) + 1
    return (d2 ** (mpf(2 - n) / 2) - refl2 ** (mpf(2 - n) / 2)) / ((n - 2) * ref.omega(n))


@pytest.mark.parametrize("n", [3, 4, 6])
def test_green_tends_to_ball_closed_form(n):
    x = [0.5, 0.1] + [0.05] * (n - 2)
    y = [-0.2, 0.6] + [-0.1] * (n - 2)
    with mpmath.workdps(ref.DPS):
        assert close(ref.green(n, 1e-12, x, y), ball_green(n, x, y), 1e-9)


@pytest.mark.parametrize("n", [3, 5])
def test_robin_tends_to_ball_closed_form(n):
    r = 0.8
    with mpmath.workdps(ref.DPS):
        ball = -((1 - mpf(r) ** 2) ** -(n - 2)) / ((n - 2) * ref.omega(n))
        assert close(ref.robin(n, 1e-12, r), ball, 1e-9)


@pytest.mark.parametrize("n,a", [(3, 0.5), (4, 0.3), (6, 0.7)])
def test_green_correction_route_matches_modal_route(n, a):
    """The modal series, summed with mpmath's own Gegenbauer polynomials."""
    x = [0.55] + [0.0] * (n - 1) if a < 0.5 else [0.75] + [0.0] * (n - 1)
    y = [0.5, 0.7] + [0.1] * (n - 2)
    k = n - 2
    with mpmath.workdps(ref.DPS):
        lo = mpf(x[0])
        hi = mpmath.sqrt(sum(mpf(c) ** 2 for c in y))
        t = mpf(x[0]) * mpf(y[0]) / (lo * hi)
        am = mpf(a)
        total = mpf(0)
        for m in range(900):  # (lo/hi)^900 < 1e-50 for every case here
            beta = 2 * m + k
            coeff = (lo**beta - am**beta) * (1 - hi**beta) / (beta * (lo * hi) ** (m + k) * (1 - am**beta))
            total += coeff * beta / k * mpmath.gegenbauer(m, mpf(k) / 2, t)
        assert close(ref.green(n, a, x, y), total / ref.omega(n), 1e-30)


def test_green_vanishes_on_both_spheres():
    y = [0.3, 0.5, 0.2]
    for r in (1.0, 0.25):
        assert abs(ref.green(3, 0.25, [r, 0.0, 0.0], y)) < 1e-40


def _direct_radial(n, a, r, kind):
    """The package's series, unsplit, summed term by term in mpmath."""
    k = n - 2
    a, r = mpf(a), mpf(r)
    om = ref.omega(n)
    total = mpf(0)
    for m in range(3000):
        binom = mpmath.binomial(k + m - 1, m)
        big_a = a ** (2 * m + k)
        t1, t2, t4 = r ** (2 * m), big_a / r**k, big_a / r ** (2 * m + 2 * k)
        if kind == "robin":
            term = -binom * (t1 + t4 - 2 * t2) / (k * (1 - big_a) * om)
        elif kind == "gradient":
            term = -2 / om * binom * (-(m + k) * t4 + m * t1 + k * t2) / (k * (1 - big_a))
        else:
            term = -2 * binom * (2 * (m + k) ** 2 * t4 + 2 * m * m * t1 - k * k * t2) / (r * om * k * (1 - big_a))
        total += term
    return total


@pytest.mark.parametrize("n,a,r", [(3, 0.5, 0.7), (4, 0.3, 0.55), (6, 0.2, 0.5)])
def test_two_image_split_matches_direct_sum(n, a, r):
    with mpmath.workdps(ref.DPS):
        assert close(ref.robin(n, a, r), _direct_radial(n, a, r, "robin"), 1e-35)
        assert close(ref.robin_gradient(n, a, r), _direct_radial(n, a, r, "gradient"), 1e-35)
        assert close(ref.robin_gradient_derivative(n, a, r), _direct_radial(n, a, r, "slope"), 1e-35)


@pytest.mark.parametrize("n,a,r", [(3, 0.5, 0.5001), (5, 0.9, 0.95), (4, 0.3, 0.9999)])
def test_robin_family_derivatives_agree(n, a, r):
    with mpmath.workdps(ref.DPS):
        rm = mpf(r)
        grad = rm * slope(lambda s: ref.robin(n, a, s), rm)
        assert close(ref.robin_gradient(n, a, r), grad, 1e-18)
        assert close(ref.robin_gradient_derivative(n, a, r), slope(lambda s: ref.robin_gradient(n, a, s), rm), 1e-18)


def test_planar_known_values():
    with mpmath.workdps(ref.DPS):
        # a -> 0: the series part tends to the disc's -log(1 - r^2)
        a, r = 1e-20, 0.6
        disc = -mpmath.log(1 - mpf(r) ** 2) - mpmath.log(mpf(r)) ** 2 / mpmath.log(mpf(a))
        assert close(ref.robin2d(a, r), disc, 1e-30)
        # inversion r -> a/r maps the annulus to itself: R(a/r) = R(r) - log a + 2 log r
        a, r = mpf(0.25), mpf(0.375)
        assert close(ref.robin2d(a, a / r), ref.robin2d(a, r) - mpmath.log(a) + 2 * mpmath.log(r), 1e-35)
        # the unsplit series at an interior radius
        direct = -mpmath.log(r) ** 2 / mpmath.log(a) + mpmath.nsum(
            lambda m: (r ** (2 * m) - 2 * a ** (2 * m) + (a / r) ** (2 * m)) / (m * (1 - a ** (2 * m))), [1, mpmath.inf]
        )
        assert close(ref.robin2d(a, r), direct, 1e-35)


@pytest.mark.parametrize("a,r", [(0.2, 0.5), (0.9, 0.9001)])
def test_planar_derivatives_agree(a, r):
    with mpmath.workdps(ref.DPS):
        rm = mpf(r)
        assert close(ref.robin2d_first(a, r), slope(lambda s: ref.robin2d(a, s), rm), 1e-18)
        assert close(ref.robin2d_second(a, r), slope(lambda s: ref.robin2d_first(a, s), rm), 1e-18)


@pytest.mark.parametrize("n,a,start", [(2, 0.3, 0.6), (3, 0.5, 0.7), (6, 0.1, 0.4)])
def test_critical_radius_is_a_root(n, a, start):
    r0, df = ref.critical_radius(n, a, start)
    f = (lambda r: ref.robin2d_first(a, r)) if n == 2 else (lambda r: ref.robin_gradient(n, a, r))
    with mpmath.workdps(ref.DPS):
        assert abs(f(r0)) < 1e-25
        # n = 2: R' increases through its zero; n >= 3: r R' decreases
        assert (df > 0) == (n == 2)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_of_one_seed_repeat_exactly(name, tmp_path):
    import annulus_green as ag

    w = workloads.WORKLOADS[name](ag, str(tmp_path))
    for stream in ("main", "trace"):
        assert w.block(7, stream, 0) == w.block(7, stream, 0)
        assert w.block(7, stream, 3) == w.block(7, stream, 3)
        assert w.block(7, stream, 0) != w.block(8, stream, 0)
        assert w.block(7, stream, 0) != w.block(7, stream, 1)
    block = w.block(7, "main", 0)
    assert w.check_plan(7, block) == w.check_plan(7, block)


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.E2E_SPECS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.layer_metric_specs()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)

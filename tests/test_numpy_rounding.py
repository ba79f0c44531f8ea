"""numpy's vectorised power and log against mpmath, over the arguments the
grid twins in annulus_green.green give them.

The scalar evaluators count a libm power or log as correctly rounded give or
take one unit of the unit roundoff u = 2^-53.  The grid twins take the same
powers and logs of whole arrays with numpy, which on some hosts dispatches to
SIMD kernels that are not bit-identical to libm, and add _NUMPY_EXTRA units
per such factor to their rounding bounds.  This pins that allowance: every
sampled result must lie within 1 + _NUMPY_EXTRA units of the exact value.
"""

import mpmath
import numpy as np
import pytest
from mpmath import mpf

from annulus_green.green import _NUMPY_EXTRA

U = 2.0**-53
TINY = 2.0**-1022  # below this a result is subnormal and its error absolute
SAMPLES = 4000


def _units(values, exact):
    """Largest relative error of ``values`` against the mpmath ``exact``,
    in units of u, over the results that are normal doubles."""
    worst = 0.0
    with mpmath.workdps(40):
        for v, ref in zip(values.tolist(), exact):
            if TINY <= abs(ref) < mpf(2) ** 1024:
                worst = max(worst, float(abs((mpf(v) - ref) / ref)) / U)
    return worst


def _powers(base, exponent):
    with mpmath.workdps(40):
        return [mpf(b) ** mpf(e) for b, e in zip(base.tolist(), exponent.tolist())]


@pytest.mark.parametrize(
    "case",
    [
        # the table's b^(2m), b = r a or a^2 / r in (0, 1), deep into the modes
        "mode powers",
        # the starts (a^2/r)^k, (a/r)^(2k), (a^2/hi)^k, ... for n up to 52
        "start powers",
        # the Robin closed forms u^-k, (a/v)^k, (a/(r w))^k on both sides of 1
        "closed-form powers",
        # the Green images (c/E)^(k/2) and d^-k: half-integer exponents
        "half-integer powers",
    ],
)
def test_numpy_power_within_allowance(case):
    rng = np.random.default_rng(20240817)
    if case == "mode powers":
        base = rng.uniform(1e-3, 1.0, SAMPLES)
        exponent = 2.0 * rng.integers(0, 2000, SAMPLES)
    elif case == "start powers":
        base = rng.uniform(1e-3, 1.0, SAMPLES)
        exponent = rng.integers(1, 101, SAMPLES).astype(float)
    elif case == "closed-form powers":
        base = 10.0 ** rng.uniform(-8.0, 8.0, SAMPLES)
        exponent = rng.integers(-51, 51, SAMPLES).astype(float)
    else:
        base = 10.0 ** rng.uniform(-6.0, 6.0, SAMPLES)
        exponent = 0.5 * rng.integers(-50, 51, SAMPLES)
    with np.errstate(all="ignore"):
        values = np.power(base, exponent)
    assert _units(values, _powers(base, exponent)) <= 1.0 + _NUMPY_EXTRA


@pytest.mark.parametrize("lo", [1e-12, 1e-3, 0.5, 0.999])
def test_numpy_log_within_allowance(lo):
    # the planar closed forms take log r, log((1 - r)(1 + r)) and
    # log((r - a)(r + a)/r^2), all of arguments in (0, 1)
    rng = np.random.default_rng(7)
    x = rng.uniform(lo, 1.0, SAMPLES)
    x = x[x < 1.0]
    with mpmath.workdps(40):
        exact = [mpmath.log(mpf(v)) for v in x.tolist()]
    assert _units(np.log(x), exact) <= 1.0 + _NUMPY_EXTRA

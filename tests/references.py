"""The 50-digit references of the tier-1 tests, and their fixture.

Every 50-digit value a test compares with comes from here:

- ``reference``: the Robin family (R, r R', the slope, their planar twins
  and the critical equation) as the two-image closed form plus its
  remainder, summed mode by mode (``robin_powers``), and ``root``, the
  critical radius by Newton's method on it;
- ``mp_green``: the Green function, its four images summed in their
  generating-function form from the exact inputs, plus its remainder
  ``mp_remainder``, at two points or (``mp_green_polar``) at two radii and
  a cosine;
- ``mp_split_remainder``: a Robin-family split remainder alone, from its own
  tables of parts, or with ``part=LAYER`` the first image layer that the
  split sums in closed form;
- ``mp_distance_power``: |p - q|^(2-n), the Newtonian kernel that the three
  zonal expansions sum;
- ``omega``: the area of the unit sphere.

The series split 1/(1 - A_m) = 1 + A_m + A_m^2/(1 - A_m); ``part`` picks
which share of A_m/(1 - A_m) a remainder reference sums, mode by mode: FULL,
the split remainder SPLIT or the first image layer LAYER.  None of them
expands A_m / (1 - A_m) into images beyond that or shares the evaluators'
closed forms, rounding or Gegenbauer recurrence.  Derivatives in r are taken
exactly on the Robin remainder, where every part is a constant times a power
r^p on which D = r d/dr acts as multiplication by p; the closed form is
differentiated by mpmath.

Near a = 1 the remainder needs 1e4 to 3e5 modes, seconds to tens of seconds
at 50 digits, so the values and roots of thin annuli are kept in
``fixtures/image_references.json``.  ``python tests/references.py``
recomputes that file (about ten minutes on one core); the tests recompute
the entries with a <= 0.95 live to guard it.  The Green values of
green_piecewise_eval's certificate test are kept the same way, in
``fixtures/piecewise_references.json``, which
``scripts/piecewise_references.py`` writes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath
from mpmath import mpf

from annulus_green import (
    AnnulusGeometry,
    critical_equation_eval,
    find_critical_point,
    robin2d_eval,
    robin2d_first,
    robin2d_second,
    robin_eval,
    robin_radial_gradient,
    robin_radial_gradient_derivative,
)

DPS = 50
FIXTURE = Path(__file__).parent / "fixtures" / "image_references.json"
PIECEWISE_FIXTURE = Path(__file__).parent / "fixtures" / "piecewise_references.json"

# the fixture's names, those of the evaluators that switch to image rows
SPATIAL = ("robin_eval", "robin_radial_gradient", "robin_radial_gradient_derivative")
PLANAR = ("robin2d_first", "robin2d_second")
DIMENSIONS = (2, 3, 4, 5, 6)
INNER_RADII = (0.8, 0.9, 0.95, 0.99, 0.999)
# shares of the gap: both export-grid layers and mid-gap
POSITIONS = {"inner": 1e-3, "mid": 0.5, "outer": 1.0 - 1e-3}
ROOT_CASES = [(n, a) for a in (0.999, 0.9999) for n in (2, 3, 6)]

# every name that reference() knows, with its evaluator
EVALUATORS = {
    "robin_eval": robin_eval,
    "robin_radial_gradient": robin_radial_gradient,
    "robin_radial_gradient_derivative": robin_radial_gradient_derivative,
    "critical_equation_eval": critical_equation_eval,
    "robin2d_eval": robin2d_eval,
    "robin2d_first": robin2d_first,
    "robin2d_second": robin2d_second,
}

# the remainder stops once every summed series' envelope is this share of its
# closed part plus its sum and the modes shrink from one to the next (see
# robin_powers); their ratio then falls toward a^2 max(r^2, a^2/r^2), so what
# is left is far below it
_STOP = mpf(10) ** (20 - DPS)


def omega(n: int):
    """The area of the unit sphere in R^n, 2 pi^(n/2) / Gamma(n/2)."""
    with mpmath.workdps(DPS):
        return 2 * mpmath.pi ** (mpf(n) / 2) / mpmath.gamma(mpf(n) / 2)


def error(value, ref) -> float:
    """|value - ref| at 50 digits, ``ref`` a number or its decimal string."""
    with mpmath.workdps(DPS):
        return float(abs(mpf(value) - mpf(ref)))


def evaluate(name: str, n: int, a: float, r: float, policy):
    """The evaluator ``name`` at (n, a, r): planar ones (n = 2) take a,
    the others AnnulusGeometry(n, a)."""
    return EVALUATORS[name](a if n == 2 else AnnulusGeometry(n, a), r, policy)


def radius(a: float, where: str) -> float:
    return a + POSITIONS[where] * (1.0 - a)


def _closed(n: int, a):
    """The closed form as a function of r: the A-free part of R(r), with
    R(r)'s prefactor -1/(k omega) for n >= 3."""
    if n == 2:
        return lambda r: (
            -mpmath.log(r) ** 2 / mpmath.log(a)
            - mpmath.log(1 - r * r)
            + 2 * mpmath.log(1 - a * a)
            - mpmath.log(1 - (a / r) ** 2)
        )
    k = n - 2
    pre = -1 / (k * omega(n))
    return lambda r: pre * (
        (1 - r * r) ** -k + a**k * (r * r - a * a) ** -k - 2 * (a / r) ** k * (1 - a * a) ** -k
    )


def robin_powers(n: int, a: float, r: float):
    """(R, D R, D^2 R) at r with D = r d/dr, R the Robin function (planar for
    n = 2), at 50 digits."""
    with mpmath.workdps(DPS):
        a, r = mpf(a), mpf(r)
        f, f1, f2 = mpmath.diffs(_closed(n, a), r, 2)
        closed = (f, r * f1, r * f1 + r * r * f2)
        k = n - 2
        m = 1 if n == 2 else 0
        big_a = a ** (k + 2 * m)
        binom = mpf(1)  # C(k+m-1, m) for n >= 3
        pre = 1 if n == 2 else -1 / (k * omega(n))
        # the image parts c_i x_i^m and their powers of r
        if n == 2:
            parts = [r * r, -2 * a * a, (a / r) ** 2]
            steps = [r * r, a * a, (a / r) ** 2]
        else:
            parts = [mpf(1), -2 * (a / r) ** k, a**k * r ** (-2 * k)]
            steps = [r * r, a * a, (a / r) ** 2]
        sums = [mpf(0)] * 3
        while True:
            p = (2 * m, 0, -2 * m) if n == 2 else (2 * m, -k, -2 * k - 2 * m)
            weight = pre * big_a / (1 - big_a) * (binom if n > 2 else mpf(1) / m)
            envs = []
            for order in range(3):
                terms = [weight * c * mpf(q) ** order for c, q in zip(parts, p)]
                sums[order] += mpmath.fsum(terms)
                envs.append(mpmath.fsum(abs(t) for t in terms))
            # the envelopes shrink from here on only once the mode ratio, the
            # weight's (k+m)/(m+1) times a^2 max(r^2, a^2/r^2) times the
            # polynomials' ((m+1)/m)^2, is below 1: before that the binomial
            # can still make the modes grow however small they are now
            ratio = (k + m) / mpf(m + 1) * a * a * max(r * r, (a / r) ** 2)
            if m >= 20 and ratio * ((m + 1) / mpf(m)) ** 2 < 1 and all(
                env <= _STOP * (abs(c) + abs(s)) for env, c, s in zip(envs, closed, sums)
            ):
                return tuple(c + s for c, s in zip(closed, sums))
            if n > 2:
                binom = binom * (k + m) / (m + 1)
            parts = [c * x for c, x in zip(parts, steps)]
            big_a *= a * a
            m += 1


def reference(name: str, n: int, a: float, r: float, powers=None):
    """The 50-digit value of the evaluator ``name`` at (n, a, r), from
    robin_powers(n, a, r) if it is given."""
    R, DR, D2R = powers or robin_powers(n, a, r)
    with mpmath.workdps(DPS):
        r = mpf(r)
        return {
            "robin_eval": lambda: R,
            "robin_radial_gradient": lambda: DR,
            "robin_radial_gradient_derivative": lambda: D2R / r,
            "critical_equation_eval": lambda: -omega(n) / 2 * DR,
            "robin2d_eval": lambda: R,
            "robin2d_first": lambda: DR / r,
            "robin2d_second": lambda: (D2R - DR) / (r * r),
        }[name]()


def root(n: int, a: float, start: float):
    """(root, slope): the zero of the function find_critical_point solves,
    r R'(r) for n >= 3 and R'(r) in the plane, and its derivative there, by
    three Newton steps from ``start`` on D R, which shares that zero."""
    with mpmath.workdps(DPS):
        x = mpf(start)
        for _ in range(3):
            _, DR, D2R = robin_powers(n, a, x)
            x -= DR / (D2R / x)
        _, DR, D2R = robin_powers(n, a, x)
        slope = D2R / x if n > 2 else (D2R - DR) / (x * x)
        return x, slope


# the share of A_m / (1 - A_m) that a remainder reference sums, as a factor
# of A_m: all of it, the split remainder A_m^2 / (1 - A_m), or the first
# image layer A_m
FULL = "full"
SPLIT = "split"
LAYER = "layer"
_PARTS = {
    FULL: lambda x, big_a: x / (1 - big_a),
    SPLIT: lambda x, big_a: x * big_a / (1 - big_a),
    LAYER: lambda x, big_a: x,
}


def mp_remainder(k: int, a, lo, hi, t, scale, part=SPLIT):
    """The Green split's remainder at 50 digits, its inputs taken as exact:
    scale * sum_m (h1 - h2 - h3 + h4) P_m(t) A_m / (1 - A_m) with h_i = g_i A_m
    (the g_i of green._green_closed's docstring, so that h_i A_m are the h_i
    of green._green_remainder's), summed until its envelope is negligible.
    ``part`` FULL sums (h1 - h2 - h3 + h4) P_m(t) / (1 - A_m), and LAYER
    (h1 - h2 - h3 + h4) P_m(t)."""
    factor = _PARTS[part]
    with mpmath.workdps(DPS):
        a, lo, hi, t, scale = (mpf(v) for v in (a, lo, hi, t, scale))
        lam = mpf(k) / 2
        a2 = a * a
        bs = (a2 * lo * hi, a2 * a2 * lo / hi, a2 * a2 * hi / lo, a2 * a2 / (lo * hi))
        hs = [a**k, (a2 / hi) ** k, (a2 / lo) ** k, (a2 / (lo * hi)) ** k]
        qmax = max(bs[0], bs[3])
        total = mpf(0)
        p_prev, p, binom = mpf(0), mpf(1), mpf(1)
        m = 0
        while True:
            big_a = a ** (k + 2 * m)
            total += factor((hs[0] - hs[1] - hs[2] + hs[3]) * p, big_a)
            # every factor is at most 1 / (1 - a^k)
            env = binom * (hs[0] + hs[3]) / (1 - a**k)
            rho = (k + m) / mpf(m + 1) * qmax
            if rho < 1 and env * rho / (1 - rho) <= mpf(10) ** (8 - DPS) * abs(total):
                return scale * total
            p_prev, p = p, (2 * t * (m + lam) * p - (m + 2 * lam - 1) * p_prev) / (m + 1)
            binom *= (k + m) / mpf(m + 1)
            hs = [h * b for h, b in zip(hs, bs)]
            m += 1


def mp_modal(n: int, a: float, m: int, r: float, s: float):
    """green.modal_coefficient at 50 digits: (lo^beta - a^beta)(1 - hi^beta)
    / (beta (lo hi)^(m+n-2) (1 - a^beta) omega), beta = 2m + n - 2."""
    with mpmath.workdps(DPS):
        a, lo, hi = mpf(a), mpf(min(r, s)), mpf(max(r, s))
        beta = 2 * m + n - 2
        return (
            (lo**beta - a**beta)
            * (1 - hi**beta)
            / (beta * (lo * hi) ** (m + n - 2) * (1 - a**beta) * omega(n))
        )


def mp_green(n: int, a: float, x, y):
    """Green function at 50 digits from the float coordinates x, y (see
    mp_green_polar)."""
    with mpmath.workdps(DPS):
        xs, ys = [mpf(v) for v in x], [mpf(v) for v in y]
        r = mpmath.sqrt(mpmath.fsum(v * v for v in xs))
        s = mpmath.sqrt(mpmath.fsum(v * v for v in ys))
        d = mpmath.sqrt(mpmath.fsum((u - v) ** 2 for u, v in zip(xs, ys)))
        t = mpmath.fsum(u * v for u, v in zip(xs, ys)) / (r * s)
        return mp_green_polar(n, a, r, s, t, d)


def mp_green_polar(n: int, a: float, r, s, t, d=None):
    """Green function at 50 digits at radii r, s and cosine t, taken as
    exact, and distance d, by default sqrt((r - s)^2 + 2 r s (1 - t)): the
    Newtonian term minus four generating-function images
    c_i (1 - 2 q_i t + q_i^2)^(-k/2), and minus the remainder."""
    with mpmath.workdps(DPS):
        a, r, s, t = (mpf(v) for v in (a, r, s, t))
        if d is None:
            d = mpmath.sqrt((r - s) ** 2 + 2 * r * s * (1 - t))
        k = n - 2
        lo, hi = min(r, s), max(r, s)
        qs = (lo * hi, a * a * lo / hi, a * a * hi / lo, a * a / (lo * hi))
        cs = (mpf(1), (a / hi) ** k, (a / lo) ** k, (a / (lo * hi)) ** k)
        images = [c * (1 - 2 * q * t + q * q) ** (-mpf(k) / 2) for c, q in zip(cs, qs)]
        head = d**-k - (images[0] - images[1] - images[2] + images[3])
        return (head - mp_remainder(k, a, lo, hi, t, 1, FULL)) / (k * omega(n))


def mp_distance_power(n: int, p, q):
    """|p - q|^(2-n) at 50 digits, p and q doubles or 50-digit numbers."""
    with mpmath.workdps(DPS):
        d2 = mpmath.fsum((mpf(u) - mpf(v)) ** 2 for u, v in zip(p, q))
        return d2 ** (mpf(2 - n) / 2)


# (parts, scale factor) of each Robin-family split remainder as green.py sums
# it, written out here independently: the spatial parts as functions of k,
# the planar scale factors of r
SPATIAL_PARTS = {
    "robin_eval": (lambda k: ((1, 0, 0), (-2, 0, 0), (1, 0, 0)), lambda r: 1.0),
    "robin_radial_gradient": (lambda k: ((1, 0, 1), (k, 0, 0), (-1, k, 1)), lambda r: 2.0),
    "robin_radial_gradient_derivative": (
        lambda k: ((2, 0, 2), (-k * k, 0, 0), (2, k, 2)),
        lambda r: 2.0 / r,
    ),
}
PLANAR_PARTS = {
    "robin2d_eval": (((2, 0, -1), (-4, 0, -1), (2, 0, -1)), lambda r: 1.0),
    "robin2d_first": (((1, 0, 0), (0, 0, 0), (-1, 0, 0)), lambda r: 2.0 / r),
    "robin2d_second": (((1, -1, 1), (0, 0, 0), (1, 1, 1)), lambda r: 2.0 / (r * r)),
}


def mp_split_remainder(k: int, a: float, r: float, scale, parts, start=None, part=SPLIT):
    """A split remainder at 50 digits from the float inputs:
    scale sum_m C(k+m-1, m) sum_i coef_i (m + d_i)^e_i c_i x_i^m F(A_m)
    over x = (r^2, a^2, a^2/r^2), c = (1, (a/r)^k, (a/r^2)^k), A_m = a^(k+2m)
    for k >= 1, and for k = 0 the planar sum over m >= 1 with weights
    coef_i (2m + d_i)^e_i and no binomial.  F(A) is A^2 / (1 - A), or as
    ``part`` says: A / (1 - A) for FULL, A for LAYER.  ``start`` sums the
    modes m >= start only."""
    weight = _PARTS[part]
    with mpmath.workdps(DPS):
        a, r, scale = mpf(a), mpf(r), mpf(scale)
        m = (0 if k else 1) if start is None else start
        big_a = a ** (k + 2 * m)
        # C(k+m-1, m) for k >= 1
        binom = mpmath.binomial(k + m - 1, m) if k else mpf(1)
        xs = (r * r, a * a, (a / r) ** 2)
        # c_i x_i^m, with c = (1, (a/r)^k, (a/r^2)^k)
        images = [c * x**m for c, x in zip((1, (a / r) ** k, (a / (r * r)) ** k), xs)]
        total = mpf(0)
        while True:
            base = m if k else 2 * m
            weights = [coef * mpf(base + d) ** e for coef, d, e in parts]
            factor = weight(scale * binom * big_a, big_a)
            total += factor * mpmath.fsum(w * y for w, y in zip(weights, images))
            env = abs(factor) * mpmath.fsum(abs(w) * y for w, y in zip(weights, images))
            # the modes shrink by at least a^2 max(r^2, a^2/r^2) <= a^2 <= 0.95
            # times a polynomial factor near 1, so the rest is under 100 env
            if m >= (start or 0) + 20 and env <= mpf(10) ** (10 - DPS) * abs(total):
                return total
            if k:
                binom = binom * (k + m) / (m + 1)
            images = [y * x for y, x in zip(images, xs)]
            big_a *= a * a
            m += 1


def _cases():
    for n in DIMENSIONS:
        for a in INNER_RADII:
            for where in POSITIONS:
                for name in PLANAR if n == 2 else SPATIAL:
                    yield name, n, a, where


def build() -> dict:
    """The fixture's contents: every value of _cases and every root of
    ROOT_CASES, the 50-digit numbers as strings."""
    values = []
    powers = {}
    for name, n, a, where in _cases():
        r = radius(a, where)
        if (n, r) not in powers:
            powers[n, r] = robin_powers(n, a, r)
            print(f"n={n} a={a} {where}", file=sys.stderr, flush=True)
        value = reference(name, n, a, r, powers[n, r])
        values.append(
            {"name": name, "n": n, "a": a, "where": where, "r": r,
             "value": mpmath.nstr(value, DPS)}
        )
    roots = []
    for n, a in ROOT_CASES:
        start = find_critical_point(AnnulusGeometry(n, a)).r0
        x, slope = root(n, a, start)
        print(f"root n={n} a={a}", file=sys.stderr, flush=True)
        roots.append(
            {"n": n, "a": a, "root": mpmath.nstr(x, DPS), "slope": mpmath.nstr(slope, DPS)}
        )
    return {"dps": DPS, "values": values, "roots": roots}


if __name__ == "__main__":
    data = build()
    FIXTURE.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {len(data['values'])} values and {len(data['roots'])} roots to {FIXTURE}")

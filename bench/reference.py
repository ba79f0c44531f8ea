"""Independent high-precision reference values for the benchmark's checks.

Everything here runs in mpmath at ``DPS`` digits and takes only the float
inputs of an operation, converted exactly; nothing is imported from
``annulus_green``, so no float arithmetic is shared with the code under test.

Robin family (n >= 3, k = n - 2).  Every series has mode terms

    C(k+m-1, m) * sum_i c_i P_i(m) x_i^m / (1 - a^(k+2m))

with x_i in {r^2, a^2, a^2/r^2} and P_i a polynomial of degree <= 2.  Writing
1/(1-A) = 1 + A/(1-A) (two-image subtraction) splits each series into a
closed form, from sum_m C(k+m-1, m) m^j x^m = x^j-derivatives of (1-x)^-k,
plus a remainder whose term ratio is at most a^2 wherever r lies, so the
reference stays cheap inside the boundary layers.  The planar (n = 2) family
splits the same way through sum_m x^m / m = -log(1 - x).

Green function: direct summation of the correction series (fundamental
solution minus sum of four image products times the zonal kernel), with the
Gegenbauer recurrence run in mpmath.
"""

from __future__ import annotations

import mpmath
from mpmath import mpf

DPS = 50
# the remainder sums stop once a term drops below this share of the total
_REL_EPS = mpf(10) ** -(DPS - 8)
_MAX_MODES = 1_000_000
# critical radii are located to this absolute accuracy
_ROOT_TOL = mpf(10) ** -30


def omega(n: int):
    """Surface area of the unit sphere in R^n."""
    return 2 * mpmath.pi ** (mpf(n) / 2) / mpmath.gamma(mpf(n) / 2)


def _sum_until_small(terms, scale):
    """Sum an iterable of terms until three successive terms are each below
    _REL_EPS times max(|scale|, |partial sum|) and shrinking."""
    total = mpf(0)
    prev = None
    quiet = 0
    for count, t in enumerate(terms):
        total += t
        size = abs(t)
        small = size <= _REL_EPS * max(abs(scale), abs(total))
        shrinking = prev is None or size <= prev
        quiet = quiet + 1 if (small and shrinking) else 0
        if quiet >= 3:
            return total
        if count > _MAX_MODES:
            break
        prev = size
    raise ArithmeticError("reference series did not settle")


def _radial(n: int, a, scale, parts):
    """scale * sum_m C(k+m-1, m) sum_i c_i P_i(m) x_i^m / (1 - a^(k+2m)).

    ``parts`` holds (c, x, (p0, p1, p2)) with P(m) = p0 + p1 m + p2 m^2.
    """
    k = n - 2
    closed = mpf(0)
    for c, x, (p0, p1, p2) in parts:
        s0 = (1 - x) ** -k
        s1 = k * x * (1 - x) ** (-k - 1)
        s2 = s1 + k * (k + 1) * x * x * (1 - x) ** (-k - 2)
        closed += c * (p0 * s0 + p1 * s1 + p2 * s2)

    def remainder():
        binom = mpf(1)  # C(k+m-1, m)
        big_a = a**k  # a^(k+2m)
        powers = [mpf(c) for c, _, _ in parts]  # c_i x_i^m
        m = 0
        while True:
            inner = sum(cx * (p0 + p1 * m + p2 * m * m) for cx, (_, _, (p0, p1, p2)) in zip(powers, parts))
            yield binom * inner * big_a / (1 - big_a)
            binom = binom * (k + m) / (m + 1)
            big_a *= a * a
            powers = [cx * x for cx, (_, x, _) in zip(powers, parts)]
            m += 1

    return scale * (closed + _sum_until_small(remainder(), closed))


def _radial_parts(n: int, a, r):
    k = n - 2
    return k, a**k * r ** (-2 * k), a**k * r**-k


def robin(n: int, a: float, r: float):
    """Robin function R(r) of the annulus in R^n, n >= 3."""
    with mpmath.workdps(DPS):
        a, r = mpf(a), mpf(r)
        k, c4, c2 = _radial_parts(n, a, r)
        parts = [(1, r * r, (1, 0, 0)), (c4, (a / r) ** 2, (1, 0, 0)), (-2 * c2, a * a, (1, 0, 0))]
        return +_radial(n, a, -1 / (k * omega(n)), parts)


def robin_gradient(n: int, a: float, r: float):
    """The radial gradient r R'(r), n >= 3."""
    with mpmath.workdps(DPS):
        a, r = mpf(a), mpf(r)
        k, c4, c2 = _radial_parts(n, a, r)
        parts = [(1, r * r, (0, 1, 0)), (c4, (a / r) ** 2, (-k, -1, 0)), (c2, a * a, (k, 0, 0))]
        return +_radial(n, a, -2 / (k * omega(n)), parts)


def robin_gradient_derivative(n: int, a: float, r: float):
    """d/dr of r R'(r), n >= 3."""
    with mpmath.workdps(DPS):
        a, r = mpf(a), mpf(r)
        k, c4, c2 = _radial_parts(n, a, r)
        parts = [
            (1, r * r, (0, 0, 2)),
            (c4, (a / r) ** 2, (2 * k * k, 4 * k, 2)),
            (c2, a * a, (-k * k, 0, 0)),
        ]
        return +_radial(n, a, -2 / (r * k * omega(n)), parts)


def _planar_remainder(a, term):
    """sum_{m>=1} term(m) a^(2m) / (1 - a^(2m))."""
    a2 = a * a

    def terms():
        a2m = a2
        m = 1
        while True:
            yield term(m) * a2m / (1 - a2m)
            a2m *= a2
            m += 1

    return _sum_until_small(terms(), mpf(1))


def robin2d(a: float, r: float):
    """Planar Robin function: -log^2 r / log a + sum (r^2m - 2a^2m + (a/r)^2m) / (m(1-a^2m))."""
    with mpmath.workdps(DPS):
        a, r = mpf(a), mpf(r)
        x1, x2, x4 = r * r, a * a, (a / r) ** 2
        closed = -mpmath.log(r) ** 2 / mpmath.log(a)
        closed += -mpmath.log(1 - x1) + 2 * mpmath.log(1 - x2) - mpmath.log(1 - x4)
        rem = _planar_remainder(a, lambda m: (x1**m - 2 * x2**m + x4**m) / m)
        return +(closed + rem)


def robin2d_first(a: float, r: float):
    """Derivative R'(r) of the planar Robin function."""
    with mpmath.workdps(DPS):
        a, r = mpf(a), mpf(r)
        a2 = a * a
        closed = -2 * mpmath.log(r) / (r * mpmath.log(a))
        closed += 2 * r / (1 - r * r) - 2 * a2 / (r * (r * r - a2))
        rem = _planar_remainder(
            a, lambda m: 2 * (r ** (2 * m - 1) - a2**m * r ** (-2 * m - 1))
        )
        return +(closed + rem)


def robin2d_second(a: float, r: float):
    """Second derivative R''(r) of the planar Robin function."""
    with mpmath.workdps(DPS):
        a, r = mpf(a), mpf(r)
        a2, r2 = a * a, r * r
        closed = -2 * (1 - mpmath.log(r)) / (r2 * mpmath.log(a))
        closed += 2 * (1 + r2) / (1 - r2) ** 2 + 2 * a2 * (3 * r2 - a2) / (r2 * (r2 - a2) ** 2)
        rem = _planar_remainder(
            a,
            lambda m: 2 * ((2 * m - 1) * r ** (2 * m - 2) + (2 * m + 1) * a2**m * r ** (-2 * m - 2)),
        )
        return +(closed + rem)


def error(value: float, want) -> float:
    """|value - want| for a float against a reference, rounded once."""
    with mpmath.workdps(DPS):
        return float(abs(mpf(value) - want))


def _vec(v):
    return [mpf(float(c)) for c in v]


def _norm(v):
    return mpmath.sqrt(mpmath.fsum(c * c for c in v))


def _dot(u, v):
    return mpmath.fsum(p * q for p, q in zip(u, v))


def distance_power(n: int, x, y, x_scale: float = 1.0):
    """|c x - y|^(2-n) for two points of R^n and a scale c (default 1)."""
    with mpmath.workdps(DPS):
        c = mpf(x_scale)
        d = _norm([c * p - q for p, q in zip(_vec(x), _vec(y))])
        return +(d ** (2 - n))


def green(n: int, a: float, x, y):
    """Dirichlet Green function of the annulus {a < |x| < 1} in R^n, n >= 3.

    Fundamental solution minus the correction series
    sum_m (g1 - g2 - g3 + g4) Z_m(t) / (beta (1 - a^beta) omega), beta = 2m+n-2,
    whose envelope ratio tends to max of the four image ratios, all < 1.
    """
    with mpmath.workdps(DPS):
        a = mpf(a)
        xv, yv = _vec(x), _vec(y)
        r, s = _norm(xv), _norm(yv)
        t = _dot(xv, yv) / (r * s)
        t = max(mpf(-1), min(mpf(1), t))
        k = n - 2
        lam = mpf(k) / 2
        lo, hi = (r, s) if r <= s else (s, r)
        qs = (lo * hi, a * a * lo / hi, a * a * hi / lo, a * a / (lo * hi))
        cs = (mpf(1), -((a / hi) ** k), -((a / lo) ** k), (a / (lo * hi)) ** k)
        qmax = max(qs)
        om = omega(n)
        d = _norm([p - q for p, q in zip(xv, yv)])
        newton = d ** (-k) / (k * om)

        total = mpf(0)
        p_prev, p = mpf(0), mpf(1)
        binom = mpf(1)  # C(k+m-1, m) = P_m(1), bounds |P_m(t)|
        for m in range(_MAX_MODES):
            beta = 2 * m + k
            big_a = a**beta
            g = sum(c * q**m for c, q in zip(cs, qs))
            total += g * (mpf(beta) / k) * p / (beta * (1 - big_a) * om)
            # envelope of mode m: |P_m| <= C(k+m-1, m) and |g| <= sum |c_i| q_i^m;
            # it shrinks by at most `ratio` per mode from here on
            ratio = (k + m) / mpf(m + 1) * qmax
            env = binom * sum(abs(c) * q**m for c, q in zip(cs, qs)) / (k * (1 - a**k) * om)
            if ratio < 1 and env * ratio / (1 - ratio) <= _REL_EPS * abs(newton):
                return +(newton - total)
            if m == 0:
                nxt = 2 * lam * t * p
            else:
                nxt = (2 * t * (m + lam) * p - (m + 2 * lam - 1) * p_prev) / (m + 1)
            p_prev, p = p, nxt
            binom = binom * (k + m) / (m + 1)
        raise ArithmeticError("green reference did not settle")


def critical_radius(n: int, a: float, start: float):
    """Zero of r R'(r) (n >= 3) or of R'(r) (n = 2) in (a, 1), plus the slope there.

    Safeguarded Newton on the reference gradient and its derivative series.
    ``start`` only seeds the search: a bracket with a certain sign change of
    the reference gradient is grown around it before any step is taken.
    Returns (r0, slope) as mpf values.
    """
    if n == 2:
        f, df = (lambda r: robin2d_first(a, r)), (lambda r: robin2d_second(a, r))
        sign_lo = -1  # R' increases from -inf to +inf
    else:
        f, df = (lambda r: robin_gradient(n, a, r)), (lambda r: robin_gradient_derivative(n, a, r))
        sign_lo = 1  # r R' decreases from +inf to -inf
    with mpmath.workdps(DPS):
        am = mpf(a)
        width = mpf(10) ** -9 * (1 - am)
        lo, hi = mpf(start) - width, mpf(start) + width
        while True:
            lo, hi = max(lo, am + (1 - am) * mpf(10) ** -12), min(hi, 1 - (1 - am) * mpf(10) ** -12)
            f_lo, f_hi = f(lo), f(hi)
            if mpmath.sign(f_lo) == sign_lo and mpmath.sign(f_hi) == -sign_lo:
                break
            width *= 1000
            if width > 1:
                raise ArithmeticError("no sign change of the reference gradient found")
            lo, hi = mpf(start) - width, mpf(start) + width
        r = (lo + hi) / 2
        for _ in range(200):
            fr = f(r)
            if fr == 0:
                break
            if mpmath.sign(fr) == sign_lo:
                lo = r
            else:
                hi = r
            nxt = r - fr / df(r)
            if abs(nxt - r) <= _ROOT_TOL:
                r = nxt
                break
            r = nxt if lo < nxt < hi else (lo + hi) / 2
        return +r, +df(r)

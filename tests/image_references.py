"""50-digit references for the Robin family of thin annuli, and their fixture.

Each function is the two-image closed form plus its remainder, as
``test_robin_split.mp_robin`` and ``mp_robin2d`` write it, with the
remainder summed mode by mode at 50 digits: nothing here expands
A_m / (1 - A_m) into images.  Derivatives in r are taken exactly on the
remainder, where every part is a constant times a power r^p on which
D = r d/dr acts as multiplication by p; the closed form is differentiated by
mpmath.

Near a = 1 the remainder needs 1e4 to 3e5 modes, seconds to tens of seconds
at 50 digits, so the values and roots are kept in
``fixtures/image_references.json``.  ``python tests/image_references.py``
recomputes that file (about ten minutes on one core); the tests recompute
the entries with a <= 0.95 live to guard it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath
from mpmath import mpf

DPS = 50
FIXTURE = Path(__file__).parent / "fixtures" / "image_references.json"

SPATIAL = ("robin_eval", "robin_radial_gradient", "robin_radial_gradient_derivative")
PLANAR = ("robin2d_first", "robin2d_second")
DIMENSIONS = (2, 3, 4, 5, 6)
INNER_RADII = (0.8, 0.9, 0.95, 0.99, 0.999)
# shares of the gap: both export-grid layers and mid-gap
POSITIONS = {"inner": 1e-3, "mid": 0.5, "outer": 1.0 - 1e-3}
ROOT_CASES = [(n, a) for a in (0.999, 0.9999) for n in (2, 3, 6)]

# the remainder stops once every summed series' envelope is this share of its
# closed part plus its sum; the modes shrink by a ratio at most a^2 < 1 - 1e-4
# times a polynomial factor near 1, so what is left is far below it
_STOP = mpf(10) ** (20 - DPS)


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
    pre = -1 / (k * _omega(n))
    return lambda r: pre * (
        (1 - r * r) ** -k + a**k * (r * r - a * a) ** -k - 2 * (a / r) ** k * (1 - a * a) ** -k
    )


def _omega(n: int):
    return 2 * mpmath.pi ** (mpf(n) / 2) / mpmath.gamma(mpf(n) / 2)


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
        pre = 1 if n == 2 else -1 / (k * _omega(n))
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
            if m >= 20 and all(
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


def _cases():
    for n in DIMENSIONS:
        for a in INNER_RADII:
            for where in POSITIONS:
                for name in PLANAR if n == 2 else SPATIAL:
                    yield name, n, a, where


def build() -> dict:
    """The fixture's contents: every value of _cases and every root of
    ROOT_CASES, the 50-digit numbers as strings."""
    from annulus_green import AnnulusGeometry, find_critical_point

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

"""Gegenbauer polynomials, zonal harmonics, and harmonic-space dimensions.

The three-term recurrence is the workhorse for polynomial evaluation.  The
finite expansion of the zonal kernel in powers of the inner product is kept
as an independent cross-check path, and the two routes are tied together by
the endpoint identity P_m(1) = C(n+m-3, m) for the parameter (n-2)/2.

Mode tables.  A series stream's per-mode constants that depend only on its
shape are read from one table per shape (_mode_table), not computed again
on every call.  For the Gegenbauer parameter lam the table (rows from
_gegenbauer_modes) holds, per mode m, the coefficient ratio
(m + 2 lam)/(m + 1), the running binomial C(m + 2 lam - 1, m) = P_m(1),
the recurrence constants m + lam, m + 2 lam - 1 and m + 1, and the off-pole
constant off_m (see below); iter_gegenbauer,
the generating series (_generating_rows, behind gegenbauer_generating_sum
and the three kernels.newtonian_series_*), kernels.harmonic_extension and
the Green streams of green.py read it.  green.py keeps one table per
Robin-family shape the same way.  The scalar streams among these run
iter_gegenbauer's recurrence inline on the table's constants, with the same
expressions and so the same doubles: taking P_m from iter_gegenbauer beside
the table costs one more generator step per mode, which measured 10 to 40 %
more time per term.

Off-pole envelopes.  |P_m(t)| <= P_m(1) = C(m + 2 lam - 1, m) is sharp only
at t = -1 and 1.  Off the poles, t = cos(theta), summation by parts on
P_m(cos theta) = sum_j a_j a_(m-j) cos((m - 2j) theta), a_j = (lam)_j / j!,
gives |P_m(t)| <= 2 max_j a_j a_(m-j) / sin(theta) (Szego, Orthogonal
Polynomials, section 7.33).  Its numerator grows like m^(2 lam - 2) for
lam >= 1 and like m^(lam - 1) below: by a factor m^(-min(1, lam)) slower
than the binomial's m^(2 lam - 1).  The table's column off_m bounds that
numerator from above (_gegenbauer_modes).  The generating series and the
modal Green series (green._modal_rows) switch once, at the first mode where
off_m / sin(theta) is below the binomial, from the pole envelope to this one,
and keep the pole ratio and the pole units of their rounding allowances
(see _generating_rows).  That cuts a deep series by 12 to 24 % at n = 3
to 6.  The other readers of the table keep the pole envelope:
iter_gegenbauer has none, kernels.harmonic_extension bounds its modes by
the dimensions of the harmonic spaces, and the split Green remainders
(green._green_remainder and its grid twin) contract by at most a^4 per
mode, so they stop near 10 modes, before the off-pole envelope would gain.

A table is one stored tuple per shape (_TABLES): the rows that the shape's
streams have read, first mode first, up to _STORED_MODES = 1024 rows.
Nothing is built ahead of a reader, and nothing at import.  A stream reads
the stored rows, then continues the row builder from the last of them
(_recorded); it records each row it yields while the store is under
_STORED_MODES, and when it closes (its consumer stops, runs out or raises)
or reaches the cap it publishes the stored and recorded rows, if they are
more than the shape holds by then.  Publishing copies pointers, and every
row is the builder's own double wherever the builder resumed, so every
published tuple is a prefix of the shape's one sequence of rows: threads
racing on one shape can only cost rows, never change one.  At most
_SHAPES = 64 shapes are kept, least recently used first out, so the store
holds at most 64 x 1024 rows: about 18 MB, at the 180 to 280 bytes that a
row's tuple and its 6 to 8 floats take (tracemalloc, CPython 3.11).  Every
entry is the double that the stream's own arithmetic gave per call before
the tables existed, in the same order of operations, so every value, tail
bound, term count and error of a stream that keeps the pole envelope is bit
for bit what it was.
"""

from __future__ import annotations

import collections
import itertools
import math
import threading
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Iterator, TypeAlias, Union

if TYPE_CHECKING:
    import numpy as np

from .core import (
    ArrayLike,
    DomainValidationError,
    EvalResult,
    TailEnvelopeError,
    TruncationPolicy,
    require_integer,
    require_unit,
)
from .summation import _U, sum_series

Scalar: TypeAlias = "Union[float, np.ndarray]"

_T_TOL = 1e-12

# a mode table stores at most the first _STORED_MODES modes of a shape, and
# at most _SHAPES shapes are kept (see the module docstring)
_STORED_MODES = 1024
_SHAPES = 64

# the growth of the off-pole column beside its exact ratio (see
# _gegenbauer_modes)
_OFF_SLACK = 1.0 + 4.0 * _U

# (build, *shape) -> the rows its streams have read, least recently used
# first.  A hit only reorders and reads, each one atomic step; whatever
# adds, drops or replaces a table holds the lock.  The lock is reentrant:
# the garbage collector may close a stream, which then publishes, while its
# thread holds the lock.
_TABLES: collections.OrderedDict = collections.OrderedDict()
_LOCK = threading.RLock()


def _mode_table(build: Callable, *shape) -> Iterator[tuple]:
    """Every row of a shape from the first mode on: the stored rows, then the
    rows ``build(*shape, after)`` yields after the last of them (or
    ``build(*shape)`` where none is stored), recorded while the store is
    under _STORED_MODES."""
    key = (build, *shape)
    try:
        _TABLES.move_to_end(key)
        rows = _TABLES[key]
    except KeyError:  # a new shape, or one dropped meanwhile
        with _LOCK:
            rows = _TABLES.setdefault(key, ())
            if len(_TABLES) > _SHAPES:
                _TABLES.popitem(last=False)
    if len(rows) < _STORED_MODES:
        return itertools.chain(rows, _recorded(key, rows))
    return itertools.chain(rows, build(*shape, rows[-1]))


def _recorded(key: tuple, rows: tuple) -> Iterator[tuple]:
    """The rows after ``rows`` of the shape ``key``; the first of them, up to
    _STORED_MODES rows in all, are published with ``rows`` once the stream
    closes or reaches the cap, unless the shape holds as many by then or was
    dropped."""
    build, *shape = key
    built = build(*shape, *rows[-1:])
    read = []
    try:
        for row in itertools.islice(built, _STORED_MODES - len(rows)):
            read.append(row)
            yield row
    finally:
        stored = rows + tuple(read)
        with _LOCK:
            if len(_TABLES.get(key, stored)) < len(stored):
                _TABLES[key] = stored
    yield from built


def _gegenbauer_modes(lam: float, after=None) -> Iterator[tuple]:
    """Rows (ratio, binomial, m + lam, m + 2 lam - 1, m + 1, off) of the mode
    constants for the parameter lam, in the order of operations of the
    recurrence and of the coefficient ratio (m + 2 lam)/(m + 1), whose
    running product is the binomial C(m + 2 lam - 1, m).

    Mode 0 stores 0.0 for m + 2 lam - 1: it multiplies P_{-1} = 0, and a zero
    constant keeps P_1 = ((2 t) lam) 1.0 - 0.0 equal to (2 lam) t, signed
    zeros included.

    ``off`` is an upper bound on 2 max_j a_j a_(m-j), a_j = (lam)_j / j!, so
    that |P_m(cos theta)| <= off / sin(theta) (see the module docstring).
    For lam >= 1 the a_j grow with ratios (j + lam)/(j + 1) that fall toward
    1, so the largest product is a_h a_(m-h), h = floor(m/2), and it grows by
    (h + lam)/(h + 1) to the next mode; for lam < 1 the a_j fall and it is
    a_0 a_m, which grows by (m + lam)/(m + 1).  The running product starts
    at 2 and takes _OFF_SLACK = 1 + 4u per mode beside its ratio: that covers
    the step's four roundings (h + lam, the quotient, the slack's product
    and the running product) to first order, and fully where h + lam is
    exact, as it is for every half-integer lam.
    """
    two_lam = 2.0 * lam
    if after is None:
        m, binom, below, off = 0.0, 1.0, 0.0, 2.0
    else:
        ratio, binom, _, _, m, off = after
        binom *= ratio
        below = (m + two_lam) - 1.0
        h = (m - 1.0) // 2.0 if lam >= 1.0 else m - 1.0
        off *= (h + lam) / (h + 1.0) * _OFF_SLACK
    if lam < 1.0:  # h = m
        while True:
            m_next = m + 1.0
            ratio = (m + two_lam) / m_next
            m_lam = m + lam
            yield ratio, binom, m_lam, below, m_next, off
            binom *= ratio
            off *= m_lam / m_next * _OFF_SLACK
            m = m_next
            below = (m + two_lam) - 1.0
    # h = floor(m/2), which grows after every odd mode
    h = m // 2.0
    grow = (h + lam) / (h + 1.0) * _OFF_SLACK
    while True:
        m_next = m + 1.0
        ratio = (m + two_lam) / m_next
        yield ratio, binom, m + lam, below, m_next, off
        binom *= ratio
        off *= grow
        if m != h + h:
            h += 1.0
            grow = (h + lam) / (h + 1.0) * _OFF_SLACK
        m = m_next
        below = (m + two_lam) - 1.0


def _require_degree(n: int, m: int) -> None:
    """The dimension n >= 3 and degree m >= 0 of a zonal function of R^n."""
    require_integer(n, "n", 3)
    require_integer(m, "degree", 0)


def _check_order(lam: float) -> float:
    if not math.isfinite(lam) or lam <= 0.0:
        raise DomainValidationError(f"Gegenbauer parameter must be positive, got {lam!r}")
    return float(lam)


def _clamp_argument(t: float) -> float:
    if not math.isfinite(t) or abs(t) > 1.0 + _T_TOL:
        raise DomainValidationError(f"polynomial argument must lie in [-1, 1], got {t!r}")
    return min(1.0, max(-1.0, float(t)))


def iter_gegenbauer(lam: float, t: Scalar) -> Iterator[Scalar]:
    """Yield P_0(t), P_1(t), ... for the weight (1 - 2rt + r^2)^(-lam).

    Recurrence: (m+1) P_{m+1} = 2t(m+lam) P_m - (m+2lam-1) P_{m-1}, with its
    constants read from lam's mode table.  Works elementwise when ``t`` is an
    ndarray.
    """
    two_t = 2.0 * t
    p_prev: Scalar = 0.0
    p: Scalar = 1.0 + 0.0 * t
    for _, _, m_lam, below, m_next, _ in _mode_table(_gegenbauer_modes, lam):
        yield p
        p_prev, p = p, (two_t * m_lam * p - below * p_prev) / m_next


def _finite(value: float, what: str) -> float:
    """``value``, or TailEnvelopeError where it is not a finite double."""
    if not math.isfinite(value):
        raise TailEnvelopeError(f"{what} leaves the double-precision range ({value!r})")
    return value


def gegenbauer_eval(lam: float, m: int, t: float) -> float:
    """P_m(t) for parameter lam > 0, |t| <= 1, via the three-term recurrence.

    |P_m(t)| <= P_m(1) = C(m + 2 lam - 1, m), which overflows at large m and
    lam; where the recurrence does (its inf - inf gives a NaN) it raises
    TailEnvelopeError.
    """
    lam = _check_order(lam)
    require_integer(m, "degree", 0)
    tc = _clamp_argument(t)
    it = iter_gegenbauer(lam, tc)
    for _ in range(m):
        next(it)
    return _finite(float(next(it)), f"P_{m}({tc}) for lam = {lam}")


def gegenbauer_endpoint_exact(n: int, m: int) -> int:
    """P_m(1) for parameter (n-2)/2, computed in exact rational arithmetic.

    The result is always the integer C(n+m-3, m); a non-integer intermediate
    would indicate a recurrence defect, so that case raises.
    """
    from fractions import Fraction

    _require_degree(n, m)
    lam = Fraction(n - 2, 2)
    p_prev, p = Fraction(0), Fraction(1)
    for k in range(m):
        if k == 0:
            nxt = 2 * lam
        else:
            nxt = (2 * (k + lam) * p - (k + 2 * lam - 1) * p_prev) / (k + 1)
        p_prev, p = p, nxt
    if p.denominator != 1:
        raise ArithmeticError(f"endpoint value is not integral: {p}")
    return int(p)


def gegenbauer_generating_sum(
    lam: float, t: float, r: float, policy: TruncationPolicy
) -> EvalResult:
    """Policy-truncated generating series with a certified tail bound.

    The envelope uses |P_m(t)| <= P_m(1) = C(m+2lam-1, m), and off the
    poles the smaller off-pole bound (see _generating_rows); the coefficient
    ratio (m+2lam)/(m+1) is monotone toward 1 from either side, so the
    geometric ratio bound takes the max against 1.
    """
    lam = _check_order(lam)
    tc = _clamp_argument(t)
    if not (0.0 <= r < 1.0):
        raise DomainValidationError(f"generating variable must satisfy 0 <= r < 1, got {r!r}")
    return sum_series(_generating_rows(lam, tc, r), policy)


def _inverse_sine(t: float, t_units: float) -> float:
    """An upper bound on 1/sin(theta) over every cos(theta) within t_units
    units of the unit roundoff of t: inf where that interval reaches -1 or 1.

    tau = |t| + (t_units + 2) u rounds by at most u, so it is at least
    |t| + t_units u wherever it is below 1.  (1 - tau)(1 + tau), its square
    root, the quotient and the product by 1 + 8u then err by less than the
    8u that the last of them adds.
    """
    tau = abs(t) + (t_units + 2.0) * _U
    if tau >= 1.0:
        return math.inf
    return (1.0 + 8.0 * _U) / math.sqrt((1.0 - tau) * (1.0 + tau))


def _generating_rows(
    lam: float, t: float, r: float, scale: float = 1.0, inputs=(0.0, 0.0, 0.0)
):
    """Rows of scale * sum_m r^m P_m(t) for sum_series, scale > 0.

    ``inputs`` holds the errors the caller's arithmetic left in t (absolute),
    r and scale (relative), in units of the unit roundoff.

    Two envelopes bound |P_m(t)| scale r^m: the pole envelope
    C(m+2lam-1, m) scale r^m, and the off-pole envelope off_m scale r^m /
    sin(theta), with _gegenbauer_modes' off column and 1/sin(theta) bounded
    over t's error by _inverse_sine.  The rows yield the pole envelope
    through the first mode where the off-pole one is smaller, and the
    off-pole one after it, with no test per row: off_m grows by at most
    (m+2lam)/(m+1) per mode, so it stays the smaller, and the pole ratio
    r max(1, (m+2lam)/(m+1)) bounds the growth of both.  Where t is within
    its error of -1 or 1 the off-pole envelope is infinite and the rows keep
    the pole one.  After the switch the rows carry scale r^m / sin(theta)
    as a running product of its own, and the pole envelope only in the
    rounding allowance: where it leaves the double range so does the
    allowance, and sum_series raises TailEnvelopeError, as it did for the
    envelope before the switch.

    Each row's rounding allowance bounds its mode's rounding error to first
    order, in units of the unit roundoff, as a multiple of its pole envelope
    whichever envelope the row yields, since the recurrence's error bound is
    written in those units.  The forward recurrence errs by less than
    2 (m+1)^2 u C(m+2lam-1, m): measured against a 40-digit recurrence over
    t in [-1, 1] and lam from 1/4 to 24, it reached at most 0.2 of that for
    m <= 100 000, the default max_terms.  |dP_m/dt| <= (m+1)^2
    C(m+2lam-1, m) turns the error of t into (m+1)^2 units more per unit.
    The running power scale r^m errs by m roundings plus m times r's error
    plus scale's, and the product and the compensated sum add 3.
    """
    t_units, r_units, scale_units = inputs
    quad = 2.0 + t_units
    # quad (m+1)^2 + (1 + r_units) m + 3 + scale_units units, advanced by its
    # differences; every count is a multiple of 1/2, so the sums are exact
    units = quad + 3.0 + scale_units
    step = 3.0 * quad + 1.0 + r_units
    curve = 2.0 * quad
    rp = scale
    inv_sin = _inverse_sine(t, t_units)
    # iter_gegenbauer's recurrence, inline (see the module docstring);
    # coeff = C(m + 2 lam - 1, m), the t = 1 polynomial value
    two_t = 2.0 * t
    p_prev, p = 0.0, 1.0
    rows = _mode_table(_gegenbauer_modes, lam)
    for crat, coeff, m_lam, below, m_next, off in rows:
        env = coeff * rp
        yield p * rp, env, r * crat if crat > 1.0 else r, env * units
        p_prev, p = p, (two_t * m_lam * p - below * p_prev) / m_next
        rp *= r
        units += step
        step += curve
        if off * inv_sin < coeff:
            break
    rp_sin = rp * inv_sin
    for crat, coeff, m_lam, below, m_next, off in rows:
        yield p * rp, off * rp_sin, r * crat if crat > 1.0 else r, coeff * rp * units
        p_prev, p = p, (two_t * m_lam * p - below * p_prev) / m_next
        rp *= r
        rp_sin *= r
        units += step
        step += curve


def harmonic_space_dim(n: int, m: int) -> int:
    """Dimension of the space of degree-m spherical harmonics on S^{n-1}, n >= 3.

    Uses the product form (2m+n-2)/(n-2) * C(n+m-3, m) with exact integer
    arithmetic; equals the diagonal value of the degree-m zonal kernel.
    """
    _require_degree(n, m)
    if m == 0:
        return 1
    num = (2 * m + n - 2) * math.comb(n + m - 3, m)
    q, rem = divmod(num, n - 2)
    if rem:
        raise ArithmeticError(f"dimension formula not integral for n={n}, m={m}")
    return q


@lru_cache(maxsize=None)
def _zonal_coeffs(n: int, m: int) -> tuple[float, ...]:
    """Coefficient of (x.xi)^(m-2k) |x|^(2k) in the degree-m zonal kernel, per k.

    The rising even product n(n+2)...(n+2(m-k-2)) is empty (= 1) when it has
    no factors; exact rationals keep the alternating coefficients clean
    before the final float conversion.
    """
    from fractions import Fraction

    out = []
    for k in range(m // 2 + 1):
        prod = 1
        for j in range(m - k - 1):
            prod *= n + 2 * j
        c = Fraction(
            (-1) ** k * (n + 2 * m - 2) * prod,
            2**k * math.factorial(k) * math.factorial(m - 2 * k),
        )
        out.append(float(c))
    return tuple(out)


def zonal_direct(n: int, m: int, x: ArrayLike, xi: ArrayLike) -> float:
    """Degree-m zonal kernel from its finite inner-product expansion.

    ``x`` may be any vector (the kernel is homogeneous of degree m in x);
    ``xi`` must be a unit vector.
    """
    import numpy as np

    _require_degree(n, m)
    xv = np.asarray(x, dtype=float)
    xiv = require_unit(xi)
    if xv.shape != (n,) or xiv.shape != (n,):
        raise DomainValidationError("x and xi must both be vectors of R^n")
    if m == 0:
        return 1.0
    dot = float(xv @ xiv)
    nx2 = float(xv @ xv)
    total = 0.0
    for k, c in enumerate(_zonal_coeffs(n, m)):
        total += c * dot ** (m - 2 * k) * nx2**k
    return total


def zonal_from_gegenbauer(n: int, m: int, xprime: ArrayLike, yprime: ArrayLike) -> float:
    """Degree-m zonal kernel on unit vectors via the Gegenbauer route.

    Z_m(x', y') = (2m+n-2)/(n-2) * P_m(x'.y') for the parameter (n-2)/2.
    """
    _require_degree(n, m)
    xp = require_unit(xprime)
    yp = require_unit(yprime)
    if xp.shape != (n,) or yp.shape != (n,):
        raise DomainValidationError("arguments must be unit vectors of R^n")
    t = _clamp_argument(float(xp @ yp))
    value = (2 * m + n - 2) / (n - 2) * gegenbauer_eval(0.5 * (n - 2), m, t)
    return _finite(value, f"Z_{m} for n = {n}")


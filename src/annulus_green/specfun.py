"""Gegenbauer polynomials, zonal harmonics, and harmonic-space dimensions.

The three-term recurrence is the workhorse for polynomial evaluation.  The
finite expansion of the zonal kernel in powers of the inner product is kept
as an independent cross-check path, and the two routes are tied together by
the endpoint identity P_m(1) = C(n+m-3, m) for the parameter (n-2)/2.

Mode tables.  A series stream's per-mode constants that depend only on its
shape are read from one table per shape (_ModeTable, looked up through
_mode_table), not computed again on every call.  For the Gegenbauer
parameter lam the table (rows from _gegenbauer_modes) holds, per mode m, the
coefficient ratio (m + 2 lam)/(m + 1), the running binomial
C(m + 2 lam - 1, m) = P_m(1) and the recurrence constants m + lam,
m + 2 lam - 1 and m + 1; iter_gegenbauer, the generating series
(_generating_rows, behind gegenbauer_generating_sum and the three
kernels.newtonian_series_*), kernels.harmonic_extension and the Green
streams of green.py read it.  green.py keeps one table per Robin-family
shape the same way.  The scalar streams among these run iter_gegenbauer's
recurrence inline on the table's constants, with the same expressions and
so the same doubles: taking P_m from iter_gegenbauer beside the table costs
one more generator step per mode, which measured 10 to 40 % more time per
term.

A table is filled at its first use, never at import, in blocks of _BLOCK
rows as far as its callers read, and stores at most _STORED_MODES = 256
modes; deeper modes come from the same row builder and are not stored.  At
most _SHAPES = 64 tables are kept, in one LRU, least recently used first
out.  A table grows by publishing a new tuple (copy on write), so a caller
running beside another never sees a torn or repeated row.  Every entry is
the double that the stream's own arithmetic gave per call before the tables
existed, in the same order of operations, so every value, tail bound, term
count and error is bit for bit what it was.
"""

from __future__ import annotations

import itertools
import math
import threading
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Iterator, Union

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
from .summation import sum_series

Scalar = Union[float, np.ndarray]

_T_TOL = 1e-12

# a mode table stores at most _STORED_MODES modes, and at most _SHAPES tables
# are kept (see the module docstring)
_STORED_MODES = 256
_SHAPES = 64
# a table grows by whole blocks of this many rows
_BLOCK = 16


class _ModeTable:
    """The per-mode constants of one series shape, one tuple row per mode.

    ``build(after)`` yields the rows that follow the row ``after``, or the
    rows from the first mode when ``after`` is None.  Iterating the table
    gives every row from the first mode on: the stored ones, then, while
    fewer than _STORED_MODES are stored, the next block of _BLOCK rows
    stored, then rows built on the fly.
    """

    __slots__ = ("rows", "_build", "_lock")

    def __init__(self, build: Callable[[object], Iterator[tuple]]):
        self.rows: tuple = ()
        self._build = build
        self._lock = threading.Lock()

    def __iter__(self) -> Iterator[tuple]:
        rows = self.rows
        return itertools.chain(rows, self._beyond(len(rows)))

    def _beyond(self, start: int) -> Iterator[tuple]:
        rows = self.rows
        while start < _STORED_MODES:
            rows = self._grow(start + 1)
            yield from itertools.islice(rows, start, None)
            start = len(rows)
        yield from self._build(rows[start - 1] if start else None)

    def _grow(self, need: int) -> tuple:
        """The stored rows, first grown to at least ``need`` of them (up to
        _STORED_MODES); the longer tuple replaces the old one whole."""
        with self._lock:
            rows = self.rows
            if len(rows) < need:
                size = min(-(-need // _BLOCK) * _BLOCK, _STORED_MODES)
                more = self._build(rows[-1] if rows else None)
                rows += tuple(itertools.islice(more, size - len(rows)))
                self.rows = rows
            return rows


@lru_cache(maxsize=_SHAPES)
def _mode_table(build: Callable, *shape) -> _ModeTable:
    """The table of the rows ``build(*shape, after)`` yields, made at its
    first use; the least recently used of _SHAPES tables is dropped."""
    return _ModeTable(partial(build, *shape))


def _gegenbauer_modes(lam: float, after=None) -> Iterator[tuple]:
    """Rows (ratio, binomial, m + lam, m + 2 lam - 1, m + 1) of the mode
    constants for the parameter lam, in the order of operations of the
    recurrence and of the coefficient ratio (m + 2 lam)/(m + 1), whose
    running product is the binomial C(m + 2 lam - 1, m).

    Mode 0 stores 0.0 for m + 2 lam - 1: it multiplies P_{-1} = 0, and a zero
    constant keeps P_1 = ((2 t) lam) 1.0 - 0.0 equal to (2 lam) t, signed
    zeros included.
    """
    two_lam = 2.0 * lam
    if after is None:
        m, binom, below = 0.0, 1.0, 0.0
    else:
        ratio, binom, _, _, m = after
        binom *= ratio
        below = (m + two_lam) - 1.0
    while True:
        m_next = m + 1.0
        ratio = (m + two_lam) / m_next
        yield ratio, binom, m + lam, below, m_next
        binom *= ratio
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
    for _, _, m_lam, below, m_next in _mode_table(_gegenbauer_modes, lam):
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

    The envelope uses |P_m(t)| <= P_m(1) = C(m+2lam-1, m); the coefficient
    ratio (m+2lam)/(m+1) is monotone toward 1 from either side, so the
    geometric ratio bound takes the max against 1.
    """
    lam = _check_order(lam)
    tc = _clamp_argument(t)
    if not (0.0 <= r < 1.0):
        raise DomainValidationError(f"generating variable must satisfy 0 <= r < 1, got {r!r}")
    return sum_series(_generating_rows(lam, tc, r), policy)


def _generating_rows(
    lam: float, t: float, r: float, scale: float = 1.0, inputs=(0.0, 0.0, 0.0)
):
    """Rows of scale * sum_m r^m P_m(t) for sum_series, scale > 0.

    ``inputs`` holds the errors the caller's arithmetic left in t (absolute),
    r and scale (relative), in units of the unit roundoff.  Each row's
    rounding allowance bounds its mode's rounding error to first order, in
    those units, as a multiple of its envelope C(m+2lam-1, m) scale r^m >=
    |P_m(t)| scale r^m.  The forward recurrence errs by less than
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
    # iter_gegenbauer's recurrence, inline (see the module docstring);
    # coeff = C(m + 2 lam - 1, m), the t = 1 polynomial value
    two_t = 2.0 * t
    p_prev, p = 0.0, 1.0
    for crat, coeff, m_lam, below, m_next in _mode_table(_gegenbauer_modes, lam):
        env = coeff * rp
        yield p * rp, env, r * crat if crat > 1.0 else r, env * units
        p_prev, p = p, (two_t * m_lam * p - below * p_prev) / m_next
        rp *= r
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


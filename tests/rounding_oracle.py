"""A float that carries a first-order bound on its absolute rounding error.

``E(value, err)`` holds the double that the float code computes, bit for bit,
and a bound on its distance from the exact result of the same operations on
the exact inputs, to first order in the unit roundoff u = 2^-53 (Linnainmaa,
"Taylor expansion of the accumulated rounding error", BIT 16, 1976).  An
input is an E with the error its producer allows (0 for an exact double);
numbers that are not E are exact constants.

Each operation propagates its operands' errors through its derivatives and
adds its own rounding:

- ``+ - * /`` add u |result|, or nothing where the double is the exact
  result (checked in rationals, so that x + 0 or a Sterbenz difference adds
  nothing);
- ``x ** p`` for an exact exponent p adds u |result|, as the package counts a
  libm power;
- ``log`` and ``log1p`` add u |result|, as the package counts them;
- unary minus and ``abs`` are exact.

Every other operation raises TypeError: comparisons, ``bool``, ``float``
(and so any ``math`` function), powers with an E exponent.  New arithmetic in
the code under test must therefore be modelled here before a test can pass,
and no branch can depend on a value.  Products of two errors are dropped, as
the package's counts drop them; the bound is first-order, like the counts it
checks.
"""

from __future__ import annotations

import math
from fractions import Fraction

U = 2.0**-53


class E:
    """A double with a first-order bound ``err`` on its absolute error."""

    __slots__ = ("v", "err")

    def __init__(self, v: float, err: float = 0.0):
        self.v = float(v)
        self.err = float(err)

    def __repr__(self) -> str:
        return f"E({self.v!r}, {self.err!r})"

    @staticmethod
    def _parts(other):
        if isinstance(other, E):
            return other.v, other.err
        if isinstance(other, (int, float)) and not isinstance(other, bool):
            return float(other), 0.0
        raise TypeError(f"E does not model an operand of type {type(other).__name__}")

    @staticmethod
    def _rounded(result: float, exact: Fraction) -> float:
        """The rounding of an arithmetic result: 0 where it is exact."""
        if not math.isfinite(result):
            raise ArithmeticError(f"E: non-finite result {result!r}")
        return 0.0 if Fraction(result) == exact else U * abs(result)

    def _add(self, x, ex, y, ey, sign):
        r = x + y if sign > 0 else x - y
        exact = Fraction(x) + Fraction(y) if sign > 0 else Fraction(x) - Fraction(y)
        return E(r, ex + ey + self._rounded(r, exact))

    def __add__(self, other):
        y, ey = self._parts(other)
        return self._add(self.v, self.err, y, ey, 1)

    def __radd__(self, other):
        x, ex = self._parts(other)
        return self._add(x, ex, self.v, self.err, 1)

    def __sub__(self, other):
        y, ey = self._parts(other)
        return self._add(self.v, self.err, y, ey, -1)

    def __rsub__(self, other):
        x, ex = self._parts(other)
        return self._add(x, ex, self.v, self.err, -1)

    @classmethod
    def _mul(cls, x, ex, y, ey):
        r = x * y
        return E(r, abs(y) * ex + abs(x) * ey + cls._rounded(r, Fraction(x) * Fraction(y)))

    def __mul__(self, other):
        y, ey = self._parts(other)
        return self._mul(self.v, self.err, y, ey)

    def __rmul__(self, other):
        x, ex = self._parts(other)
        return self._mul(x, ex, self.v, self.err)

    @classmethod
    def _div(cls, x, ex, y, ey):
        r = x / y
        err = ex / abs(y) + abs(x) * ey / (y * y)
        return E(r, err + cls._rounded(r, Fraction(x) / Fraction(y)))

    def __truediv__(self, other):
        y, ey = self._parts(other)
        return self._div(self.v, self.err, y, ey)

    def __rtruediv__(self, other):
        x, ex = self._parts(other)
        return self._div(x, ex, self.v, self.err)

    def __pow__(self, p):
        if isinstance(p, E) or not isinstance(p, (int, float)) or isinstance(p, bool):
            raise TypeError("E models powers with an exact exponent only")
        r = self.v**p
        if not math.isfinite(r):
            raise ArithmeticError(f"E: non-finite power {r!r}")
        derivative = abs(p) * abs(self.v) ** (p - 1) if p else 0.0
        return E(r, derivative * self.err + U * abs(r))

    def __neg__(self):
        return E(-self.v, self.err)

    def __abs__(self):
        return E(abs(self.v), self.err)

    def _refuse(self, *_args):
        raise TypeError("E refuses an operation it does not model")

    __lt__ = __le__ = __gt__ = __ge__ = __eq__ = __ne__ = _refuse
    __bool__ = __float__ = __int__ = __index__ = __round__ = _refuse
    __floordiv__ = __rfloordiv__ = __mod__ = __rmod__ = __rpow__ = _refuse
    __hash__ = None


def log(x: E) -> E:
    """math.log of an E: its error over x, plus u |result|."""
    r = math.log(x.v)
    return E(r, x.err / abs(x.v) + U * abs(r))


def log1p(x: E) -> E:
    """math.log1p of an E: its error over 1 + x, plus u |result|."""
    r = math.log1p(x.v)
    return E(r, x.err / abs(1.0 + x.v) + U * abs(r))

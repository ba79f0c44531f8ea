"""Annulus geometry, truncation policy, and shared result types.

Everything in this module is an immutable value type and every function is
pure, so instances can be shared freely across threads.  The geometry fixes
the outer radius at 1; only the dimension ``n`` and the inner radius ``a``
vary.

The four record types are named tuples (collections.namedtuple subclasses
with empty ``__slots__``), which the package import defines without loading
dataclasses and inspect, and which build faster than frozen dataclasses.
They compare, hash, iterate and unpack as tuples, and ``_asdict``,
``_replace`` and ``_make`` work on them.  AnnulusGeometry and
TruncationPolicy check their fields in ``__new__``, which every construction
path goes through: the constructor, ``_make``, ``_replace``, pickling and
copying (see _Checked).  EvalGrid, whose fields are arrays, compares and
hashes by identity.

AnnulusGeometry.coordinates is the one check of a point: it reads a point
of R^n as a list of finite doubles, without importing numpy for a list, a
tuple or an array, for every evaluator that takes points; ``point`` builds
its array from that list.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import namedtuple
from collections.abc import Sequence
from typing import TYPE_CHECKING, TypeAlias, Union

if TYPE_CHECKING:
    import numpy as np

# numpy is imported where an array is built, not with the package: the
# scalar evaluators, the solver and their CLI commands run without it
ArrayLike: TypeAlias = "Union[Sequence[float], np.ndarray]"

# radii passed to the evaluators may miss [a, 1] by this much before rejection
RADIUS_SLACK = 1e-9


class AnnulusError(Exception):
    """Base class for every error raised by this package."""


class DomainValidationError(AnnulusError, ValueError):
    """Input violates a documented precondition (dimension, radius range, ...)."""


class SingularityError(AnnulusError, ValueError):
    """Evaluation requested at, or numerically too close to, a kernel singularity."""


class SeriesDivergenceError(AnnulusError, ValueError):
    """Arguments lie outside the open region where the series converges."""


class TailEnvelopeError(AnnulusError, RuntimeError):
    """A series could not be certified: its tail envelope failed the internal
    monotonicity check, or a term, an envelope or a closed-form part is not a
    finite double (for instance at large n, where the value overflows)."""


class BracketingError(AnnulusError, RuntimeError):
    """A sign-change bracket could not be certified within budget."""


class GridEdgeError(AnnulusError, RuntimeError):
    """A grid scan found its extremum on the first or last node."""


class QuadratureDegreeError(AnnulusError, RuntimeError):
    """The truncation degree exceeds what the quadrature integrates exactly."""


def is_numpy(value, kind: str) -> bool:
    """Whether ``value`` is an instance of numpy's ``kind`` ("ndarray",
    "integer"), read without importing numpy: where no caller has imported
    numpy, no caller can hold a numpy value."""
    np = sys.modules.get("numpy")
    return np is not None and isinstance(value, getattr(np, kind))


def require_integer(value, name: str, least: int) -> None:
    """DomainValidationError unless ``value`` is an int or a numpy integer,
    not a bool, and at least ``least``."""
    if (
        isinstance(value, bool)
        or not (isinstance(value, int) or is_numpy(value, "integer"))
        or value < least
    ):
        raise DomainValidationError(f"{name} must be an integer >= {least}, got {value!r}")


def sphere_surface_area(n: int) -> float:
    """Surface measure of the unit sphere S^{n-1} in R^n.

    Evaluated as exp(log 2 + (n/2) log pi - lgamma(n/2)); the log-Gamma route
    keeps large ``n`` from overflowing the Gamma factor.
    """
    require_integer(n, "dimension", 2)
    return math.exp(math.log(2.0) + 0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n))


def sphere_surface_area_rel_error(n: int) -> float:
    """First-order bound on the relative rounding error of sphere_surface_area(n).

    exp turns the absolute error of its argument into a relative error.  That
    argument is log 2 + (n/2) log pi - lgamma(n/2): log and exp are taken as
    faithful, lgamma as good to 4 ulps, and each product and sum rounds once.
    Raises TailEnvelopeError where the area is below the normal range
    (n >= 439): exp rounds a subnormal result to a multiple of 2^-1074, so
    its relative error is bounded by no count of units.
    """
    u = 2.0**-53
    t1 = math.log(2.0)
    t2 = 0.5 * n * math.log(math.pi)
    t3 = math.lgamma(0.5 * n)
    if math.exp(t1 + t2 - t3) < sys.float_info.min:  # sphere_surface_area(n), bit for bit
        raise TailEnvelopeError(
            f"the area of the unit sphere for n = {n} is below the normal double range"
        )
    arg_error = u * (t1 + 0.5 * n + 2.0 * t2 + 4.0 * abs(t3) + (t1 + t2) + abs(t1 + t2 - t3))
    return arg_error + u


@functools.cache
def _omega(n: int) -> tuple[float, float | None]:
    """(sphere_surface_area(n), its relative rounding bound), once per n; the
    bound is None where sphere_surface_area_rel_error refuses one."""
    try:
        bound = sphere_surface_area_rel_error(n)
    except TailEnvelopeError:
        bound = None
    return sphere_surface_area(n), bound


def require_unit(v: ArrayLike, tol: float = 1e-10) -> np.ndarray:
    import numpy as np

    arr = np.asarray(v, dtype=float)
    r = float(np.linalg.norm(arr))
    if not abs(r - 1.0) <= tol:
        raise DomainValidationError(f"expected a unit vector, got |v| = {r}")
    return arr / r


class _Checked:
    """Base of a named tuple whose ``__new__`` checks its fields.

    namedtuple's ``_make``, and ``_replace`` through it, build with
    tuple.__new__ and would skip those checks; here both go through the
    class, so no construction path yields an unchecked record.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def _replace(self, /, **changes):
        return type(self)(**{**self._asdict(), **changes})


class AnnulusGeometry(_Checked, namedtuple("AnnulusGeometry", "n a")):
    """The annulus {x in R^n : a < |x| < 1} (outer radius normalized to 1)."""

    __slots__ = ()

    def __new__(cls, n: int, a: float):
        require_integer(n, "dimension", 2)
        if not (0.0 < a < 1.0):
            raise DomainValidationError(f"inner radius must satisfy 0 < a < 1, got {a!r}")
        return tuple.__new__(cls, (n, a))

    @property
    def omega(self) -> float:
        """Surface area of the unit sphere in R^n, computed once per dimension."""
        return _omega(self.n)[0]

    @property
    def omega_rel_error(self) -> float:
        """Rounding bound of ``omega`` relative to its value, once per
        dimension; TailEnvelopeError where omega is subnormal or 0."""
        bound = _omega(self.n)[1]
        return sphere_surface_area_rel_error(self.n) if bound is None else bound

    def require_series_dim(self) -> None:
        if self.n < 3:
            raise DomainValidationError(
                "this operation is defined for n >= 3; the plane has dedicated 2-d routines"
            )

    def coordinates(self, x: ArrayLike) -> list:
        """The coordinates of the point x of R^n, as a list of n finite doubles.

        This is the one check of a point's form, and it loads no numpy for a
        list or a tuple.  x is a sequence of n real numbers (a list, a
        tuple, ...), an array of shape (n,), or another array-like of that
        shape (an object with ``__array__`` or ``__array_interface__``,
        read through numpy).  Each coordinate goes through float(), which
        gives the double that numpy's conversion gives for every form it
        accepts: floats of any width, ints, bools, numpy scalars, numeric
        strings.  Anything else raises DomainValidationError: a string, a
        mapping, a set or an iterator; a wrong length; a nested sequence or
        an array of another shape; a coordinate that is itself an array of
        one or more dimensions, or that is complex (numpy's complex scalars
        too, whose real part float() would keep), or that float() refuses
        (an arbitrary object, an int beyond the double range); NaN or inf.
        """
        if type(x) is not list and type(x) is not tuple:
            if is_numpy(x, "ndarray"):
                x = x.tolist()  # nested lists where the shape is not (n,)
            elif hasattr(x, "__array__") or hasattr(x, "__array_interface__"):
                import numpy as np

                x = np.asarray(x).tolist()
            if isinstance(x, (str, bytes)) or not isinstance(x, Sequence):
                raise DomainValidationError(
                    f"expected a point of R^{self.n}, got {type(x).__name__}"
                )
        if len(x) != self.n:
            raise DomainValidationError(
                f"expected a point of R^{self.n}, got {len(x)} coordinates"
            )
        for v in x:
            if type(v) is float or type(v) is int:
                continue
            # float() reads a one-element array on NumPy before 2.4, and
            # keeps only the real part of a numpy complex scalar
            if getattr(v, "ndim", 0):
                raise DomainValidationError(
                    f"point coordinates must be numbers, got an array of {v.ndim} dimensions"
                )
            if is_numpy(v, "complexfloating"):
                raise DomainValidationError(
                    f"point coordinates must be real numbers, got {type(v).__name__}"
                )
        try:
            xs = list(map(float, x))
        except (TypeError, ValueError, OverflowError) as exc:
            raise DomainValidationError(f"point coordinates must be real numbers: {exc}") from None
        if not all(map(math.isfinite, xs)):
            raise DomainValidationError("point coordinates must be finite")
        return xs

    def point(self, x: ArrayLike) -> np.ndarray:
        """The point x as a float64 array of shape (n,), checked by coordinates."""
        import numpy as np

        return np.array(self.coordinates(x))

    def clamp_radius(self, r):
        """Validate r against [a, 1], up to RADIUS_SLACK, and clamp roundoff.

        ``r`` is a float or a 1-d array of radii (see _radii), which is
        checked by the same rule and clamped elementwise.
        """
        if not isinstance(r, float) and is_numpy(r, "ndarray"):
            import numpy as np

            inside = (self.a - RADIUS_SLACK <= r) & (r <= 1.0 + RADIUS_SLACK)
            _radii(r, inside, f"outside the annulus range [{self.a}, 1]")
            return np.clip(r, self.a, 1.0)
        if not (self.a - RADIUS_SLACK <= r <= 1.0 + RADIUS_SLACK):
            raise DomainValidationError(
                f"radius {r} outside the annulus range [{self.a}, 1]"
            )
        return min(1.0, max(self.a, r))

    def require_interior_radius(self, r):
        """r as a float, or a 1-d array of radii as it is (see _radii), once
        every radius lies strictly between a and 1."""
        if not isinstance(r, float) and is_numpy(r, "ndarray"):
            inside = (self.a < r) & (r < 1.0)
            return _radii(r, inside, f"must lie strictly between a = {self.a} and 1")
        if not (self.a < r < 1.0):
            raise DomainValidationError(
                f"radius {r} must lie strictly between a = {self.a} and 1"
            )
        return float(r)


def _radii(r: np.ndarray, inside: np.ndarray, rule: str) -> np.ndarray:
    """r, once it is 1-d and ``inside`` holds at every entry; otherwise
    DomainValidationError, naming the first radius that breaks ``rule`` with
    the scalar check's message."""
    if r.ndim != 1:
        raise DomainValidationError(f"expected a 1-d array of radii, got shape {r.shape}")
    if not inside.all():
        raise DomainValidationError(f"radius {float(r[~inside][0])} {rule}")
    return r


def newtonian_potential(geom: AnnulusGeometry, x: ArrayLike, y: ArrayLike) -> float:
    """Fundamental solution 1/((n-2) omega |x-y|^(n-2)); requires n >= 3.

    Symmetric in its arguments and strictly positive; the distance enters only
    through |x-y|, so the scaling d -> value(1) * d^(2-n) is exact.  Where
    the value is not a finite double (at large n, where omega underflows)
    it raises TailEnvelopeError.
    """
    import numpy as np

    geom.require_series_dim()
    xv = geom.point(x)
    yv = geom.point(y)
    d = float(np.linalg.norm(xv - yv))
    if d == 0.0:
        raise SingularityError("the fundamental solution is singular at x == y")
    try:
        value = d ** (2 - geom.n) / ((geom.n - 2) * geom.omega)
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if value == math.inf:
        raise TailEnvelopeError(
            f"the fundamental solution for n = {geom.n} leaves the double-precision range here"
        )
    return value


class TruncationPolicy(
    _Checked, namedtuple("TruncationPolicy", "abs_tol max_terms tail_safety rel_tol")
):
    """Controls series truncation: target tail bound plus hard term caps.

    ``tail_safety`` is the number of consecutive indices whose certified tail
    bound must fall below the target before summation stops.  The target is
    ``abs_tol``, or with ``rel_tol`` > 0 the larger of ``abs_tol`` and
    ``rel_tol`` times the magnitude of the running value, the closed part of
    a split series included (see summation.sum_series).  The default 0.0
    keeps the absolute target; the grid summer grid.sum_series_table refuses
    a relative one.  ``_replace`` and ``_make`` check the fields as the
    constructor does.
    """

    __slots__ = ()

    def __new__(
        cls,
        abs_tol: float = 1e-10,
        max_terms: int = 100_000,
        tail_safety: int = 2,
        rel_tol: float = 0.0,
    ):
        if not (abs_tol >= 0.0) or not math.isfinite(abs_tol):
            raise DomainValidationError(f"abs_tol must be finite and >= 0, got {abs_tol!r}")
        if not (rel_tol >= 0.0) or not math.isfinite(rel_tol):
            raise DomainValidationError(f"rel_tol must be finite and >= 0, got {rel_tol!r}")
        require_integer(max_terms, "max_terms", 1)
        require_integer(tail_safety, "tail_safety", 1)
        return tuple.__new__(cls, (abs_tol, max_terms, tail_safety, rel_tol))


class EvalResult(namedtuple("EvalResult", "value terms_used tail_bound converged")):
    """A numeric value plus the evidence of how it was truncated.

    A named tuple (value, terms_used, tail_bound, converged) of a float, an
    int, a float and a bool: it unpacks, compares and hashes as that tuple,
    and its repr names the fields, as in ``EvalResult(value=1.0,
    terms_used=2, tail_bound=3.0, converged=True)``.

    ``tail_bound`` is a certified upper bound on the error of ``value``: the
    discarded remainder plus the rounding allowances that summation adds up
    over the terms it consumed, and for a split series the rounding of its
    closed form.  ``green_eval``, ``green_piecewise_eval``, the Robin family
    (``robin_eval``, both gradient series, ``critical_equation_eval`` and
    the three planar ``robin2d_*``), the generating series and the three
    ``newtonian_series_*`` count their rounding.  ``harmonic_extension``
    still yields a rounding allowance of 0.0, so for it it bounds the
    discarded remainder only.

    ``terms_used`` counts the terms summed.  For the split series (green_eval
    and the Robin family) those are the modes of the remainder left after the
    closed part and its first image layer, which contract by a^4 per mode.
    Where the Robin family takes its image route in a thin annulus (see
    annulus_green.green), they are the head modes plus the image rows from
    j = 2, each row standing for every deeper mode.

    ``converged`` refers to the truncation tail alone: it is set when the
    discarded remainder met the policy's target, ``abs_tol`` or the relative
    target of a policy with ``rel_tol`` > 0.  Where rounding is
    included, ``tail_bound`` can exceed ``abs_tol`` on a converged result.
    """

    __slots__ = ()

    def scaled(self, factor: float) -> "EvalResult":
        return EvalResult(
            value=self.value * factor,
            terms_used=self.terms_used,
            tail_bound=self.tail_bound * abs(factor),
            converged=self.converged,
        )


class EvalGrid(namedtuple("EvalGrid", "value terms_used tail_bound converged")):
    """EvalResult over a grid of points: four arrays with one entry per point,
    in the order the points were given.

    Two grids are equal only where they are one object: a tuple's comparison
    would compare the arrays, whose truth value is ambiguous.
    """

    __slots__ = ()
    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    def scaled(self, factor) -> "EvalGrid":
        """Every value times ``factor``, a number or one factor per point."""
        import numpy as np

        return EvalGrid(
            value=self.value * factor,
            terms_used=self.terms_used,
            tail_bound=self.tail_bound * np.abs(factor),
            converged=self.converged,
        )

"""Annulus geometry, truncation policy, and shared result types.

Everything in this module is an immutable value type and every function is
pure, so instances can be shared freely across threads.  The geometry fixes
the outer radius at 1; only the dimension ``n`` and the inner radius ``a``
vary.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

ArrayLike = Union[Sequence[float], np.ndarray]

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


def require_integer(value, name: str, least: int) -> None:
    """DomainValidationError unless ``value`` is an int or a numpy integer,
    not a bool, and at least ``least``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < least:
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
    """
    u = 2.0**-53
    t1 = math.log(2.0)
    t2 = 0.5 * n * math.log(math.pi)
    t3 = math.lgamma(0.5 * n)
    arg_error = u * (t1 + 0.5 * n + 2.0 * t2 + 4.0 * abs(t3) + (t1 + t2) + abs(t1 + t2 - t3))
    return arg_error + u


@functools.cache
def _omega(n: int) -> tuple[float, float]:
    """(sphere_surface_area(n), its relative rounding bound), once per n."""
    return sphere_surface_area(n), sphere_surface_area_rel_error(n)


def unit_and_radius(v: np.ndarray) -> tuple[float, np.ndarray]:
    r = float(np.linalg.norm(v))
    if r == 0.0:
        raise DomainValidationError("the zero vector has no direction")
    return r, v / r


def require_unit(v: ArrayLike, tol: float = 1e-10) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    r = float(np.linalg.norm(arr))
    if abs(r - 1.0) > tol:
        raise DomainValidationError(f"expected a unit vector, got |v| = {r}")
    return arr / r


@dataclass(frozen=True)
class AnnulusGeometry:
    """The annulus {x in R^n : a < |x| < 1} (outer radius normalized to 1)."""

    n: int
    a: float

    def __post_init__(self):
        require_integer(self.n, "dimension", 2)
        if not (0.0 < self.a < 1.0):
            raise DomainValidationError(f"inner radius must satisfy 0 < a < 1, got {self.a!r}")

    @property
    def omega(self) -> float:
        """Surface area of the unit sphere in R^n, computed once per dimension."""
        return _omega(self.n)[0]

    @property
    def omega_rel_error(self) -> float:
        """Rounding bound of ``omega`` relative to its value, once per dimension."""
        return _omega(self.n)[1]

    def require_series_dim(self) -> None:
        if self.n < 3:
            raise DomainValidationError(
                "this operation is defined for n >= 3; the plane has dedicated 2-d routines"
            )

    def point(self, x: ArrayLike) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        if arr.shape != (self.n,):
            raise DomainValidationError(
                f"expected a point of R^{self.n}, got shape {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise DomainValidationError("point coordinates must be finite")
        return arr

    def clamp_radius(self, r):
        """Validate r against [a, 1], up to RADIUS_SLACK, and clamp roundoff.

        ``r`` is a float or a 1-d array of radii (see _radii), which is
        checked by the same rule and clamped elementwise.
        """
        if isinstance(r, np.ndarray):
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
        if isinstance(r, np.ndarray):
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


@dataclass(frozen=True)
class TruncationPolicy:
    """Controls series truncation: target tail bound plus hard term caps.

    ``tail_safety`` is the number of consecutive indices whose certified tail
    bound must fall below the target before summation stops.  The target is
    ``abs_tol``, or with ``rel_tol`` > 0 the larger of ``abs_tol`` and
    ``rel_tol`` times the magnitude of the running value, the closed part of
    a split series included (see summation.sum_series).  The default 0.0
    keeps the absolute target; the grid summer sum_series_table refuses a
    relative one.
    """

    abs_tol: float = 1e-10
    max_terms: int = 100_000
    tail_safety: int = 2
    rel_tol: float = 0.0

    def __post_init__(self):
        if not (self.abs_tol >= 0.0) or not math.isfinite(self.abs_tol):
            raise DomainValidationError(f"abs_tol must be finite and >= 0, got {self.abs_tol!r}")
        if not (self.rel_tol >= 0.0) or not math.isfinite(self.rel_tol):
            raise DomainValidationError(f"rel_tol must be finite and >= 0, got {self.rel_tol!r}")
        require_integer(self.max_terms, "max_terms", 1)
        require_integer(self.tail_safety, "tail_safety", 1)


@dataclass(frozen=True)
class EvalResult:
    """A numeric value plus the evidence of how it was truncated.

    ``tail_bound`` is a certified upper bound on the error of ``value``: the
    discarded remainder plus the rounding allowances that summation adds up
    over the terms it consumed, and for a split series the rounding of its
    closed form.  ``green_eval``, the Robin family (``robin_eval``, both
    gradient series, ``critical_equation_eval`` and the three planar
    ``robin2d_*``), the generating series and the three
    ``newtonian_series_*`` count their rounding.  The other series still
    yield a rounding allowance of 0.0 (``green_piecewise_eval``,
    ``harmonic_extension``), so for them it bounds the discarded remainder
    only.

    ``terms_used`` counts the terms summed.  Where the Robin family takes its
    image route in a thin annulus (see annulus_green.green), those are the
    head modes plus the image rows, each row standing for every deeper mode.

    ``converged`` refers to the truncation tail alone: it is set when the
    discarded remainder met the policy's target, ``abs_tol`` or the relative
    target of a policy with ``rel_tol`` > 0.  Where rounding is
    included, ``tail_bound`` can exceed ``abs_tol`` on a converged result.
    """

    value: float
    terms_used: int
    tail_bound: float
    converged: bool

    def scaled(self, factor: float) -> "EvalResult":
        return EvalResult(
            value=self.value * factor,
            terms_used=self.terms_used,
            tail_bound=self.tail_bound * abs(factor),
            converged=self.converged,
        )


@dataclass(frozen=True, eq=False)
class EvalGrid:
    """EvalResult over a grid of points: four arrays with one entry per point,
    in the order the points were given."""

    value: np.ndarray
    terms_used: np.ndarray
    tail_bound: np.ndarray
    converged: np.ndarray

    def scaled(self, factor) -> "EvalGrid":
        """Every value times ``factor``, a number or one factor per point."""
        return EvalGrid(
            value=self.value * factor,
            terms_used=self.terms_used,
            tail_bound=self.tail_bound * np.abs(factor),
            converged=self.converged,
        )

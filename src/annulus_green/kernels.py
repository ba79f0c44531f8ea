"""Series expansions of the Newtonian kernel and the annulus Poisson kernel.

Three expansions of |p - q|^(2-n) in zonal harmonics (source on the unit
sphere, source on the inner sphere, and the exterior form for |x| > |y|)
plus the two-sphere Poisson kernel that extends continuous boundary data
harmonically into the annulus.  All series carry certified geometric tail
bounds built from |Z_m| <= dim of the degree-m harmonic space.  The three
expansions sum specfun's generating series, |p - q|^(2-n) =
|p|^(2-n) sum_m (|q|/|p|)^m P_m(t) for |q| < |p|, and hand it the errors of
its inputs, in units of the unit roundoff: a unit vector x / |x| errs by
_norm_units + 1 per component, so the cosine t errs by the dot product's n
plus both factors' errors (plus the division by |y| where y is not
normalised); the ratio of radii and the power |p|^(2-n) inherit the norms'
errors, and the power adds 2.  Their tail bounds therefore cover rounding.

harmonic_extension reads its per-mode ratio, binomial and m + lam from lam's
mode table in specfun, zipped with iter_gegenbauer's P_m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .core import (
    AnnulusGeometry,
    ArrayLike,
    DomainValidationError,
    EvalResult,
    QuadratureDegreeError,
    SeriesDivergenceError,
    TailEnvelopeError,
    TruncationPolicy,
    require_integer,
    require_unit,
    sphere_surface_area,
    unit_and_radius,
)
from .specfun import (
    _clamp_argument,
    _gegenbauer_modes,
    _generating_rows,
    _mode_table,
    iter_gegenbauer,
)
from .summation import sum_series


@dataclass(frozen=True)
class BoundaryData:
    """Boundary data on the two spheres of the annulus.

    ``outer(xi)`` is the value at the unit-sphere point xi; ``inner(xi)`` is
    the value at the inner-sphere point a*xi, indexed by the direction xi.
    Both callables must return finite values on every sampled direction and
    be safe for concurrent invocation.
    """

    outer: Callable[[np.ndarray], float]
    inner: Callable[[np.ndarray], float]


@dataclass(frozen=True, eq=False)
class SphereQuadrature:
    """Nodes and positive weights on the unit sphere summing to its area.

    ``max_exact_degree`` is the highest spherical-harmonic degree the rule
    integrates exactly (harmonics of degree 1..max_exact_degree integrate
    to zero up to roundoff).
    """

    nodes: np.ndarray
    weights: np.ndarray
    max_exact_degree: int

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 2 or weights.ndim != 1 or nodes.shape[0] != weights.shape[0]:
            raise DomainValidationError("nodes must be (N, n) and weights (N,)")
        if not np.all(np.isfinite(nodes)) or not np.all(np.isfinite(weights)):
            raise DomainValidationError("quadrature entries must be finite")
        if np.any(weights <= 0.0):
            raise DomainValidationError("quadrature weights must be positive")
        radii = np.linalg.norm(nodes, axis=1)
        if np.max(np.abs(radii - 1.0)) > 1e-12:
            raise DomainValidationError("quadrature nodes must lie on the unit sphere")
        n = nodes.shape[1]
        area = sphere_surface_area(n)
        if abs(float(weights.sum()) - area) > 1e-12 * area:
            raise DomainValidationError("quadrature weights must sum to the sphere area")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def dim(self) -> int:
        return self.nodes.shape[1]


def build_sphere_quadrature(degree: int) -> SphereQuadrature:
    """Product rule on S^2: Gauss-Legendre in the polar cosine, uniform
    trapezoid in azimuth; exact for spherical harmonics through ``degree``."""
    require_integer(degree, "degree", 0)
    n_t = degree // 2 + 1
    n_phi = degree + 1
    t, wt = np.polynomial.legendre.leggauss(n_t)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    st = np.sqrt(np.maximum(0.0, 1.0 - t * t))
    cos_phi, sin_phi = np.cos(phi), np.sin(phi)
    nodes = np.empty((n_t * n_phi, 3))
    nodes[:, 0] = np.outer(st, cos_phi).ravel()
    nodes[:, 1] = np.outer(st, sin_phi).ravel()
    nodes[:, 2] = np.repeat(t, n_phi)
    weights = np.repeat(wt, n_phi) * (2.0 * np.pi / n_phi)
    return SphereQuadrature(
        nodes=nodes,
        weights=weights,
        max_exact_degree=min(2 * n_t - 1, n_phi - 1),
    )


def _norm_units(n: int) -> float:
    """Relative error bound of np.linalg.norm on an n-vector, in units of the
    unit roundoff: the dot product's n halved by the square root, plus the
    root's own rounding."""
    return 0.5 * n + 1.0


def _source_scale(rho: float, n: int) -> float:
    """rho^(2-n), the prefactor of a Newtonian series whose larger radius is
    rho; TailEnvelopeError where it overflows (rho < 1 at large n)."""
    try:
        return rho ** (2 - n)
    except OverflowError:
        raise TailEnvelopeError(
            f"the Newtonian series for n = {n} leaves the double-precision range here: "
            f"{rho}^{2 - n} overflows"
        ) from None


def newtonian_series_outer(
    geom: AnnulusGeometry, xi: ArrayLike, y: ArrayLike, policy: TruncationPolicy
) -> EvalResult:
    """Zonal expansion of |xi - y|^(2-n) for a unit-sphere source, |y| < 1.

    At y = 0 only the constant term survives, so that value is returned
    exactly with a zero tail.
    """
    geom.require_series_dim()
    xiv = require_unit(xi)
    yv = geom.point(y)
    s = float(np.linalg.norm(yv))
    if s >= 1.0:
        raise SeriesDivergenceError(f"series diverges for |y| >= 1, got |y| = {s}")
    if s == 0.0:
        return EvalResult(value=1.0, terms_used=1, tail_bound=0.0, converged=True)
    t = _clamp_argument(float(xiv @ yv) / s)
    e = _norm_units(geom.n)
    inputs = (geom.n + 2.0 * e + 3.0, e, 0.0)
    return sum_series(_generating_rows(0.5 * (geom.n - 2), t, s, 1.0, inputs), policy)


def newtonian_series_inner(
    geom: AnnulusGeometry, xi: ArrayLike, y: ArrayLike, policy: TruncationPolicy
) -> EvalResult:
    """Zonal expansion of |a xi - y|^(2-n) for an inner-sphere source, |y| > a."""
    geom.require_series_dim()
    xiv = require_unit(xi)
    yv = geom.point(y)
    s = float(np.linalg.norm(yv))
    if s <= geom.a:
        raise SeriesDivergenceError(f"series diverges for |y| <= a, got |y| = {s}")
    t = _clamp_argument(float(xiv @ yv) / s)
    scale = _source_scale(s, geom.n)
    e = _norm_units(geom.n)
    inputs = (geom.n + 2.0 * e + 3.0, e + 1.0, (geom.n - 2) * e + 2.0)
    return sum_series(_generating_rows(0.5 * (geom.n - 2), t, geom.a / s, scale, inputs), policy)


def newtonian_series_exterior(
    geom: AnnulusGeometry, x: ArrayLike, y: ArrayLike, policy: TruncationPolicy
) -> EvalResult:
    """Zonal expansion of |x - y|^(2-n) valid for |x| > |y| > 0."""
    geom.require_series_dim()
    xv = geom.point(x)
    yv = geom.point(y)
    r, xhat = unit_and_radius(xv)
    s, yhat = unit_and_radius(yv)
    if r <= s:
        raise SeriesDivergenceError(f"series needs |x| > |y|, got |x| = {r}, |y| = {s}")
    t = _clamp_argument(float(xhat @ yhat))
    scale = _source_scale(r, geom.n)
    e = _norm_units(geom.n)
    inputs = (geom.n + 2.0 * e + 2.0, 2.0 * e + 1.0, (geom.n - 2) * e + 2.0)
    return sum_series(_generating_rows(0.5 * (geom.n - 2), t, s / r, scale, inputs), policy)


def poisson_coeff_b(geom: AnnulusGeometry, m: int, r: float) -> float:
    """Outer-sphere radial coefficient (1 - (a/r)^(2m+n-2)) / (1 - a^(2m+n-2))."""
    geom.require_series_dim()
    require_integer(m, "mode", 0)
    m = int(m)
    rr = geom.clamp_radius(r)
    beta = 2 * m + geom.n - 2
    return (1.0 - (geom.a / rr) ** beta) / (1.0 - geom.a**beta)


def poisson_coeff_c(geom: AnnulusGeometry, m: int, r: float) -> float:
    """Inner-sphere radial coefficient r^(-m) (a/r)^(m+n-2) (1-r^(2m+n-2))/(1-a^(2m+n-2)).

    Formed as q^(m/2) rest q^(m/2) with q = a/r^2 and rest = (a/r)^(n-2)
    (1 - r^beta)/(1 - a^beta) in [0, 1], beta = 2m + n - 2, so that a half
    power of q overflows only where the value is far beyond the double
    range.  Where the value leaves that range it raises TailEnvelopeError.
    """
    geom.require_series_dim()
    require_integer(m, "mode", 0)
    m = int(m)
    rr = geom.clamp_radius(r)
    n, a = geom.n, geom.a
    beta = 2 * m + n - 2
    q = a / (rr * rr)
    rest = (a / rr) ** (n - 2) * (1.0 - rr**beta) / (1.0 - a**beta)
    try:
        value = q ** (m // 2) * rest * q ** (m - m // 2)
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise TailEnvelopeError(
            f"the Poisson coefficient for m = {m} leaves the double-precision range here"
        )
    return value


def harmonic_extension(
    geom: AnnulusGeometry,
    data: BoundaryData,
    x: ArrayLike,
    policy: TruncationPolicy,
    quad: SphereQuadrature,
) -> EvalResult:
    """Harmonic extension of two-sphere boundary data, evaluated at interior x.

    Sums the Poisson-kernel modes against the caller's quadrature ``quad`` of
    the boundary integrals, whose dimension must be geom.n.  A rule exact to
    degree 2M + 2 integrates mode M's zonal integrands exactly, so at most
    (max_exact_degree - 2) // 2 + 1 modes are summed, and a series that needs
    more raises QuadratureDegreeError; build_sphere_quadrature(2 * (M - 1) + 2)
    covers M modes for n = 3.  The certified tail envelope uses the sampled
    sup of |data| and so only reflects series truncation.
    """
    geom.require_series_dim()
    xv = geom.point(x)
    r = float(np.linalg.norm(xv))
    if not (geom.a < r < 1.0):
        raise DomainValidationError(f"evaluation point must be interior, got |x| = {r}")

    if quad.dim != geom.n:
        raise DomainValidationError("quadrature dimension does not match the geometry")

    f_out = np.array([float(data.outer(node)) for node in quad.nodes])
    f_in = np.array([float(data.inner(node)) for node in quad.nodes])
    if not (np.all(np.isfinite(f_out)) and np.all(np.isfinite(f_in))):
        raise DomainValidationError("boundary data must be finite on all sampled directions")
    fmax_out = float(np.max(np.abs(f_out))) if f_out.size else 0.0
    fmax_in = float(np.max(np.abs(f_in))) if f_in.size else 0.0

    n, a, omega = geom.n, geom.a, geom.omega
    lam = 0.5 * (n - 2)
    denom0 = 1.0 - a ** (n - 2)
    t = np.clip(quad.nodes @ (xv / r), -1.0, 1.0)
    w = quad.weights / omega  # normalized surface measure

    # quadrature degree 2M + 2 covers mode M; invert that sizing rule
    usable_modes = (quad.max_exact_degree - 2) // 2
    if usable_modes < 0:
        raise QuadratureDegreeError("quadrature cannot integrate even the constant mode")
    mode_cap = min(policy.max_terms, usable_modes + 1)

    def rows():
        A = a ** (n - 2)  # a^(2m+n-2)
        rbeta = r ** (n - 2)  # r^(2m+n-2)
        rp = 1.0  # r^m
        qin = (a / r) ** (n - 2)  # (a/r)^(m+n-2)
        # ratio = (n + m - 2)/(m + 1), binom = C(n + m - 3, m), and
        # m + lam = beta / 2 with beta = 2m + n - 2
        modes = zip(_mode_table(_gegenbauer_modes, lam), iter_gegenbauer(lam, t))
        for (ratio, binom, m_lam, _, _), p in modes:
            z = (m_lam / lam) * p  # (beta / (n - 2)) P_m(t)
            i_out = float(w @ (f_out * z))
            i_in = float(w @ (f_in * z))
            b_rm = (1.0 - A / rbeta) / (1.0 - A) * rp  # b_m(r) r^m
            c_rm = qin * (1.0 - rbeta) / (1.0 - A)  # c_m(r) r^m
            term = b_rm * i_out + c_rm * i_in
            dm = binom * (m_lam + m_lam) / (n - 2)  # dim H_m = binom beta / (n - 2)
            env = dm * (rp * fmax_out + qin * fmax_in) / denom0
            # dm grows by ratio (beta + 2) / beta to the next mode
            rho = ratio * ((m_lam + 1.0) / m_lam) * max(r, a / r)
            yield term, env, rho, 0.0
            A *= a * a
            rbeta *= r * r
            rp *= r
            qin *= a / r

    res = sum_series(rows(), replace(policy, max_terms=mode_cap))
    if not res.converged and mode_cap < policy.max_terms:
        raise QuadratureDegreeError(
            f"truncation needs modes beyond degree {quad.max_exact_degree} "
            "that the supplied quadrature integrates exactly"
        )
    return res

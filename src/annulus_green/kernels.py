"""Series expansions of the Newtonian kernel and the annulus Poisson kernel.

Three expansions of |p - q|^(2-n) in zonal harmonics (source on the unit
sphere, source on the inner sphere, and the exterior form for |x| > |y|)
plus the two-sphere Poisson kernel that extends continuous boundary data
harmonically into the annulus.  All series carry certified geometric tail
bounds built from |Z_m| <= dim of the degree-m harmonic space.  The three
expansions sum specfun's generating series, |p - q|^(2-n) =
|p|^(2-n) sum_m (|q|/|p|)^m P_m(t) for |q| < |p|, and hand it the errors of
its inputs, in units of the unit roundoff.  They form their radii and t as
green_eval does: math.hypot norms of the coordinate lists, erring by
green._E_RADIUS units, and green._cosine, erring by green._E_COSINE.  A
ratio of radii adds one rounding to theirs, and the power |p|^(2-n) adds 2
to n - 2 times its radius's.  Their tail bounds therefore cover rounding.
They read their points with AnnulusGeometry.coordinates, so they load no
numpy: it is imported only where an array is built, in SphereQuadrature,
build_sphere_quadrature and harmonic_extension.

harmonic_extension reads its per-mode ratio, binomial and m + lam from lam's
mode table in specfun, zipped with iter_gegenbauer's P_m.

The radial coefficients are closed forms: modal_coefficient, the Green
series' coefficient of one zonal mode, with a first-order bound on its
rounding that export-grid reports (_modal_closed), and the Poisson
kernel's poisson_coeff_b and poisson_coeff_c, which carry none.  They live
here, loaded on first use, rather than in green, which every command loads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

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
    sphere_surface_area,
)
from .green import _E_COSINE, _E_RADIUS, _cosine
from .specfun import (
    _gegenbauer_modes,
    _generating_rows,
    _mode_table,
    iter_gegenbauer,
)
from .summation import _U, sum_series

if TYPE_CHECKING:
    import numpy as np


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
        import numpy as np

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
    import numpy as np

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


def _direction(geom: AnnulusGeometry, xi: ArrayLike) -> tuple[list, float]:
    """The coordinates of the source direction xi, a point of R^n (see
    AnnulusGeometry.coordinates), and its norm, which must lie within 1e-10 of 1."""
    xis = geom.coordinates(xi)
    norm = math.hypot(*xis)
    if not abs(norm - 1.0) <= 1e-10:
        raise DomainValidationError(f"expected a unit vector, got |v| = {norm}")
    return xis, norm


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
    xis, xi_norm = _direction(geom, xi)
    ys = geom.coordinates(y)
    s = math.hypot(*ys)
    if s >= 1.0:
        raise SeriesDivergenceError(f"series diverges for |y| >= 1, got |y| = {s}")
    if s == 0.0:
        return EvalResult(value=1.0, terms_used=1, tail_bound=0.0, converged=True)
    t = _cosine(xis, ys, xi_norm, s)
    inputs = (_E_COSINE, _E_RADIUS, 0.0)
    return sum_series(_generating_rows(0.5 * (geom.n - 2), t, s, 1.0, inputs), policy)


def newtonian_series_inner(
    geom: AnnulusGeometry, xi: ArrayLike, y: ArrayLike, policy: TruncationPolicy
) -> EvalResult:
    """Zonal expansion of |a xi - y|^(2-n) for an inner-sphere source, |y| > a."""
    geom.require_series_dim()
    xis, xi_norm = _direction(geom, xi)
    ys = geom.coordinates(y)
    s = math.hypot(*ys)
    if s <= geom.a:
        raise SeriesDivergenceError(f"series diverges for |y| <= a, got |y| = {s}")
    t = _cosine(xis, ys, xi_norm, s)
    scale = _source_scale(s, geom.n)
    inputs = (_E_COSINE, _E_RADIUS + 1.0, (geom.n - 2) * _E_RADIUS + 2.0)
    return sum_series(_generating_rows(0.5 * (geom.n - 2), t, geom.a / s, scale, inputs), policy)


def newtonian_series_exterior(
    geom: AnnulusGeometry, x: ArrayLike, y: ArrayLike, policy: TruncationPolicy
) -> EvalResult:
    """Zonal expansion of |x - y|^(2-n) valid for |x| > |y| > 0."""
    geom.require_series_dim()
    xs = geom.coordinates(x)
    ys = geom.coordinates(y)
    r, s = math.hypot(*xs), math.hypot(*ys)
    if not (r and s):
        raise DomainValidationError("the zero vector has no direction")
    if r <= s:
        raise SeriesDivergenceError(f"series needs |x| > |y|, got |x| = {r}, |y| = {s}")
    t = _cosine(xs, ys, r, s)
    scale = _source_scale(r, geom.n)
    inputs = (_E_COSINE, 2.0 * _E_RADIUS + 1.0, (geom.n - 2) * _E_RADIUS + 2.0)
    return sum_series(_generating_rows(0.5 * (geom.n - 2), t, s / r, scale, inputs), policy)


def modal_coefficient(geom: AnnulusGeometry, m: int, r: float, s: float) -> float:
    """Radius-ordered coefficient of the degree-m zonal kernel in the Green
    series, including the 1/omega prefactor.

    Vanishes when either radius sits on a boundary sphere, is symmetric in
    (r, s), and is positive strictly inside.  Raises TailEnvelopeError where
    it, or the bound on its rounding error that _modal_coefficient gives,
    leaves the double-precision range (at large n, where omega underflows):
    a power that overflows raises OverflowError, but a product or quotient
    overflows to inf silently, so both are checked as well.
    """
    return _modal_coefficient(geom, m, r, s)[0]


def _modal_coefficient(geom: AnnulusGeometry, m: int, r: float, s: float):
    """(value, bound): modal_coefficient and a first-order bound on its
    rounding error, _modal_closed's with omega's own share added, as
    green._split_result adds it; export-grid writes the bound as the rows'
    tail_bound.  omega's share raises TailEnvelopeError where omega is
    subnormal (see AnnulusGeometry.omega_rel_error)."""
    geom.require_series_dim()
    require_integer(m, "mode", 0)
    m = int(m)
    lo = geom.clamp_radius(min(r, s))
    hi = geom.clamp_radius(max(r, s))
    try:
        value, bound = _modal_closed(m, geom.n, geom.a, lo, hi, geom.omega)
    except (OverflowError, ZeroDivisionError):
        value = bound = math.inf
    if not math.isfinite(value):
        raise TailEnvelopeError(
            f"the modal coefficient for n = {geom.n} leaves the double-precision range here"
        )
    bound += geom.omega_rel_error * abs(value)
    if not math.isfinite(bound):
        raise TailEnvelopeError(
            f"the modal coefficient's rounding bound for n = {geom.n} leaves the double range"
        )
    return value, bound


# the spacing of the subnormal doubles: a result rounded below the normal
# range errs by at most half of it, which no relative count covers
_TINY = 2.0**-1074


def _modal_closed(m: int, n: int, a, lo, hi, omega):
    """modal_coefficient's closed form at the clamped radii lo <= hi, and a
    first-order bound on its rounding error, omega taken as exact.

    The value is (lo^beta - a^beta)(1 - hi^beta) / (beta (lo hi)^(m+n-2)
    (1 - a^beta) omega), beta = 2m + n - 2, scaled as green._modal_rows
    scales it: every power that grows with m is of a number in (0, 1], so
    none underflows before the coefficient does.  With A = (lo/hi)^m,
    B = hi^(2-n), P = (a/lo)^beta, Q = hi^beta, S = a^beta and W = 1 - S it is
    A B (1 - P)(1 - Q) / (beta W omega).  Each operation rounds once and each
    power of a rounded base raises its base's error to the power: A errs by
    m + 1 units, B, Q and S by 1, P by beta + 1.  1 - P errs by P (beta + 1)
    units absolutely plus one of itself, 1 - Q by Q + |1 - Q|, W by S + W,
    and the three products, beta W, its product with omega and the quotient
    add one unit of |value| each.  A result that is subnormal errs by up to
    _TINY more, times the value's derivative in it: 1 for the quotient, at
    most B / |beta W omega| for A and for each of the numerator's products,
    |K (1 - Q)| and |K (1 - P)| for P and Q, and |value| / W for S.
    """
    beta = 2 * m + n - 2
    big_a = (lo / hi) ** m
    big_b = hi ** (2 - n)
    p, q, big_s = (a / lo) ** beta, hi**beta, a**beta
    c, d, w = 1.0 - p, 1.0 - q, 1.0 - big_s
    denominator = beta * w * omega
    value = big_a * big_b * c * d / denominator
    # value = K (1 - P)(1 - Q): the errors of 1 - P and of 1 - Q enter times
    # |K (1 - Q)| and |K (1 - P)|
    k = abs(big_a * big_b / denominator)
    size = abs(value)
    units = size * (m + 10 + (big_s + w) / w) + k * (abs(d) * p * (beta + 1) + abs(c) * q)
    floor = 4.0 * big_b / abs(denominator) + 1.0 + k * (abs(c) + abs(d)) + size / w
    return value, _U * units + _TINY * floor


def poisson_coeff_b(geom: AnnulusGeometry, m: int, r: float) -> float:
    """Outer-sphere radial coefficient (1 - (a/r)^(2m+n-2)) / (1 - a^(2m+n-2)).

    A bare float: it carries no bound on its rounding error, unlike the
    series evaluators' EvalResult.
    """
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
    A bare float: it carries no bound on its rounding error, unlike the
    series evaluators' EvalResult.
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
    import numpy as np

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
        for (ratio, binom, m_lam, _, _, _), p in modes:
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

    res = sum_series(rows(), policy._replace(max_terms=mode_cap))
    if not res.converged and mode_cap < policy.max_terms:
        raise QuadratureDegreeError(
            f"truncation needs modes beyond degree {quad.max_exact_degree} "
            "that the supplied quadrature integrates exactly"
        )
    return res

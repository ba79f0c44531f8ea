"""Green and Robin functions of the n-dimensional annulus.

Two evaluation routes for the Green function: fundamental solution minus a
correction series (valid everywhere off the diagonal, including coincident
radii), and a purely modal radius-ordered series (faster off the diagonal,
undefined at coincident radii).  The Robin function, its radial gradient
r R'(r), the derivative of that gradient, and the planar (n = 2) Robin family
are all diagonal series over the harmonic-space dimensions.

In the two Green routes every power of the radii is carried incrementally as
a product of per-mode factors in (0, 1), so deep truncations neither overflow
nor divide underflowed quantities.

The correction series of green_eval and the diagonal (Robin) series are
split by the identity 1/(1 - A_m) = 1 + A_m/(1 - A_m), A_m = a^(2m+n-2).
The A-free part sums in closed form and carries the divergence at both
spheres: four Kelvin images through the Gegenbauer generating function
sum_m q^m P_m(t) = (1 - 2qt + q^2)^(-(n-2)/2) for green_eval, two images
through sum_m C(k+m-1, m) x^m = (1 - x)^-k for the Robin family (and
sum_m x^m/m = -log(1 - x) in the plane).  Every difference next to a sphere
is formed as (p - q)(p + q), so no r^2 - a^2 or 1 - r^2 cancels.  One
generator, _robin_remainder, yields the remainder modes of every
Robin-family series: the plane is its k = 0 member, the family's limit in
which the binomial weights become the log kernel's 1/m (see _mode_form).  The
remainder's term ratio is at most a^2 wherever the points lie, so it takes
as many modes next to a sphere as mid-gap: tens for a up to about 0.8, but
about 11/(1 - a) at tol 1e-10 as a approaches 1.  Its products are powers
of numbers in (0, 1) and overflow only where the value itself leaves the
double range, which raises TailEnvelopeError.  The reported tail_bound of
these series adds a first-order bound on rounding in the closed form and in
the summed modes to the truncation tail: each remainder row carries its
mode's rounding allowance, which summation folds into the tail.  The
closed form goes to sum_series as its ``offset``, so that a policy with
``rel_tol`` > 0 measures its target against the whole value.

In a thin annulus the Robin family sums that remainder by images instead
(see _image_route and _image_rows): robin_eval, both gradient series,
robin2d_first, robin2d_second and their grid twins sum the first
_HEAD_MODES remainder modes, then the deeper modes as rows of images, each
row j the j-th term of sum_j A_m^j = A_m / (1 - A_m) summed over all modes
m >= _HEAD_MODES in closed form.  The rows shrink by a^(k + 2 _HEAD_MODES),
and terms_used counts head modes plus image rows.  robin2d_eval keeps its
modes: its 1/m weights have no elementary sum over m.  One generator,
_image_rows, forms the rows at one radius and at an array of radii, with the
tools (see _Tools) that _robin_series chose and _remainder_rows passes on:
math's or numpy's elementwise functions, and image indices j that are
integers, or for a grid columns of them.

_robin_series sums every Robin-family series of either dimension, at one
radius or an array of them, from the table _SERIES; its closed forms share
one signature (see _Series), and only their normalisation depends on the
dimension (_normalised).  _radial binds a geometry's public evaluators: it
is the one place that chooses between the spatial family and the planar one.

The per-mode constants that depend only on a stream's shape come from the
mode tables of specfun (see its docstring), filled at first use and bounded
by specfun._STORED_MODES = 256 modes per shape and specfun._SHAPES shapes in
one LRU, grown copy on write.  _green_remainder, its grid twin and
_modal_rows read the Gegenbauer table of lam = k/2: the ratio (k+m)/(m+1),
the binomial C(k+m-1, m) and the recurrence constants.  Every Robin-family
remainder reads the table of its shape (k, parts), whose rows _robin_modes
builds: per mode m, the polynomials (x + d_i)^e_i, the weight
float(C(order+m-1, m)), the weight ratio, the polynomials' growth to the next
mode and the rounding count 4m + fixed.  _robin_remainder and its grid twin
both read it, so neither keeps its own copy of that arithmetic.  A row holds
the doubles the streams computed per call before, so every value, tail
bound and term count is unchanged bit for bit.

green_piecewise_eval stays the unsplit modal series on purpose: its split
would be the same computation as green_eval's, and it serves as the
independent route that green_eval is checked against.

Every split remainder contracts by at most a^2 per mode at every radius, so
a grid of radii can share one mode loop.  The grid twins robin_eval_grid,
robin_radial_gradient_grid, robin2d_eval_grid, robin2d_first_grid and
_green_slice sum their remainders as one (modes x radii) table with
summation.sum_series_table.  Only _robin_series and _green_split choose
between one radius and an array, and they pass the choice down as a _Tools
value (_SCALAR or _GRID); the geometry checks both by one rule.  Every
formula outside the per-mode loops is written once: the closed forms, the
remainders' starts (_robin_starts, _green_starts), the image rows and the
binary frame (_framed_images).  The loops of _robin_remainder and
_green_remainder keep grid twins, as sum_series keeps sum_series_table: a
helper call per mode would slow the scalar path.  A twin yields rows of the
same shape and counts rounding with the same named constants; only the
powers and logs that depend on the radius are numpy's, and each adds
_NUMPY_EXTRA units to its piece.  A grid entry therefore matches the scalar
evaluator's terms used and convergence and stays inside its bound, while
its value may differ by ulps.  A single point keeps the scalar path, whose
fixed cost is far below a table's.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
from typing import Callable, NamedTuple

import numpy as np

from .core import (
    AnnulusGeometry,
    ArrayLike,
    DomainValidationError,
    EvalGrid,
    EvalResult,
    SingularityError,
    TailEnvelopeError,
    TruncationPolicy,
    require_integer,
)
from .specfun import _clamp_argument, _gegenbauer_modes, _mode_table, iter_gegenbauer
from . import summation
from .summation import _U, sum_series, sum_series_table

# below this separation the subtraction against the fundamental solution is
# pure cancellation; callers wanting diagonal values should use robin_eval
NEAR_DIAGONAL = 1e-6


def modal_coefficient(geom: AnnulusGeometry, m: int, r: float, s: float) -> float:
    """Radius-ordered coefficient of the degree-m zonal kernel in the Green
    series, including the 1/omega prefactor.

    Vanishes when either radius sits on a boundary sphere, is symmetric in
    (r, s), and is positive strictly inside.  Raises TailEnvelopeError where
    it leaves the double-precision range (at large n, where omega underflows).
    """
    geom.require_series_dim()
    require_integer(m, "mode", 0)
    m = int(m)
    lo = geom.clamp_radius(min(r, s))
    hi = geom.clamp_radius(max(r, s))
    n, a = geom.n, geom.a
    beta = 2 * m + n - 2
    # (lo^beta - a^beta) / (lo hi)^(m+n-2) scaled as _modal_rows scales it:
    # every power that grows with m is of a number in (0, 1], so none
    # underflows before the coefficient does
    try:
        return (
            (lo / hi) ** m
            * hi ** (2 - n)
            * (1.0 - (a / lo) ** beta)
            * (1.0 - hi**beta)
            / (beta * (1.0 - a**beta) * geom.omega)
        )
    except (OverflowError, ZeroDivisionError):
        raise TailEnvelopeError(
            f"the modal coefficient for n = {n} leaves the double-precision range here"
        ) from None


# the grid twins take powers and logs of arrays with numpy, whose vectorised
# power and log may err by this many units more than the libm results the
# scalar counts allow for (tests/test_numpy_rounding.py measures both against
# mpmath); every factor taken that way adds it to its piece's count
_NUMPY_EXTRA = 2.0

# the image route of the Robin family (see _image_rows): where the mode
# series is predicted to need more than _SWITCH_MODES modes, the remainder
# is summed as its first _HEAD_MODES modes and then as rows of images
_HEAD_MODES = 16
_SWITCH_MODES = 64

# a Robin-family remainder mode whose two larger images, w_1 + w_4 (see
# _robin_remainder), sum to less than this is formed in a binary frame (see
# _framed_images): past it a power may be subnormal, and a binomial weight
# can lift its rounding, which is absolute there, into a normal row that its
# ratio no longer bounds
_FRAME_BELOW = 2.0**-900


def _split_result(
    closed: float,
    closed_rounding: float,
    remainder: EvalResult,
    prefactor_rel_error: float,
) -> EvalResult:
    """Closed form plus summed remainder, with the closed form's rounding and
    the final sum's added to the remainder's tail, which covers its own.

    ``prefactor_rel_error`` is the relative error of a factor shared by every
    piece (1/omega): it moves the whole value coherently, so it costs that
    share of |value| rather than of every piece.  The remainder is an
    EvalResult, or an EvalGrid from a grid twin, and so is the result.
    """
    value = closed + remainder.value
    if isinstance(remainder, EvalResult):
        finite = math.isfinite(value)
    else:
        finite = bool(np.isfinite(value).all())
    if not finite:
        raise TailEnvelopeError(f"the series value is not a finite double ({value!r})")
    rounding = closed_rounding + (prefactor_rel_error + _U) * abs(value)
    return type(remainder)(
        value=value,
        terms_used=remainder.terms_used,
        tail_bound=remainder.tail_bound + rounding,
        converged=remainder.converged,
    )


def _factored(p: float, q: float, e: float) -> tuple[float, float]:
    """(p - q)(p + q) for p >= q >= 0, and a first-order bound on its error in
    units of the unit roundoff when p and q carry relative errors up to e units.

    The difference errs by at most (p + q) e + |p - q| units, the sum by
    (p + q)(e + 1), and the product rounds once: 2 e (p + q)^2 + 3 |w| in all.
    """
    w = (p - q) * (p + q)
    return w, 2.0 * e * (p + q) ** 2 + 3.0 * w


def _image_base(c_d2: float, c_err: float, x, y) -> tuple[float, float]:
    """E = c_d2 + x y from nonnegative parts, with its error bound in units.

    ``c_err`` is the absolute error bound of c_d2; ``x`` and ``y`` are
    (value, error) pairs such as _factored returns.  The product and the sum
    round once each, relative to quantities no larger than E.
    """
    (xv, xe), (yv, ye) = x, y
    xy = xv * yv
    base = c_d2 + xy
    return base, c_err + xe * yv + xv * ye + xy + base


# relative rounding error of the computed radii |x|, |y| and of |x - y|, in
# units of the unit roundoff: math.hypot errs by under one ulp (two units),
# and each coordinate difference feeding math.dist rounds once more
_E_RADIUS = 2.0
_E_DIST = 3.0
# error of t = <x, y> / (|x| |y|): fsum of the rounded products (2), the two
# radii (2 _E_RADIUS), their product and the division (2)
_E_COSINE = 4.0 + 2.0 * _E_RADIUS


def _green_closed(k: int, a: float, lo, hi, d, scale: float, tools: _Tools):
    """The Newtonian term minus the four images of the Green correction,
    times ``scale`` = 1/(k omega), and its rounding bound; lo, hi and d are
    floats, or arrays of them with _GRID's tools (see _Tools).

    Mode m of the correction is (g1 - g2 - g3 + g4) P_m(t) / (1 - A_m) with
    g_i = c_i q_i^m, q = (lo hi, a^2 lo / hi, a^2 hi / lo, a^2 / (lo hi)) and
    c = (1, (a/hi)^k, (a/lo)^k, (a/(lo hi))^k), all over k omega.  Its A-free
    part sums through sum_m q^m P_m(t) = (1 - 2 q t + q^2)^(-k/2) to four
    images c_i (1 - 2 q_i t + q_i^2)^(-k/2), each written through |x - y|:

        image 1 = (d^2 + (1 - r^2)(1 - s^2))^(-k/2)
        image 2 = (a^2 / (a^2 d^2 + (1 - a^2)(hi^2 - a^2 lo^2)))^(k/2)
        image 3 = (a^2 / (a^2 d^2 + (1 - a^2)(lo^2 - a^2 hi^2)))^(k/2)
        image 4 = (a^2 / (a^2 d^2 + (r^2 - a^2)(s^2 - a^2)))^(k/2)

    Image 1 equals d^-k on the outer sphere and image 4 on the inner one;
    every base is a sum of nonnegative parts whose differences are formed as
    (p - q)(p + q), so nothing cancels as r, s approach a sphere.

    The pieces of d^-k - image 1 + image 2 + image 3 - image 4 carry a
    first-order bound on their rounding, in units of the unit roundoff and
    relative to 1; their four sums and the two roundings of scale add 7, and
    each numpy power tools.numpy_units more.
    """
    lam = 0.5 * k
    a2 = a * a
    d2 = d * d
    ad2 = (a * d) ** 2
    ad2_err = ad2 * (2.0 * _E_DIST + 3.0)
    bases = (
        _image_base(
            d2,
            d2 * (2.0 * _E_DIST + 1.0),
            _factored(1.0, lo, _E_RADIUS),
            _factored(1.0, hi, _E_RADIUS),
        ),
        _image_base(
            ad2, ad2_err, _factored(1.0, a, 0.0), _factored(hi, a * lo, _E_RADIUS + 1.0)
        ),
        _image_base(
            ad2, ad2_err, _factored(1.0, a, 0.0), _factored(lo, a * hi, _E_RADIUS + 1.0)
        ),
        _image_base(ad2, ad2_err, _factored(lo, a, _E_RADIUS), _factored(hi, a, _E_RADIUS)),
    )
    newton = d**-k
    pieces = [newton]
    # d^-k errs by k _E_DIST units plus the power's two; (c/E)^lam by lam
    # times (E's relative error plus two units for a^2 and the division),
    # plus the power's two
    ulps = newton * (k * _E_DIST + 2.0)
    for sign, c, (base, err) in zip((-1.0, 1.0, 1.0, -1.0), (1.0, a2, a2, a2), bases):
        image = (c / base) ** lam
        pieces.append(sign * image)
        ulps += image * (lam * (err / base + 2.0) + 2.0)
    closed = sum(pieces) * scale
    return closed, _U * scale * (ulps + (7.0 + tools.numpy_units) * sum(abs(p) for p in pieces))


def _column(values) -> np.ndarray:
    """Per-mode numbers as a column that broadcasts against a row of radii."""
    return np.fromiter(values, dtype=float)[:, None]


def _green_starts(k: int, a: float, lo, hi, scale: float, tools: _Tools):
    """The per-pair constants of a Green remainder (see _green_remainder) at
    radii lo <= hi, floats or arrays as ``tools`` says: the factors b_i and
    the starts h_i of its four parts, A_0 = a^k, the envelope's constant
    |scale| / (1 - a^k), the largest factor max(b_1, b_4) and the counts
    (quad, per_mode, fixed): mode m rounds by at most quad (m+1)^2 +
    per_mode m + fixed units of its envelope, where fixed takes
    tools.numpy_units for numpy's powers h_2, h_3 and h_4.
    """
    a2 = a * a
    a4 = a2 * a2
    bs = (a2 * (lo * hi), a4 * lo / hi, a4 * hi / lo, a4 / (lo * hi))
    big_a = a**k
    amp = 1.0 / (1.0 - big_a)  # bounds every 1/(1 - A_m)
    units = (
        2.0 + _E_COSINE,
        6.0 + 2.0 * _E_RADIUS + 2.0 * amp,
        (3.0 + 2.0 * _E_RADIUS) * k + 13.0 + amp + tools.numpy_units,
    )
    hs = (big_a, (a2 / hi) ** k, (a2 / lo) ** k, (a2 / (lo * hi)) ** k)
    return bs, hs, big_a, abs(scale) * amp, tools.maximum(bs[0], bs[3]), units


def _green_remainder(k: int, a: float, lo: float, hi: float, t: float, scale: float):
    """Remainder modes of the split Green correction, k = n - 2 >= 1.

    With h_i = g_i A_m (see _green_closed) the remainder is
    scale * sum_m (h1 - h2 - h3 + h4) P_m(t) / (1 - A_m), where
    h = (a^k (a^2 lo hi)^m, (a^2/hi)^k (a^4 lo/hi)^m, (a^2/lo)^k (a^4 hi/lo)^m,
    (a^2/(lo hi))^k (a^4/(lo hi))^m).  lo hi >= a^2 makes every per-mode
    factor at most a^2, wherever the points lie.  |P_m| <= C(k+m-1, m) and
    0 <= h1 - h2 - h3 + h4 <= h1 + h4 bound the envelope.

    Each row's rounding allowance bounds its mode's rounding error to first
    order, in units of the unit roundoff, as a multiple of its envelope (at
    least half the sum of the absolute values of its parts).  The h_i take
    6 + 2 _E_RADIUS units per mode and (3 + 2 _E_RADIUS) k + 1 to start;
    1 - A_m, with A_m carried as a product, costs (2m + 1) A_m/(1 - A_m) + 2;
    the mode's sums and products, the prefactor and the compensated sum add
    10.  The forward recurrence errs by less than 2 (m+1)^2 u C(k+m-1, m)
    (measured against a 40-digit recurrence over t in [-1, 1]: at most 0.23
    of that for m <= 400, k <= 4 and for m <= 300, k up to 48, and at most
    0.2 of it for m <= 100 000 at k = 1, 2, 3, 4, 7, 8, 20 and 48), and
    |dP_m/dt| <= (m+1)^2 C(k+m-1, m) turns the error of t into
    (m+1)^2 _E_COSINE units more.
    """
    bs, hs, big_a, env_k, qmax, units = _green_starts(k, a, lo, hi, scale, _SCALAR)
    (b1, b2, b3, b4), (h1, h2, h3, h4), (quad, per_mode, fixed) = bs, hs, units
    a2 = a * a
    # iter_gegenbauer's recurrence, inline as specfun's docstring explains;
    # ratio = (k + m)/(m + 1) and binom = C(k + m - 1, m)
    two_t = 2.0 * t
    p_prev, p = 0.0, 1.0
    for ratio, binom, m_lam, below, m_next in _mode_table(_gegenbauer_modes, 0.5 * k):
        env = env_k * binom * (h1 + h4)
        yield (
            scale * (((h1 - h2) - h3) + h4) * p / (1.0 - big_a),
            env,
            ratio * qmax,
            2.0 * env * (quad * (m_next * m_next) + per_mode * (m_next - 1.0) + fixed),
        )
        p_prev, p = p, (two_t * m_lam * p - below * p_prev) / m_next
        h1 *= b1
        h2 *= b2
        h3 *= b3
        h4 *= b4
        big_a *= a2


def _green_remainder_grid(k: int, a: float, lo, hi, t, scale: float):
    """_green_remainder for arrays of radius pairs (lo, hi) and cosines t, in
    chunks of summation.TABLE_MODES modes as sum_series_table reads them.

    The arithmetic is _green_remainder's, in the same order: the h_i are the
    same running products and P_m(t) the same recurrence, so a column differs
    from the scalar stream only through h2, h3 and h4's starting powers, which
    numpy takes; the rounding row adds _NUMPY_EXTRA for them (_green_starts).
    """
    bs, hs, big_a, env_k, qmax, (quad, per_mode, fixed) = _green_starts(k, a, lo, hi, scale, _GRID)
    b = np.array(bs)
    h = np.array([np.full_like(lo, hs[0]), *hs[1:]])
    a2 = a * a
    modes = summation.TABLE_MODES
    lam = 0.5 * k
    rows = zip(_mode_table(_gegenbauer_modes, lam), iter_gegenbauer(lam, t))
    for m0 in itertools.count(0, modes):
        consts, p = zip(*itertools.islice(rows, modes))
        ratios, binoms, *_ = zip(*consts)
        one_minus_a = []
        for _ in consts:
            one_minus_a.append(1.0 - big_a)
            big_a *= a2
        # h_i carried as running products, as the scalar stream carries them
        products = np.empty((4, modes, lo.size))
        products[:, 0] = h
        for i in range(1, modes):
            np.multiply(products[:, i - 1], b, out=products[:, i])
        h1, h2, h3, h4 = products
        h = products[:, -1] * b
        env = env_k * _column(binoms) * (h1 + h4)
        m = _column(range(m0, m0 + modes))
        yield (
            scale * (((h1 - h2) - h3) + h4) * np.array(p) / _column(one_minus_a),
            env,
            _column(ratios) * qmax,
            2.0 * env * (quad * (m + 1.0) ** 2 + per_mode * m + fixed),
        )


def _green_split(geom: AnnulusGeometry, lo, hi, t, d, policy: TruncationPolicy):
    """green_eval's series at radii lo <= hi, cosine t and distance d: its
    closed form (_green_closed) plus its remainder.  For floats an
    EvalResult; for arrays, one entry per pair, an EvalGrid summed as one
    table.  With _robin_series the only place that chooses between the two:
    it picks the remainder stream, the summer and the tools (see _Tools).
    """
    k, a = geom.n - 2, geom.a
    try:
        scale = 1.0 / (k * geom.omega)
        if isinstance(lo, np.ndarray):
            with np.errstate(all="ignore"):  # an overflow shows as a non-finite value
                closed, rounding = _green_closed(k, a, lo, hi, d, scale, _GRID)
                res = sum_series_table(
                    lambda cols: _green_remainder_grid(k, a, lo[cols], hi[cols], t[cols], -scale),
                    lo.size,
                    policy,
                )
        else:
            closed, rounding = _green_closed(k, a, lo, hi, d, scale, _SCALAR)
            res = sum_series(_green_remainder(k, a, lo, hi, t, -scale), policy, closed)
    except (OverflowError, ZeroDivisionError):
        raise TailEnvelopeError(
            f"the Green function for n = {geom.n} leaves the double-precision range here"
        ) from None
    return _split_result(closed, rounding, res, geom.omega_rel_error)


def green_eval(
    geom: AnnulusGeometry, x: ArrayLike, y: ArrayLike, policy: TruncationPolicy
) -> EvalResult:
    """Dirichlet Green function of the annulus at (x, y), x != y.

    Fundamental solution minus the correction series; valid for radii in the
    closed interval [a, 1] (so boundary points are admissible and give zero
    up to the tail bound) and in particular at coincident radii |x| = |y|.
    The correction is four closed-form images plus a remainder whose term
    ratio is at most a^2, and ``tail_bound`` covers rounding as well as
    truncation.
    """
    geom.require_series_dim()
    xs = geom.point(x).tolist()
    ys = geom.point(y).tolist()
    r = geom.clamp_radius(math.hypot(*xs))
    s = geom.clamp_radius(math.hypot(*ys))
    d = math.dist(xs, ys)
    if d < NEAR_DIAGONAL:
        raise SingularityError(
            f"|x - y| = {d} is inside the near-diagonal guard {NEAR_DIAGONAL}; "
            "diagonal values come from robin_eval"
        )
    t = _clamp_argument(math.fsum(map(operator.mul, xs, ys)) / (r * s))
    lo, hi = (r, s) if r <= s else (s, r)
    return _green_split(geom, lo, hi, t, d, policy)


def _green_slice(
    geom: AnnulusGeometry, radii, y: ArrayLike, policy: TruncationPolicy
) -> tuple[np.ndarray, EvalGrid]:
    """green_eval(geom, r e1, y, policy) for every radius r of ``radii``, with
    e1 the first coordinate axis, summed as one table; returns the distances
    |r e1 - y| and the rows.

    Each row stays inside green_eval's bound and matches its terms used and
    convergence; values may differ from green_eval's by ulps.  A radius may
    miss [a, 1] by RADIUS_SLACK.  A point within NEAR_DIAGONAL of y, where
    green_eval raises SingularityError, is not evaluated: its row holds a NaN
    value and tail, 0 terms and converged False.  export-grid writes those
    rows as they are.
    """
    geom.require_series_dim()
    ys = geom.point(y).tolist()
    x0 = np.asarray(radii, dtype=float)
    r = geom.clamp_radius(x0)
    # |x - y| errs by _E_DIST like math.dist: the difference and its square
    # take 3 units, fsum of the other squares 2, their sum and sqrt 1 each
    d = np.sqrt((x0 - ys[0]) ** 2 + math.fsum(v * v for v in ys[1:]))
    far = d >= NEAR_DIAGONAL
    grid = EvalGrid(
        value=np.full(d.size, np.nan),
        terms_used=np.zeros(d.size, dtype=np.int64),
        tail_bound=np.full(d.size, np.nan),
        converged=np.zeros(d.size, dtype=bool),
    )
    x0, r = x0[far], r[far]
    s = geom.clamp_radius(math.hypot(*ys))
    # <x, y> / (|x| |y|) with the roundings of green_eval's fsum form
    t = np.clip((x0 * ys[0]) / (r * s), -1.0, 1.0)
    res = _green_split(geom, np.minimum(r, s), np.maximum(r, s), t, d[far], policy)
    grid.value[far], grid.terms_used[far] = res.value, res.terms_used
    grid.tail_bound[far], grid.converged[far] = res.tail_bound, res.converged
    return d, grid


def _modal_rows(n: int, a: float, lo: float, hi: float, t: float, omega: float):
    """Modes of the radius-ordered Green series (lo < hi strictly); their
    rounding is not counted yet."""
    lam = 0.5 * (n - 2)
    hi_pow = hi ** (2 - n)  # hi^(2-n) (lo/hi)^m
    q = lo / hi
    q4 = a * a / (lo * hi)
    g4 = (a / (lo * hi)) ** (n - 2)  # A / (lo*hi)^(m+n-2)
    hib = hi ** (n - 2)  # hi^(2m+n-2)
    big_a = a ** (n - 2)
    env_k = 1.0 / ((n - 2) * omega * (1.0 - a ** (n - 2)))
    # iter_gegenbauer's recurrence, inline as specfun's docstring explains;
    # ratio = (n + m - 2)/(m + 1), binom = C(n + m - 3, m), and
    # m + lam = beta / 2 with beta = 2m + n - 2
    two_t = 2.0 * t
    p_prev, p = 0.0, 1.0
    for ratio, binom, m_lam, below, m_next in _mode_table(_gegenbauer_modes, lam):
        z = (m_lam / lam) * p  # (beta / (n - 2)) P_m(t)
        coeff = (hi_pow - g4) * (1.0 - hib) / ((m_lam + m_lam) * (1.0 - big_a))
        yield coeff * z / omega, env_k * binom * hi_pow, ratio * q, 0.0
        p_prev, p = p, (two_t * m_lam * p - below * p_prev) / m_next
        hi_pow *= q
        g4 *= q4
        hib *= hi * hi
        big_a *= a * a


def green_piecewise_eval(
    geom: AnnulusGeometry, x: ArrayLike, y: ArrayLike, policy: TruncationPolicy
) -> EvalResult:
    """Green function from the radius-ordered modal series, |x| != |y|.

    Coincident radii make every mode the same size, so that case is refused
    and callers are pointed at green_eval, which stays valid there.  Where a
    mode leaves the double-precision range (at large n) it raises
    TailEnvelopeError, as green_eval does.
    """
    geom.require_series_dim()
    xv = geom.point(x)
    yv = geom.point(y)
    r = geom.clamp_radius(float(np.linalg.norm(xv)))
    s = geom.clamp_radius(float(np.linalg.norm(yv)))
    if abs(r - s) <= 1e-9:
        raise DomainValidationError(
            f"|x| = {r} and |y| = {s} are (numerically) equal; use green_eval for "
            "coincident radii"
        )
    lo, hi = (r, s) if r < s else (s, r)
    t = _clamp_argument(float(xv @ yv) / (r * s))
    try:
        return sum_series(_modal_rows(geom.n, geom.a, lo, hi, t, geom.omega), policy)
    except (OverflowError, ZeroDivisionError):
        raise TailEnvelopeError(
            f"the Green function for n = {geom.n} leaves the double-precision range here"
        ) from None


def _mode_form(k: int) -> tuple[int, int, int, int]:
    """(first, stride, order, fixed) of a Robin-family remainder (see
    _robin_remainder): its modes start at m = first, the argument of its
    polynomials is x = stride m, its weights are the binomials
    C(order + m - 1, m), and mode m rounds by at most 4m + fixed units.

    In R^n (k = n - 2 >= 1) that is (0, 1, k, 20 + 2k).  The plane is the
    family's k -> 0 limit, where C(k+m-1, m)/k tends to 1/m: its modes start
    at 1, its parts carry the 1/m as 2 (2m)^-1, so x = 2m, and it has no
    binomial: order 1 makes every weight C(m, m) = 1 and every weight ratio
    (1 + m)/(m + 1) = 1.0.  Its starts a^0 and its weights are exact, which
    saves 3 units: (1, 2, 1, 17).
    """
    return (0, 1, k, 20 + 2 * k) if k else (1, 2, 1, 17)


def _growth(parts) -> tuple[int, int]:
    """(e_max, d_min) of the images with a nonzero coefficient: from the mode
    with argument x to the next, x' = x + stride, their polynomials grow by at
    most ((x' + d_min)/(x + d_min))^e_max where x + d_min > 0.  Every part
    has x + d >= 0 at every mode, so x + d_min can vanish at the first mode
    only."""
    active = [(d, e) for c, d, e in parts if c]
    return max(0, max(e for _, e in active)), min(d for d, _ in active)


def _robin_modes(k: int, parts, after=None):
    """Rows (m, P_1, P_2, P_4, weight, ratio, growth, units) of the mode
    constants of a Robin-family remainder of shape (k, parts), from the row
    ``after`` on (see _robin_remainder): P_i = (x + d_i)^e_i as a double, the
    weight float(C(order + m - 1, m)), the weight ratio (order + m)/(m + 1),
    the polynomials' growth ((x + stride + d_min)/(x + d_min))^e_max to the
    next mode (1.0 where e_max = 0, inf where x + d_min = 0 < e_max) and the
    rounding count 4m + fixed, with _mode_form's stride, order and fixed and
    _growth's e_max and d_min.
    """
    first, stride, order, fixed = _mode_form(k)
    e_max, d_min = _growth(parts)
    (_, d1, e1), (_, d2, e2), (_, d4, e4) = parts
    m = first if after is None else after[0] + 1
    binom = math.comb(order + m - 1, m)  # exact
    while True:
        x = stride * m
        low = x + d_min
        # where a value is 1 the row holds the constant 1.0, one object that
        # every row shares, which keeps the stored tables small
        if not e_max:
            growth = 1.0
        elif low:
            growth = ((low + stride) / low) ** e_max
        else:  # the polynomials of least d vanish at this mode
            growth = math.inf
        yield (
            m,
            float((x + d1) ** e1) if e1 else 1.0,
            float((x + d2) ** e2) if e2 else 1.0,
            float((x + d4) ** e4) if e4 else 1.0,
            float(binom) if binom != 1 else 1.0,
            (order + m) / (m + 1),
            growth,
            float(4 * m + fixed),
        )
        binom = binom * (order + m) // (m + 1)
        m += 1


# what differs between one radius (_SCALAR) and an array of radii (_GRID),
# chosen once by _robin_series or _green_split and passed down: the
# elementwise functions, math's or numpy's; the errors of log q, per |log q|,
# and of each exp or expm1 (see _image_units) and the units that each numpy
# power or log adds (0 at one radius), in units of the unit roundoff; the
# Robin-family mode stream and the splice of its image rows (see
# _remainder_rows); and the image indices j that _image_rows reads
_Tools = collections.namedtuple(
    "_Tools",
    "exp expm1 log frexp ldexp maximum log_units exp_units numpy_units modes imaged js",
)


def _robin_starts(k: int, a: float, r, tools: _Tools):
    """(b1, b4, starts, env_k, step): the per-radius constants of a
    Robin-family remainder (see _robin_remainder) at r, a float or an array
    of radii as ``tools`` says.  b1 = r a and b4 = a^2 / r are the image
    bases, the starts are s_i = c_i A_0 = (a^k, (a^2/r)^k, (a/r)^(2k)),
    env_k = 1/(1 - A_first) bounds every 1/(1 - A_m), and step =
    a^2 max(r^2, a^2/r^2) bounds the images' shrinking per mode.
    """
    return (
        r * a,
        a * a / r,
        (a**k, (a * a / r) ** k, (a / r) ** (2 * k)),
        -1.0 / math.expm1((k + 2 * _mode_form(k)[0]) * math.log(a)),
        a * a * tools.maximum(r * r, (a / r) ** 2),
    )


def _framed_images(bases, starts, powers, polys, tools: _Tools):
    """(w, top): the images s_i b_i^n_i P_i of a Robin-family remainder mode
    as w_i 2^top, for a mode whose direct images sum below _FRAME_BELOW; with
    _GRID's tools every argument may be an array of entries.

    frexp splits each base into f 2^e and each start into g 2^h, both
    exactly, and w_i = g f^n P_i 2^(n e + h - top) rounds as s b^n P_i does:
    the power once, each product once, so the rounding rows stand.  top is
    the largest n e + h of a nonzero image, so the largest w_i is at least
    2^-(n+1) P_i: every step stays in the normal range while n (2m, or 4m
    for the image of a^2) stays under about 1000, and only a row that is
    itself subnormal rounds when it is scaled back by 2^top.  An image scaled
    below the normal range errs by at most 2^-1074 in the frame, far below
    the unit roundoff of the largest.  A vanished image is moved 2^30 down
    so that it never sets top; where every image vanishes the row is zero
    whatever top is.
    """
    frexp, ldexp = tools.frexp, tools.ldexp
    ws, tops = [], []
    for b, s, n, p in zip(bases, starts, powers, polys):
        f, e = frexp(b)
        g, h = frexp(s)
        ws.append(g * f**n * p)
        tops.append(n * e + h)
    top = functools.reduce(tools.maximum, [t - (w == 0.0) * 2**30 for w, t in zip(ws, tops)])
    return [ldexp(w, t - top) for w, t in zip(ws, tops)], top


def _robin_remainder(k: int, a: float, r: float, scale: float, parts):
    """Remainder modes of a split diagonal series in R^n, k = n - 2 >= 1, or
    in the plane, k = 0.

    The full series is scale * sum_m w(m) sum_i P_i(m) c_i x_i^m / (1 - A_m)
    over the images x_1 = r^2, x_2 = a^2, x_4 = a^2/r^2, with c_1 = 1,
    c_2 = (a/r)^k, c_4 = (a/r^2)^k and A_m = a^(k+2m).  ``parts`` holds
    (coef, d, e) per image, in that order, for P_i(m) = coef (x + d)^e.  The
    modes m, their arguments x and their weights w(m) are _mode_form's:
    m >= 0, x = m and w(m) = C(k+m-1, m) in R^n, where every d >= 0, and
    m >= 1, x = 2m and w(m) = 1 in the plane.  Writing
    1/(1 - A) = 1 + A/(1 - A) gives a closed form plus this remainder, whose
    products s_i = c_i x_i^m A_m shrink by at most a^2 max(r^2, a^2/r^2) <= a^2
    per mode wherever r lies.  Each s_i is a product of powers of numbers in
    (0, 1), so nothing overflows before the true terms do.

    Each row's rounding allowance bounds its mode's rounding error to first
    order, in units of the unit roundoff and relative to the sum of the
    absolute values of its parts.  The s_i (x + d_i)^e_i are products of
    powers of bases with at most two roundings: 4m + 2k + 4, or 4m + 3 in the
    plane, whose starts are 1.  1 - A_m is -expm1((k+2m) log a), which errs
    by 4 since |y| e^y / (1 - e^y) <= 1 for y < 0.  The binomial's
    conversion, the prefactor, the mode's products and sums and the
    compensated sum add 12, or 10 in the plane, whose weights are 1.  A mode
    thus rounds by at most 4m + 20 + 2k units in R^n and 4m + 17 in the plane.
    A mode deep enough that its powers may leave the normal range is formed
    in _framed_images' binary frame, which keeps these counts.
    """
    (c1, _, _), (c2, _, _), (c4, _, _) = parts
    abs_c1, abs_c2, abs_c4 = abs(c1), abs(c2), abs(c4)
    expm1, ldexp = math.expm1, math.ldexp
    log_a = math.log(a)
    b1, b4, (s1_0, s2_0, s4_0), env_k, step = _robin_starts(k, a, r, _SCALAR)
    below = _FRAME_BELOW
    for m, p1, p2, p4, weight, ratio, growth, units in _mode_table(_robin_modes, k, parts):
        # s_i (x + d_i)^e_i, so that P_i(m) s_i = coef_i w_i
        w1 = s1_0 * b1 ** (2 * m) * p1
        w2 = s2_0 * a ** (4 * m) * p2
        w4 = s4_0 * b4 ** (2 * m) * p4
        inv = -1.0 / expm1((k + 2 * m) * log_a)
        sb = scale * weight
        # weight, power and polynomial growth of the envelope, each
        # nonincreasing in m
        rho = ratio * step * growth
        if w1 + w4 >= below:  # w2 is the least image
            size = abs(sb) * (abs_c1 * w1 + abs_c2 * w2 + abs_c4 * w4)
            yield (
                sb * (c1 * w1 + c2 * w2 + c4 * w4) * inv,
                size * env_k,
                rho,
                size * inv * units,
            )
        else:  # the same row, formed as w_i 2^top and scaled back at the end
            n = 2 * m
            (w1, w2, w4), top = _framed_images(
                (b1, a, b4), (s1_0, s2_0, s4_0), (n, 2 * n, n), (p1, p2, p4), _SCALAR
            )
            size = abs(sb) * (abs_c1 * w1 + abs_c2 * w2 + abs_c4 * w4)
            yield (
                ldexp(sb * (c1 * w1 + c2 * w2 + c4 * w4) * inv, top),
                ldexp(size * env_k, top),
                rho,
                ldexp(size * inv * units, top),
            )


def _robin_remainder_grid(k: int, a: float, r, scale, parts):
    """_robin_remainder for an array of radii (and of scales, in the plane),
    in chunks of summation.TABLE_MODES modes as sum_series_table reads them.

    The per-mode factors that do not depend on r (a^(4m), 1/(1 - A_m) and
    the shape table's rows) are _robin_remainder's own scalars; the powers
    b^(2m) and the starts s_2, s_4 of every radius are numpy's, in the same
    order of operations.  w_4 holds two of them, so the rounding row adds
    2 _NUMPY_EXTRA to _robin_remainder's count; in the plane, where the
    starts are 1, it adds one.  The entries below _FRAME_BELOW are formed
    again in _framed_images' frame, with _GRID's tools.
    """
    (c1, _, _), (c2, _, _), (c4, _, _) = parts
    abs_c1, abs_c2, abs_c4 = abs(c1), abs(c2), abs(c4)
    expm1 = math.expm1
    log_a = math.log(a)
    extra = (2.0 if k else 1.0) * _NUMPY_EXTRA
    b1, b4, (s1_0, s2_0, s4_0), env_k, step = _robin_starts(k, a, r, _GRID)
    rows = iter(_mode_table(_robin_modes, k, parts))
    modes = summation.TABLE_MODES
    while True:
        ms, *columns = zip(*itertools.islice(rows, modes))
        p1, p2, p4, weights, ratios, growths, counts = map(_column, columns)
        counts += extra
        inv = _column(-1.0 / expm1((k + 2 * m) * log_a) for m in ms)
        sb, m = scale * weights, _column(ms)
        w1 = s1_0 * b1 ** (2.0 * m) * p1
        w2 = s2_0 * _column(a ** (4 * m) for m in ms) * p2
        w4 = s4_0 * b4 ** (2.0 * m) * p4
        size = np.abs(sb) * (abs_c1 * w1 + abs_c2 * w2 + abs_c4 * w4)
        term = sb * (c1 * w1 + c2 * w2 + c4 * w4) * inv
        env = size * env_k
        units = size * inv * counts
        low = w1 + w4 < _FRAME_BELOW
        if low.any():  # _robin_remainder's frame, at those entries alone
            i, j = np.nonzero(low)
            n = 2 * np.array(ms)[i]
            (w1, w2, w4), top = _framed_images(
                (b1[j], a, b4[j]),
                (s1_0, s2_0[j], s4_0[j]),
                (n, 2 * n, n),
                [p[i, 0] for p in (p1, p2, p4)],
                _GRID,
            )
            sb_l, inv_l = np.broadcast_to(sb, low.shape)[i, j], inv[i, 0]
            size = np.abs(sb_l) * (abs_c1 * w1 + abs_c2 * w2 + abs_c4 * w4)
            term[i, j] = np.ldexp(sb_l * (c1 * w1 + c2 * w2 + c4 * w4) * inv_l, top)
            env[i, j] = np.ldexp(size * env_k, top)
            units[i, j] = np.ldexp(size * inv_l * counts[i, 0], top)
        yield term, env, ratios * step * growths, units


def _image_route(a: float, policy: TruncationPolicy, parts) -> bool:
    """Whether a Robin-family remainder is summed through _image_rows.

    The remainder's modes shrink like a^(2m), so the mode series is predicted
    to need more than _SWITCH_MODES modes where abs_tol < a^(2 _SWITCH_MODES).
    The prediction reads a and abs_tol only, so every radius of a geometry
    takes the same route.  The route needs more than _HEAD_MODES terms and
    polynomial weights: the 1/m weights of robin2d_eval have no elementary
    image sum.
    """
    return (
        policy.abs_tol < a ** (2 * _SWITCH_MODES)
        and policy.max_terms > _HEAD_MODES
        and min(e for c, _, e in parts if c) >= 0
    )


@functools.lru_cache(maxsize=256)
def _image_weights(k: int, d: int, e: int, m0: int) -> tuple[float, ...]:
    """The forward differences D^s f(0), highest s first, of the mode weight
    f(l) = w(m0 + l), where w(m) = C(k+m-1, m) (m + d)^e for k >= 1 and
    w(m) = (2m + d)^e in the plane (k = 0): the weight and the polynomial
    argument of _robin_remainder's mode m.

    f is a polynomial of degree order - 1 + e (see _mode_form), so Newton's
    forward formula and sum_l C(l, s) q^l = q^s / (1 - q)^(s+1) give
    sum_{m >= m0} w(m) q^m = q^m0 / (1 - q) sum_s D^s f(0) z^s with
    z = q / (1 - q).  Every difference is an integer >= 0: the binomial's are
    C(k+m0-1, k-1-s) (Vandermonde), and (m0 + d + l)^e, or (2m0 + d + 2l)^e
    in the plane, has nonnegative coefficients in the basis C(l, s) where its
    constant term is >= 0, as it is for every part here.
    """
    _, stride, order, _ = _mode_form(k)
    degree = e + order - 1
    f = [
        math.comb(order + m - 1, m) * (stride * m + d) ** e
        for m in range(m0, m0 + degree + 1)
    ]
    diffs = []
    while f:
        diffs.append(f[0])
        f = [y - x for x, y in zip(f, f[1:])]
    return tuple(float(x) for x in reversed(diffs))


def _image_units(k: int, degree: int, m0: int, e_y: float, t: float) -> tuple[float, float]:
    """(fixed, slope): an image piece rounds by at most fixed + slope |log q|
    units of itself, as _image_rows computes it, when log q errs by at most
    e_y |log q| units and each exp or expm1 by t.

    The start s_i, a k-th power of a base with two roundings, takes 2k + t,
    and the prefactor scale coef_i s_i 5 more; 1 - q = -expm1(log q) errs by
    e_y + t, as |y| e^y / (1 - e^y) <= 1 for y < 0; z = q / (1 - q) by
    e_y |log q| + e_y + 2t + 1; the Horner sum of degree D with nonnegative
    weights by D times z's error plus 2D + 1; the exponent
    (j-1) k log a + m0 log q by (2.5k + m0 (e_y + 2)) |log q| absolutely,
    with j k |log a| <= k |log q| / 2; its exp, the division and the two
    products add t + 3, and the sum over the images and the compensated sum 4.
    """
    return (
        2 * k + 3 * t + e_y + 13 + degree * (e_y + 2 * t + 3),
        2.5 * k + m0 * (e_y + 2) + degree * e_y,
    )


def _images(k: int, a: float, r, scale, parts, m0: int, tools: _Tools):
    """Per image with a nonzero coefficient: scale coef_i s_i, log x_i, the
    weights of _image_weights and the (fixed, slope) counts of _image_units.

    s_i = c_i a^k is _robin_remainder's start (1 in the plane, see
    _robin_starts), and log x_i = (2 log r, 2 log a, 2 (log a - log r)), with
    the log of ``tools``.
    """
    la, lr = math.log(a), tools.log(r)
    starts = _robin_starts(k, a, r, tools)[2]
    logs = (2.0 * lr, 2.0 * la, 2.0 * (la - lr))
    e_y, t = tools.log_units, tools.exp_units
    out = []
    for (coef, d, e), start, log_x in zip(parts, starts, logs):
        if coef:
            weights = _image_weights(k, d, e, m0)
            degree = len(weights) - 1
            out.append((scale * coef * start, log_x, weights, *_image_units(k, degree, m0, e_y, t)))
    return out


def _image_rows(k: int, a: float, r, scale, parts, m0: int, tools: _Tools):
    """The modes m >= m0 of a Robin-family remainder, summed over m as rows of
    images j = 1, 2, ..., which tools.js() yields in turn.

    The remainder is scale sum_m w_i(m) coef_i c_i x_i^m A_m / (1 - A_m) over
    the images of _robin_remainder (in the plane, k = 0, c_i = 1 and
    A_m = a^(2m)), with w_i the weights of _image_weights.  As
    A_m / (1 - A_m) = sum_{j >= 1} A_m^j and A_m^j = a^(jk) a^(2jm), its modes
    m >= m0 equal sum_j scale a^(jk) sum_i coef_i c_i Q_i(x_i a^(2j)) with
    Q_i(q) = sum_{m >= m0} w_i(m) q^m, which _image_weights sums in closed
    form.  Row j is the j-th term of that sum.  Each Q_i has nonnegative
    terms, so Q_i(q a^2) <= a^(2 m0) Q_i(q) and the rows' envelopes shrink
    by the constant ratio a^(k + 2 m0), which every row carries.

    q = x_i a^(2j) is carried as its log, y = log x_i + 2j log a, and 1 - q
    as -expm1(y), so nothing cancels next to a sphere or as a -> 1.
    c_i a^(jk) q^m0 = s_i exp((j-1) k log a + m0 y) with s_i <= 1.  Each
    row's rounding allowance adds up _image_units over its images.

    At one radius the tools are _SCALAR's and j the integers 1, 2, ..., and
    y errs by at most 8 |y| units.  At an array of radii they are _GRID's and
    j a column of summation.TABLE_MODES indices per chunk, each row a
    (j x radii) table in which y errs by 10 |y| units and each numpy power,
    exp or expm1 by _NUMPY_EXTRA more; _imaged_grid spreads its ratio over
    the chunk.
    """
    ratio = a ** (k + 2 * m0)
    la = math.log(a)
    two_la, k_la = 2.0 * la, k * la
    images = _images(k, a, r, scale, parts, m0, tools)
    exp, expm1 = tools.exp, tools.expm1
    for j in tools.js():
        shift = (j - 1) * k_la
        term = env = units = 0.0
        for start, log_x, weights, fixed, slope in images:
            y = log_x + j * two_la
            w = -expm1(y)
            z = exp(y) / w
            p = 0.0
            for c in weights:
                p = p * z + c
            g = exp(shift + m0 * y) / w * p
            term = term + start * g
            size = abs(start) * g
            env = env + size
            units = units + size * (fixed - slope * y)
        yield term, env, ratio, units


def _imaged(rows, images):
    """The first _HEAD_MODES rows of a mode stream, with ratio inf so that
    they never stop the sum, then the image rows of the deeper modes."""
    inf = math.inf
    for term, env, _, units in itertools.islice(rows, _HEAD_MODES):
        yield term, env, inf, units
    yield from images


def _imaged_grid(chunks, images):
    """_imaged for a grid twin's chunks: the first _HEAD_MODES rows, cut from
    whole chunks, then the image chunks, each ratio spread over its chunk."""
    left = _HEAD_MODES
    for term, env, rho, units in chunks:
        rows = min(left, len(term))
        yield term[:rows], env[:rows], np.full(rho[:rows].shape, math.inf), units[:rows]
        left -= rows
        if not left:
            break
    for term, env, ratio, units in images:
        yield term, env, np.full(term.shape, ratio), units


def _image_columns():
    """The image indices j = 1, 2, ... as one column of summation.TABLE_MODES
    of them per chunk, as sum_series_table reads a grid twin's rows."""
    modes = summation.TABLE_MODES
    return (_column(range(j0, j0 + modes)) for j0 in itertools.count(1, modes))


_SCALAR = _Tools(
    exp=math.exp, expm1=math.expm1, log=math.log, frexp=math.frexp, ldexp=math.ldexp,
    maximum=max, log_units=8.0, exp_units=2.0, numpy_units=0.0,
    modes=_robin_remainder, imaged=_imaged, js=functools.partial(itertools.count, 1),
)
_GRID = _Tools(
    exp=np.exp, expm1=np.expm1, log=np.log, frexp=np.frexp, ldexp=np.ldexp,
    maximum=np.maximum, log_units=10.0, exp_units=2.0 + _NUMPY_EXTRA, numpy_units=_NUMPY_EXTRA,
    modes=_robin_remainder_grid, imaged=_imaged_grid, js=_image_columns,
)


def _remainder_rows(k: int, a: float, r, scale, parts, images: bool, tools: _Tools):
    """The rows of a Robin-family remainder (planar for k = 0): its modes, or
    with ``images`` its first _HEAD_MODES modes and then the image rows of
    the rest.  With _GRID's tools, for an array of radii (and of scales, in
    the plane), the rows come in the grid twins' chunks, as sum_series_table
    reads them."""
    rows = tools.modes(k, a, r, scale, parts)
    if not images:
        return rows
    m0 = _HEAD_MODES + _mode_form(k)[0]
    return tools.imaged(rows, _image_rows(k, a, r, scale, parts, m0, tools))


def _robin_closed(k, a, r, u, v, w, log):
    # [(1-r^2)^-k + a^k (r^2-a^2)^-k - 2 (a/r)^k (1-a^2)^-k] / k; a k-th power
    # of a base with b roundings errs by b k + 1 ulps, and here b <= 5; the
    # sum and the division by omega add 3
    return (u**-k / k, (a / v) ** k / k, -2.0 * (a / (r * w)) ** k / k), 5 * k + 5, 0, 1


def _gradient_closed(k, a, r, u, v, w, log):
    # 2 [r^2 (1-r^2)^(-k-1) - a^k r^2 (r^2-a^2)^(-k-1) + (a/r)^k (1-a^2)^-k];
    # counted as _robin_closed, with at most 6 roundings around the powers
    return (
        2.0 * (r * r) * u ** (-k - 1),
        -2.0 * (a / v) ** k * (r * r / v),
        2.0 * (a / (r * w)) ** k,
    ), 5 * k + 10, 0, 1


def _slope_closed(k, a, r, u, v, w, log):
    # d/dr of _gradient_closed; as there, with 13 roundings around the powers
    return (
        4.0 * r * (1.0 + k * (r * r)) * u ** (-k - 2),
        4.0 * r * (a * a + k * (r * r)) * (a / v) ** k / (v * v),
        -2.0 * k * (a / (r * w)) ** k / r,
    ), 5 * k + 17, 0, 1


def _robin2d_closed(k, a, r, u, v, w, log):
    # -log^2 r / log a plus the three images, each by sum_m x^m/m = -log(1 - x);
    # each log errs by its argument's 3-5 roundings absolutely, plus one ulp;
    # log^2 r squares a log of r, hence two radius factors
    return (
        -log(r) ** 2 / math.log(a),
        -log(u),
        2.0 * math.log(w),
        -log(v / (r * r)),
    ), 8, 14, 2


def _robin2d_first_closed(k, a, r, u, v, w, log):
    # the derivative of _robin2d_closed
    return (-2.0 * log(r) / (r * math.log(a)), 2.0 * r / u, -2.0 * (a * a) / (r * v)), 8, 0, 1


def _robin2d_second_closed(k, a, r, u, v, w, log):
    # the derivative of _robin2d_first_closed
    r2 = r * r
    return (
        -2.0 * (1.0 - log(r)) / (r2 * math.log(a)),
        2.0 * (1.0 + r2) / (u * u),
        2.0 * (a * a) * (3.0 * r2 - a * a) / (r2 * (v * v)),
    ), 20, 0, 1


class _Series(NamedTuple):
    """A Robin-family series, as _robin_series sums it.

    ``closed(k, a, r, u, v, w, log)`` returns (pieces, ulps, absolute units,
    radius factors): the closed form is the sum of the pieces and rounds by
    at most ulps units of their summed magnitudes plus the absolute units,
    and on the grid path each radius factor adds _NUMPY_EXTRA to ulps.
    u = 1 - r^2, v = r^2 - a^2 and w = 1 - a^2 come as (p - q)(p + q).
    """

    closed: Callable
    # (k, r) -> the remainder's prefactor, before the normalisation, and its
    # parts (coef, d, e) as _robin_remainder takes them
    remainder: Callable


# every Robin-family series; the planar mode weights are
# (x_1^m - 2 x_2^m + x_4^m) / m and their derivatives, with 1/m = 2 (2m)^-1
_SERIES = {
    "robin_eval": _Series(_robin_closed, lambda k, r: (1.0, ((1, 0, 0), (-2, 0, 0), (1, 0, 0)))),
    "robin_radial_gradient": _Series(
        _gradient_closed, lambda k, r: (2.0, ((1, 0, 1), (k, 0, 0), (-1, k, 1)))
    ),
    "robin_radial_gradient_derivative": _Series(
        _slope_closed, lambda k, r: (2.0 / r, ((2, 0, 2), (-k * k, 0, 0), (2, k, 2)))
    ),
    "robin2d_eval": _Series(
        _robin2d_closed, lambda k, r: (1.0, ((2, 0, -1), (-4, 0, -1), (2, 0, -1)))
    ),
    "robin2d_first": _Series(
        _robin2d_first_closed, lambda k, r: (2.0 / r, ((1, 0, 0), (0, 0, 0), (-1, 0, 0)))
    ),
    "robin2d_second": _Series(
        _robin2d_second_closed, lambda k, r: (2.0 / (r * r), ((1, -1, 1), (0, 0, 0), (1, 1, 1)))
    ),
}


def _normalised(series: _Series, geom: AnnulusGeometry, r, tools: _Tools):
    """The closed form of ``series`` at r, its rounding bound, and its
    remainder's prefactor and parts, in the family's normalisation: for
    n >= 3 the closed form times -1/omega and the prefactor over -k omega, in
    the plane both as they are.  r is a float with _SCALAR's tools, or an
    array of radii with _GRID's.
    """
    k, a = geom.n - 2, geom.a
    u, v, w = (1.0 - r) * (1.0 + r), (r - a) * (r + a), (1.0 - a) * (1.0 + a)
    pieces, ulps, absolute, factors = series.closed(k, a, r, u, v, w, tools.log)
    ulps += factors * tools.numpy_units
    closed, rounding = sum(pieces), _U * (absolute + ulps * sum(map(abs, pieces)))
    scale, parts = series.remainder(k, r)
    if not k:
        return closed, rounding, scale, parts
    omega = geom.omega
    return -closed / omega, rounding / omega, -scale / (k * omega), parts


def _robin_series(series: _Series, geom, r, policy: TruncationPolicy):
    """A Robin-family series of either dimension at r, or at every radius of
    an array r as one table: its closed form plus its remainder (k = n - 2,
    0 in the plane), summed through images where _image_route holds.
    ``geom`` is a spatial series' geometry, n >= 3, or as the planar
    evaluators take it the inner radius a of a planar annulus."""
    if isinstance(geom, AnnulusGeometry):
        geom.require_series_dim()
    else:
        geom = AnnulusGeometry(2, geom)
    r = geom.require_interior_radius(r)
    k, a = geom.n - 2, geom.a
    try:
        if isinstance(r, np.ndarray):
            with np.errstate(all="ignore"):  # an overflow shows as a non-finite value
                closed, rounding, scale, parts = _normalised(series, geom, r, _GRID)
                route = _image_route(a, policy, parts)

                def table(cols):  # in the plane a prefactor may vary with r
                    sc = scale[cols] if np.ndim(scale) else scale
                    return _remainder_rows(k, a, r[cols], sc, parts, route, _GRID)

                res = sum_series_table(table, r.size, policy)
        else:
            closed, rounding, scale, parts = _normalised(series, geom, r, _SCALAR)
            route = _image_route(a, policy, parts)
            res = sum_series(_remainder_rows(k, a, r, scale, parts, route, _SCALAR), policy, closed)
    except (OverflowError, ZeroDivisionError):
        raise TailEnvelopeError(
            f"the Robin series for n = {k + 2} leaves the double-precision range here: "
            "its closed form or its modes overflow"
        ) from None
    return _split_result(closed, rounding, res, geom.omega_rel_error if k else 0.0)


def _scalar_radius(r):
    """A scalar evaluator's radius: a 0-d array becomes a float, so that
    _robin_series takes its scalar path, and an array with a dimension is
    refused.  Numpy scalars pass; require_interior_radius makes them floats."""
    if isinstance(r, np.ndarray):
        if r.ndim:
            raise DomainValidationError(
                f"expected a scalar radius, got an array of shape {r.shape}"
            )
        return float(r)
    return r


def robin_eval(geom: AnnulusGeometry, r: float, policy: TruncationPolicy) -> EvalResult:
    """Robin function (diagonal regular part of the Green function) at radius r.

    Negative on (a, 1) and divergent toward both boundary spheres.  The
    divergence sits in the two-image closed form, so the remainder needs
    about as many modes next to a sphere as in the middle of the gap.
    """
    return _robin_series(_SERIES["robin_eval"], geom, _scalar_radius(r), policy)


def robin_radial_gradient(
    geom: AnnulusGeometry, r: float, policy: TruncationPolicy
) -> EvalResult:
    """The radial combination r * R'(r) of the Robin function.

    Strictly decreasing in r, +inf toward the inner sphere and -inf toward
    the outer sphere, so its unique zero is the radial critical point.
    """
    return _robin_series(_SERIES["robin_radial_gradient"], geom, _scalar_radius(r), policy)


def robin_eval_grid(geom: AnnulusGeometry, radii, policy: TruncationPolicy) -> EvalGrid:
    """robin_eval at every radius of ``radii``, summed as one table.

    Each entry stays inside robin_eval's bound and matches its terms used and
    convergence; values may differ from robin_eval's by ulps.
    """
    return _robin_series(_SERIES["robin_eval"], geom, np.asarray(radii, dtype=float), policy)


def robin_radial_gradient_grid(
    geom: AnnulusGeometry, radii, policy: TruncationPolicy
) -> EvalGrid:
    """robin_radial_gradient at every radius of ``radii``, summed as one table,
    with robin_eval_grid's contract."""
    radii = np.asarray(radii, dtype=float)
    return _robin_series(_SERIES["robin_radial_gradient"], geom, radii, policy)


def critical_equation_eval(
    geom: AnnulusGeometry, r: float, policy: TruncationPolicy
) -> EvalResult:
    """The concentration-radius root equation: the radial gradient times
    -omega/2.  Shares its unique zero with robin_radial_gradient."""
    return robin_radial_gradient(geom, r, policy).scaled(-0.5 * geom.omega)


def robin_radial_gradient_derivative(
    geom: AnnulusGeometry, r: float, policy: TruncationPolicy
) -> EvalResult:
    """Derivative in r of the radial gradient r * R'(r); negative on (a, 1)."""
    series = _SERIES["robin_radial_gradient_derivative"]
    return _robin_series(series, geom, _scalar_radius(r), policy)


def robin2d_eval(a: float, r: float, policy: TruncationPolicy) -> EvalResult:
    """Planar Robin function: -log^2 r / log a plus the mode series.

    Divergent (to +inf) toward both circles; strictly convex inside, so its
    unique critical point is a radial minimum.
    """
    return _robin_series(_SERIES["robin2d_eval"], a, _scalar_radius(r), policy)


def robin2d_first(a: float, r: float, policy: TruncationPolicy) -> EvalResult:
    """Derivative of the planar Robin function; -inf at the inner circle,
    +inf at the outer circle, with a single interior zero."""
    return _robin_series(_SERIES["robin2d_first"], a, _scalar_radius(r), policy)


def robin2d_eval_grid(a: float, radii, policy: TruncationPolicy) -> EvalGrid:
    """robin2d_eval at every radius of ``radii``, summed as one table, with
    robin_eval_grid's contract."""
    return _robin_series(_SERIES["robin2d_eval"], a, np.asarray(radii, dtype=float), policy)


def robin2d_first_grid(a: float, radii, policy: TruncationPolicy) -> EvalGrid:
    """robin2d_first at every radius of ``radii``, summed as one table, with
    robin_eval_grid's contract."""
    return _robin_series(_SERIES["robin2d_first"], a, np.asarray(radii, dtype=float), policy)


def robin2d_second(a: float, r: float, policy: TruncationPolicy) -> EvalResult:
    """Second derivative of the planar Robin function; positive on all of (a, 1)."""
    return _robin_series(_SERIES["robin2d_second"], a, _scalar_radius(r), policy)


class _Radial(NamedTuple):
    """The Robin family of one dimension (see _radial).  Each series takes
    (r, policy), each grid twin (radii, policy)."""

    value: Callable  # the Robin function R(r)
    value_grid: Callable
    gradient: Callable  # the solved gradient: r R'(r) for n >= 3, R'(r) for n = 2
    gradient_grid: Callable
    slope: Callable  # the gradient's derivative in r
    closed: Callable  # r -> the value and slope of the gradient's closed part
    d: Callable  # r -> d(r), with R'(r) = gradient / d(r)
    name: str  # the gradient, as a solver's method names it


def _radial(geom: AnnulusGeometry) -> _Radial:
    """The Robin family of the geometry's dimension: the one place that
    chooses between the spatial series (n >= 3) and the planar ones.

    Each series is the public evaluator it stands for, as this module's
    namespace holds it when the family is built, bound to the geometry.  A
    wrapper installed there (a tracer, a test's counter) therefore sees the
    calls of families built after it: build one per use and keep none.
    ``closed`` is the part of the gradient and of its slope that the series
    split off in closed form (their _SERIES closed forms, times -1/omega for
    n >= 3), computed in floats only.
    """
    a, k = geom.a, geom.n - 2
    if k:
        first, d, name = geom, lambda r: r, "r*R'(r)"
        value, value_grid = robin_eval, robin_eval_grid
        gradient, gradient_grid = robin_radial_gradient, robin_radial_gradient_grid
        slope = robin_radial_gradient_derivative
        closed_forms = ("robin_radial_gradient", "robin_radial_gradient_derivative")
    else:
        first, d, name = a, lambda r: 1.0, "R'(r)"
        value, value_grid = robin2d_eval, robin2d_eval_grid
        gradient, gradient_grid = robin2d_first, robin2d_first_grid
        slope = robin2d_second
        closed_forms = ("robin2d_first", "robin2d_second")
    gradient_closed, slope_closed = (_SERIES[s].closed for s in closed_forms)

    def closed(r: float) -> tuple[float, float]:
        # formed per call, not when the family is built: omega underflows to
        # 0 for n >= 456, where the series raise TailEnvelopeError first
        scale = -1.0 / geom.omega if k else 1.0
        u, v, w = (1.0 - r) * (1.0 + r), (r - a) * (r + a), (1.0 - a) * (1.0 + a)
        part = sum(gradient_closed(k, a, r, u, v, w, math.log)[0])
        return scale * part, scale * sum(slope_closed(k, a, r, u, v, w, math.log)[0])

    evaluators = (value, value_grid, gradient, gradient_grid, slope)
    return _Radial(*(functools.partial(f, first) for f in evaluators), closed, d, name)

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
split by the identity 1/(1 - A_m) = 1 + A_m + A_m^2/(1 - A_m),
A_m = a^(2m+n-2), whose first two terms, the A-free part and the first layer
of the Kelvin image series A_m/(1 - A_m) = sum_j A_m^j, sum in closed form.
The A-free part carries the divergence at both spheres: four Kelvin images
through the Gegenbauer generating function
sum_m q^m P_m(t) = (1 - 2qt + q^2)^(-(n-2)/2) for green_eval, two images
through sum_m C(k+m-1, m) x^m = (1 - x)^-k for the Robin family (and
sum_m x^m/m = -log(1 - x) in the plane).  Every difference next to a sphere
is formed as (p - q)(p + q), so no r^2 - a^2 or 1 - r^2 cancels.  The first
layer, the A_m-part, sums the same way at image arguments X <= a^2, far from
any pole: four more images for green_eval (_green_layer), one closed form per
image for each Robin-family series (_robin_layer, whose 1 - X are products of
nonnegative factors).  Each piece carries its own rounding count, and
_with_layer adds the layer and its count to the closed part.  One generator,
_robin_remainder, yields the remainder modes of every Robin-family series:
the plane is its k = 0 member, the family's limit in which the binomial
weights become the log kernel's 1/m (see _mode_form).  The remainder's term
ratio is at most a^4 wherever the points lie, so it takes as many modes next
to a sphere as mid-gap: about ten for a up to 0.5 at tol 1e-10, and
5/(1 - a) to 8/(1 - a) as a approaches 1 (6 700 to 8 200 at a = 0.999).
Its products are powers of numbers in (0, 1) and overflow only where the
value itself leaves the double range, which raises TailEnvelopeError.  The
reported tail_bound of these series adds a first-order bound on rounding in
the closed part and in the summed modes to the truncation tail: each
remainder row carries its mode's rounding allowance, which summation folds
into the tail.  The closed part goes to sum_series as its ``offset``, so
that a policy with ``rel_tol`` > 0 measures its target against the whole
value.

In a thin annulus the Robin family sums that remainder by images instead
(see _image_route and _image_rows): robin_eval, both gradient series,
robin2d_first, robin2d_second and their grid twins sum the first
_HEAD_MODES remainder modes, then the deeper modes as rows of images, each
row j >= 2 the j-th term of sum_j A_m^j = A_m / (1 - A_m) summed over all
modes m >= _HEAD_MODES in closed form (row 1 is in the closed part).  The
rows shrink by a^(k + 2 _HEAD_MODES), and terms_used counts head modes plus
image rows.  At one radius a relative target that makes the mode series
short takes it back to that series (_relaxed_modes), but never where a
caller could read the relaxed sum as the absolute one.  robin2d_eval keeps
its modes: its 1/m weights have no elementary sum over m.  One generator,
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
mode tables of specfun (see its docstring): one stored tuple per shape of
the rows its streams have read, up to specfun._STORED_MODES = 1024, and at
most specfun._SHAPES shapes, least recently used first out.
_green_remainder, its grid twin and _modal_rows read the Gegenbauer table
of lam = k/2: the ratio (k+m)/(m+1), the binomial C(k+m-1, m) and the
recurrence constants.  Every Robin-family remainder reads the table of its
shape (k, parts), whose rows _robin_modes builds: per mode m, the
polynomials (x + d_i)^e_i, the weight float(C(order+m-1, m)), the weight
ratio, the polynomials' growth to the next mode and the rounding count
6m + fixed.  _robin_remainder and its grid twin both read it, so neither
keeps its own copy of that arithmetic.  A row holds the doubles the streams
computed per call before, so every value, tail bound and term count is
unchanged bit for bit.

green_piecewise_eval stays the unsplit modal series on purpose: its split
would be the same computation as green_eval's, and it serves as the
independent route that green_eval is checked against.

Every split remainder contracts by at most a^4 per mode at every radius, so
a grid of radii can share one mode loop.  The grid evaluators
robin_eval_grid, robin_radial_gradient_grid, robin2d_eval_grid,
robin2d_first_grid and grid._green_slice sum their remainders as one
(modes x radii) table with grid.sum_series_table.  Only _robin_series and
_green_split choose between one radius and an array, and they pass the
choice down as a _Tools value (_SCALAR, or grid.TOOLS); the geometry checks
both by one rule.  Their array branches import the grid module, and numpy
with it, at the first grid evaluation.  Every formula outside the per-mode
loops is written once, here: the closed forms, the remainders' starts
(_robin_starts, _green_starts), the image rows and the binary frame
(_framed_images).  The loops of _robin_remainder and _green_remainder keep
twins in the grid module (see its docstring), as sum_series keeps
sum_series_table: a helper call per mode would slow the scalar path.  A
single point keeps the scalar path, whose fixed cost is far below a table's.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
from typing import Callable, NamedTuple

from .core import (
    AnnulusGeometry,
    ArrayLike,
    DomainValidationError,
    EvalGrid,
    EvalResult,
    SingularityError,
    TailEnvelopeError,
    TruncationPolicy,
    is_numpy,
)
from .specfun import _clamp_argument, _gegenbauer_modes, _inverse_sine, _mode_table
from .summation import _U, sum_series

# below this separation the subtraction against the fundamental solution is
# pure cancellation; callers wanting diagonal values should use robin_eval
NEAR_DIAGONAL = 1e-6


# the image route of the Robin family (see _image_rows): where the mode
# series is predicted to need more than _SWITCH_MODES modes, the remainder
# is summed as its first _HEAD_MODES modes and then as rows of images
_HEAD_MODES = 16
_SWITCH_MODES = 64
# a relative target takes a remainder that abs_tol sends to images back to
# the mode series where that series stops within about this many modes, the
# crossover that scripts/tail_crossover.py --rel measures (see
# _relaxed_modes); 0 never does
_RELATIVE_MODES = 20

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
        import numpy as np

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
# error of a point that _clamped moves onto its sphere, in units of its
# radius: |x| (_E_RADIUS), the quotient r/|x| and each coordinate's product
_E_MOVED = _E_RADIUS + 2.0


def _green_closed(k: int, a: float, lo, hi, t, d, d_units, scale: float, tools: _Tools):
    """The Newtonian term minus the four images of the Green correction and
    its first image layer, times ``scale`` = 1/(k omega), and its rounding
    bound; lo, hi, the cosine t, d and d_units, the relative error of d in
    units of the unit roundoff, are floats, or arrays of them with
    grid.TOOLS (see _Tools).

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

    The closed part also holds the first image layer (see _green_layer),
    the A_m-part of 1/(1 - A_m) = 1 + A_m + A_m^2/(1 - A_m), times scale, as
    _with_layer adds it.
    """
    lam = 0.5 * k
    a2 = a * a
    d2 = d * d
    ad2 = (a * d) ** 2
    ad2_err = ad2 * (2.0 * d_units + 3.0)
    bases = (
        _image_base(
            d2,
            d2 * (2.0 * d_units + 1.0),
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
    # d^-k errs by k d_units units plus the power's two; (c/E)^lam by lam
    # times (E's relative error plus two units for a^2 and the division),
    # plus the power's two
    ulps = newton * (k * d_units + 2.0)
    for sign, c, (base, err) in zip((-1.0, 1.0, 1.0, -1.0), (1.0, a2, a2, a2), bases):
        image = (c / base) ** lam
        pieces.append(sign * image)
        ulps += image * (lam * (err / base + 2.0) + 2.0)
    closed = sum(pieces) * scale
    rounding = _U * scale * (ulps + (7.0 + tools.numpy_units) * sum(abs(p) for p in pieces))
    return _with_layer(closed, rounding, scale, *_green_layer(k, a, lo, hi, t, tools))


def _with_layer(closed, rounding: float, scale, layer, charge):
    """closed + scale * layer and its rounding bound: ``rounding`` plus
    |scale| ``charge`` units of the unit roundoff, where ``charge`` is the
    layer's count of its own rounding and of its sum's and prefactor's (see
    _green_layer and _robin_layer), and one unit of the result for the last
    sum."""
    total = closed + scale * layer
    return total, rounding + _U * (abs(total) + abs(scale) * charge)


# first-order rounding counts of the first image layer, in units of the unit
# roundoff.  Both families: the sums of the layer's pieces and its share of
# the prefactor (three sums of four Green pieces and scale's two roundings
# and product; two sums of three Robin pieces and the Robin prefactor's at
# most three roundings and product)
_LAYER_SUMS = 6.0
# Green (see _green_layer), per image: its sign, the relative error e_Q of
# Q_i, and 2 e_alpha + 5 + e_Q, where the root alpha_i of its start errs by
# e_alpha, with radii that err by _E_RADIUS units
_GREEN_LAYER = tuple(
    (sign, e_q, 2.0 * e_alpha + 5.0 + e_q)
    for sign, e_q, e_alpha in (
        (-1.0, 3.0 + 2.0 * _E_RADIUS, 0.0),
        (1.0, 5.0 + 2.0 * _E_RADIUS, 2.0 + _E_RADIUS),
        (1.0, 5.0 + 2.0 * _E_RADIUS, 2.0 + _E_RADIUS),
        (-1.0, 5.0 + 2.0 * _E_RADIUS, 3.0 + 2.0 * _E_RADIUS),
    )
)


def _green_layer(k: int, a: float, lo, hi, t, tools: _Tools):
    """The first image layer of the Green correction and its charge (see
    _with_layer): lo, hi and t are green_eval's (radii that err by
    _E_RADIUS units, a cosine that errs by _E_COSINE units), floats or
    arrays as ``tools`` says.

    The A_m-part of mode m (see _green_closed) is g_i A_m = c_i a^k Q_i^m with
    Q = (a^2 lo hi, a^4 lo / hi, a^4 hi / lo, a^4 / (lo hi)) <= a^2, the
    factors of the modes in _green_remainder before its split, and c_i a^k =
    alpha_i^k with alpha = (a, a^2 / hi, a^2 / lo, a^2 / (lo hi)).  The
    generating function sums it over m: the layer is
    -(image 1) + image 2 + image 3 - image 4 with

        image i = (alpha_i^2 / E_i)^(k/2),  E_i = (1 - Q_i)^2 + 2 Q_i (1 - t),

    where 1 - Q_i >= 1 - a^2 keeps every E_i away from 0.

    Image i rounds by at most (k/2)(2 e_alpha + 2 + e_E) + 1 units of itself,
    plus tools.numpy_units for a numpy power: alpha_i^2 and the quotient take
    2 e_alpha + 2, and E_i errs by at most
    e_E = e_Q + 3 + 2 Q_i (e_Q (1 - Q_i) + _E_COSINE) / E_i units, where Q_i
    errs by e_Q (_GREEN_LAYER holds e_Q and the constant part): 1 - Q_i and
    its square carry 2 e_Q Q_i (1 - Q_i) + 3 (1 - Q_i)^2 units,
    2 Q_i (1 - t) carries 2 Q_i (1 - t)(e_Q + 2) + 2 Q_i _E_COSINE, and the
    sum rounds once.  The charge adds _LAYER_SUMS to each image's count.
    """
    a2 = a * a
    a4 = a2 * a2
    lo_hi = lo * hi
    lam = 0.5 * k
    two_t = 2.0 * (1.0 - t)
    fixed = 1.0 + tools.numpy_units + _LAYER_SUMS
    layer = charge = 0.0
    for q, alpha, (sign, e_q, e_fixed) in zip(
        (a2 * lo_hi, a4 * lo / hi, a4 * hi / lo, a4 / lo_hi),
        (a, a2 / hi, a2 / lo, a2 / lo_hi),
        _GREEN_LAYER,
    ):
        y = 1.0 - q
        base = y * y + q * two_t
        image = (alpha * alpha / base) ** lam
        layer = layer + sign * image
        e_base = 2.0 * q * (e_q * y + _E_COSINE) / base
        charge = charge + image * (lam * (e_fixed + e_base) + fixed)
    return layer, charge


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
    a3 = a2 * a
    a4 = a2 * a2
    a6 = a4 * a2
    bs = (a4 * (lo * hi), a6 * lo / hi, a6 * hi / lo, a6 / (lo * hi))
    big_a = a**k
    amp = 1.0 / (1.0 - big_a)  # bounds every 1/(1 - A_m)
    units = (
        2.0 + _E_COSINE,
        8.0 + 2.0 * _E_RADIUS + 2.0 * amp,
        (4.0 + 2.0 * _E_RADIUS) * k + 13.0 + amp + tools.numpy_units,
    )
    hs = (a2**k, (a3 / hi) ** k, (a3 / lo) ** k, (a3 / (lo * hi)) ** k)
    return bs, hs, big_a, abs(scale) * amp, tools.maximum(bs[0], bs[3]), units


def _green_remainder(k: int, a: float, lo: float, hi: float, t: float, scale: float):
    """Remainder modes of the split Green correction, k = n - 2 >= 1.

    With h_i = g_i A_m^2 (see _green_closed; the A_m-part is the closed
    layer of _green_layer) the remainder is
    scale * sum_m (h1 - h2 - h3 + h4) P_m(t) / (1 - A_m), where
    h = (a^2k (a^4 lo hi)^m, (a^3/hi)^k (a^6 lo/hi)^m, (a^3/lo)^k (a^6 hi/lo)^m,
    (a^3/(lo hi))^k (a^6/(lo hi))^m).  lo hi >= a^2 makes every per-mode
    factor at most a^4, wherever the points lie.  |P_m| <= C(k+m-1, m) and
    0 <= h1 - h2 - h3 + h4 <= h1 + h4 bound the envelope.

    Each row's rounding allowance bounds its mode's rounding error to first
    order, in units of the unit roundoff, as a multiple of its envelope (at
    least half the sum of the absolute values of its parts).  The h_i take
    8 + 2 _E_RADIUS units per mode and (4 + 2 _E_RADIUS) k + 1 to start;
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
    for ratio, binom, m_lam, below, m_next, _ in _mode_table(_gegenbauer_modes, 0.5 * k):
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


def _green_split(geom: AnnulusGeometry, lo, hi, t, d, d_units, policy: TruncationPolicy):
    """green_eval's series at radii lo <= hi, cosine t and distance d, which
    errs by d_units units: its closed form (_green_closed) plus its
    remainder.  For floats an EvalResult; for arrays, one entry per pair, an
    EvalGrid summed as one table.  With _robin_series the only place that
    chooses between the two: it picks the remainder stream, the summer and
    the tools (see _Tools).
    """
    k, a = geom.n - 2, geom.a
    try:
        scale = 1.0 / (k * geom.omega)
        if not isinstance(lo, float) and is_numpy(lo, "ndarray"):
            import numpy as np

            from . import grid

            with np.errstate(all="ignore"):  # an overflow shows as a non-finite value
                closed, rounding = _green_closed(k, a, lo, hi, t, d, d_units, scale, grid.TOOLS)
                res = grid.sum_series_table(
                    lambda cols: grid._green_remainder_grid(
                        k, a, lo[cols], hi[cols], t[cols], -scale
                    ),
                    lo.size,
                    policy,
                )
        else:
            closed, rounding = _green_closed(k, a, lo, hi, t, d, d_units, scale, _SCALAR)
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
    A point whose radius misses [a, 1] by at most RADIUS_SLACK is moved
    along its ray onto the sphere it missed.
    The correction is four closed-form images and their first image layer
    plus a remainder whose term ratio is at most a^4, and ``tail_bound``
    covers rounding as well as truncation.
    """
    geom.require_series_dim()
    xs = geom.coordinates(x)
    ys = geom.coordinates(y)
    (x_norm, r, x_on, x_err), (y_norm, s, y_on, y_err) = _clamped(geom, xs), _clamped(geom, ys)
    d = math.dist(x_on, y_on)
    if d < NEAR_DIAGONAL:
        raise SingularityError(
            f"|x - y| = {d} is inside the near-diagonal guard {NEAR_DIAGONAL}; "
            "diagonal values come from robin_eval"
        )
    # the cosine of x and y is that of the points on the clamped radii
    t = _cosine(xs, ys, x_norm, y_norm)
    lo, hi = (r, s) if r <= s else (s, r)
    return _green_split(geom, lo, hi, t, d, _E_DIST + (x_err + y_err) / d, policy)


def _clamped(geom: AnnulusGeometry, xs: list) -> tuple[float, float, list, float]:
    """(|x|, r, x', err) for the point x with coordinates ``xs``: r is its
    radius clamped to [a, 1] (see AnnulusGeometry.clamp_radius), x' the
    point at radius r on x's ray and err the error of x', in units of the
    unit roundoff times length.  Where the clamp moved the radius,
    x' = x r/|x| errs by _E_MOVED units of r; elsewhere x' is x, exact.
    The origin, admissible only where a <= RADIUS_SLACK, has no ray: it
    stays, and its radius counts as r.
    """
    norm = math.hypot(*xs)
    r = geom.clamp_radius(norm)
    if norm == r or not norm:
        return r, r, xs, 0.0
    f = r / norm
    return norm, r, [v * f for v in xs], _E_MOVED * r


def _cosine(xs: list, ys: list, x_norm: float, y_norm: float) -> float:
    """t = <x, y> / (|x| |y|) for points with coordinates ``xs`` and ``ys``
    and norms from math.hypot (the first entry of _clamped), clamped to
    [-1, 1]; it errs by _E_COSINE units.  Outside [2^-969, 2^1023] for
    |x| |y| a product of coordinates could overflow, or underflow by more
    than n 2^-53 units of |x| |y|: there it raises DomainValidationError.
    """
    norms = x_norm * y_norm
    if not 2.0**-969 <= norms <= 2.0**1023:
        raise DomainValidationError(f"|x| |y| = {norms} is outside the range of the cosine")
    return _clamp_argument(math.fsum(map(operator.mul, xs, ys)) / norms)


def _modal_rows(
    n: int, a: float, lo: float, hi: float, t: float, omega: float, omega_units: float
):
    """Modes of the radius-ordered Green series (lo < hi strictly), radii
    from _clamped and t from _cosine (green_piecewise_eval).

    Mode m is coeff_m (beta/(n-2)) P_m(t) / omega with beta = 2m + n - 2 and
    coeff_m = (hi_pow - g4)(1 - hi^beta) / (beta (1 - A_m)), where
    hi_pow = hi^(2-n) (lo/hi)^m, g4 = a^beta / (lo hi)^(m+n-2) <= hi_pow and
    A_m = a^beta.  Its pole envelope env_k C(n+m-3, m) hi_pow, with
    env_k = 1/((n-2) omega (1 - a^(n-2))), takes |P_m| <= C(n+m-3, m) and
    bounds each of the factors (hi_pow - g4)/hi_pow, 1 - hi^beta and
    (1 - a^(n-2))/(1 - A_m) by 1.  The off-pole envelope replaces
    C(n+m-3, m) by off_m / sin(theta), with specfun._inverse_sine over t's
    _E_COSINE units; the rows switch to it once, as
    specfun._generating_rows does, and the pole ratio (n+m-2)/(m+1) lo/hi
    bounds both envelopes.

    Each row's rounding allowance bounds its mode's rounding error to first
    order, in units of the unit roundoff, as a multiple of its pole envelope
    whichever envelope the row yields.  An error of d units in a factor that
    the envelope bounds by 1 costs d units, so the counts add:

    - the recurrence and t: (2 + _E_COSINE)(m+1)^2, as in _generating_rows;
    - the radii, each erring by _E_RADIUS units: the exact
      (hi_pow - g4)(1 - hi^beta) moves by at most beta _E_RADIUS units of
      hi_pow per radius, as m hi_pow + (m+n-2) g4 <= beta hi_pow for lo,
      and for hi (m+n-2)(1 - hi^beta) + beta hi^beta <= beta:
      2 (2m + n) _E_RADIUS bounds both;
    - the powers and running products: hi_pow 2m + 2 (the power, and per
      mode the quotient lo/hi and the product), g4 4m + 2n - 2 (a/(lo hi)
      rounds twice before its power, a^2/(lo hi) three times before each
      product), hi^beta 2m + 2;
    - the mode's three differences (1 - A_m among them), its two products
      and its quotient, (beta/(n-2)) P_m, the product by it and the
      division by omega: 10, and the compensated sum 2;
    - 1/(1 - A_m), with A_m carried as a product of 2m + 2 roundings:
      (2m + 2) A_m/(1 - A_m) <= (2m + 2)(amp - 1), amp = 1/(1 - a^(n-2));
    - omega's own error, omega_units (AnnulusGeometry.omega_rel_error).

    With amp >= 1 these add up to at most
    (2 + _E_COSINE)(m+1)^2 + (8m + 2n + 14 + 2 (2m + n) _E_RADIUS) amp
    + omega_units units, which the rows advance by their differences: the
    rounding of those sums is of second order.
    """
    lam = 0.5 * (n - 2)
    hi_pow = hi ** (2 - n)  # hi^(2-n) (lo/hi)^m
    q = lo / hi
    q4 = a * a / (lo * hi)
    g4 = (a / (lo * hi)) ** (n - 2)  # A / (lo*hi)^(m+n-2)
    hib = hi ** (n - 2)  # hi^(2m+n-2)
    big_a = a ** (n - 2)
    env_k = 1.0 / ((n - 2) * omega * (1.0 - a ** (n - 2)))
    amp, quad = 1.0 / (1.0 - big_a), 2.0 + _E_COSINE
    units = quad + amp * (2.0 * n + 14.0 + 2.0 * n * _E_RADIUS) + omega_units
    step = 3.0 * quad + amp * (8.0 + 4.0 * _E_RADIUS)
    curve = 2.0 * quad
    inv_sin = _inverse_sine(t, _E_COSINE)
    # iter_gegenbauer's recurrence, inline as specfun's docstring explains;
    # ratio = (n + m - 2)/(m + 1), binom = C(n + m - 3, m), and
    # m + lam = beta / 2 with beta = 2m + n - 2
    two_t = 2.0 * t
    p_prev, p = 0.0, 1.0
    rows = _mode_table(_gegenbauer_modes, lam)
    for ratio, binom, m_lam, below, m_next, off in rows:
        z = (m_lam / lam) * p  # (beta / (n - 2)) P_m(t)
        coeff = (hi_pow - g4) * (1.0 - hib) / ((m_lam + m_lam) * (1.0 - big_a))
        env = env_k * binom * hi_pow
        yield coeff * z / omega, env, ratio * q, env * units
        p_prev, p = p, (two_t * m_lam * p - below * p_prev) / m_next
        hi_pow *= q
        g4 *= q4
        hib *= hi * hi
        big_a *= a * a
        units += step
        step += curve
        if off * inv_sin < binom:
            break
    env_sin = env_k * hi_pow * inv_sin
    for ratio, binom, m_lam, below, m_next, off in rows:
        z = (m_lam / lam) * p
        coeff = (hi_pow - g4) * (1.0 - hib) / ((m_lam + m_lam) * (1.0 - big_a))
        yield coeff * z / omega, off * env_sin, ratio * q, env_k * binom * hi_pow * units
        p_prev, p = p, (two_t * m_lam * p - below * p_prev) / m_next
        env_sin *= q
        hi_pow *= q
        g4 *= q4
        hib *= hi * hi
        big_a *= a * a
        units += step
        step += curve


def green_piecewise_eval(
    geom: AnnulusGeometry, x: ArrayLike, y: ArrayLike, policy: TruncationPolicy
) -> EvalResult:
    """Green function from the radius-ordered modal series, |x| != |y|.

    Coincident radii make every mode the same size, so that case is refused
    and callers are pointed at green_eval, which stays valid there.  The
    radii and the cosine are green_eval's (_clamped and _cosine), and the
    rows count their errors as _E_RADIUS and _E_COSINE units (see
    _modal_rows).  Where a mode leaves the double-precision range (at large
    n) it raises TailEnvelopeError, as green_eval does.
    """
    geom.require_series_dim()
    xs = geom.coordinates(x)
    ys = geom.coordinates(y)
    (x_norm, r, _, _), (y_norm, s, _, _) = _clamped(geom, xs), _clamped(geom, ys)
    if abs(r - s) <= 1e-9:
        raise DomainValidationError(
            f"|x| = {r} and |y| = {s} are (numerically) equal; use green_eval for "
            "coincident radii"
        )
    lo, hi = (r, s) if r < s else (s, r)
    t = _cosine(xs, ys, x_norm, y_norm)
    try:
        rows = _modal_rows(geom.n, geom.a, lo, hi, t, geom.omega, geom.omega_rel_error / _U)
        return sum_series(rows, policy)
    except (OverflowError, ZeroDivisionError):
        raise TailEnvelopeError(
            f"the Green function for n = {geom.n} leaves the double-precision range here"
        ) from None


def _mode_form(k: int) -> tuple[int, int, int, int]:
    """(first, stride, order, fixed) of a Robin-family remainder (see
    _robin_remainder): its modes start at m = first, the argument of its
    polynomials is x = stride m, its weights are the binomials
    C(order + m - 1, m), and mode m rounds by at most 6m + fixed units.

    In R^n (k = n - 2 >= 1) that is (0, 1, k, 22 + 2k).  The plane is the
    family's k -> 0 limit, where C(k+m-1, m)/k tends to 1/m: its modes start
    at 1, its parts carry the 1/m as 2 (2m)^-1, so x = 2m, and it has no
    binomial: order 1 makes every weight C(m, m) = 1 and every weight ratio
    (1 + m)/(m + 1) = 1.0.  Its starts a^0 and its weights are exact, which
    saves 5 units: (1, 2, 1, 17).
    """
    return (0, 1, k, 22 + 2 * k) if k else (1, 2, 1, 17)


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
    rounding count 6m + fixed, with _mode_form's stride, order and fixed and
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
            float(6 * m + fixed),
        )
        binom = binom * (order + m) // (m + 1)
        m += 1


# what differs between one radius (_SCALAR) and an array of radii
# (grid.TOOLS), chosen once by _robin_series or _green_split and passed down:
# the elementwise functions, math's or numpy's; the units of the unit
# roundoff that each numpy function adds to the error of its math twin (0 at
# one radius, grid._NUMPY_EXTRA on a grid); the Robin-family mode stream and
# the splice of its image rows (see _remainder_rows); and the image indices j
# that _image_rows reads
_Tools = collections.namedtuple(
    "_Tools",
    "exp expm1 log log1p frexp ldexp maximum numpy_units modes imaged js",
)


def _robin_starts(k: int, a: float, r, tools: _Tools):
    """(b1, b4, starts, env_k, step): the per-radius constants of a
    Robin-family remainder (see _robin_remainder) at r, a float or an array
    of radii as ``tools`` says.  b1 = r a^2 and b4 = a^3 / r are the image
    bases, whose powers 2m with a^(6m) carry x_i^m A_m^2 / A_0^2, the starts
    are s_i = c_i A_0^2 = (a^2k, (a^2/r)^k a^k, (a/r)^(2k) a^k), env_k =
    1/(1 - A_first) bounds every 1/(1 - A_m), and step =
    a^4 max(r^2, a^2/r^2) bounds the images' shrinking per mode.
    """
    a2 = a * a
    ak = a**k
    return (
        r * a2,
        a2 * a / r,
        (a ** (2 * k), (a2 / r) ** k * ak, (a / r) ** (2 * k) * ak),
        -1.0 / math.expm1((k + 2 * _mode_form(k)[0]) * math.log(a)),
        a2 * a2 * tools.maximum(r * r, (a / r) ** 2),
    )


def _framed_images(bases, starts, powers, polys, tools: _Tools):
    """(w, top): the images s_i b_i^n_i P_i of a Robin-family remainder mode
    as w_i 2^top, for a mode whose direct images sum below _FRAME_BELOW; with
    grid.TOOLS every argument may be an array of entries.

    frexp splits each base into f 2^e and each start into g 2^h, both
    exactly, and w_i = g f^n P_i 2^(n e + h - top) rounds as s b^n P_i does:
    the power once, each product once, so the rounding rows stand.  top is
    the largest n e + h of a nonzero image, so the largest w_i is at least
    2^-(n+1) P_i: every step stays in the normal range while n (2m for the
    images of r a^2 and a^3 / r, one of which sets top) stays under about
    1000, and only a row that is itself subnormal rounds when it is scaled
    back by 2^top.  An image scaled
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
    1/(1 - A) = 1 + A + A^2/(1 - A) gives a closed form, the A-free part and
    the first image layer (see _robin_layer), plus this remainder, whose
    products s_i = c_i x_i^m A_m^2 shrink by at most a^4 max(r^2, a^2/r^2)
    <= a^4 per mode wherever r lies.  Each s_i is a product of powers of
    numbers in (0, 1), so nothing overflows before the true terms do.

    Each row's rounding allowance bounds its mode's rounding error to first
    order, in units of the unit roundoff and relative to the sum of the
    absolute values of its parts.  The s_i (x + d_i)^e_i are products of a
    start with at most 2k + 3 roundings (see _robin_starts) and a power 2m
    of a base with at most three (a^3 / r), or 6m of a: 6m + 2k + 6, or
    6m + 3 in the plane, whose starts are 1.  1 - A_m is
    -expm1((k+2m) log a), which errs by 4 since |y| e^y / (1 - e^y) <= 1 for
    y < 0.  The binomial's conversion, the prefactor, the mode's products and
    sums and the compensated sum add 12, or 10 in the plane, whose weights
    are 1.  A mode thus rounds by at most 6m + 22 + 2k units in R^n and
    6m + 17 in the plane.
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
        w2 = s2_0 * a ** (6 * m) * p2
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
                (b1, a, b4), (s1_0, s2_0, s4_0), (n, 3 * n, n), (p1, p2, p4), _SCALAR
            )
            size = abs(sb) * (abs_c1 * w1 + abs_c2 * w2 + abs_c4 * w4)
            yield (
                ldexp(sb * (c1 * w1 + c2 * w2 + c4 * w4) * inv, top),
                ldexp(size * env_k, top),
                rho,
                ldexp(size * inv * units, top),
            )


def _image_route(a: float, policy: TruncationPolicy, parts) -> bool:
    """Whether abs_tol sends a Robin-family remainder through _image_rows.

    The gate is abs_tol < a^(2 _SWITCH_MODES).  It was set when the
    remainder's modes shrank like a^(2m), where the mode series was
    predicted to need more than _SWITCH_MODES modes to reach abs_tol; with
    the first image layer in the closed part they shrink like a^(4m), so the
    mode series needs about half as many there.  It reads a and abs_tol, so
    on the grid path every radius of a geometry takes the same route; on the
    scalar path a relative target may still take the mode series (see
    _relaxed_modes).  The route needs more than _HEAD_MODES terms and
    polynomial weights: the 1/m weights of robin2d_eval have no elementary
    image sum.
    """
    return (
        policy.abs_tol < a ** (2 * _SWITCH_MODES)
        and policy.max_terms > _HEAD_MODES
        and min(e for c, _, e in parts if c) >= 0
    )


@functools.lru_cache(maxsize=256)
def _late_mode(k: int, parts, skip: int) -> tuple[int, float, float, float, float]:
    """(m, W_1, W_2, W_4, g) of the ``skip``-th mode m of a Robin-family
    remainder of shape (k, parts) (see _robin_modes): W_i = weight |coef_i| P_i
    and g = ratio growth, so that its envelope is at most
    |scale| env_k step^m sum_i W_i s_i and its ratio g step."""
    row = next(itertools.islice(_mode_table(_robin_modes, k, parts), skip, None))
    m, p1, p2, p4, weight, ratio, growth, _ = row
    (c1, _, _), (c2, _, _), (c4, _, _) = parts
    return m, weight * abs(c1) * p1, weight * abs(c2) * p2, weight * abs(c4) * p4, ratio * growth


def _relaxed_modes(k: int, a: float, r: float, closed: float, scale: float, parts, policy):
    """The remainder of a Robin-family series at one radius that _image_route
    sends to the images, summed by sum_series as its mode series instead
    where the policy's relative target makes that series the shorter route;
    None where it does not.

    The mode series is summed if rel_tol |closed| > abs_tol and a bound on
    its certified tail after _RELATIVE_MODES modes meets rel_tol |closed|:
    _robin_remainder's envelope and ratio at that mode with every power
    b_i^(2m) raised to step^m (see _robin_starts).  Its sum is returned only
    if it converged with rel_tol |closed + sum| > abs_tol, so that no caller
    reads it as the absolute sum (the solver's _CountedSeries files a relaxed
    sum with rel_tol |value| <= abs_tol as absolute).  Where None is
    returned, the image route sums the remainder as it does without a
    relative target, and terms_used counts that route alone.
    """
    target = policy.rel_tol * abs(closed)
    if not (_RELATIVE_MODES and target > policy.abs_tol):
        return None
    m, w1, w2, w4, growth = _late_mode(k, parts, _RELATIVE_MODES)
    _, _, (s1, s2, s4), env_k, step = _robin_starts(k, a, r, _SCALAR)
    rho = growth * step
    env = abs(scale) * env_k * step**m * (w1 * s1 + w2 * s2 + w4 * s4)
    if not (rho < 1.0 and env * rho <= target * (1.0 - rho)):
        return None
    res = sum_series(_robin_remainder(k, a, r, scale, parts), policy, closed)
    if res.converged and policy.rel_tol * abs(closed + res.value) > policy.abs_tol:
        return res
    return None


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

    The start s_i, a k-th power of a base with two roundings times the power
    a^k (see _robin_starts), takes 2k + 2t + 1, and the prefactor
    scale coef_i s_i 5 more; 1 - q = -expm1(log q) errs by e_y + t, as
    |y| e^y / (1 - e^y) <= 1 for y < 0; z = q / (1 - q) by
    e_y |log q| + e_y + 2t + 1; the Horner sum of degree D with nonnegative
    weights by D times z's error plus 2D + 1; the exponent
    (j-2) k log a + m0 log q by (2.5k + m0 (e_y + 2)) |log q| absolutely,
    with j k |log a| <= k |log q| / 2; its exp, the division and the two
    products add t + 3, and the sum over the images and the compensated sum 4.
    """
    return (
        2 * k + 4 * t + e_y + 14 + degree * (e_y + 2 * t + 3),
        2.5 * k + m0 * (e_y + 2) + degree * e_y,
    )


def _images(k: int, a: float, r, scale, parts, m0: int, tools: _Tools):
    """Per image with a nonzero coefficient: scale coef_i s_i, log x_i, the
    weights of _image_weights and the (fixed, slope) counts of _image_units.

    s_i = c_i a^2k is _robin_remainder's start (1 in the plane, see
    _robin_starts), and log x_i = (2 log r, 2 log a, 2 (log a - log r)), with
    the log of ``tools``.
    """
    la, lr = math.log(a), tools.log(r)
    starts = _robin_starts(k, a, r, tools)[2]
    logs = (2.0 * lr, 2.0 * la, 2.0 * (la - lr))
    # log q errs by 8 |log q| units and each exp or expm1 by 2, plus numpy's
    e_y, t = 8.0 + tools.numpy_units, 2.0 + tools.numpy_units
    out = []
    for (coef, d, e), start, log_x in zip(parts, starts, logs):
        if coef:
            weights = _image_weights(k, d, e, m0)
            degree = len(weights) - 1
            out.append((scale * coef * start, log_x, weights, *_image_units(k, degree, m0, e_y, t)))
    return out


def _image_rows(k: int, a: float, r, scale, parts, m0: int, tools: _Tools):
    """The modes m >= m0 of a Robin-family remainder, summed over m as rows of
    images j = 2, 3, ..., which tools.js() yields in turn.

    The remainder is scale sum_m w_i(m) coef_i c_i x_i^m A_m^2 / (1 - A_m)
    over the images of _robin_remainder (in the plane, k = 0, c_i = 1 and
    A_m = a^(2m)), with w_i the weights of _image_weights: row j = 1 of
    A_m / (1 - A_m) = sum_{j >= 1} A_m^j is the closed layer of
    _robin_layer.  As A_m^j = a^(jk) a^(2jm), its modes m >= m0 equal
    sum_{j >= 2} scale a^(jk) sum_i coef_i c_i Q_i(x_i a^(2j)) with
    Q_i(q) = sum_{m >= m0} w_i(m) q^m, which _image_weights sums in closed
    form.  Row j is the j-th term of that sum.  Each Q_i has nonnegative
    terms, so Q_i(q a^2) <= a^(2 m0) Q_i(q) and the rows' envelopes shrink
    by the constant ratio a^(k + 2 m0), which every row carries.

    q = x_i a^(2j) is carried as its log, y = log x_i + 2j log a, and 1 - q
    as -expm1(y), so nothing cancels next to a sphere or as a -> 1.
    c_i a^(jk) q^m0 = s_i exp((j-2) k log a + m0 y) with s_i <= 1.  Each
    row's rounding allowance adds up _image_units over its images.

    At one radius the tools are _SCALAR's and j the integers 2, 3, ..., and
    y errs by at most 8 |y| units and each exp or expm1 by 2.  At an array of
    radii they are grid.TOOLS and j a column of grid.TABLE_MODES indices
    per chunk, each row a (j x radii) table in which each numpy log, power,
    exp or expm1 adds tools.numpy_units to those counts (_images forms
    them); grid._imaged_grid spreads its ratio over the chunk.
    """
    ratio = a ** (k + 2 * m0)
    la = math.log(a)
    two_la, k_la = 2.0 * la, k * la
    images = _images(k, a, r, scale, parts, m0, tools)
    exp, expm1 = tools.exp, tools.expm1
    for j in tools.js():
        shift = (j - 2) * k_la
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


_SCALAR = _Tools(
    exp=math.exp, expm1=math.expm1, log=math.log, log1p=math.log1p, frexp=math.frexp,
    ldexp=math.ldexp, maximum=max, numpy_units=0.0,
    modes=_robin_remainder, imaged=_imaged, js=functools.partial(itertools.count, 2),
)


def _remainder_rows(k: int, a: float, r, scale, parts, images: bool, tools: _Tools):
    """The rows of a Robin-family remainder (planar for k = 0): its modes, or
    with ``images`` its first _HEAD_MODES modes and then the image rows of
    the rest.  With grid.TOOLS, for an array of radii (and of scales, in
    the plane), the rows come in the grid twins' chunks, as
    grid.sum_series_table reads them."""
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
    and on the grid path each radius factor adds grid._NUMPY_EXTRA to ulps.
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


# per image (r^2 a^2, a^4, a^4 / r^2) of the Robin layer (see _robin_layer):
# the units of the base whose k-th power is c_i a^k (1 - X_i)^-k
_LAYER_BASE = (7.0, 9.0, 8.0)
# per exponent e of a part: the units of the layer's piece beyond k times
# its base's, in R^n (the power included) and in the plane
_LAYER_FORM = {0: 2.0, 1: 15.0, 2: 28.0}
_PLANAR_LAYER_FORM = {-1: 12.0, 0: 11.0, 1: 24.0}


def _robin_layer(k: int, a: float, r, parts, tools: _Tools):
    """The first image layer of a Robin-family series (see _robin_remainder),
    before its prefactor, and its charge (see _with_layer): the sum over the
    images with a nonzero coefficient of coef_i c_i a^k sum_m w(m) P_i(m) X_i^m
    with X = (r^2 a^2, a^4, a^4 / r^2), the A_m-part of the modes' x_i^m A_m.
    r is a float or an array of radii as ``tools`` says.

    Every form is written through z_i = X_i / (1 - X_i), with 1/(1 - X) =
    1 + z, and each 1 - X_i is a product of nonnegative factors:
    1 - r^2 a^2 = ((1 - r) + r (1 - a))(1 + r a), 1 - a^4 =
    (1 - a)(1 + a)(1 + a^2) and r^2 (1 - a^4 / r^2) = ((r - a) + a (1 - a))
    (r + a^2), so nothing cancels, and X_i <= a^2 keeps 1 - X_i >= 1 - a^2.
    In R^n, with g_i = c_i a^k (1 - X_i)^-k the k-th power of a / (1 - X_1),
    a^2 / (r (1 - X_2)) or a^2 / (r^2 (1 - X_4)) and the binomial weights,
    sum_m C(k+m-1, m)(m + d)^e X^m is g for e = 0, g (k z + d) for e = 1 and
    g (k z (1 + 2d + (k+1) z) + d^2) for e = 2.  In the plane, with weights
    (2m + d)^e over m >= 1: log1p(z) / 2 for e = -1 (d = 0), z for e = 0 and
    z (2 + d + 2z) for e = 1.

    Every operation is counted as rounding.  The factors of 1 - X_i take 6
    units, z_i 10 and the bases _LAYER_BASE; a piece then rounds by at most
    k _LAYER_BASE[i] + _LAYER_FORM[e] units of itself in R^n, or
    _PLANAR_LAYER_FORM[e] in the plane, plus tools.numpy_units for numpy's
    power or log1p.  log1p(z) errs by 11 relative to itself, as
    log1p(z) >= z / (1 + z).  The charge adds _LAYER_SUMS to each piece's
    count.
    """
    a2 = a * a
    a4 = a2 * a2
    ra = r * a
    xs = (ra * ra, a4, a4)
    ys = (
        ((1.0 - r) + r * (1.0 - a)) * (1.0 + ra),
        ((1.0 - a) * (1.0 + a)) * (1.0 + a2),
        ((r - a) + a * (1.0 - a)) * (r + a2),
    )
    fixed = tools.numpy_units + _LAYER_SUMS
    layer = charge = 0.0
    if k:
        bases = (a / ys[0], a2 / (r * ys[1]), a2 / ys[2])
        for (coef, d, e), x, y, base, e_base in zip(parts, xs, ys, bases, _LAYER_BASE):
            g = coef * base**k
            if e:
                z = x / y
                g = g * (k * z + d if e == 1 else k * z * ((1 + 2 * d) + (k + 1) * z) + d * d)
            layer = layer + g
            charge = charge + abs(g) * (k * e_base + _LAYER_FORM[e] + fixed)
        return layer, charge
    for (coef, d, e), x, y in zip(parts, xs, ys):
        if coef:
            z = x / y
            if e < 0:
                g = 0.5 * coef * tools.log1p(z)
            elif e == 0:
                g = coef * z
            else:
                g = coef * (z * ((2 + d) + 2.0 * z))
            layer = layer + g
            charge = charge + abs(g) * (_PLANAR_LAYER_FORM[e] + fixed)
    return layer, charge


def _normalised(series: _Series, geom: AnnulusGeometry, r, tools: _Tools):
    """The closed part of ``series`` at r, its rounding bound, and its
    remainder's prefactor and parts, in the family's normalisation: for
    n >= 3 the closed form times -1/omega and the prefactor over -k omega, in
    the plane both as they are.  The closed part is the closed form plus the
    first image layer (_robin_layer) times the prefactor, as _with_layer
    adds it.  r is a float with _SCALAR's tools, or an array of radii with
    grid.TOOLS.
    """
    k, a = geom.n - 2, geom.a
    u, v, w = (1.0 - r) * (1.0 + r), (r - a) * (r + a), (1.0 - a) * (1.0 + a)
    pieces, ulps, absolute, factors = series.closed(k, a, r, u, v, w, tools.log)
    ulps += factors * tools.numpy_units
    closed, rounding = sum(pieces), _U * (absolute + ulps * sum(map(abs, pieces)))
    scale, parts = series.remainder(k, r)
    if k:
        omega = geom.omega
        closed, rounding, scale = -closed / omega, rounding / omega, -scale / (k * omega)
    closed, rounding = _with_layer(closed, rounding, scale, *_robin_layer(k, a, r, parts, tools))
    return closed, rounding, scale, parts


def _robin_series(series: _Series, geom, r, policy: TruncationPolicy):
    """A Robin-family series of either dimension at r, or at every radius of
    an array r as one table: its closed form plus its remainder (k = n - 2,
    0 in the plane), summed through images where _image_route holds, unless
    at one radius a relative target prefers the modes (_relaxed_modes).
    ``geom`` is a spatial series' geometry, n >= 3, or as the planar
    evaluators take it the inner radius a of a planar annulus."""
    if isinstance(geom, AnnulusGeometry):
        geom.require_series_dim()
    else:
        geom = AnnulusGeometry(2, geom)
    r = geom.require_interior_radius(r)
    k, a = geom.n - 2, geom.a
    try:
        if isinstance(r, float):  # else a 1-d array: see require_interior_radius
            closed, rounding, scale, parts = _normalised(series, geom, r, _SCALAR)
            route = _image_route(a, policy, parts)
            res = None
            if route and policy.rel_tol:  # a relative target may prefer the modes
                res = _relaxed_modes(k, a, r, closed, scale, parts, policy)
            if res is None:
                res = sum_series(_remainder_rows(k, a, r, scale, parts, route, _SCALAR), policy, closed)
        else:
            import numpy as np

            from . import grid

            with np.errstate(all="ignore"):  # an overflow shows as a non-finite value
                closed, rounding, scale, parts = _normalised(series, geom, r, grid.TOOLS)
                route = _image_route(a, policy, parts)

                def table(cols):  # in the plane a prefactor may vary with r
                    sc = scale[cols] if np.ndim(scale) else scale
                    return _remainder_rows(k, a, r[cols], sc, parts, route, grid.TOOLS)

                res = grid.sum_series_table(table, r.size, policy)
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
    if not isinstance(r, float) and is_numpy(r, "ndarray"):
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
    import numpy as np

    return _robin_series(_SERIES["robin_eval"], geom, np.asarray(radii, dtype=float), policy)


def robin_radial_gradient_grid(
    geom: AnnulusGeometry, radii, policy: TruncationPolicy
) -> EvalGrid:
    """robin_radial_gradient at every radius of ``radii``, summed as one table,
    with robin_eval_grid's contract."""
    import numpy as np

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
    import numpy as np

    return _robin_series(_SERIES["robin2d_eval"], a, np.asarray(radii, dtype=float), policy)


def robin2d_first_grid(a: float, radii, policy: TruncationPolicy) -> EvalGrid:
    """robin2d_first at every radius of ``radii``, summed as one table, with
    robin_eval_grid's contract."""
    import numpy as np

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
    closed: Callable  # r -> the value of the gradient's closed part
    d: Callable  # r -> d(r), with R'(r) = gradient / d(r)
    name: str  # the gradient, as a solver's method names it


def _radial(geom: AnnulusGeometry) -> _Radial:
    """The Robin family of the geometry's dimension: the one place that
    chooses between the spatial series (n >= 3) and the planar ones.

    Each series is the public evaluator it stands for, as this module's
    namespace holds it when the family is built, bound to the geometry.  A
    wrapper installed there (a tracer, a test's counter) therefore sees the
    calls of families built after it: build one per use and keep none.
    ``closed`` is the gradient's _SERIES closed form, times -1/omega for
    n >= 3, computed in floats only: the part that its series splits off in
    closed form, without the first image layer (_robin_layer).  The layer
    moves the solver's seed closer to the root, but in a solve it costs more
    closed-part evaluations' time than the series evaluations it saves.
    """
    a, k = geom.a, geom.n - 2
    if k:
        first, d, name = geom, lambda r: r, "r*R'(r)"
        value, value_grid = robin_eval, robin_eval_grid
        gradient, gradient_grid = robin_radial_gradient, robin_radial_gradient_grid
        slope, closed_form = robin_radial_gradient_derivative, "robin_radial_gradient"
    else:
        first, d, name = a, lambda r: 1.0, "R'(r)"
        value, value_grid = robin2d_eval, robin2d_eval_grid
        gradient, gradient_grid = robin2d_first, robin2d_first_grid
        slope, closed_form = robin2d_second, "robin2d_first"
    gradient_closed = _SERIES[closed_form].closed

    def closed(r: float) -> float:
        # formed per call, not when the family is built: omega underflows to
        # 0 for n >= 456, where the series raise TailEnvelopeError first
        scale = -1.0 / geom.omega if k else 1.0
        u, v, w = (1.0 - r) * (1.0 + r), (r - a) * (r + a), (1.0 - a) * (1.0 + a)
        return scale * sum(gradient_closed(k, a, r, u, v, w, math.log)[0])

    evaluators = (value, value_grid, gradient, gradient_grid, slope)
    return _Radial(*(functools.partial(f, first) for f in evaluators), closed, d, name)

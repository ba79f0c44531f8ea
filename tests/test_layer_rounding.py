"""The rounding counts of the first image layer, checked mechanically.

The split series of green_eval and of the Robin family sum the A_m-part of
1/(1 - A_m) = 1 + A_m + A_m^2/(1 - A_m) in closed form: green._green_layer
(four images of the Green correction) and green._robin_layer (one closed form
per image of each Robin-family series), added to the closed part by
green._with_layer.  Each returns the layer and its charge, a hand-derived
count of its rounding.  Here the same code runs on rounding_oracle.E, which
keeps the computed doubles bit for bit and propagates a first-order bound of
their error: on seeded draws the propagated bound never exceeds the charged
one.  _LAYER_SUMS is charged in two shares, the layer's own sums and the
prefactor's product, and each share is checked alone: the Robin pieces one by
one (the other parts' coefficients set to 0) with no share, the Robin and
Green sums with their share (the Green images also all added, so that no
cancellation between them hides a count), and the prefactor on a layer taken
as exact.

The Robin inputs a and r are exact doubles.  The Green radii err by
_E_RADIUS units each and the cosine by _E_COSINE units, as green_eval's do.
"""

import random
from types import SimpleNamespace

import pytest

import rounding_oracle as ro
from annulus_green import AnnulusGeometry, green
from annulus_green.green import (
    _E_COSINE,
    _E_RADIUS,
    _LAYER_SUMS,
    _SCALAR,
    _SERIES,
    _Series,
    _green_layer,
    _normalised,
    _robin_layer,
    _with_layer,
)

TOOLS = _SCALAR._replace(log=ro.log, log1p=ro.log1p, exp=None, expm1=None, maximum=None)
DIMENSIONS = (2, 3, 4, 5, 6, 9, 20)
# a charge is a float sum of nonnegative terms; it may round below its exact
# value by this share
SLACK = 1.0 + 1e-12
# the shares of _LAYER_SUMS taken by each layer's sums: two sums of three
# Robin pieces, three of four Green pieces; the rest is the prefactor's
ROBIN_SUMS = 2.0
GREEN_SUMS = 3.0


def _inner_radii(rng):
    return [rng.uniform(0.05, 0.95) for _ in range(8)] + [0.99, 0.999]


def _radius(rng, a, where):
    """A radius mid-gap or within 1e-3 of the gap from either sphere."""
    share = {"inner": 1e-3 * rng.random(), "mid": rng.uniform(0.2, 0.8),
             "outer": 1.0 - 1e-3 * rng.random()}[where]
    return min(max(a + share * (1.0 - a), a * (1.0 + 2.0**-50)), 1.0 - 2.0**-50)


def _robin_draws(seed=17):
    rng = random.Random(seed)
    for n in DIMENSIONS:
        names = [name for name in _SERIES if name.startswith("robin2d") == (n == 2)]
        for a in _inner_radii(rng):
            for where in ("inner", "mid", "outer"):
                for name in names:
                    yield name, n, a, _radius(rng, a, where)


def _without_closed_form(series):
    """``series`` with an empty closed form, so that _normalised's closed
    part is the layer alone."""
    return _Series(lambda *args: ((), 0.0, 0.0, 0), series.remainder)


def _exact_layer(layer, sums):
    """``layer`` taken as exact, charged the prefactor's share of
    _LAYER_SUMS alone, of its own magnitude (no more than of its pieces')."""

    def exact(*args):
        value, _ = layer(*args)
        return ro.E(value.v), (_LAYER_SUMS - sums) * abs(value.v)

    return exact


ROBIN_DRAWS = list(_robin_draws())


@pytest.mark.parametrize("dim", DIMENSIONS)
def test_robin_layer_counts_cover_the_propagated_error(dim, monkeypatch):
    draws = [d for d in ROBIN_DRAWS if d[1] == dim]
    assert len(draws) == 90
    for name, n, a, r in draws:
        k = n - 2
        parts = _SERIES[name].remainder(k, r)[1]
        layer, charge = _robin_layer(k, ro.E(a), ro.E(r), parts, TOOLS)
        assert (layer.v, charge.v) == _robin_layer(k, a, r, parts, _SCALAR)
        with monkeypatch.context() as patch:
            # each piece alone, with no share for the sums
            patch.setattr(green, "_LAYER_SUMS", 0.0)
            for i in (i for i, part in enumerate(parts) if part[0]):
                alone = [(c if j == i else 0, d, e) for j, (c, d, e) in enumerate(parts)]
                piece, count = _robin_layer(k, ro.E(a), ro.E(r), alone, TOOLS)
                assert piece.err <= ro.U * count.v * SLACK, (name, n, a, r, i)
            # the pieces and their sums
            patch.setattr(green, "_LAYER_SUMS", ROBIN_SUMS)
            layer, charge = _robin_layer(k, ro.E(a), ro.E(r), parts, TOOLS)
            assert layer.err <= ro.U * charge.v * SLACK, (name, n, a, r)
            # the layer as _normalised adds it, with its prefactor, to a
            # closed form that is here empty, the layer taken as exact
            geom = AnnulusGeometry(n, a)
            fake = SimpleNamespace(n=n, a=ro.E(a), omega=ro.E(geom.omega))
            patch.setattr(green, "_robin_layer", _exact_layer(_robin_layer, ROBIN_SUMS))
            series = _without_closed_form(_SERIES[name])
            closed, rounding, _, _ = _normalised(series, fake, ro.E(r), TOOLS)
        assert closed.v == _normalised(series, geom, r, _SCALAR)[0]
        assert closed.err <= rounding.v * SLACK, (name, n, a, r)


def _green_draws(seed=23):
    rng = random.Random(seed)
    wheres = ("inner", "mid", "outer")
    for n in DIMENSIONS[1:]:
        # at a = 1 - 1e-5 every Q_i is close to 1, so each count's share
        # reaches the propagated error where 1 - t is not small
        for a in _inner_radii(rng) + [1.0 - 1e-5]:
            for _ in range(6):
                r, s = (_radius(rng, a, rng.choice(wheres)) for _ in range(2))
                t = rng.choice([
                    rng.uniform(-1.0, 1.0), rng.uniform(-1.0, -0.5),
                    1.0 - 10.0 ** rng.uniform(-12, -1), 1.0, -1.0,
                ])
                yield n, a, min(r, s), max(r, s), t


GREEN_DRAWS = list(_green_draws())


@pytest.mark.parametrize("dim", DIMENSIONS[1:])
def test_green_layer_counts_cover_the_propagated_error(dim, monkeypatch):
    draws = [d for d in GREEN_DRAWS if d[0] == dim]
    assert len(draws) == 66
    # every image added, so that no cancellation between them leaves the
    # sums' share slack that could hide an image's count
    added = tuple((1.0, e_q, e_fixed) for _, e_q, e_fixed in green._GREEN_LAYER)
    for n, a, lo, hi, t in draws:
        k = n - 2
        ins = (ro.E(a), ro.E(lo, _E_RADIUS * ro.U * lo), ro.E(hi, _E_RADIUS * ro.U * hi),
               ro.E(t, _E_COSINE * ro.U))
        layer, charge = _green_layer(k, *ins, TOOLS)
        assert (layer.v, charge.v) == _green_layer(k, a, lo, hi, t, _SCALAR)
        # the four images and their sums, with the sums' share, as signed
        # and all added
        with monkeypatch.context() as patch:
            patch.setattr(green, "_LAYER_SUMS", GREEN_SUMS)
            layer, charge = _green_layer(k, *ins, TOOLS)
            assert layer.err <= ro.U * charge.v * SLACK, (n, a, lo, hi, t)
            patch.setattr(green, "_GREEN_LAYER", added)
            total, charge = _green_layer(k, *ins, TOOLS)
            assert total.err <= ro.U * charge.v * SLACK, (n, a, lo, hi, t)
        # the layer as _green_closed adds it, after scale = 1/(k omega), the
        # layer taken as exact
        omega = AnnulusGeometry(n, a).omega
        scale = 1.0 / (k * ro.E(omega))
        total, rounding = _with_layer(
            ro.E(0.0), 0.0, scale, *_exact_layer(_green_layer, GREEN_SUMS)(k, *ins, TOOLS)
        )
        assert total.v == _with_layer(0.0, 0.0, 1.0 / (k * omega), layer.v, 0.0)[0]
        assert total.err <= rounding.v * SLACK, (n, a, lo, hi, t)


def test_oracle_propagates_and_refuses():
    x = ro.E(0.1)
    assert (x + 0).err == 0.0  # exact
    y = x * 3
    assert y.v == 0.1 * 3 and y.err == ro.U * abs(y.v)
    assert (1.0 - ro.E(0.75)).err == 0.0  # Sterbenz
    expected = 1e-20 / 1.001 + ro.U * 0.0009995
    assert ro.log1p(ro.E(1e-3, 1e-20)).err == pytest.approx(expected, rel=1e-3)
    for refused in (lambda: x < 1, lambda: bool(x), lambda: float(x), lambda: 2.0**x,
                    lambda: x // 1, lambda: green.math.log(x)):
        with pytest.raises(TypeError):
            refused()

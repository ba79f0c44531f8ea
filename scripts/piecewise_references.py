#!/usr/bin/env python3
"""50-digit references for the certificate test of green_piecewise_eval.

Draws point pairs over the strata of the wide probe and writes each draw, with
its Green function from tests/references.mp_green at 50 digits, to
tests/fixtures/piecewise_references.json.  tests/test_piecewise_certificate.py
checks the evaluator's bound against them and recomputes a seeded share live,
so a stale fixture fails.

The strata: n in {3, 4, 5, 6, 9, 20}; a, in equal shares, uniform in
[0.05, 0.95], 10^U(-3, -1.3) or 1 - 10^U(-3, -1.3); the inner point at a
uniform share in [0.001, 0.45] of the gap or at 1e-3 of it, the outer point at
a share in [0.55, 0.999] or at 1 - 1e-3, each choice half the time; the two
directions 1e-3 apart in angle in 30 % of the pairs, and independent
otherwise; and which point comes first, half the time each.  Two named cases
at n = 20 are added, both in thin annuli: a point on the inner sphere with one
at radius 0.9995 on the same ray (a = 0.982), and radii 0.9947 and 0.9972 at
the cosine -0.33 (a = 0.9916).  The references of thin annuli take seconds
each: the whole file takes about 90 s on one core.

Example:
    python scripts/piecewise_references.py --count 60 --seed 11
"""

import argparse
import json
import math
import sys
from pathlib import Path

import mpmath
import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import references  # noqa: E402

DIMENSIONS = (3, 4, 5, 6, 9, 20)


def _unit(rng, n: int) -> np.ndarray:
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


def _turned(rng, u: np.ndarray, angle: float) -> np.ndarray:
    """A unit vector at ``angle`` from the unit vector u."""
    w = rng.normal(size=u.size)
    w -= (w @ u) * u
    return math.cos(angle) * u + math.sin(angle) * w / np.linalg.norm(w)


def draws(count: int, seed: int) -> list[dict]:
    """``count`` seeded draws of the strata, then the two named cases."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        n = int(rng.choice(DIMENSIONS))
        a = (
            rng.uniform(0.05, 0.95),
            10.0 ** rng.uniform(-3.0, -1.3),
            1.0 - 10.0 ** rng.uniform(-3.0, -1.3),
        )[i % 3]
        a = float(a)
        inner = rng.uniform(0.001, 0.45) if rng.random() < 0.5 else 1e-3
        outer = rng.uniform(0.55, 0.999) if rng.random() < 0.5 else 1.0 - 1e-3
        u = _unit(rng, n)
        v = _turned(rng, u, 1e-3) if rng.random() < 0.3 else _unit(rng, n)
        x = (a + inner * (1.0 - a)) * u
        y = (a + outer * (1.0 - a)) * v
        if rng.random() < 0.5:
            x, y = y, x
        out.append({"name": f"draw{i}", "n": n, "a": a, "x": x.tolist(), "y": y.tolist()})
    e1, e2 = np.eye(20)[0], np.eye(20)[1]
    t = -0.33
    out.append({"name": "n20-ray", "n": 20, "a": 0.982,
                "x": (0.982 * e1).tolist(), "y": (0.9995 * e1).tolist()})
    out.append({"name": "n20-cancel", "n": 20, "a": 0.9916,
                "x": (0.9947 * e1).tolist(),
                "y": (0.9972 * (t * e1 + math.sqrt(1.0 - t * t) * e2)).tolist()})
    return out


def reference(draw: dict) -> str:
    """The draw's Green function at 50 digits, as a string."""
    value = references.mp_green(draw["n"], draw["a"], draw["x"], draw["y"])
    return mpmath.nstr(value, references.DPS)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=60, help="seeded draws before the named cases")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--out", type=Path, default=references.PIECEWISE_FIXTURE)
    args = ap.parse_args()
    out = []
    for draw in draws(args.count, args.seed):
        draw["value"] = reference(draw)
        print(f"{draw['name']} n={draw['n']} a={draw['a']:.6g}", file=sys.stderr, flush=True)
        out.append(draw)
    data = {"dps": references.DPS, "seed": args.seed, "draws": out}
    args.out.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {len(out)} references to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded verification suites: every module invariant as a pass/fail check.

This is the one place where an invariant, its tolerance and its sample size
are written down.  Each check runs at the truncation policy written beside
it, and no caller can replace that policy.  The ``verify`` subcommand runs
the suites at any seed, and the tier-1 tests run each of them at a fixed
seed.  The oracles (direct distance formulas, the two-point modal
construction, finite differences, the reflection ball kernel, dense grid
scans) are independent of the series code they check.

Each suite draws its randomness from a generator seeded by (seed, suite
index), so summaries are byte-identical across runs with the same seed and
independent of which suites were selected.  A suite never raises on a failed
check; it counts failures and keeps the worst observed error so the CLI can
report and exit nonzero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import (
    AnnulusError,
    AnnulusGeometry,
    TruncationPolicy,
    newtonian_potential,
)
from .critical import count_gradient_sign_changes, find_critical_point
from .green import (
    _SCALAR,
    _SERIES,
    _normalised,
    _radial,
    _remainder_rows,
    green_eval,
    green_piecewise_eval,
    modal_coefficient,
    robin2d_eval,
    robin2d_first,
    robin2d_second,
    robin_eval,
    robin_radial_gradient,
    robin_radial_gradient_derivative,
)
from .kernels import (
    BoundaryData,
    build_sphere_quadrature,
    harmonic_extension,
    newtonian_series_exterior,
    newtonian_series_inner,
    newtonian_series_outer,
)
from .oracle import (
    FDGrid,
    ball_green_closed_form,
    grid_scan_extremum,
    modal_bvp_fd,
    modal_green_analytic,
    modal_green_fd,
)
from .specfun import (
    gegenbauer_endpoint_exact,
    gegenbauer_eval,
    gegenbauer_generating_sum,
    harmonic_space_dim,
    zonal_direct,
    zonal_from_gegenbauer,
)
from .summation import sum_series


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: int = 0
    worst: float = 0.0
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, err: float, label: str) -> None:
        self.checks += 1
        if math.isfinite(err):
            self.worst = max(self.worst, err)
        else:
            self.worst = math.inf
        if not ok:
            self.failures += 1
            if len(self.notes) < 8:
                self.notes.append(f"FAIL {label} (err={err:.3e})")

    def run_guarded(self, fn: Callable[[], None], label: str) -> None:
        try:
            fn()
        except AnnulusError as exc:
            self.checks += 1
            self.failures += 1
            self.worst = math.inf
            if len(self.notes) < 8:
                self.notes.append(f"FAIL {label} ({type(exc).__name__}: {exc})")

    @property
    def passed(self) -> bool:
        return self.failures == 0


def unit_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    while True:
        v = rng.normal(size=n)
        norm = np.linalg.norm(v)
        if norm > 1e-6:
            return v / norm


# ---------------------------------------------------------------------------
# suites


def suite_special_functions(rng: np.random.Generator) -> SuiteResult:
    out = SuiteResult("special-functions")
    pol = TruncationPolicy(abs_tol=1e-11, max_terms=5000)

    for lam in (0.5, 1.0, 1.5, 2.5):
        for t in (-1.0, -0.5, 0.0, 0.5, 1.0):
            for r in (0.1, 0.5, 0.9):
                res = gegenbauer_generating_sum(lam, t, r, pol)
                closed = (1.0 - 2.0 * r * t + r * r) ** (-lam)
                err = abs(res.value - closed)
                out.check(err <= 1e-9, err, f"generating lam={lam} t={t} r={r}")

    for n in range(3, 9):
        for m in range(31):
            exact = gegenbauer_endpoint_exact(n, m)
            ref = math.comb(n + m - 3, m)
            out.check(exact == ref, abs(exact - ref), f"endpoint n={n} m={m}")
            fv = gegenbauer_eval(0.5 * (n - 2), m, 1.0)
            rel = abs(fv - ref) / ref
            out.check(rel <= 1e-12, rel, f"endpoint-float n={n} m={m}")

    for n in (3, 4, 5, 6):
        for _ in range(250):
            xi = unit_vector(rng, n)
            eta = unit_vector(rng, n)
            m = int(rng.integers(0, 16))
            d = harmonic_space_dim(n, m)
            zd = zonal_direct(n, m, xi, eta)
            zg = zonal_from_gegenbauer(n, m, xi, eta)
            err = abs(zd - zg) / d
            out.check(err <= 1e-10, err, f"route n={n} m={m}")
            diag = zonal_direct(n, m, xi, xi)
            err_d = abs(diag - d) / d
            out.check(err_d <= 1e-10, err_d, f"diagonal n={n} m={m}")
            out.check(abs(zd) <= d * (1.0 + 1e-9), max(0.0, (abs(zd) - d) / d), f"bound n={n} m={m}")

    return out


def suite_distance_series(rng: np.random.Generator) -> SuiteResult:
    out = SuiteResult("distance-series")
    pol = TruncationPolicy(abs_tol=1e-12, max_terms=50_000)
    a = 0.4
    for n in (3, 4, 5):
        geom = AnnulusGeometry(n, a)
        for _ in range(250):
            xi = unit_vector(rng, n)
            y = rng.uniform(0.0, 0.95) * unit_vector(rng, n)
            res = newtonian_series_outer(geom, xi, y, pol)
            direct = float(np.linalg.norm(xi - y)) ** (2 - n)
            err = abs(res.value - direct)
            out.check(res.converged and err <= res.tail_bound + 1e-12, err, f"outer n={n}")
        for _ in range(250):
            xi = unit_vector(rng, n)
            y = rng.uniform(a * 1.05, 1.1) * unit_vector(rng, n)
            res = newtonian_series_inner(geom, xi, y, pol)
            direct = float(np.linalg.norm(a * xi - y)) ** (2 - n)
            err = abs(res.value - direct)
            out.check(res.converged and err <= res.tail_bound + 1e-12, err, f"inner n={n}")
        for _ in range(80):
            x = rng.uniform(0.5, 1.4) * unit_vector(rng, n)
            y = rng.uniform(0.05, 0.9) * float(np.linalg.norm(x)) * unit_vector(rng, n)
            res = newtonian_series_exterior(geom, x, y, pol)
            direct = float(np.linalg.norm(x - y)) ** (2 - n)
            err = abs(res.value - direct)
            out.check(res.converged and err <= res.tail_bound + 1e-12, err, f"exterior n={n}")
    return out


def suite_poisson_extension(rng: np.random.Generator) -> SuiteResult:
    out = SuiteResult("poisson-extension")
    geom = AnnulusGeometry(3, 0.5)
    pol = TruncationPolicy(abs_tol=1e-9, max_terms=48)
    quad = build_sphere_quadrature(2 * (pol.max_terms - 1) + 2)
    span = 1.0 - geom.a

    ones = BoundaryData(outer=lambda v: 1.0, inner=lambda v: 1.0)
    for _ in range(50):
        x = rng.uniform(geom.a + 0.05 * span, 1.0 - 0.05 * span) * unit_vector(rng, 3)
        def chk(x=x):
            res = harmonic_extension(geom, ones, x, pol, quad)
            err = abs(res.value - 1.0)
            out.check(err <= 1e-8, err, "mean value f=1")
        out.run_guarded(chk, "mean value f=1")

    coord = BoundaryData(outer=lambda v: v[0], inner=lambda v: geom.a * v[0])
    for _ in range(20):
        x = rng.uniform(geom.a + 0.05 * span, 1.0 - 0.05 * span) * unit_vector(rng, 3)
        def chk(x=x):
            res = harmonic_extension(geom, coord, x, pol, quad)
            err = abs(res.value - x[0])
            out.check(err <= 1e-6, err, "coordinate trace")
        out.run_guarded(chk, "coordinate trace")

    # degree-1 zonal data on the outer sphere only: compare with the modal
    # two-point solve on a shared radial grid
    zonal1 = BoundaryData(outer=lambda v: v[0], inner=lambda v: 0.0)
    grid = FDGrid(4001, geom.a)
    profile = modal_bvp_fd(3, 1, geom.a, 0.0, 1.0, grid)
    e1 = np.array([1.0, 0.0, 0.0])
    for idx in range(400, 3601, 400):
        r = float(grid.nodes[idx])
        def chk(r=r, idx=idx):
            res = harmonic_extension(geom, zonal1, r * e1, pol, quad)
            err = abs(res.value - profile[idx])
            out.check(err <= 1e-6, err, f"mode-1 profile r={r:.4f}")
        out.run_guarded(chk, "mode-1 profile")

    # trace recovery: cubic extrapolation along the radius toward 10 boundary
    # points, smooth polynomial data
    def smooth(v):
        return v[0] * v[0] + 0.5 * v[1] - 0.3 * v[2]

    data = BoundaryData(outer=lambda v: smooth(v), inner=lambda v: smooth(geom.a * v))
    offsets = np.array([0.02, 0.015, 0.01, 0.005]) * span
    for k in range(10):
        xi = unit_vector(rng, 3)
        outer_side = k % 2 == 0
        target = smooth(xi) if outer_side else smooth(geom.a * xi)
        radii = (1.0 - offsets) if outer_side else (geom.a + offsets)
        def chk(xi=xi, radii=radii, target=target):
            vals = [harmonic_extension(geom, data, r * xi, pol, quad).value for r in radii]
            lim = _neville(offsets, vals)
            err = abs(lim - target)
            out.check(err <= 1e-4, err, "boundary trace")
        out.run_guarded(chk, "boundary trace")

    return out


def _neville(xs, vals) -> float:
    """Polynomial extrapolation of (xs, vals) to 0."""
    tab = [float(v) for v in vals]
    n = len(tab)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            tab[i] = (xs[i - j] * tab[i] - xs[i] * tab[i - 1]) / (xs[i - j] - xs[i])
    return tab[-1]


def suite_green_function(rng: np.random.Generator) -> SuiteResult:
    out = SuiteResult("green-function")
    pol = TruncationPolicy(abs_tol=1e-9, max_terms=200_000)

    for n in (3, 4):
        for a in (0.3, 0.5):
            geom = AnnulusGeometry(n, a)
            span = 1.0 - a
            for _ in range(50):
                bdry_r = 1.0 if rng.random() < 0.5 else a
                x = bdry_r * unit_vector(rng, n)
                y = rng.uniform(a + 1e-3 * span, 1.0 - 1e-3 * span) * unit_vector(rng, n)
                res = green_eval(geom, x, y, pol)
                err = abs(res.value)
                out.check(
                    res.converged and err <= res.tail_bound + 1e-8,
                    err,
                    f"dirichlet n={n} a={a}",
                )

    geom = AnnulusGeometry(3, 0.5)
    span = 0.5
    tight = TruncationPolicy(abs_tol=1e-12, max_terms=200_000)

    def interior(margin=0.02):
        return rng.uniform(geom.a + margin * span, 1.0 - margin * span) * unit_vector(rng, 3)

    for _ in range(200):
        x, y = interior(), interior()
        if np.linalg.norm(x - y) < 1e-3:
            continue
        g1 = green_eval(geom, x, y, tight)
        g2 = green_eval(geom, y, x, tight)
        err = abs(g1.value - g2.value) / max(1.0, abs(g1.value))
        out.check(err <= 1e-10, err, "symmetry")
        out.check(g1.value > -1e-10, max(0.0, -g1.value), "positivity")

    for _ in range(200):
        x, y = interior(), interior()
        if abs(np.linalg.norm(x) - np.linalg.norm(y)) < 1e-6:
            continue
        if np.linalg.norm(x - y) < 1e-3:
            continue
        g1 = green_eval(geom, x, y, tight)
        g2 = green_piecewise_eval(geom, x, y, tight)
        err = abs(g1.value - g2.value)
        out.check(err <= g1.tail_bound + g2.tail_bound + 1e-12, err, "path agreement")

    # regular part is harmonic: discrete Laplacian of G - fundamental solution
    vtight = TruncationPolicy(abs_tol=1e-13, max_terms=200_000)
    h = 1e-3
    for _ in range(50):
        x = rng.uniform(geom.a + 0.15 * span, 1.0 - 0.15 * span) * unit_vector(rng, 3)
        y = rng.uniform(geom.a + 0.15 * span, 1.0 - 0.15 * span) * unit_vector(rng, 3)
        if np.linalg.norm(x - y) < 0.05:
            continue

        def regular(p):
            return green_eval(geom, p, y, vtight).value - newtonian_potential(geom, p, y)

        lap = -2.0 * geom.n * regular(x)
        for i in range(geom.n):
            e = np.zeros(geom.n)
            e[i] = h
            lap += regular(x + e) + regular(x - e)
        err = abs(lap) / h**2
        out.check(err <= 1e-4, err, "harmonic regular part")

    return out


def suite_modal_oracle(rng: np.random.Generator) -> SuiteResult:
    out = SuiteResult("modal-oracle")

    for n, a in ((3, 0.5), (4, 0.3)):
        geom = AnnulusGeometry(n, a)
        pairs = [(rng.uniform(a, 1.0), rng.uniform(a, 1.0)) for _ in range(20)]
        for m in range(51):
            for r, s in pairs:
                mc = modal_coefficient(geom, m, r, s)
                an = modal_green_analytic(n, m, a, r, s)
                if mc == 0.0:
                    err = abs(an)
                    out.check(err <= 1e-15, err, f"modal zero n={n} m={m}")
                else:
                    err = abs(an / (geom.omega * mc) - 1.0)
                    out.check(err <= 1e-10, err, f"modal ratio n={n} m={m}")

    # each source radius s = a + 0.6 (1 - a) is a node of every nested grid
    fd_cases = ((3, 1, 0.5, 0.8), (3, 2, 0.5, 0.8), (4, 1, 0.5, 0.8), (4, 1, 0.3, 0.72))
    for n, m, a, s in fd_cases:
        errs = []
        for num in (501, 1001, 2001):
            grid = FDGrid(num, a)
            prof = modal_green_fd(n, m, a, s, grid)
            exact = np.array(
                [modal_green_analytic(n, m, a, float(r), s) for r in grid.nodes]
            )
            scale = float(np.max(np.abs(exact)))
            errs.append(float(np.max(np.abs(prof - exact))) / scale)
        out.check(errs[-1] <= 1e-4, errs[-1], f"fd accuracy n={n} m={m} a={a}")
        for k in (0, 1):
            order = math.log2(errs[k] / errs[k + 1])
            out.check(abs(order - 2.0) <= 0.2, abs(order - 2.0), f"fd order n={n} m={m} a={a}")

    # vanishing annulus recovers the ball Green function at rate a^(n-2)
    x = np.array([0.5, 0.0, 0.0])
    y = np.array([0.3, 0.2, 0.0])
    ref = ball_green_closed_form(3, x, y)
    pol = TruncationPolicy(abs_tol=1e-13, max_terms=200_000)
    radii = (0.1, 0.03, 0.01)
    errs = [abs(green_eval(AnnulusGeometry(3, a), x, y, pol).value - ref) for a in radii]
    out.check(errs[0] > errs[1] > errs[2], 0.0, "ball limit monotone")
    c_fit = sum(e * a for e, a in zip(errs, radii)) / sum(a * a for a in radii)
    for e, a in zip(errs, radii):
        excess = max(0.0, e / (1.25 * c_fit * a) - 1.0)
        out.check(excess == 0.0, excess, f"ball limit scale a={a}")
    out.notes.append(f"ball-limit fitted constant C={c_fit:.6e}")
    return out


def suite_robin_derivatives(rng: np.random.Generator) -> SuiteResult:
    out = SuiteResult("robin-derivatives")
    pol = TruncationPolicy(abs_tol=1e-12, max_terms=200_000)
    h = 1e-4

    for n, a in ((3, 0.5), (4, 0.3)):
        geom = AnnulusGeometry(n, a)
        span = 1.0 - a
        # stay away from the boundary layers: the h^2 truncation of the
        # central difference grows with the third derivative there
        radii = np.linspace(a + 0.3 * span, 1.0 - 0.3 * span, 10)
        for r in radii:
            r = float(r)
            grad = robin_radial_gradient(geom, r, pol)
            fd = (robin_eval(geom, r + h, pol).value - robin_eval(geom, r - h, pol).value) / (2 * h) * r
            err = abs(grad.value - fd) / max(1.0, abs(grad.value))
            out.check(err <= 1e-6, err, f"gradient fd n={n}")
            slope = robin_radial_gradient_derivative(geom, r, pol)
            fd2 = (
                robin_radial_gradient(geom, r + h, pol).value
                - robin_radial_gradient(geom, r - h, pol).value
            ) / (2 * h)
            err2 = abs(slope.value - fd2) / max(1.0, abs(slope.value))
            out.check(err2 <= 1e-6, err2, f"slope fd n={n}")
            out.check(slope.value < 0.0, max(0.0, slope.value), f"slope negative n={n}")
            rv = robin_eval(geom, r, pol)
            out.check(rv.value < 0.0, max(0.0, rv.value), f"robin negative n={n}")

    # divergence toward the outer sphere
    geom = AnnulusGeometry(3, 0.5)
    wide = TruncationPolicy(abs_tol=1e-8, max_terms=500_000)
    v1 = robin_eval(geom, 1.0 - 9e-4, wide).value
    v2 = robin_eval(geom, 1.0 - 4.5e-4, wide).value
    out.check(v1 < -10.0 and v2 < v1, max(0.0, v1 + 10.0), "outer blowup")

    # truncating at M and 2M stays inside the reported tail
    short = TruncationPolicy(abs_tol=0.0, max_terms=15, tail_safety=1)
    longer = TruncationPolicy(abs_tol=0.0, max_terms=30, tail_safety=1)
    v_short = robin_eval(geom, 0.7, short)
    v_long = robin_eval(geom, 0.7, longer)
    excess = max(0.0, abs(v_short.value - v_long.value) - v_short.tail_bound)
    out.check(excess == 0.0, excess, "tail contract M vs 2M")

    # diagonal limit of the off-diagonal route
    e1 = np.array([1.0, 0.0, 0.0])
    hs = np.array([1e-2, 5e-3, 2.5e-3, 1.25e-3])
    for r in np.linspace(0.6, 0.9, 10):
        r = float(r)
        vals = []
        for hh in hs:
            x = (r + hh) * e1
            y = r * e1
            vals.append(green_eval(geom, x, y, pol).value - newtonian_potential(geom, x, y))
        lim = _neville(hs, vals)
        direct = robin_eval(geom, r, pol).value
        err = abs(lim - direct)
        out.check(err <= 1e-6, err, f"diagonal limit r={r:.2f}")

    # planar family
    for a in (0.1, 0.2, 0.5):
        span = 1.0 - a
        for margin in (0.02, 0.01):
            for r in np.linspace(a + margin * span, 1.0 - margin * span, 50):
                sec = robin2d_second(a, float(r), pol)
                out.check(sec.value > 0.0, max(0.0, -sec.value), f"planar convexity a={a}")
        # derivative signs next to the two circles
        lo_sign = robin2d_first(a, a + 0.01 * span, pol).value
        hi_sign = robin2d_first(a, 1.0 - 0.01 * span, pol).value
        out.check(lo_sign < 0.0 < hi_sign, 0.0, f"planar end signs a={a}")
    hh = 1e-5
    for r in np.linspace(0.3, 0.9, 10):
        r = float(r)
        fd = (robin2d_eval(0.2, r + hh, pol).value - robin2d_eval(0.2, r - hh, pol).value) / (2 * hh)
        err = abs(fd - robin2d_first(0.2, r, pol).value)
        out.check(err <= 1e-6, err, "planar derivative fd")
    lo_sign = robin2d_first(0.2, 0.21, pol).value
    hi_sign = robin2d_first(0.2, 0.99, pol).value
    out.check(lo_sign < 0.0 < hi_sign, 0.0, "planar derivative signs")

    # image tail agreement: on seeded thin annuli, each switched remainder
    # summed through its image rows against its plain mode series, within
    # the sum of both bounds
    tail_pol = TruncationPolicy(abs_tol=1e-10, max_terms=200_000)
    for n in range(2, 7):
        for _ in range(4):
            a = float(rng.uniform(0.85, 0.99))
            r = a + float(rng.uniform(1e-3, 1.0 - 1e-3)) * (1.0 - a)
            k, geom = n - 2, AnnulusGeometry(n, a)
            if n == 2:
                names = ("robin2d_first", "robin2d_second")
            else:
                names = ("robin_eval", "robin_radial_gradient", "robin_radial_gradient_derivative")
            for name in names:
                _, _, scale, parts = _normalised(_SERIES[name], geom, r, _SCALAR)
                modes, images = (
                    sum_series(_remainder_rows(k, a, r, scale, parts, flag, _SCALAR), tail_pol)
                    for flag in (False, True)
                )
                bound = modes.tail_bound + images.tail_bound
                excess = max(0.0, abs(modes.value - images.value) - bound)
                ok = modes.converged and images.converged and excess == 0.0
                out.check(ok, excess, f"image tail agreement {name} n={n}")
    return out


def suite_critical_point(rng: np.random.Generator) -> SuiteResult:
    out = SuiteResult("critical-point")
    pol = TruncationPolicy(abs_tol=1e-12, max_terms=200_000)

    for n, a, kind in ((2, 0.2, "min"), (3, 0.5, "max"), (4, 0.3, "max")):
        geom = AnnulusGeometry(n, a)

        def run(n=n, a=a, kind=kind, geom=geom):
            rep = find_critical_point(geom, pol, solver_tol=1e-12)
            out.check(rep.residual <= 1e-10, rep.residual, f"residual n={n}")
            out.check(
                a < rep.bracket[0] < rep.r0 < rep.bracket[1] < 1.0, 0.0, f"bracket n={n}"
            )
            out.check(rep.nondegenerate, 0.0, f"nondegenerate n={n}")
            out.check(rep.is_radial_minimum == (n == 2), 0.0, f"extremum kind n={n}")

            # second-derivative sign against the central second difference
            hh = 1e-3
            family = _radial(geom)
            vals = [family.value(rep.r0 + k * hh, pol).value for k in (-1, 0, 1)]
            second_fd = (vals[0] - 2 * vals[1] + vals[2]) / hh**2
            out.check(
                (second_fd > 0) == (rep.second_derivative > 0), 0.0, f"curvature sign n={n}"
            )

            changes, _ = count_gradient_sign_changes(
                geom, TruncationPolicy(abs_tol=1e-8, max_terms=500_000), num=2000
            )
            out.check(changes == 1, abs(changes - 1), f"single sign change n={n}")

            span = 1.0 - a
            fn = lambda r: family.value_grid(r, pol).value
            r_scan, _ = grid_scan_extremum(
                fn, a + 0.05 * span, 1.0 - 0.05 * span, 100_000, kind=kind
            )
            err = abs(r_scan - rep.r0)
            out.check(err <= 1e-6, err, f"grid scan n={n}")

        out.run_guarded(run, f"critical point n={n} a={a}")

    return out


SUITES: dict[str, Callable[[np.random.Generator], SuiteResult]] = {
    "special-functions": suite_special_functions,
    "distance-series": suite_distance_series,
    "poisson-extension": suite_poisson_extension,
    "green-function": suite_green_function,
    "modal-oracle": suite_modal_oracle,
    "robin-derivatives": suite_robin_derivatives,
    "critical-point": suite_critical_point,
}


def run_suites(names: list[str] | None = None, seed: int = 0) -> list[SuiteResult]:
    selected = list(SUITES) if not names else names
    order = {name: i for i, name in enumerate(SUITES)}
    results = []
    for name in selected:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
        rng = np.random.default_rng([seed, order[name]])
        results.append(SUITES[name](rng))
    return results


def render_summary(results: list[SuiteResult], seed: int) -> str:
    lines = [f"verification seed={seed}"]
    total_checks = 0
    total_failures = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        lines.append(
            f"{status} {res.name:<20} checks={res.checks:5d} "
            f"failures={res.failures:4d} worst={res.worst:.3e}"
        )
        for note in res.notes:
            lines.append(f"     {note}")
        total_checks += res.checks
        total_failures += res.failures
    overall = "PASS" if total_failures == 0 else "FAIL"
    lines.append(f"RESULT {overall} checks={total_checks} failures={total_failures}")
    return "\n".join(lines) + "\n"

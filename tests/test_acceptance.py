"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Tolerances are pinned here and nowhere else; the oracles (direct distance
formulas, two-point modal construction, finite differences, reflection ball
kernel, dense grid scans) are independent of the series code they check.
"""

import math
import time

import numpy as np
import pytest

from annulus_green import (
    AnnulusGeometry,
    BoundaryData,
    FDGrid,
    TruncationPolicy,
    ball_green_closed_form,
    build_sphere_quadrature,
    count_gradient_sign_changes,
    find_critical_point,
    gegenbauer_endpoint_exact,
    gegenbauer_eval,
    gegenbauer_generating_sum,
    green_eval,
    grid_scan_extremum,
    harmonic_extension,
    harmonic_space_dim,
    modal_bvp_fd,
    modal_coefficient,
    modal_green_analytic,
    modal_green_fd,
    newtonian_potential,
    newtonian_series_inner,
    newtonian_series_outer,
    refine_critical_point,
    robin2d_eval_grid,
    robin2d_first,
    robin2d_second,
    robin_eval,
    robin_eval_grid,
    robin_radial_gradient,
    robin_radial_gradient_derivative,
)
from annulus_green.verify import unit_vector

RNG_SEED = 1234


def report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({detail})")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def fresh_rng():
    return np.random.default_rng(RNG_SEED)


def test_c01_dirichlet_boundary_vanishing():
    rng = fresh_rng()
    policy = TruncationPolicy(abs_tol=1e-9, max_terms=200_000)
    t0 = time.monotonic()
    worst = 0.0
    ok = True
    for n in (3, 4):
        for a in (0.3, 0.5):
            geom = AnnulusGeometry(n, a)
            span = 1.0 - a
            for _ in range(50):
                bdry = 1.0 if rng.random() < 0.5 else a
                x = bdry * unit_vector(rng, n)
                y = rng.uniform(a + 1e-3 * span, 1.0 - 1e-3 * span) * unit_vector(rng, n)
                res = green_eval(geom, x, y, policy)
                err = abs(res.value)
                worst = max(worst, err)
                ok = ok and res.converged and err <= res.tail_bound + 1e-8
    elapsed = time.monotonic() - t0
    ok = ok and elapsed <= 30.0
    report(1, "dirichlet-boundary", ok, f"worst=|G|={worst:.3e}, {elapsed:.1f}s")


def test_c02_green_symmetry():
    rng = fresh_rng()
    policy = TruncationPolicy(abs_tol=1e-12, max_terms=200_000)
    geom = AnnulusGeometry(3, 0.5)
    t0 = time.monotonic()
    worst = 0.0
    count = 0
    while count < 200:
        x = rng.uniform(0.51, 0.99) * unit_vector(rng, 3)
        y = rng.uniform(0.51, 0.99) * unit_vector(rng, 3)
        if np.linalg.norm(x - y) < 1e-3:
            continue
        count += 1
        g1 = green_eval(geom, x, y, policy).value
        g2 = green_eval(geom, y, x, policy).value
        worst = max(worst, abs(g1 - g2) / max(1.0, abs(g1)))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-10 and elapsed <= 30.0
    report(2, "green-symmetry", ok, f"worst rel={worst:.3e}, {elapsed:.1f}s")


def test_c03_regular_part_harmonic():
    rng = fresh_rng()
    policy = TruncationPolicy(abs_tol=1e-13, max_terms=300_000)
    geom = AnnulusGeometry(3, 0.5)
    h = 1e-3
    worst = 0.0
    done = 0
    while done < 50:
        x = rng.uniform(0.575, 0.925) * unit_vector(rng, 3)
        y = rng.uniform(0.575, 0.925) * unit_vector(rng, 3)
        if np.linalg.norm(x - y) < 0.05:
            continue
        done += 1

        def regular(p):
            return green_eval(geom, p, y, policy).value - newtonian_potential(geom, p, y)

        lap = -6.0 * regular(x)
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            lap += regular(x + e) + regular(x - e)
        worst = max(worst, abs(lap) / h**2)
    ok = worst <= 1e-4
    report(3, "regular-part-harmonic", ok, f"worst discrete Laplacian={worst:.3e}")


def test_c04_modal_oracle_equivalence():
    rng = fresh_rng()
    t0 = time.monotonic()
    worst_ratio = 0.0
    for n, a in ((3, 0.5), (4, 0.3)):
        geom = AnnulusGeometry(n, a)
        pairs = [(rng.uniform(a, 1.0), rng.uniform(a, 1.0)) for _ in range(20)]
        for m in range(51):
            for r, s in pairs:
                mc = modal_coefficient(geom, m, r, s)
                an = modal_green_analytic(n, m, a, r, s)
                worst_ratio = max(worst_ratio, abs(an / (geom.omega * mc) - 1.0))
    ok = worst_ratio <= 1e-10

    worst_order_dev = 0.0
    worst_fine = 0.0
    for n, m in ((3, 1), (3, 2), (4, 1)):
        a = 0.5 if n == 3 else 0.3
        s = a + 0.6 * (1.0 - a)  # on every nested grid
        errs = []
        for num in (501, 1001, 2001):
            grid = FDGrid(num, a)
            prof = modal_green_fd(n, m, a, s, grid)
            exact = np.array(
                [modal_green_analytic(n, m, a, float(r), s) for r in grid.nodes]
            )
            scale = float(np.max(np.abs(exact)))
            errs.append(float(np.max(np.abs(prof - exact))) / scale)
        worst_fine = max(worst_fine, errs[-1])
        for k in (0, 1):
            worst_order_dev = max(worst_order_dev, abs(math.log2(errs[k] / errs[k + 1]) - 2.0))
    elapsed = time.monotonic() - t0
    ok = ok and worst_fine <= 1e-4 and worst_order_dev <= 0.2 and elapsed <= 60.0
    report(
        4,
        "modal-oracle",
        ok,
        f"ratio dev={worst_ratio:.3e}, fd err={worst_fine:.3e}, "
        f"order dev={worst_order_dev:.3f}, {elapsed:.1f}s",
    )


def test_c05_ball_limit():
    policy = TruncationPolicy(abs_tol=1e-13, max_terms=200_000)
    x = np.array([0.5, 0.0, 0.0])
    y = np.array([0.3, 0.2, 0.0])
    ref = ball_green_closed_form(3, x, y)
    radii = (0.1, 0.03, 0.01)
    errs = [abs(green_eval(AnnulusGeometry(3, a), x, y, policy).value - ref) for a in radii]
    monotone = errs[0] > errs[1] > errs[2]
    c_fit = sum(e * a for e, a in zip(errs, radii)) / sum(a * a for a in radii)
    within = all(e <= 1.25 * c_fit * a for e, a in zip(errs, radii))
    ok = monotone and within
    report(
        5,
        "ball-limit",
        ok,
        f"errors={[f'{e:.2e}' for e in errs]}, fitted C={c_fit:.4f}",
    )


def test_c06_critical_point():
    policy = TruncationPolicy(abs_tol=1e-12, max_terms=300_000)
    scan_policy = TruncationPolicy(abs_tol=1e-12, max_terms=300_000)
    worst_scan = 0.0
    worst_resid = 0.0
    worst_newton = 0.0
    ok = True
    for n, a, kind in ((2, 0.2, "min"), (3, 0.5, "max"), (4, 0.3, "max")):
        geom = AnnulusGeometry(n, a)
        rep = find_critical_point(geom, policy, solver_tol=1e-12)
        worst_resid = max(worst_resid, rep.residual)
        ok = ok and rep.residual <= 1e-10

        span = 1.0 - a
        if n >= 3:
            fn = lambda r: robin_eval_grid(geom, r, scan_policy).value
        else:
            fn = lambda r: robin2d_eval_grid(a, r, scan_policy).value
        r_scan, _ = grid_scan_extremum(
            fn, a + 0.05 * span, 1.0 - 0.05 * span, 100_000, kind=kind
        )
        worst_scan = max(worst_scan, abs(r_scan - rep.r0))
        ok = ok and abs(r_scan - rep.r0) <= 1e-6

        # the independent Newton route, started off-centre
        newton = refine_critical_point(geom, rep.r0 + 0.05 * span, policy, solver_tol=1e-12)
        worst_newton = max(worst_newton, abs(newton - rep.r0))
        ok = ok and abs(newton - rep.r0) <= 1e-8

        changes, _ = count_gradient_sign_changes(
            geom, TruncationPolicy(abs_tol=1e-8, max_terms=500_000), num=2_000
        )
        ok = ok and changes == 1
    report(
        6,
        "critical-point",
        ok,
        f"scan dev={worst_scan:.3e}, residual={worst_resid:.3e}, "
        f"newton agreement={worst_newton:.3e}",
    )


def test_c07_planar_convexity():
    policy = TruncationPolicy(abs_tol=1e-12, max_terms=200_000)
    ok = True
    min_second = math.inf
    for a in (0.1, 0.2, 0.5):
        span = 1.0 - a
        for r in np.linspace(a + 0.01 * span, 1.0 - 0.01 * span, 50):
            val = robin2d_second(a, float(r), policy).value
            min_second = min(min_second, val)
            ok = ok and val > 0.0
        # derivative limit signs at the two circles
        ok = ok and robin2d_first(a, a + 0.01 * span, policy).value < 0.0
        ok = ok and robin2d_first(a, 1.0 - 0.01 * span, policy).value > 0.0
    report(7, "planar-convexity", ok, f"min second derivative={min_second:.3e}")


def test_c08_special_functions():
    rng = fresh_rng()
    ok = True
    # endpoint identity, exact integer arithmetic
    for n in range(3, 9):
        for m in range(31):
            ok = ok and gegenbauer_endpoint_exact(n, m) == math.comb(n + m - 3, m)
    # generating-function partial sums against the closed form
    policy = TruncationPolicy(abs_tol=1e-11, max_terms=5_000)
    worst_gen = 0.0
    for lam in (0.5, 1.0, 1.5, 2.5):
        for t in (-1.0, -0.5, 0.0, 0.5, 1.0):
            for r in (0.1, 0.5, 0.9):
                res = gegenbauer_generating_sum(lam, t, r, policy)
                closed = (1.0 - 2.0 * r * t + r * r) ** (-lam)
                worst_gen = max(worst_gen, abs(res.value - closed))
    ok = ok and worst_gen <= 1e-9
    # zonal route agreement and the diagonal identity (the dimension used is
    # the product form; the difference-of-binomials printout fails n=3, m=2)
    from annulus_green import zonal_direct, zonal_from_gegenbauer

    worst_route = 0.0
    worst_diag = 0.0
    for k in range(1000):
        n = 3 + k % 4
        xi = unit_vector(rng, n)
        eta = unit_vector(rng, n)
        m = int(rng.integers(0, 16))
        d = harmonic_space_dim(n, m)
        worst_route = max(
            worst_route,
            abs(zonal_direct(n, m, xi, eta) - zonal_from_gegenbauer(n, m, xi, eta)) / d,
        )
        worst_diag = max(worst_diag, abs(zonal_direct(n, m, xi, xi) - d) / d)
    ok = ok and worst_route <= 1e-10 and worst_diag <= 1e-10
    report(
        8,
        "special-functions",
        ok,
        f"generating={worst_gen:.3e}, route={worst_route:.3e}, diagonal={worst_diag:.3e}",
    )


def test_c09_distance_series():
    rng = fresh_rng()
    policy = TruncationPolicy(abs_tol=1e-12, max_terms=100_000)
    a = 0.4
    worst = 0.0
    ok = True
    for n in (3, 4, 5):
        geom = AnnulusGeometry(n, a)
        for _ in range(250):
            xi = unit_vector(rng, n)
            y = rng.uniform(0.0, 0.95) * unit_vector(rng, n)
            res = newtonian_series_outer(geom, xi, y, policy)
            direct = float(np.linalg.norm(xi - y)) ** (2 - n)
            excess = abs(res.value - direct) - res.tail_bound
            worst = max(worst, excess)
            ok = ok and res.converged and excess <= 1e-12
        for _ in range(250):
            xi = unit_vector(rng, n)
            y = rng.uniform(1.05 * a, 1.1) * unit_vector(rng, n)
            res = newtonian_series_inner(geom, xi, y, policy)
            direct = float(np.linalg.norm(a * xi - y)) ** (2 - n)
            excess = abs(res.value - direct) - res.tail_bound
            worst = max(worst, excess)
            ok = ok and res.converged and excess <= 1e-12
    report(9, "distance-series", ok, f"worst error beyond tail={worst:.3e}")


def test_c10_harmonic_extension():
    rng = fresh_rng()
    geom = AnnulusGeometry(3, 0.5)
    policy = TruncationPolicy(abs_tol=1e-9, max_terms=48)
    quad = build_sphere_quadrature(2 * (policy.max_terms - 1) + 2)

    ones = BoundaryData(outer=lambda v: 1.0, inner=lambda v: 1.0)
    worst_one = 0.0
    for _ in range(50):
        x = rng.uniform(0.525, 0.975) * unit_vector(rng, 3)
        worst_one = max(worst_one, abs(harmonic_extension(geom, ones, x, policy, quad).value - 1.0))

    coord = BoundaryData(outer=lambda v: v[0], inner=lambda v: 0.5 * v[0])
    worst_coord = 0.0
    for _ in range(20):
        x = rng.uniform(0.525, 0.975) * unit_vector(rng, 3)
        worst_coord = max(
            worst_coord, abs(harmonic_extension(geom, coord, x, policy, quad).value - x[0])
        )

    zonal1 = BoundaryData(outer=lambda v: v[0], inner=lambda v: 0.0)
    grid = FDGrid(4001, 0.5)
    profile = modal_bvp_fd(3, 1, 0.5, 0.0, 1.0, grid)
    e1 = np.array([1.0, 0.0, 0.0])
    worst_mode = 0.0
    for idx in range(400, 3601, 400):
        r = float(grid.nodes[idx])
        got = harmonic_extension(geom, zonal1, r * e1, policy, quad).value
        worst_mode = max(worst_mode, abs(got - profile[idx]))

    ok = worst_one <= 1e-8 and worst_coord <= 1e-6 and worst_mode <= 1e-6
    report(
        10,
        "harmonic-extension",
        ok,
        f"constant={worst_one:.3e}, coordinate={worst_coord:.3e}, mode-1={worst_mode:.3e}",
    )


def test_c11_gradient_checks():
    policy = TruncationPolicy(abs_tol=1e-12, max_terms=200_000)
    h = 1e-4
    worst = 0.0
    for n, a in ((3, 0.5), (4, 0.3)):
        geom = AnnulusGeometry(n, a)
        span = 1.0 - a
        for r in np.linspace(a + 0.3 * span, 1.0 - 0.3 * span, 10):
            r = float(r)
            grad = robin_radial_gradient(geom, r, policy).value
            fd = (
                robin_eval(geom, r + h, policy).value - robin_eval(geom, r - h, policy).value
            ) / (2 * h) * r
            worst = max(worst, abs(grad - fd) / max(1.0, abs(grad)))
            slope = robin_radial_gradient_derivative(geom, r, policy).value
            fd2 = (
                robin_radial_gradient(geom, r + h, policy).value
                - robin_radial_gradient(geom, r - h, policy).value
            ) / (2 * h)
            worst = max(worst, abs(slope - fd2) / max(1.0, abs(slope)))
    ok = worst <= 1e-6
    report(11, "gradient-checks", ok, f"worst rel deviation={worst:.3e}")

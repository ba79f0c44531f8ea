"""Independent brute-force references for the series evaluators.

Nothing here shares arithmetic with the series code paths: the modal Green
function comes from the classical two-point construction out of homogeneous
solutions, the finite-difference solves discretize the radial operator
directly, the unit-ball Green function is the reflection closed form, and the
grid scan is a plain argmin/argmax with parabolic refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    DomainValidationError,
    GridEdgeError,
    SingularityError,
    TailEnvelopeError,
    require_integer,
    sphere_surface_area,
)


@dataclass(frozen=True)
class ModalOperator:
    """Mode-m radial reduction of -Laplace on (a, 1) with Dirichlet ends:
    L u = -(u'' + (n-1)/r u' - m(m+n-2) u / r^2)."""

    n: int
    m: int
    a: float

    def __post_init__(self):
        require_integer(self.n, "n", 3)
        require_integer(self.m, "mode", 0)
        if not (0.0 < self.a < 1.0):
            raise DomainValidationError(f"inner radius must satisfy 0 < a < 1, got {self.a!r}")

    @property
    def eigenvalue(self) -> int:
        return self.m * (self.m + self.n - 2)

    def solution_vanishing_inner(self, r: float) -> float:
        """Homogeneous solution with a zero at r = a."""
        beta = 2 * self.m + self.n - 2
        return r**self.m - self.a**beta * r ** (2 - self.n - self.m)

    def solution_vanishing_outer(self, r: float) -> float:
        """Homogeneous solution with a zero at r = 1 (negative inside)."""
        return r**self.m - r ** (2 - self.n - self.m)


def modal_green_analytic(n: int, m: int, a: float, r: float, s: float) -> float:
    """Two-point Green function of the mode-m radial operator on (a, 1).

    Built from the homogeneous solutions vanishing at each end with the
    standard Wronskian normalization; equals omega * modal_coefficient of the
    series module, which is exactly the cross-check it exists for.
    """
    require_integer(m, "mode", 0)
    m = int(m)
    op = ModalOperator(n, m, a)
    lo, hi = sorted((float(r), float(s)))
    if not (a - 1e-12 <= lo and hi <= 1.0 + 1e-12):
        raise DomainValidationError(f"radii ({r}, {s}) outside [{a}, 1]")
    lo = min(1.0, max(a, lo))
    hi = min(1.0, max(a, hi))
    beta = 2 * m + n - 2
    wron = beta * (1.0 - a**beta)  # p(s) * Wronskian of the two solutions, constant in s
    if not (wron > 0.0) or not math.isfinite(wron):
        raise ArithmeticError(f"degenerate Wronskian {wron} for n={n}, m={m}, a={a}")
    phi = op.solution_vanishing_inner(lo)
    psi_neg = -op.solution_vanishing_outer(hi)
    return phi * psi_neg / wron


@dataclass(frozen=True)
class FDGrid:
    """Uniform radial grid on [a, 1] with num_nodes nodes."""

    num_nodes: int
    a: float

    def __post_init__(self):
        require_integer(self.num_nodes, "num_nodes", 3)
        if not (0.0 < self.a < 1.0):
            raise DomainValidationError(f"inner radius must satisfy 0 < a < 1, got {self.a!r}")

    @property
    def spacing(self) -> float:
        return (1.0 - self.a) / (self.num_nodes - 1)

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.a, 1.0, self.num_nodes)


def _thomas(
    lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Solution of the tridiagonal system with row i
    lower[i] x[i-1] + diag[i] x[i] + upper[i] x[i+1] = rhs[i]
    by LU without pivoting (the Thomas algorithm); lower[0] and upper[-1]
    are not read.

    Stable where the matrix is an M-matrix or diagonally dominant (Higham,
    Accuracy and Stability of Numerical Algorithms, section 9.5).
    """
    lower, diag, upper, rhs = (v.tolist() for v in (lower, diag, upper, rhs))
    size = len(diag)
    c = [0.0] * size  # the eliminated upper diagonal, U's off-diagonal over its pivot
    x = [0.0] * size  # forward: the eliminated right-hand side; backward: the solution
    c[0], x[0] = upper[0] / diag[0], rhs[0] / diag[0]
    for i in range(1, size):
        pivot = diag[i] - lower[i] * c[i - 1]
        c[i] = upper[i] / pivot
        x[i] = (rhs[i] - lower[i] * x[i - 1]) / pivot
    for i in range(size - 2, -1, -1):
        x[i] -= c[i] * x[i + 1]
    return np.array(x)


def _modal_interior_solve(
    n: int, m: int, grid: FDGrid, interior_rhs: np.ndarray, u_inner: float, u_outer: float
) -> np.ndarray:
    """Second-order tridiagonal solve of the modal operator on the interior
    nodes.

    Dirichlet values are imposed exactly by elimination (moved to the right
    hand side), so the returned profile carries them without roundoff.
    _thomas solves the system without pivoting, which is stable where the
    matrix is an M-matrix: where every lower off-diagonal is <= 0, that is
    where (n - 1) h <= 2 r at the first interior node.  Coarser grids are
    refused.
    """
    r = grid.nodes
    h = grid.spacing
    num = grid.num_nodes
    mu = m * (m + n - 2)
    i = np.arange(1, num - 1)
    ri = r[i]
    upper = -(1.0 / h**2) - (n - 1) / (2.0 * h * ri)  # couples u_{i+1}
    diag = 2.0 / h**2 + mu / ri**2
    lower = -(1.0 / h**2) + (n - 1) / (2.0 * h * ri)  # couples u_{i-1}
    if np.any(lower > 0.0):
        raise DomainValidationError(
            f"grid spacing {h} is too coarse for n = {n}: (n - 1) h must not exceed "
            f"2 r at the first interior node {ri[0]}"
        )
    rhs = np.asarray(interior_rhs, dtype=float).copy()
    rhs[0] -= lower[0] * u_inner
    rhs[-1] -= upper[-1] * u_outer
    inner = _thomas(lower, diag, upper, rhs)
    if not np.all(np.isfinite(inner)):
        raise ArithmeticError("singular modal system: discretization defect")
    profile = np.empty(num)
    profile[0] = u_inner
    profile[-1] = u_outer
    profile[1:-1] = inner
    return profile


def modal_green_fd(n: int, m: int, a: float, s: float, grid: FDGrid | int) -> np.ndarray:
    """Finite-difference modal Green profile with a discrete delta at the node
    nearest s, unit mass under the weighted measure r^(n-1) dr.

    Converges to modal_green_analytic at second order in the spacing when s
    falls on a shared node of the refinement family.
    """
    g = grid if isinstance(grid, FDGrid) else FDGrid(grid, a)
    if g.a != a:
        raise DomainValidationError(f"grid covers [{g.a}, 1] but the operator needs [{a}, 1]")
    if g.num_nodes < 100:
        raise DomainValidationError(f"need at least 100 nodes, got {g.num_nodes}")
    if not (a < s < 1.0):
        raise DomainValidationError(f"source radius {s} must be strictly interior")
    ModalOperator(n, m, a)  # validates n, m, a
    r = g.nodes
    j = int(np.argmin(np.abs(r - s)))
    if j in (0, g.num_nodes - 1):
        raise DomainValidationError("source node collides with a boundary row")
    rhs = np.zeros(g.num_nodes - 2)
    rhs[j - 1] = 1.0 / (g.spacing * r[j] ** (n - 1))
    return _modal_interior_solve(n, m, g, rhs, 0.0, 0.0)


def modal_bvp_fd(
    n: int, m: int, a: float, inner_value: float, outer_value: float, grid: FDGrid | int
) -> np.ndarray:
    """Finite-difference solve of the homogeneous modal equation with Dirichlet
    data (inner_value at r = a, outer_value at r = 1)."""
    g = grid if isinstance(grid, FDGrid) else FDGrid(grid, a)
    if g.a != a:
        raise DomainValidationError(f"grid covers [{g.a}, 1] but the operator needs [{a}, 1]")
    ModalOperator(n, m, a)
    rhs = np.zeros(g.num_nodes - 2)
    return _modal_interior_solve(n, m, g, rhs, float(inner_value), float(outer_value))


def ball_green_closed_form(n: int, x, y) -> float:
    """Dirichlet Green function of the unit ball by reflection.

    The reflected distance is evaluated as sqrt(|x|^2 |y|^2 - 2 x.y + 1),
    which stays stable down to y = 0 (where it equals 1).  A value out of
    the double range (at large n) raises TailEnvelopeError.
    """
    if n < 3:
        raise DomainValidationError(f"needs n >= 3, got {n!r}")
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    if xv.shape != (n,) or yv.shape != (n,):
        raise DomainValidationError("x and y must be vectors of R^n")
    rx = float(np.linalg.norm(xv))
    ry = float(np.linalg.norm(yv))
    if rx > 1.0 or ry > 1.0:
        raise DomainValidationError("both points must lie inside the closed unit ball")
    d = float(np.linalg.norm(xv - yv))
    if d == 0.0:
        raise SingularityError("Green function is singular at x == y")
    refl_sq = rx * rx * ry * ry - 2.0 * float(xv @ yv) + 1.0
    omega = sphere_surface_area(n)
    try:
        value = (d ** (2 - n) - refl_sq ** (0.5 * (2 - n))) / ((n - 2) * omega)
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value):
        raise TailEnvelopeError(
            f"the ball's Green function for n = {n} leaves the double-precision range here"
        )
    return value


def grid_scan_extremum(
    fn: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, num: int, kind: str = "min"
) -> tuple[float, float]:
    """Brute-force extremum of fn on a uniform grid plus parabolic refinement.

    ``fn`` is called once, on the whole grid, and maps that array of nodes to
    an array of values, one per node.  An extremum on the first or last node
    raises GridEdgeError, since it means the requested window failed to
    bracket the interior extremum.
    """
    require_integer(num, "num", 1000)
    if not (lo < hi):
        raise DomainValidationError(f"empty window [{lo}, {hi}]")
    if kind not in ("min", "max"):
        raise DomainValidationError(f"kind must be 'min' or 'max', got {kind!r}")
    xs = np.linspace(lo, hi, num)
    vals = np.asarray(fn(xs), dtype=float)
    if vals.shape != xs.shape:
        raise DomainValidationError(
            f"fn must map the {num} grid nodes to as many values, got shape {vals.shape}"
        )
    if not np.all(np.isfinite(vals)):
        raise DomainValidationError("fn must be finite on the whole window")
    idx = int(np.argmin(vals)) if kind == "min" else int(np.argmax(vals))
    if idx in (0, num - 1):
        raise GridEdgeError(
            f"extremum at the window edge (index {idx}); widen the scan window"
        )
    h = xs[1] - xs[0]
    f_lo, f_mid, f_hi = vals[idx - 1], vals[idx], vals[idx + 1]
    denom = f_lo - 2.0 * f_mid + f_hi
    if denom == 0.0:
        return float(xs[idx]), float(f_mid)
    shift = 0.5 * h * (f_lo - f_hi) / denom
    x_star = float(xs[idx] + shift)
    v_star = float(f_mid - 0.125 * (f_lo - f_hi) ** 2 / denom)
    return x_star, v_star

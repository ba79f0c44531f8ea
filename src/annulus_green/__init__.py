"""Green function, Robin function, and Poisson kernels of the n-dimensional
annulus {a < |x| < 1}, evaluated through zonal-harmonic series with certified
truncation tails, plus the location of the Robin function's unique radial
critical point and a set of independent brute-force oracles.

Importing the package loads no numpy: the scalar evaluators, the solver and
their CLI commands build no arrays, and the grid evaluators import the grid
module, and numpy with it, on first use.  Loaded on first access, through
the module ``__getattr__`` of PEP 562, are the modules that import numpy as
they load (grid, oracle and verify); kernels, whose quadrature and boundary
types are dataclasses and whose Newtonian series load no numpy; critical,
the radial critical-point solver, which no evaluator needs and which a fresh
process would otherwise compile for every command; the cli module; and the
names that critical, grid, kernels and oracle define."""

import importlib

from .core import (
    AnnulusError,
    AnnulusGeometry,
    BracketingError,
    DomainValidationError,
    EvalGrid,
    EvalResult,
    GridEdgeError,
    QuadratureDegreeError,
    SeriesDivergenceError,
    SingularityError,
    TailEnvelopeError,
    TruncationPolicy,
    newtonian_potential,
    sphere_surface_area,
)
from .green import (
    critical_equation_eval,
    green_eval,
    green_piecewise_eval,
    robin2d_eval,
    robin2d_eval_grid,
    robin2d_first,
    robin2d_first_grid,
    robin2d_second,
    robin_eval,
    robin_eval_grid,
    robin_radial_gradient,
    robin_radial_gradient_derivative,
    robin_radial_gradient_grid,
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

__version__ = "0.1.0"

# loaded on first access: each name, by the submodule defining it
_LAZY = {
    **dict.fromkeys(
        (
            "CriticalPointReport",
            "PhaseCounts",
            "concentration_root",
            "count_gradient_sign_changes",
            "find_critical_point",
        ),
        "critical",
    ),
    **dict.fromkeys(
        (
            "BoundaryData",
            "SphereQuadrature",
            "build_sphere_quadrature",
            "harmonic_extension",
            "modal_coefficient",
            "newtonian_series_exterior",
            "newtonian_series_inner",
            "newtonian_series_outer",
            "poisson_coeff_b",
            "poisson_coeff_c",
        ),
        "kernels",
    ),
    **dict.fromkeys(
        (
            "FDGrid",
            "ModalOperator",
            "ball_green_closed_form",
            "grid_scan_extremum",
            "modal_bvp_fd",
            "modal_green_analytic",
            "modal_green_fd",
        ),
        "oracle",
    ),
    "sum_series_table": "grid",
}
_LAZY_MODULES = ("cli", "critical", "grid", "kernels", "oracle", "verify")


def __getattr__(name: str):
    """A submodule of _LAZY_MODULES, imported now, or a name of _LAZY, read
    from its submodule.  A name is read again on every access and never
    stored here, so a wrapper put in its submodule (a tracer's, a test's)
    is seen while it is there and never left behind after it is removed."""
    if name in _LAZY:
        return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    if name in _LAZY_MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_LAZY_MODULES})

__all__ = [
    "AnnulusError",
    "AnnulusGeometry",
    "BoundaryData",
    "BracketingError",
    "CriticalPointReport",
    "DomainValidationError",
    "EvalGrid",
    "EvalResult",
    "FDGrid",
    "GridEdgeError",
    "ModalOperator",
    "PhaseCounts",
    "QuadratureDegreeError",
    "SeriesDivergenceError",
    "SingularityError",
    "SphereQuadrature",
    "TailEnvelopeError",
    "TruncationPolicy",
    "ball_green_closed_form",
    "build_sphere_quadrature",
    "concentration_root",
    "count_gradient_sign_changes",
    "critical_equation_eval",
    "find_critical_point",
    "gegenbauer_endpoint_exact",
    "gegenbauer_eval",
    "gegenbauer_generating_sum",
    "green_eval",
    "green_piecewise_eval",
    "grid_scan_extremum",
    "harmonic_extension",
    "harmonic_space_dim",
    "modal_bvp_fd",
    "modal_coefficient",
    "modal_green_analytic",
    "modal_green_fd",
    "newtonian_potential",
    "newtonian_series_exterior",
    "newtonian_series_inner",
    "newtonian_series_outer",
    "poisson_coeff_b",
    "poisson_coeff_c",
    "robin2d_eval",
    "robin2d_eval_grid",
    "robin2d_first",
    "robin2d_first_grid",
    "robin2d_second",
    "robin_eval",
    "robin_eval_grid",
    "robin_radial_gradient",
    "robin_radial_gradient_derivative",
    "robin_radial_gradient_grid",
    "sphere_surface_area",
    "sum_series",
    "sum_series_table",
    "zonal_direct",
    "zonal_from_gegenbauer",
]

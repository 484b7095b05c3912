"""Discrete-ordinates transport on triangulated 2D domains.

DG discretization in space with optional streamline-diffusion stabilization,
trapezoid-rule discrete ordinates in angle, layered upwind sweeps, and
source iteration for the scattering coupling. The analysis module carries
manufactured solutions and the error norms used for convergence studies.
"""

from .analysis import (
    ConvergenceTable,
    ErrorReport,
    ManufacturedCase,
    MethodComparison,
    apply_ah,
    case_problem,
    case_quadrature,
    compare_methods,
    convergence_study,
    error_norms,
    make_case,
    triple_norm_stability,
)
from .angular import (
    AngularQuadrature,
    PhaseFunction,
    gauss_legendre_sphere,
    m_bound,
    phase_eval,
    scatter_matrix,
    trapezoid_circle,
)
from .dg_core import DGSolution, element_basis
from .errors import (
    AssumptionError,
    MeshError,
    NonConvergenceError,
    StabilityError,
    SweepCycleError,
)
from .mesh import (
    TriangleMesh,
    build_mesh,
    build_structured_unit_square,
    load_mesh,
    refine_regular,
    save_mesh,
)
from .solver import (
    SolveReport,
    SolverConfig,
    TransportProblem,
    delta_value,
    solve,
    weighted_norm,
)
from .sweep import (
    EPS_N,
    SweepKernel,
    SweepSchedule,
    build_kernel,
    build_schedule,
    build_schedules,
    space_tables,
)

__version__ = "0.1.0"

__all__ = [
    "AngularQuadrature",
    "AssumptionError",
    "ConvergenceTable",
    "DGSolution",
    "EPS_N",
    "ErrorReport",
    "ManufacturedCase",
    "MeshError",
    "MethodComparison",
    "NonConvergenceError",
    "PhaseFunction",
    "SolveReport",
    "SolverConfig",
    "StabilityError",
    "SweepCycleError",
    "SweepKernel",
    "SweepSchedule",
    "TransportProblem",
    "TriangleMesh",
    "apply_ah",
    "build_kernel",
    "build_mesh",
    "build_schedule",
    "build_schedules",
    "build_structured_unit_square",
    "case_problem",
    "case_quadrature",
    "compare_methods",
    "convergence_study",
    "delta_value",
    "element_basis",
    "error_norms",
    "gauss_legendre_sphere",
    "load_mesh",
    "m_bound",
    "make_case",
    "phase_eval",
    "refine_regular",
    "save_mesh",
    "scatter_matrix",
    "solve",
    "space_tables",
    "trapezoid_circle",
    "triple_norm_stability",
    "weighted_norm",
]

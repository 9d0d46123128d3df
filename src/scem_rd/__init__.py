"""Hybrid asymptotic-numerical solver for singularly perturbed
reaction-diffusion systems: outer (reduced) solution plus boundary-layer
corrections computed by Lobatto IIIa collocation, with double-mesh error
estimation and a reproduction-oriented CLI."""

from .analysis import (
    ErrorReport,
    GridFunction,
    convergence_table,
    double_mesh_diff,
    exact_constant_system,
    max_norm,
)
from .collocation import (
    CollocationError,
    CollocationSolution,
    FirstOrderBvp,
    Mesh,
    MeshOverflow,
    NewtonDivergence,
    SolverConfig,
    estimate_residual,
    evaluate,
    solve,
)
from .problems import example1, example2
from .scem import (
    AssumptionViolation,
    HybridApproximation,
    LayerProblem,
    OuterSolution,
    SingularReducedMatrix,
    build_layer_problem,
    hybrid_solve,
    solve_reduced,
)
from .system import (
    AssumptionReport,
    ReactionDiffusionSystem,
    check_max_principle,
    forcing_max_norm,
    make_system,
    stability_bound,
    validate_assumptions,
)

__version__ = "0.1.0"

__all__ = [
    "AssumptionReport",
    "AssumptionViolation",
    "CollocationError",
    "CollocationSolution",
    "ErrorReport",
    "FirstOrderBvp",
    "GridFunction",
    "HybridApproximation",
    "LayerProblem",
    "Mesh",
    "MeshOverflow",
    "NewtonDivergence",
    "OuterSolution",
    "ReactionDiffusionSystem",
    "SingularReducedMatrix",
    "SolverConfig",
    "build_layer_problem",
    "check_max_principle",
    "convergence_table",
    "double_mesh_diff",
    "estimate_residual",
    "evaluate",
    "exact_constant_system",
    "example1",
    "example2",
    "forcing_max_norm",
    "hybrid_solve",
    "make_system",
    "max_norm",
    "solve",
    "solve_reduced",
    "stability_bound",
    "validate_assumptions",
    "__version__",
]

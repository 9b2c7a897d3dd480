"""Critical-constant bounds, LP-improved procedures and power studies for
multiple testing under arbitrary p-value dependence."""

from .constants import (
    CriticalVector,
    Family,
    bh_constants,
    by_constants,
    gr_sd_constants,
    lr_fdp_constants,
    lr_kfwer_constants,
    rescale,
)
from .lp import (
    LPProblem,
    LPSolution,
    InfeasibleFloorError,
    SolverError,
    build_problem,
    solve,
    solve_cached,
)
from .matrices import (
    AssociatedMatrix,
    ErrorRateSpec,
    Rate,
    associated_matrix,
    bound_vector,
    row_events,
)
from .procedures import (
    DecisionSet,
    ProcedureSpec,
    PValueVector,
    adjusted_pvalues,
    family_constants,
    run_procedure,
    step_down,
    step_up,
)
from .simulation import (
    CellStats,
    SimConfig,
    SimReport,
    run_study,
    sample_statistics,
    two_sided_p,
)

__version__ = "0.1.0"

__all__ = [
    "AssociatedMatrix",
    "CellStats",
    "CriticalVector",
    "DecisionSet",
    "ErrorRateSpec",
    "Family",
    "InfeasibleFloorError",
    "LPProblem",
    "LPSolution",
    "ProcedureSpec",
    "PValueVector",
    "Rate",
    "SimConfig",
    "SimReport",
    "SolverError",
    "adjusted_pvalues",
    "associated_matrix",
    "bh_constants",
    "bound_vector",
    "build_problem",
    "by_constants",
    "family_constants",
    "gr_sd_constants",
    "lr_fdp_constants",
    "lr_kfwer_constants",
    "rescale",
    "row_events",
    "run_procedure",
    "run_study",
    "sample_statistics",
    "solve",
    "solve_cached",
    "step_down",
    "step_up",
    "two_sided_p",
]

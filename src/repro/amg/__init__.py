"""Classical AMG (BoomerAMG-style): the paper's primary contribution.

Setup: strength -> PMIS / aggressive PMIS -> {extended+i, classical, direct,
2-stage extended+i, multipass} interpolation with fused truncation (one
:class:`InterpScheme` per family, looked up by :func:`interp_scheme`) ->
Galerkin product.
Solve: V-cycles with C-F hybrid Gauss–Seidel smoothing.
"""

from .cache import (
    DEFAULT_CACHE,
    HierarchyCache,
    fingerprint,
    matrix_fingerprint,
    pattern_fingerprint,
)
from .coarse import CoarseSolver
from .coarsen_rs import rs_coarsening
from .interp import InterpScheme, interp_scheme
from .interp_classical import classical_interpolation
from .cycle import cycle, fcycle, vcycle, wcycle
from .fmg import full_multigrid
from .interp_direct import direct_interpolation
from .interp_extended import (
    ExtIPlan,
    extended_i_interpolation,
    extended_i_numeric,
    extended_i_reference,
    extended_i_symbolic,
)
from .interp_multipass import multipass_interpolation
from .interp_twostage import two_stage_extended_i
from .level import Level
from .pmis import C_PT, F_PT, aggressive_pmis, pmis, random_measures
from .resetup import LevelPlan, PlanBuilder, SetupPlan, refresh_hierarchy
from .setup import Hierarchy, build_hierarchy
from .smoothers import (
    chebyshev_sweep,
    estimate_lambda_max,
    l1_diagonal,
    l1_jacobi_sweep,
    GSSchedule,
    HybridGSSmoother,
    block_of_rows,
    build_gs_schedule,
    greedy_coloring,
    gs_sweep,
    gs_sweep_reference,
    jacobi_sweep,
    multicolor_gs_sweep,
)
from .solver import AMGSolver, SolveResult
from .strength import strength_matrix
from .truncation import truncate_interpolation

#: Pinned by the perf harness's ``amg.vcycle_multi8_s`` rung.
vcycle_multi = vcycle

__all__ = [
    "DEFAULT_CACHE",
    "HierarchyCache",
    "fingerprint",
    "matrix_fingerprint",
    "pattern_fingerprint",
    "CoarseSolver",
    "rs_coarsening",
    "classical_interpolation",
    "chebyshev_sweep",
    "estimate_lambda_max",
    "l1_diagonal",
    "l1_jacobi_sweep",
    "vcycle",
    "wcycle",
    "fcycle",
    "cycle",
    "vcycle_multi",
    "full_multigrid",
    "direct_interpolation",
    "ExtIPlan",
    "InterpScheme",
    "interp_scheme",
    "extended_i_interpolation",
    "extended_i_numeric",
    "extended_i_reference",
    "extended_i_symbolic",
    "multipass_interpolation",
    "two_stage_extended_i",
    "Level",
    "C_PT",
    "F_PT",
    "aggressive_pmis",
    "pmis",
    "random_measures",
    "Hierarchy",
    "build_hierarchy",
    "LevelPlan",
    "PlanBuilder",
    "SetupPlan",
    "refresh_hierarchy",
    "GSSchedule",
    "HybridGSSmoother",
    "block_of_rows",
    "build_gs_schedule",
    "greedy_coloring",
    "gs_sweep",
    "gs_sweep_reference",
    "jacobi_sweep",
    "multicolor_gs_sweep",
    "AMGSolver",
    "SolveResult",
    "strength_matrix",
    "truncate_interpolation",
]

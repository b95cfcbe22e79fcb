"""Simulated distributed-memory substrate (§4): SimMPI, ParCSR, halo
exchange, matrix-row gathering with §4.3 filtering, §4.2 column-index
renumbering, and the fully distributed AMG setup/solve."""

from .comm import CollectiveEvent, PersistentExchange, SimComm
from .halo import HaloExchange, build_halo
from .krylov import dist_fgmres, dist_pcg
from .interp import (
    coarse_numbering,
    dist_extended_i,
    dist_multipass,
    dist_two_stage_ei,
    par_truncate,
)
from .parcsr import ParCSRMatrix, ParVector, RankBlock
from .partition import RowPartition
from .pmis import dist_aggressive_pmis, dist_pmis, dist_random_measures
from .renumber import RenumberResult, renumber_baseline, renumber_parallel
from .rowgather import GatheredRows, GatheredStack, gather_matrix_rows
from .setup import DistHierarchy, DistLevel, dist_build_hierarchy
from .smoothers import DistSmoother
from .solver import (
    DistAMGSolver,
    DistSolveResult,
    dist_vcycle,
    par_axpy,
    par_dot,
    par_norm2,
)
from .spgemm import dist_rap, dist_spgemm
from .spmv import dist_residual_norm, dist_spmv
from .strength import dist_strength
from .transpose import dist_transpose

__all__ = [
    "CollectiveEvent", "PersistentExchange", "SimComm",
    "HaloExchange", "build_halo",
    "coarse_numbering", "dist_extended_i", "dist_multipass",
    "dist_two_stage_ei", "par_truncate",
    "ParCSRMatrix", "ParVector", "RankBlock", "RowPartition",
    "dist_aggressive_pmis", "dist_pmis", "dist_random_measures",
    "RenumberResult", "renumber_baseline", "renumber_parallel",
    "GatheredRows", "GatheredStack", "gather_matrix_rows",
    "DistHierarchy", "DistLevel", "dist_build_hierarchy",
    "DistSmoother",
    "DistAMGSolver", "DistSolveResult", "dist_fgmres", "dist_vcycle",
    "par_axpy", "par_dot", "par_norm2",
    "dist_rap", "dist_spgemm", "dist_pcg",
    "dist_residual_norm", "dist_spmv",
    "dist_strength", "dist_transpose",
]

"""Distributed V-cycle and standalone AMG solver.

``DistAMGSolver.solve`` runs the node's stationary driver
(:func:`repro.amg.solver.stationary`) over :class:`HierarchySpace`, with
one :func:`dist_vcycle` per iteration.  The space catches
:class:`~repro.faults.comm.CommFault`, so the driver keeps checkpoints: an
exchange that exhausts its retries (a transient rank failure, a badly lossy
link) rolls the solve back instead of aborting, and the redone iterations
plus retry traffic surface in the modeled times and ``fault_events``.  The
distributed BLAS1 and the Krylov solvers (Table 4) are in
:mod:`repro.dist.krylov`.
"""

from __future__ import annotations

from ..amg.solver import stationary
from ..analysis import check_comm_trace, checking, persistent_patterns_of
from ..config import AMGConfig
from ..krylov.space import Columns
from ..perf.counters import phase
from ..results import DistSolveResult
from .comm import SimComm
from .krylov import ParSpace, par_axpy, par_dot, par_norm2
from .parcsr import ParCSRMatrix, ParVector
from .setup import DistHierarchy, dist_build_hierarchy
from .spmv import dist_residual_norm, dist_spmv
from .transpose import dist_transpose

__all__ = ["par_dot", "par_norm2", "par_axpy", "dist_vcycle", "DistAMGSolver",
           "HierarchySpace", "DistSolveResult"]


def dist_vcycle(h: DistHierarchy, b: ParVector, level: int = 0) -> ParVector:
    comm = h.comm
    flags = h.config.flags
    if level == h.num_levels - 1:
        return h.coarse_solver.solve(b)
    lvl = h.levels[level]
    x = ParVector.zeros(b.part)

    with phase("GS"):
        lvl.smoother.presmooth(x, b, zero_guess=True)

    with phase("SpMV"):
        Ax = dist_spmv(comm, lvl.A, x, lvl.halo, kernel="spmv.residual")
        r = ParVector(b.array - Ax.array, b.part)
        comm.record_on_ranks(b.part.vector_records("residual_sub", 1, 2, 1))

    with phase("SpMV"):
        if lvl.R is not None:
            R, halo_R = lvl.R, lvl.halo_R
        else:
            # Baseline: transpose P for every restriction (§3.2).
            R = dist_transpose(comm, lvl.P, tag="solve.transpose")
            from .halo import build_halo

            halo_R = build_halo(comm, R, persistent=False)
        rc = dist_spmv(comm, R, r, halo_R, kernel="spmv.restrict")

    xc = dist_vcycle(h, rc, level + 1)

    with phase("SpMV"):
        corr = dist_spmv(comm, lvl.P, xc, lvl.halo_P, kernel="spmv.interp")
    with phase("BLAS1"):
        par_axpy(comm, 1.0, corr, x)

    with phase("GS"):
        lvl.smoother.postsmooth(x, b)
    return x


class DistAMGSolver:
    """Distributed AMG: standalone solver or FGMRES preconditioner."""

    def __init__(self, comm: SimComm, config: AMGConfig | None = None, *,
                 topology=None, net=None) -> None:
        self.comm = comm
        self.config = config or AMGConfig()
        self.topology = topology
        self.net = net
        self.hierarchy: DistHierarchy | None = None

    def setup(self, A: ParCSRMatrix) -> DistHierarchy:
        self.hierarchy = dist_build_hierarchy(
            self.comm, A, self.config, topology=self.topology, net=self.net)
        return self.hierarchy

    def precondition(self, r: ParVector) -> ParVector:
        return dist_vcycle(self.hierarchy, r)

    def solve(
        self,
        b: ParVector,
        *,
        tol: float = 1e-7,
        maxiter: int | None = None,
        max_restarts: int = 32,
    ) -> DistSolveResult:
        """Iterate V-cycles until ``||r|| <= tol * ||b||`` (at most
        ``maxiter``, default 300).

        A :class:`CommFault` (exhausted retries, transient rank failure)
        rolls back to the last checkpoint and continues, up to
        ``max_restarts`` times.  Every injected fault, retry, restart, and
        guard verdict lands in the result's ``fault_events``.
        """
        cols = Columns(HierarchySpace(self), b, tol, "iter {}")
        res = stationary(cols, b, ParVector.zeros(b.part),
                         300 if maxiter is None else maxiter,
                         max_restarts=max_restarts)
        if checking("full"):
            # Replay the message log; persistent traffic must replay the
            # frozen patterns (an exhausted exchange skips send/ack matching).
            check_comm_trace(self.comm,
                             persistent_patterns=persistent_patterns_of(self.comm))
        return res


class HierarchySpace(ParSpace):
    """The stationary iteration's space over a :class:`DistAMGSolver`'s
    hierarchy: level-0 ``ParVector``\\ s under the level's own halo, with
    one V-cycle as the preconditioner."""

    def __init__(self, solver: DistAMGSolver) -> None:
        lvl0 = solver.hierarchy.levels[0]
        super().__init__(solver.comm, lvl0.A, solver.precondition, lvl0.halo)
        self.hierarchy, self.config = solver.hierarchy, solver.config

    def resnorm(self, x: ParVector, b: ParVector):
        return dist_residual_norm(self.comm, self.A, x, b, self.halo,
                                  fused=self.config.flags.fuse_spmv_dot)

    def rescue(self, verdict: str | None, it: int) -> str | None:
        """Sparsification guardrail: a sparsified hierarchy that trips the
        guard or its iteration budget reverts to the full Galerkin operators
        and keeps iterating (the residual, against A0, carries over)."""
        h = self.hierarchy
        if not h.sparsified or (
                verdict is None and it < self.config.sparsify_fallback_iters):
            return None
        h.desparsify()
        return f"{verdict or 'iteration budget'} at iteration {it}"

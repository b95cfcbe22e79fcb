"""Distributed BLAS1, V-cycle and standalone AMG solver.

Vector primitives (``par_dot`` etc.) count local BLAS1 work per rank and
log one allreduce per global reduction — the solve-phase collectives of
Fig. 7's ``Solve_MPI`` bucket, alongside the halo exchanges.  Elementwise
updates run once over the vectors' backing arrays and the per-rank records
come from tables frozen per :class:`RowPartition`.  The local dot products
keep their per-rank summation order (it is part of the result) but not a
call per rank: :meth:`RowPartition.dots` takes them with one ``np.vecdot``
per run of equal-size ranks.

Resilience: on a fault-injecting communicator
(:class:`repro.faults.comm.FaultyComm`) ``DistAMGSolver.solve`` keeps
periodic in-memory checkpoints of the iterate; a delivery that exhausts its
retries (a transient rank failure, a badly lossy link) rolls the solve back
to the last checkpoint instead of aborting, and the redone iterations plus
retry traffic surface in the modeled times and ``fault_events``.  The
solver also runs a :class:`~repro.faults.guards.ResidualGuard`, so NaN/Inf
or exploding residuals terminate the loop with a recorded verdict.  The
AMG-preconditioned Krylov solvers (Table 4) are in :mod:`repro.dist.krylov`.
"""

from __future__ import annotations

import numpy as np

from ..analysis import check_comm_trace, checking, persistent_patterns_of
from ..config import AMGConfig
from ..faults.guards import ResidualGuard
from ..faults.plan import FaultEvent
from ..perf.counters import phase
from ..results import DistSolveResult
from .comm import SimComm
from .parcsr import ParCSRMatrix, ParVector
from .setup import DistHierarchy, dist_build_hierarchy
from .spmv import dist_residual_norm, dist_spmv
from .transpose import dist_transpose

__all__ = [
    "par_dot",
    "par_norm2",
    "par_axpy",
    "dist_vcycle",
    "DistAMGSolver",
    "DistSolveResult",
]


# ---------------------------------------------------------------------------
# Distributed BLAS1
# ---------------------------------------------------------------------------

def par_dot(comm: SimComm, x: ParVector, y: ParVector) -> float:
    comm.record_on_ranks(x.part.vector_records("blas1.dot", 2, 2))
    return comm.allreduce(x.part.dots(x.array, y.array))


def par_norm2(comm: SimComm, x: ParVector) -> float:
    return float(np.sqrt(max(par_dot(comm, x, x), 0.0)))


def par_axpy(comm: SimComm, alpha: float, x: ParVector, y: ParVector) -> ParVector:
    y.array += alpha * x.array
    comm.record_on_ranks(x.part.vector_records("blas1.axpy", 2, 2, 1))
    return y


# ---------------------------------------------------------------------------
# Distributed V-cycle
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------

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
        checkpoint_every: int = 5,
        max_restarts: int = 32,
    ) -> DistSolveResult:
        """Iterate V-cycles until ``||r|| <= tol * ||b||``.

        On a fault-injecting communicator the iterate is checkpointed every
        ``checkpoint_every`` iterations; a :class:`CommFault` (exhausted
        retries, transient rank failure) rolls back to the last checkpoint
        and continues, up to ``max_restarts`` times.  Every injected fault,
        retry, restart, and guard verdict lands in the result's
        ``fault_events``.
        """
        from ..faults.comm import CommFault

        maxiter = 300 if maxiter is None else maxiter
        h = self.hierarchy
        comm = self.comm
        lvl0 = h.levels[0]
        fused = self.config.flags.fuse_spmv_dot
        faulty = comm.supports_fault_injection
        events_start = len(comm.events) if faulty else 0
        solver_events: list[FaultEvent] = []

        def result(x, it, residuals, converged, *, degraded=False, reason=None):
            comm_events = list(comm.events[events_start:]) if faulty else []
            if checking("full"):
                # Replay the message log and pin persistent traffic to the
                # frozen patterns.  On a faulty trace the scan itself skips
                # what injected drops make unjudgeable (send/ack matching,
                # persistent rounds) and reports each skip with its reason.
                check_comm_trace(
                    comm, persistent_patterns=persistent_patterns_of(comm))
            return DistSolveResult(
                x, it, residuals, converged, degraded=degraded,
                degraded_reason=reason,
                fault_events=comm_events + solver_events,
            )

        x = ParVector.zeros(b.part)
        restarts = 0

        # Initial residual — itself communication, so under the same guard.
        while True:
            try:
                bnorm = par_norm2(comm, b)
                r, r0 = dist_residual_norm(comm, lvl0.A, x, b, lvl0.halo,
                                           fused=fused)
                break
            except CommFault as exc:
                restarts += 1
                solver_events.append(FaultEvent(
                    "checkpoint_restart", detail=str(exc), attempt=restarts))
                if restarts > max_restarts:
                    return result(x, 0, [], False, degraded=True,
                                  reason=f"comm fault persisted: {exc}")

        ref = bnorm if bnorm > 0.0 else r0
        residuals = [r0]
        if not np.isfinite(r0):
            solver_events.append(
                FaultEvent("nonfinite", detail="initial residual"))
            return result(x, 0, residuals, False, degraded=True,
                          reason="nonfinite initial residual")
        if r0 <= tol * ref:
            return result(x, 0, residuals, True)
        guard = ResidualGuard(ref)

        ckpt_it, ckpt_x, ckpt_res = 0, x.copy(), list(residuals)
        it = 0
        while it < maxiter:
            try:
                if r is None:  # re-derive the residual after a rollback
                    r, _ = dist_residual_norm(comm, lvl0.A, x, b, lvl0.halo,
                                              fused=fused)
                corr = dist_vcycle(h, r)
                with phase("BLAS1"):
                    par_axpy(comm, 1.0, corr, x)
                r, rn = dist_residual_norm(comm, lvl0.A, x, b, lvl0.halo,
                                           fused=fused)
            except CommFault as exc:
                restarts += 1
                solver_events.append(FaultEvent(
                    "checkpoint_restart", detail=str(exc), attempt=restarts))
                if restarts > max_restarts:
                    return result(x, it, residuals, False, degraded=True,
                                  reason=f"comm fault persisted: {exc}")
                it = ckpt_it
                x = ckpt_x.copy()
                residuals = list(ckpt_res)
                r = None
                continue
            it += 1
            residuals.append(rn)
            if rn <= tol * ref:
                return result(x, it, residuals, True)
            verdict = guard.check(rn)
            if h.sparsified and (
                verdict is not None
                or it >= self.config.sparsify_fallback_iters
            ):
                # Sparsification guardrail: a sparsified hierarchy that
                # trips the residual guard or exhausts its iteration
                # budget reverts to the full Galerkin operators and keeps
                # iterating — the fine-level residual (computed against
                # the never-sparsified A0) carries over unchanged.
                h.desparsify()
                trigger = verdict or "iteration budget"
                solver_events.append(FaultEvent(
                    "sparsify_fallback",
                    detail=f"{trigger} at iteration {it}"))
                guard = ResidualGuard(ref)
            elif verdict is not None:
                solver_events.append(FaultEvent(verdict, detail=f"iter {it}"))
                return result(x, it, residuals, False, degraded=True,
                              reason=f"{verdict} at iteration {it}")
            if faulty and checkpoint_every > 0 and it % checkpoint_every == 0:
                ckpt_it, ckpt_x, ckpt_res = it, x.copy(), list(residuals)
        return result(x, maxiter, residuals, False)

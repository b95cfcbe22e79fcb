"""Distributed V-cycle and AMG-preconditioned Flexible GMRES (Table 4).

Vector primitives (``par_dot`` etc.) count local BLAS1 work per rank and
log one allreduce per global reduction — the solve-phase collectives of
Fig. 7's ``Solve_MPI`` bucket, alongside the halo exchanges.  Elementwise
updates run once over the vectors' backing arrays and the per-rank records
come from tables frozen per :class:`RowPartition`; only the local dot
products stay per rank (their summation order is part of the result).

Resilience: on a fault-injecting communicator
(:class:`repro.faults.comm.FaultyComm`) ``DistAMGSolver.solve`` keeps
periodic in-memory checkpoints of the iterate; a delivery that exhausts its
retries (a transient rank failure, a badly lossy link) rolls the solve back
to the last checkpoint instead of aborting, and the redone iterations plus
retry traffic surface in the modeled times and ``fault_events``.  Every
solver here also runs a :class:`~repro.faults.guards.ResidualGuard`, so
NaN/Inf or exploding residuals terminate the loop with a recorded verdict.
"""

from __future__ import annotations

import numpy as np

from ..analysis import check_comm_trace, checking, persistent_patterns_of
from ..config import AMGConfig
from ..faults.guards import ResidualGuard
from ..faults.plan import FaultEvent
from ..perf.counters import phase
from ..results import DistSolveResult, resolve_maxiter
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
    "dist_fgmres",
    "DistSolveResult",
]


# ---------------------------------------------------------------------------
# Distributed BLAS1
# ---------------------------------------------------------------------------

def par_dot(comm: SimComm, x: ParVector, y: ParVector) -> float:
    comm.record_on_ranks(x.part.vector_records("blas1.dot", 2, 2))
    return comm.allreduce([float(a @ b) for a, b in zip(x.parts, y.parts)])


def par_norm2(comm: SimComm, x: ParVector) -> float:
    return float(np.sqrt(max(par_dot(comm, x, x), 0.0)))


def par_axpy(comm: SimComm, alpha: float, x: ParVector, y: ParVector) -> ParVector:
    y.array += alpha * x.array
    comm.record_on_ranks(x.part.vector_records("blas1.axpy", 2, 2, 1))
    return y


def par_scale(comm: SimComm, alpha: float, x: ParVector) -> ParVector:
    x.array *= alpha
    comm.record_on_ranks(x.part.vector_records("blas1.scal", 1, 1, 1))
    return x


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
        max_iter: int | None = None,
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

        max_iter = resolve_maxiter(maxiter, max_iter, 300)
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
        if r0 == 0.0:
            return result(x, 0, residuals, True)
        guard = ResidualGuard(ref)

        ckpt_it, ckpt_x, ckpt_res = 0, x.copy(), list(residuals)
        it = 0
        while it < max_iter:
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
        return result(x, max_iter, residuals, False)


def dist_fgmres(
    comm: SimComm,
    A: ParCSRMatrix,
    b: ParVector,
    *,
    precondition=None,
    halo=None,
    tol: float = 1e-7,
    maxiter: int | None = None,
    max_iter: int | None = None,
    restart: int = 50,
) -> DistSolveResult:
    """Distributed Flexible GMRES (right-preconditioned, MGS + Givens).

    Guarded: a NaN/Inf residual terminates the iteration with a recorded
    verdict, and on a fault-injecting communicator an unrecoverable
    :class:`~repro.faults.comm.CommFault` returns the best iterate so far
    (``degraded=True``) instead of propagating.
    """
    from ..faults.comm import CommFault
    from .halo import build_halo

    max_iter = resolve_maxiter(maxiter, max_iter, 200)

    if halo is None:
        halo = build_halo(comm, A, persistent=True)
    M = precondition if precondition is not None else (lambda v: v.copy())

    faulty = comm.supports_fault_injection
    events_start = len(comm.events) if faulty else 0
    solver_events: list[FaultEvent] = []

    def result(x, it, residuals, converged, *, degraded=False, reason=None):
        comm_events = list(comm.events[events_start:]) if faulty else []
        return DistSolveResult(x, it, residuals, converged, degraded=degraded,
                               degraded_reason=reason,
                               fault_events=comm_events + solver_events)

    x = ParVector.zeros(b.part)
    try:
        r = b.copy()
        beta = par_norm2(comm, r)
    except CommFault as exc:
        solver_events.append(FaultEvent("comm_abort", detail=str(exc)))
        return result(x, 0, [], False, degraded=True, reason=str(exc))
    r0 = beta
    residuals = [beta]
    if beta == 0.0:
        return result(x, 0, residuals, True)
    if not np.isfinite(beta):
        solver_events.append(FaultEvent("nonfinite", detail="initial residual"))
        return result(x, 0, residuals, False, degraded=True,
                      reason="nonfinite initial residual")
    guard = ResidualGuard(r0, stagnation=False)

    total_it = 0
    while total_it < max_iter:
        m = min(restart, max_iter - total_it)
        try:
            V = [ParVector(r.array / beta, b.part)]
            Z: list[ParVector] = []
            H = np.zeros((m + 1, m))
            cs = np.zeros(m)
            sn = np.zeros(m)
            g = np.zeros(m + 1)
            g[0] = beta
            j_done = 0
            converged = False
            broken = None
            for j in range(m):
                z = M(V[j])
                Z.append(z)
                with phase("SpMV"):
                    w = dist_spmv(comm, A, z, halo, kernel="spmv.krylov")
                with phase("BLAS1"):
                    for i in range(j + 1):
                        H[i, j] = par_dot(comm, w, V[i])
                        par_axpy(comm, -H[i, j], V[i], w)
                    H[j + 1, j] = par_norm2(comm, w)
                if H[j + 1, j] != 0.0:
                    V.append(ParVector(w.array / H[j + 1, j], b.part))
                else:
                    V.append(w)
                for i in range(j):
                    t = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
                    H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
                    H[i, j] = t
                denom = np.hypot(H[j, j], H[j + 1, j])
                cs[j] = H[j, j] / denom if denom else 1.0
                sn[j] = H[j + 1, j] / denom if denom else 0.0
                H[j, j] = cs[j] * H[j, j] + sn[j] * H[j + 1, j]
                H[j + 1, j] = 0.0
                g[j + 1] = -sn[j] * g[j]
                g[j] = cs[j] * g[j]
                res = abs(g[j + 1])
                residuals.append(res)
                total_it += 1
                verdict = guard.check(res)
                if verdict is not None:
                    # NaN/Inf infected the Hessenberg: the triangular solve
                    # would poison x, so keep the previous restart's iterate.
                    broken = verdict
                    break
                j_done = j + 1
                if res <= tol * r0:
                    converged = True
                    break
            if broken is not None:
                solver_events.append(FaultEvent(
                    broken, detail=f"iteration {total_it}"))
                return result(x, total_it, residuals, False, degraded=True,
                              reason=f"{broken} at iteration {total_it}")
            y = np.zeros(j_done)
            for i in range(j_done - 1, -1, -1):
                y[i] = (g[i] - H[i, i + 1: j_done] @ y[i + 1: j_done]) / H[i, i]
            with phase("BLAS1"):
                for i in range(j_done):
                    par_axpy(comm, y[i], Z[i], x)
            with phase("SpMV"):
                Ax = dist_spmv(comm, A, x, halo, kernel="spmv.krylov")
            r = ParVector(b.array - Ax.array, b.part)
            beta = par_norm2(comm, r)
        except CommFault as exc:
            solver_events.append(FaultEvent("comm_abort", detail=str(exc)))
            return result(x, total_it, residuals, False, degraded=True,
                          reason=str(exc))
        if converged or total_it >= max_iter:
            return result(x, total_it, residuals, converged)
    return result(x, total_it, residuals, False)

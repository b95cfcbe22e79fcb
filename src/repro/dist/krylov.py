"""Distributed preconditioned conjugate gradients.

Companion of :func:`repro.dist.solver.dist_fgmres` for SPD systems: fewer
collectives per iteration (two dots + a norm vs. the Arnoldi sweep), which
matters when allreduce latency dominates at scale (§5.4).

Guarded like the other solvers: non-positive curvature (CG breakdown) and
NaN/Inf residuals terminate with a recorded verdict, and an unrecoverable
:class:`~repro.faults.comm.CommFault` on a fault-injecting communicator
returns the best iterate so far (``degraded=True``) instead of propagating.
"""

from __future__ import annotations

import numpy as np

from ..faults.guards import ResidualGuard
from ..faults.plan import FaultEvent
from ..perf.counters import phase
from ..results import resolve_maxiter
from .comm import SimComm
from .halo import build_halo
from .parcsr import ParCSRMatrix, ParVector
from .solver import DistSolveResult, par_axpy, par_dot, par_norm2
from .spmv import dist_spmv

__all__ = ["dist_pcg"]


def dist_pcg(
    comm: SimComm,
    A: ParCSRMatrix,
    b: ParVector,
    *,
    precondition=None,
    halo=None,
    tol: float = 1e-7,
    maxiter: int | None = None,
    max_iter: int | None = None,
) -> DistSolveResult:
    """Distributed PCG for SPD ParCSR systems."""
    from ..faults.comm import CommFault

    max_iter = resolve_maxiter(maxiter, max_iter, 1000)
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
        z = M(r)
        p = z.copy()
        rz = par_dot(comm, r, z)
        r0 = par_norm2(comm, r)
    except CommFault as exc:
        solver_events.append(FaultEvent("comm_abort", detail=str(exc)))
        return result(x, 0, [], False, degraded=True, reason=str(exc))
    residuals = [r0]
    if r0 == 0.0:
        return result(x, 0, residuals, True)
    if not np.isfinite(r0):
        solver_events.append(FaultEvent("nonfinite", detail="initial residual"))
        return result(x, 0, residuals, False, degraded=True,
                      reason="nonfinite initial residual")
    guard = ResidualGuard(r0, stagnation=False)

    it = 0
    try:
        for it in range(1, max_iter + 1):
            with phase("SpMV"):
                Ap = dist_spmv(comm, A, p, halo, kernel="spmv.krylov")
            with phase("BLAS1"):
                pAp = par_dot(comm, p, Ap)
            if pAp <= 0.0 or not np.isfinite(pAp):
                solver_events.append(FaultEvent(
                    "breakdown", detail=f"non-positive curvature p'Ap={pAp:g} "
                                        f"at iteration {it}"))
                return result(x, it - 1, residuals, False, degraded=True,
                              reason="CG breakdown (non-positive curvature)")
            alpha = rz / pAp
            with phase("BLAS1"):
                par_axpy(comm, alpha, p, x)
                par_axpy(comm, -alpha, Ap, r)
                rn = par_norm2(comm, r)
            residuals.append(rn)
            if rn <= tol * r0:
                return result(x, it, residuals, True)
            verdict = guard.check(rn)
            if verdict is not None:
                solver_events.append(FaultEvent(verdict, detail=f"iter {it}"))
                return result(x, it, residuals, False, degraded=True,
                              reason=f"{verdict} at iteration {it}")
            z = M(r)
            with phase("BLAS1"):
                rz_new = par_dot(comm, r, z)
            beta = rz_new / rz
            rz = rz_new
            p = ParVector(z.array + beta * p.array, p.part)
            comm.record_on_ranks(p.part.vector_records("blas1.waxpby", 2, 2, 1))
    except CommFault as exc:
        solver_events.append(FaultEvent("comm_abort", detail=str(exc)))
        return result(x, it, residuals, False, degraded=True, reason=str(exc))
    return result(x, len(residuals) - 1, residuals, False)

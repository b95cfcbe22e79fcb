"""Distributed vector space and Krylov solvers: AMG-preconditioned FGMRES
(Table 4) and PCG.

The BLAS1 (``par_dot`` etc.) counts local work per rank and logs one
allreduce per reduction (Fig. 7's ``Solve_MPI`` bucket); local dots keep
their per-rank summation order (:meth:`RowPartition.dots`).

Neither solver has a loop of its own: ``dist_fgmres`` / ``dist_pcg`` run the
node-level drivers over :class:`ParSpace` — ``dist_spmv`` through the
operator's one persistent Krylov halo per communicator (:func:`krylov_halo`),
``par_dot`` / ``par_norm2`` with their allreduces, ``par_axpy``.  PCG has
fewer collectives per iteration (two dots + a norm vs. the Arnoldi sweep),
which matters when allreduce latency dominates at scale (§5.4).  An
unrecoverable :class:`~repro.faults.comm.CommFault` returns the iterate so
far (``degraded``, a ``comm_abort`` event after the communicator's own).
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from ..krylov.cg import pcg_solve
from ..krylov.gmres import fgmres_solve
from ..perf.counters import phase
from ..results import DistSolveResult
from .comm import SimComm
from .halo import build_halo
from .parcsr import ParCSRMatrix, ParVector
from .spmv import dist_spmv

__all__ = ["ParSpace", "krylov_halo", "dist_pcg", "dist_fgmres",
           "par_dot", "par_norm2", "par_axpy"]


def par_dot(comm: SimComm, x: ParVector, y: ParVector) -> float:
    comm.record_on_ranks(x.part.vector_records("blas1.dot", 2, 2))
    return comm.allreduce(x.part.dots(x.array, y.array))


def par_norm2(comm: SimComm, x: ParVector) -> float:
    return float(np.sqrt(max(par_dot(comm, x, x), 0.0)))


def par_axpy(comm: SimComm, alpha: float, x: ParVector, y: ParVector) -> ParVector:
    y.array += alpha * x.array
    comm.record_on_ranks(x.part.vector_records("blas1.axpy", 2, 2, 1))
    return y


def krylov_halo(comm: SimComm, A: ParCSRMatrix):
    """The persistent halo Krylov products with *A* use on *comm*: built and
    registered once, on first use, and kept while *A* lives."""
    halo = comm.krylov_halos.get(A)
    if halo is None:
        halo = comm.krylov_halos[A] = build_halo(comm, A, persistent=True)
    return halo


class ParSpace:
    """Vector space over ``ParVector``\\ s under *A* (on the operator's
    :func:`krylov_halo` unless a halo is given).  Vectors only: an
    ``(n, k)`` ``ParVector`` raises ``ValueError``, so ``take`` is never
    needed."""

    rescue = None

    def __init__(self, comm: SimComm, A: ParCSRMatrix, precondition=None,
                 halo=None) -> None:
        from ..faults.comm import CommFault

        self.catches = (CommFault,)
        self.comm = comm
        self.A = A
        self._M = precondition
        self.halo = krylov_halo(comm, A) if halo is None else halo
        self._faulty = comm.supports_fault_injection
        self._events_start = len(comm.events) if self._faulty else 0

    @staticmethod
    def width(b: ParVector) -> int:
        if b.array.ndim != 1:
            raise ValueError("distributed solves take one right-hand "
                             f"side, got a block of shape {b.array.shape}")
        return 0

    def matvec(self, x: ParVector) -> ParVector:
        with phase("SpMV"):
            return dist_spmv(self.comm, self.A, x, self.halo,
                             kernel="spmv.krylov")

    def residual(self, b: ParVector, x: ParVector) -> ParVector:
        return ParVector(b.array - self.matvec(x).array, b.part)

    def precondition(self, v: ParVector) -> ParVector:
        return v.copy() if self._M is None else self._M(v)

    #: The start-up reductions, the restart-end norm and CG's direction
    #: update log under the caller's phase, as they always have.
    edge_phase = staticmethod(lambda name: nullcontext())

    def dot(self, x: ParVector, y: ParVector) -> float:
        return par_dot(self.comm, x, y)

    def norm2(self, x: ParVector) -> float:
        return par_norm2(self.comm, x)

    def axpy(self, alpha, x: ParVector, y: ParVector) -> ParVector:
        return par_axpy(self.comm, alpha, x, y)

    def waxpby(self, alpha, x: ParVector, beta, y: ParVector) -> ParVector:
        self.comm.record_on_ranks(y.part.vector_records("blas1.waxpby", 2, 2, 1))
        return ParVector(alpha * x.array + beta * y.array, y.part)

    zeros = staticmethod(lambda b: ParVector.zeros(b.part))
    scaled = staticmethod(lambda v, s: ParVector(v.array / s, v.part))
    column = staticmethod(lambda v, i: v)
    #: The small Hessenberg work every rank repeats is not charged.
    rotations = staticmethod(lambda k: None)

    def result(self, x, iterations, residuals, converged, reason, events):
        comm_events = (list(self.comm.events[self._events_start:])
                       if self._faulty else [])
        return DistSolveResult(x, iterations, residuals, converged,
                               degraded=reason is not None,
                               degraded_reason=reason,
                               fault_events=comm_events + events)


def dist_pcg(
    comm: SimComm,
    A: ParCSRMatrix,
    b: ParVector,
    *,
    precondition=None,
    halo=None,
    tol: float = 1e-7,
    maxiter: int | None = None,
) -> DistSolveResult:
    """Distributed PCG for SPD ParCSR systems, from ``x = 0``."""
    return pcg_solve(ParSpace(comm, A, precondition, halo), b, tol=tol,
                     maxiter=1000 if maxiter is None else maxiter)


def dist_fgmres(
    comm: SimComm,
    A: ParCSRMatrix,
    b: ParVector,
    *,
    precondition=None,
    halo=None,
    tol: float = 1e-7,
    maxiter: int | None = None,
    restart: int = 50,
) -> DistSolveResult:
    """Distributed Flexible GMRES (right-preconditioned, MGS + Givens),
    from ``x = 0``."""
    return fgmres_solve(ParSpace(comm, A, precondition, halo), b, tol=tol,
                        maxiter=200 if maxiter is None else maxiter,
                        restart=restart)

"""What a Krylov driver runs over: a vector space, and per-column state.

Each algorithm (:mod:`.cg`, :mod:`.gmres`, :mod:`.bicgstab`) is written once
against a *space* that supplies the operator product, the preconditioner,
the instrumented BLAS1 ops, the faults a solve survives (and a rescue) and
the result type — like Oceananigans' multigrid solver, built from a
``linear_operation!(Ax, x)`` rather than a matrix.  :class:`NodeSpace` runs
over a vector ``(n,)`` or a block ``(n, k)`` of right-hand sides;
:class:`repro.dist.krylov.ParSpace` over ``ParVector``\\ s.

:class:`Columns` is the per-column state the drivers share, including one
:class:`~repro.faults.guards.ResidualGuard` per column — the one guard site
of every solver: the Krylov drivers and the stationary AMG iteration
(:func:`repro.amg.solver.stationary`, on a node and across ranks).  A
column that converges or breaks is *retired*: its iterate is copied out and
the working block narrowed to the others, so each column's bits are those
of a solo solve.  A vector is a block of one column that is never narrowed.
"""

from __future__ import annotations

import numpy as np

from ..faults.guards import ResidualGuard
from ..faults.plan import FaultEvent
from ..perf.counters import count, phase
from ..results import KrylovResult
from ..sparse import blas1
from ..sparse.spmv import rhs_width, spmv

__all__ = ["NodeSpace", "Columns", "columnwise"]


class NodeSpace:
    """ndarray vectors and blocks under a :class:`CSRMatrix` ``A``.

    ``dot`` / ``norm2`` return a float for a vector, one value per column
    for a block.  ``take`` narrows a block (or a per-column array) to the
    columns kept; ``column`` is a view of one column.
    """

    catches: tuple[type[BaseException], ...] = ()
    #: ``rescue(verdict, it)``: the detail of a ``sparsify_fallback`` that
    #: keeps a column iterating, or None (a node has nothing to fall back to).
    rescue = None

    def __init__(self, A, precondition=None) -> None:
        self.A = A
        self._M = precondition

    def matvec(self, x: np.ndarray) -> np.ndarray:
        with phase("SpMV"):
            return spmv(self.A, x, kernel="spmv.krylov")

    def residual(self, b: np.ndarray, x: np.ndarray) -> np.ndarray:
        return b - self.matvec(x)

    def precondition(self, v: np.ndarray) -> np.ndarray:
        return v.copy() if self._M is None else self._M(v)

    #: Phase of the start-up reductions, the restart-end norm and CG's
    #: direction update (the distributed space leaves them untagged).
    edge_phase = staticmethod(phase)

    width = staticmethod(rhs_width)
    dot = staticmethod(blas1.dot)
    norm2 = staticmethod(blas1.norm2)
    axpy = staticmethod(blas1.axpy)
    waxpby = staticmethod(blas1.waxpby)
    scaled = staticmethod(np.divide)  # uncounted basis normalisation
    zeros = staticmethod(lambda b: np.zeros(b.shape))
    column = staticmethod(lambda v, i: v if v.ndim == 1 else v[:, i])
    take = staticmethod(lambda v, keep: v[..., keep])

    @staticmethod
    def rotations(k: int) -> None:
        """Charge one Givens step of *k* Hessenberg systems."""
        count("krylov.givens", flops=20.0 * k, phase="Solve_etc")

    @staticmethod
    def result(x, iterations, residuals, converged, reason, events):
        return KrylovResult(x, iterations, residuals, converged,
                            degraded=reason is not None,
                            degraded_reason=reason, fault_events=events)


def columnwise(precondition):
    """A block preconditioner from a vector one (``None`` stays ``None``)."""
    if precondition is None:
        return None
    return lambda V: np.column_stack([precondition(v) for v in V.T])


class Columns:
    """Per-column state of one solve over *space*.

    Columns are addressed by their index ``i`` in the working block — the
    columns still iterating, in their original order.  ``detail`` formats
    the iteration number into a guard verdict's event detail, and the
    verdict's reason reads ``"<verdict> at <step> k"``.
    """

    def __init__(self, space, b, tol: float, detail: str,
                 step: str = "iteration") -> None:
        width = space.width(b)
        k = max(width, 1)
        self.space = space
        self.rescue = space.rescue
        self.vector = width == 0
        self.tol = tol
        self.detail = detail
        self.step = step
        self.active = np.arange(k)
        self.ref = np.zeros(k)
        self.guards: list[ResidualGuard] = []
        self.residuals: list[list[float]] = [[] for _ in range(k)]
        self.iterations = [0] * k
        self.converged = [False] * k
        self.reasons: list[str | None] = [None] * k
        self.events: list[list[FaultEvent]] = [[] for _ in range(k)]
        self.x: list = [None] * k
        self.restarts = 0

    @property
    def running(self) -> bool:
        return self.active.size > 0

    def start(self, r0, bnorm=None) -> np.ndarray:
        """Take the initial residual norms; the mask of columns that stop
        here (converged, or failed on a non-finite norm).

        A Krylov column measures its residuals against ``r0`` and converges
        here only on ``r0 == 0``.  The stationary iteration passes the norms
        ``bnorm`` of its right-hand sides: a column then measures against
        ``||b||`` (``r0`` when ``b = 0``), converges here already within
        ``tol`` of it, and its guard also stops it on stagnation.  No guard
        sees ``r0``.
        """
        r0 = np.atleast_1d(r0)
        self.stationary = stationary = bnorm is not None
        self.ref = np.where(bnorm > 0.0, bnorm, r0) if stationary else r0
        self.guards = [self.guard(v) for v in self.ref]
        converged = r0 == 0.0
        if stationary:
            converged |= r0 <= self.tol * self.ref
        # An infinite ``b`` passes ``r0 <= tol * ||b||``; it still fails.
        broken = ~np.isfinite(r0)
        converged &= ~broken
        for i, v in enumerate(r0):
            self.residuals[i].append(float(v))
            self.converged[i] = bool(converged[i])
            if broken[i]:
                self.fail(i, "nonfinite", "initial residual",
                          "nonfinite initial residual")
        return converged | broken

    def guard(self, ref) -> ResidualGuard:
        return ResidualGuard(ref, stagnation=self.stationary)

    def observe(self, i: int, it: int, rn) -> bool:
        """Log column *i*'s residual norm at iteration *it*; True when the
        column stops there (converged, or a guard verdict)."""
        c = self.active[i]
        self.residuals[c].append(float(rn))
        self.iterations[c] = it
        if rn <= self.tol * self.ref[c]:
            self.converged[c] = True
            return True
        verdict = self.guards[c].check(rn)
        if self.rescue is not None:
            fallback = self.rescue(verdict, it)
            if fallback is not None:
                self.events[c].append(
                    FaultEvent("sparsify_fallback", detail=fallback))
                self.guards[c] = self.guard(self.ref[c])
                return False
        if verdict is not None:
            self.fail(i, verdict, self.detail.format(it),
                      f"{verdict} at {self.step} {it}")
        return verdict is not None

    def fail(self, i: int, kind: str, detail: str, reason: str) -> None:
        c = self.active[i]
        self.events[c].append(FaultEvent(kind, detail=detail))
        self.reasons[c] = reason

    def failed(self, i: int) -> bool:
        return self.reasons[self.active[i]] is not None

    def abort(self, exc: BaseException, it: int) -> None:
        """An unrecoverable fault of the space ends every running column."""
        for i, c in enumerate(self.active):
            self.iterations[c] = it
            self.converged[c] = False
            self.fail(i, "comm_abort", str(exc), str(exc))

    def checkpoint(self, it: int, x) -> None:
        """Keep iteration *it*, a copy of *x* and the residual histories."""
        self._checkpoint = (it, x.copy(), [list(h) for h in self.residuals])

    def restart(self, exc: BaseException, max_restarts: int) -> bool:
        """Log a ``checkpoint_restart`` for the space's fault *exc*; False
        past *max_restarts*, when every running column stops on it."""
        self.restarts += 1
        for c in self.active:
            self.events[c].append(FaultEvent(
                "checkpoint_restart", detail=str(exc), attempt=self.restarts))
            if self.restarts > max_restarts:
                self.reasons[c] = f"comm fault persisted: {exc}"
        return self.restarts <= max_restarts

    def rollback(self):
        """The last checkpoint's iteration and a copy of its iterate, the
        histories restored to it.  Only a space that can fault takes
        checkpoints, and it runs one column: the block never narrows."""
        it, x, residuals = self._checkpoint
        self.residuals = [list(h) for h in residuals]
        self.iterations = [it] * len(self.iterations)
        return it, x.copy()

    def retire(self, done: np.ndarray, x, *rest):
        """Freeze the working columns where *done* — copy out their iterate
        from *x* and drop them — and return ``(x, *rest)`` (blocks and
        per-column arrays) narrowed to the columns still running."""
        if not done.any():
            return (x, *rest)
        for i in np.flatnonzero(done):
            self.x[self.active[i]] = self.space.column(x, i).copy()
        self.active = self.active[~done]
        if not self.running:
            return (x, *rest)
        return tuple(self.space.take(v, ~done) for v in (x, *rest))

    def results(self, x):
        """One result per column (one result for a vector), from iterate *x*
        of the columns still running."""
        self.retire(np.ones(self.active.size, dtype=bool), x)
        out = [self.space.result(self.x[c], self.iterations[c],
                                 self.residuals[c], self.converged[c],
                                 self.reasons[c], list(self.events[c]))
               for c in range(len(self.x))]
        return out[0] if self.vector else out

"""The standalone AMG solver (Table 3 configuration) and its result record.

``AMGSolver`` runs the stationary iteration ``x <- x + V(b - A x)`` where
``V`` is one V-cycle with zero initial guess, stopping on a relative
residual-norm reduction (Table 3: 1e-7).  The residual-norm evaluation uses
the fused SpMV+dot kernel when the flag is on (§3.3).

The iteration is :func:`stationary`, written against a space (as the Krylov
drivers are), which :class:`repro.dist.DistAMGSolver` runs across ranks.
The object is also directly usable as a preconditioner (one V-cycle per
application) for the Krylov solvers in :mod:`repro.krylov`.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..config import AMGConfig
from ..krylov.space import Columns, NodeSpace
from ..perf.counters import phase
from ..results import SolveResult
from ..sparse.blas1 import norm2
from ..sparse.csr import CSRMatrix
from ..sparse.spmv import residual
from .cycle import cycle
from .setup import Hierarchy, build_hierarchy

__all__ = ["AMGSolver", "SolveResult", "stationary"]


class AMGSolver:
    """Classical AMG solver/preconditioner over the instrumented substrate.

    Usage::

        solver = AMGSolver(single_node_config())
        solver.setup(A)                 # setup phase (counted)
        result = solver.solve(b)        # solve phase (counted)
    """

    def __init__(self, config: AMGConfig | None = None) -> None:
        self.config = config or AMGConfig()
        self.hierarchy: Hierarchy | None = None

    # -- setup -------------------------------------------------------------
    def setup(self, A: CSRMatrix, *, cache=None, reuse: str = "auto") -> Hierarchy:
        """Build (or fetch from a :class:`~repro.amg.cache.HierarchyCache`)
        the hierarchy for *A*.

        ``reuse`` selects the cache's lookup policy (``"auto"`` /
        ``"pattern"`` / ``"never"`` — see
        :meth:`~repro.amg.cache.HierarchyCache.get_or_build`).  Uncached
        setups capture a resetup plan unless ``reuse="never"``, so a later
        :meth:`update` can refresh the hierarchy numerically.
        """
        if cache is not None:
            self.hierarchy = cache.get_or_build(A, self.config, reuse=reuse)
        else:
            self.hierarchy = build_hierarchy(
                A, self.config, capture_plan=reuse != "never"
            )
        return self.hierarchy

    def update(self, A: CSRMatrix) -> Hierarchy:
        """Numeric resetup for a same-pattern operator (uncached path).

        Delegates to :meth:`Hierarchy.refresh
        <repro.amg.setup.Hierarchy.refresh>`; falls back to a full rebuild
        when the pattern (or a frozen symbolic decision) no longer matches.
        """
        if self.hierarchy is None:
            raise RuntimeError("call setup() first")
        self.hierarchy = self.hierarchy.refresh(A)
        return self.hierarchy

    @property
    def operator_complexity(self) -> float:
        return self.hierarchy.operator_complexity()

    # -- level-0 ordering helpers -------------------------------------------
    def _to_level0(self, v: np.ndarray) -> np.ndarray:
        """Permute a vector or (n, k) block into the level-0 ordering."""
        lvl0 = self.hierarchy.levels[0]
        return v[lvl0.new2old] if lvl0.new2old is not None else v

    def _from_level0(self, v: np.ndarray) -> np.ndarray:
        lvl0 = self.hierarchy.levels[0]
        if lvl0.new2old is None:
            return v
        out = np.empty_like(v)
        out[lvl0.new2old] = v
        return out

    # -- preconditioner interface -------------------------------------------
    def precondition(self, r: np.ndarray, *, user_ordering: bool = True) -> np.ndarray:
        """One cycle applied to *r* — a vector or an ``(n, k)`` residual
        block — with a zero initial guess."""
        if self.hierarchy is None:
            raise RuntimeError("call setup() first")
        rp = self._to_level0(r) if user_ordering else r
        xp = cycle(self.hierarchy, rp, self.config.cycle_type)
        return self._from_level0(xp) if user_ordering else xp

    #: Pinned by the perf harness's ``krylov.pcg_multi8_iter_s`` rung.
    precondition_multi = precondition

    # -- standalone solve ----------------------------------------------------
    def solve(
        self,
        b: np.ndarray,
        *,
        tol: float = 1e-7,
        maxiter: int | None = None,
        x0: np.ndarray | None = None,
    ) -> SolveResult:
        """Iterate cycles until ``||r|| <= tol * ||b||``.

        ``maxiter`` bounds the cycle count (default 500); ``x0`` is the
        start (default zero).
        """
        b, x = self._level0_operands(b, x0, ndim=1)
        return self._iterate(b, x, tol, maxiter)

    def solve_many(
        self,
        B: np.ndarray,
        *,
        tol: float = 1e-7,
        maxiter: int | None = None,
        x0: np.ndarray | None = None,
    ) -> list[SolveResult]:
        """Solve ``A x_j = B[:, j]`` for all *k* columns with batched cycles.

        One hierarchy, one batched cycle per iteration over the block of
        still-active columns: the level matrices, smoother structures, and
        coarse factor stream once per cycle instead of once per column.
        Column *j*'s result is that of ``solve(B[:, j], tol=..., maxiter=...)``
        in every field: a column that converges, or that its own guard stops
        (non-finite, diverged, stagnated), leaves the block exactly where the
        single-RHS solve stops iterating it.

        Returns one :class:`SolveResult` per column (none for a block
        without columns).
        """
        B, X = self._level0_operands(B, x0, ndim=2)
        return self._iterate(B, X, tol, maxiter) if B.shape[1] else []

    def _level0_operands(self, b, x0, *, ndim: int):
        """*b* and the start (*x0*, default zero) in the level-0 ordering,
        once *b* is checked to be a vector (``ndim=1``) or an ``(n, k)``
        block (``ndim=2``) over the operator's *n* rows and *x0* to have its
        shape: the permutation would silently truncate longer input."""
        if self.hierarchy is None:
            raise RuntimeError("call setup() first")
        n = self.hierarchy.levels[0].A.nrows
        b = np.asarray(b, dtype=np.float64)
        if b.ndim != ndim or b.shape[0] != n:
            want = f"({n},)" if ndim == 1 else f"({n}, k)"
            raise ValueError(f"expected b of shape {want}, got {b.shape}")
        if x0 is None:
            return self._to_level0(b), np.zeros(b.shape)
        x0 = np.asarray(x0, dtype=np.float64)
        if x0.shape != b.shape:
            raise ValueError(f"x0 has shape {x0.shape}, b has {b.shape}")
        return self._to_level0(b), self._to_level0(x0).copy()

    def _iterate(self, b, x, tol: float, maxiter: int | None):
        """:func:`stationary` on a level-0 vector (one result) or ``(n, k)``
        block (a list), from the start *x*."""
        cols = Columns(_Level0Space(self), b, tol, "cycle {}", step="cycle")
        return stationary(cols, b, x, 500 if maxiter is None else maxiter)


#: Iterations between two checkpoints of a solve whose space can fault.
CHECKPOINT_EVERY = 5


def stationary(cols: Columns, b, x, maxiter: int, *, max_restarts: int = 32):
    """``x <- x + M(b - A x)`` from *x*, ``M`` one AMG cycle (the space's
    preconditioner): one result for a vector *b*, a list for a block.

    Per-column state — reference, guard, history, verdict — lives in *cols*;
    a block narrows only when a column stops.  A space that can fault
    (``catches``) is checkpointed every :data:`CHECKPOINT_EVERY` iterations:
    a fault re-runs the start, or rolls back to the last checkpoint, up to
    *max_restarts* times in all.
    """
    space = cols.space
    catches = space.catches
    r = None
    while r is None:  # a fault in the start re-runs it
        try:
            with space.edge_phase("BLAS1"):
                bnorm = space.norm2(b)
            r, rn = space.resnorm(x, b)
        except catches as exc:
            if not cols.restart(exc, max_restarts):
                return cols.results(x)
    x, b, r = cols.retire(cols.start(rn, bnorm), x, b, r)
    if catches:
        cols.checkpoint(0, x)
    it = 0
    while it < maxiter and cols.running:
        try:
            if r is None:
                r, _ = space.resnorm(x, b)
            corr = space.precondition(r)
            with phase("BLAS1"):
                space.axpy(1.0, corr, x)
            r, rn = space.resnorm(x, b)
        except catches as exc:
            if not cols.restart(exc, max_restarts):
                break
            it, x = cols.rollback()
            r = None
            continue
        it += 1
        done = [cols.observe(i, it, v)
                for i, v in enumerate((rn,) if cols.vector else rn)]
        if any(done):
            x, b, r = cols.retire(np.array(done), x, b, r)
        elif catches and it % CHECKPOINT_EVERY == 0:
            cols.checkpoint(it, x)
    return cols.results(x)


class _Level0Space(NodeSpace):
    """The stationary iteration's vector space: level-0 vectors and blocks
    under the solver's cycle, whose results come back in the caller's
    ordering."""

    def __init__(self, solver: AMGSolver) -> None:
        super().__init__(solver.hierarchy.levels[0].A)
        self.precondition = partial(solver.precondition, user_ordering=False)
        self._fused = solver.config.flags.fuse_spmv_dot
        self._from_level0 = solver._from_level0

    def resnorm(self, x: np.ndarray, b: np.ndarray):
        """``r = b - A x`` and its norm (per column for a block), through
        the fused kernel when the flag is on (§3.3)."""
        with phase("SpMV"):
            if self._fused:
                return residual(self.A, x, b, fused_norm=True)
            r = residual(self.A, x, b)
            with phase("BLAS1"):
                return r, norm2(r)

    def result(self, x, iterations, residuals, converged, reason, events):
        return SolveResult(self._from_level0(x), iterations, residuals,
                           converged, degraded=reason is not None,
                           degraded_reason=reason, fault_events=events)

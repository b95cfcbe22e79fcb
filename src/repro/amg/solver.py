"""The standalone AMG solver (Table 3 configuration) and its result record.

``AMGSolver`` runs the stationary iteration ``x <- x + V(b - A x)`` where
``V`` is one V-cycle with zero initial guess, stopping on a relative
residual-norm reduction (Table 3: 1e-7).  The residual-norm evaluation uses
the fused SpMV+dot kernel when the flag is on (§3.3).

The object is also directly usable as a preconditioner (one V-cycle per
application) for the Krylov solvers in :mod:`repro.krylov`.
"""

from __future__ import annotations

import numpy as np

from ..config import AMGConfig
from ..faults.guards import ResidualGuard
from ..faults.plan import FaultEvent
from ..perf.counters import phase
from ..results import SolveResult
from ..sparse.blas1 import axpy, norm2
from ..sparse.csr import CSRMatrix
from ..sparse.spmv import residual
from .cycle import cycle
from .setup import Hierarchy, build_hierarchy

__all__ = ["AMGSolver", "SolveResult"]


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

    def _resnorm(self, x: np.ndarray, b: np.ndarray):
        """``r = b - A x`` on level 0 and its norm (per column for a block),
        through the fused kernel when the flag is on (§3.3)."""
        A0 = self.hierarchy.levels[0].A
        with phase("SpMV"):
            if self.config.flags.fuse_spmv_dot:
                return residual(A0, x, b, fused_norm=True)
            r = residual(A0, x, b)
            with phase("BLAS1"):
                return r, norm2(r)

    # -- standalone solve ----------------------------------------------------
    def solve(
        self,
        b: np.ndarray,
        *,
        tol: float = 1e-7,
        maxiter: int | None = None,
        x0: np.ndarray | None = None,
        fmg_start: bool = False,
    ) -> SolveResult:
        """Iterate cycles until ``||r|| <= tol * ||b||``.

        ``maxiter`` bounds the cycle count (default 500).  ``fmg_start``
        seeds the iteration with one full-multigrid pass (nested iteration)
        instead of a zero guess.
        """
        maxiter = 500 if maxiter is None else maxiter
        if self.hierarchy is None:
            raise RuntimeError("call setup() first")
        h = self.hierarchy
        bp = self._to_level0(np.asarray(b, dtype=np.float64))
        if x0 is not None:
            x = self._to_level0(np.asarray(x0, dtype=np.float64)).copy()
        elif fmg_start:
            from .fmg import full_multigrid

            x = full_multigrid(h, bp)
        else:
            x = np.zeros(len(bp))

        # Convergence reference: ||b|| (HYPRE's relative residual), falling
        # back to the initial residual for a zero right-hand side.
        with phase("BLAS1"):
            bnorm = norm2(bp)
        r, r0 = self._resnorm(x, bp)
        ref = bnorm if bnorm > 0.0 else r0
        if r0 == 0.0 or r0 <= tol * ref:
            return SolveResult(self._from_level0(x), 0, [r0], True)
        if not np.isfinite(r0):
            return SolveResult(
                self._from_level0(x), 0, [r0], False, degraded=True,
                degraded_reason="nonfinite initial residual",
                fault_events=[FaultEvent("nonfinite",
                                         detail="initial residual")])
        residuals = [r0]
        converged = False
        events: list[FaultEvent] = []
        reason = None
        guard = ResidualGuard(ref)
        for it in range(1, maxiter + 1):
            corr = cycle(h, r, self.config.cycle_type)
            with phase("BLAS1"):
                axpy(1.0, corr, x)
            r, rn = self._resnorm(x, bp)
            residuals.append(rn)
            if rn <= tol * ref:
                converged = True
                break
            verdict = guard.check(rn)
            if verdict is not None:
                events.append(FaultEvent(verdict, detail=f"cycle {it}"))
                reason = f"{verdict} at cycle {it}"
                break
        return SolveResult(self._from_level0(x), len(residuals) - 1, residuals,
                           converged, degraded=bool(events),
                           degraded_reason=reason, fault_events=events)

    # -- batched standalone solve -------------------------------------------
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
        Column *j*'s iterates are bit-identical to
        ``solve(B[:, j], tol=..., maxiter=...)`` — a column that converges,
        or that its own :class:`ResidualGuard` stops (non-finite, diverged,
        stagnated), is frozen (dropped from the active block), exactly as
        the single-RHS solve stops iterating it.

        Returns one :class:`SolveResult` per column (none for a block
        without columns).
        """
        if self.hierarchy is None:
            raise RuntimeError("call setup() first")
        B = np.asarray(B, dtype=np.float64)
        if B.ndim != 2:
            raise ValueError(f"expected a 2-D (n, k) block, got shape {B.shape}")
        maxiter = 500 if maxiter is None else maxiter
        h = self.hierarchy
        n, k = B.shape
        if k == 0:
            return []

        Bp = self._to_level0(B)
        if x0 is not None:
            X = self._to_level0(np.asarray(x0, dtype=np.float64)).copy()
            if X.shape != (n, k):
                raise ValueError("x0 must match the shape of B")
        else:
            X = np.zeros((n, k))

        with phase("BLAS1"):
            bnorms = norm2(Bp)
        R, r0 = self._resnorm(X, Bp)
        ref = np.where(bnorms > 0.0, bnorms, r0)

        residuals: list[list[float]] = [[float(r0[j])] for j in range(k)]
        iterations = np.zeros(k, dtype=np.int64)
        converged = (r0 == 0.0) | (r0 <= tol * ref)
        failed = np.zeros(k, dtype=bool)
        col_events: list[list[FaultEvent]] = [[] for _ in range(k)]
        for j in np.flatnonzero(~np.isfinite(r0)):
            # A NaN/Inf column is frozen before the first cycle so it can
            # never poison the blocked kernels its siblings run through.
            failed[j] = True
            col_events[j].append(FaultEvent("nonfinite",
                                            detail="initial residual"))
        active = np.flatnonzero(~converged & ~failed)
        guards = [ResidualGuard(ref[j]) for j in range(k)]

        for _ in range(maxiter):
            if len(active) == 0:
                break
            corr = cycle(h, R[:, active], self.config.cycle_type)
            Xa = X[:, active]  # advanced indexing: a copy of the active block
            with phase("BLAS1"):
                axpy(1.0, corr, Xa)
            X[:, active] = Xa
            Ra, rn = self._resnorm(X[:, active], Bp[:, active])
            R[:, active] = Ra
            done_local = []
            for idx, j in enumerate(active):
                residuals[j].append(float(rn[idx]))
                iterations[j] += 1
                if rn[idx] <= tol * ref[j]:
                    converged[j] = True
                    done_local.append(idx)
                    continue
                verdict = guards[j].check(rn[idx])
                if verdict is not None:
                    failed[j] = True
                    col_events[j].append(FaultEvent(
                        verdict, detail=f"cycle {int(iterations[j])}"))
                    done_local.append(idx)
            if done_local:
                active = np.delete(active, done_local)

        Xout = self._from_level0(X)
        return [
            SolveResult(Xout[:, j].copy(), int(iterations[j]), residuals[j],
                        bool(converged[j]), degraded=bool(failed[j]),
                        degraded_reason=(col_events[j][-1].kind
                                         if failed[j] and col_events[j]
                                         else None),
                        fault_events=list(col_events[j]))
            for j in range(k)
        ]

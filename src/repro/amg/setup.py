"""AMG setup phase: build the multigrid hierarchy (§3.1).

Per level: strength matrix -> PMIS (or aggressive PMIS) -> optional CF
reordering of the level operator -> interpolation (+ fused truncation) ->
Galerkin product.  The level's :class:`~repro.amg.interp.InterpScheme`
decides whether it coarsens aggressively and how it interpolates.  The
paper's Fig. 5 breakdown buckets are attributed here: ``Strength+Coarsen``,
``Interp``, ``RAP``, ``Setup_etc`` (reordering pre-processing, kept
transposes, smoother/coarse-solver setup).

Ordering convention (see :class:`repro.amg.level.Level`): every level matrix
lives in its own ordering; when ``cf_reorder`` is on, a level is permuted
C-points-first as soon as its splitting is known, and the *parent's*
interpolation columns are renumbered once to match — after which vectors
flow through the hierarchy with no per-cycle permutations.

Pattern reuse (§3.1.1 applied to the whole setup): ``build_hierarchy(...,
capture_plan=True)`` additionally freezes every symbolic decision into a
:class:`~repro.amg.resetup.SetupPlan` carried on the hierarchy, and
:meth:`Hierarchy.refresh` re-runs setup numerically (branch-free) through
that plan for matrix sequences that share one sparsity pattern.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis import check_csr, check_hierarchy, checking
from ..config import AMGConfig
from ..perf.counters import phase
from ..sparse.csr import CSRMatrix
from ..sparse.reorder import cf_permutation, count_fused_partition, permute_matrix
from ..sparse.transpose import transpose
from ..sparse.triple_product import (
    rap_cf_block_plan,
    rap_fused_plan,
    rap_hypre_fusion,
    rap_unfused,
)
from .coarse import CoarseSolver
from .coarsen_rs import rs_coarsening
from .interp import interp_scheme
from .level import Level
from .pmis import aggressive_pmis, pmis
from .resetup import PlanBuilder, SetupPlan
from .smoothers import HybridGSSmoother, smoother_variant
from .solveplan import attach_solve_plan
from .strength import strength_matrix

__all__ = ["Hierarchy", "build_hierarchy"]


@dataclass
class Hierarchy:
    """The complete multigrid hierarchy produced by :func:`build_hierarchy`.

    There is no separate solve-phase object: each level's smoother (and a
    swept coarsest solver's) carries its own compiled sweeps, compiled by
    :func:`~repro.amg.solveplan.attach_solve_plan` at the end of the build,
    and :class:`~repro.amg.level.Level` dispatches the grid transfers.
    """

    levels: list[Level]
    coarse_solver: CoarseSolver
    config: AMGConfig
    #: frozen symbolic setup state for pattern-reuse resetup; None unless
    #: the hierarchy was built with ``capture_plan=True`` (and the config
    #: is plan-capable — see :meth:`repro.amg.resetup.PlanBuilder.begin`).
    plan: SetupPlan | None = None

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    def refresh(self, A_new: CSRMatrix) -> "Hierarchy":
        """Numeric-only resetup for a same-pattern operator *A_new*.

        Re-runs the setup phase branch-free through the captured
        :class:`~repro.amg.resetup.SetupPlan`, producing per-level matrices
        bit-identical to a from-scratch build on *A_new*.  Falls back to a
        full (re-capturing) rebuild when no plan was captured or a guard
        detects symbolic drift.  Always returns a **new** hierarchy;
        ``self`` is never mutated and stays valid for the operator it was
        built with (cached or handed-out hierarchies are frozen, so a
        refresh can never rewire a live solver to different numerics).
        """
        from .resetup import refresh_hierarchy

        return refresh_hierarchy(self, A_new)

    def operator_complexity(self) -> float:
        """Sum of level nnz over finest nnz (§2)."""
        return sum(l.A.nnz for l in self.levels) / self.levels[0].A.nnz

    def grid_complexity(self) -> float:
        return sum(l.A.nrows for l in self.levels) / self.levels[0].A.nrows

    def level_sizes(self) -> list[tuple[int, int]]:
        return [(l.A.nrows, l.A.nnz) for l in self.levels]


def _galerkin(
    A: CSRMatrix,
    P: CSRMatrix,
    cf: np.ndarray,
    config: AMGConfig,
    plan_builder: PlanBuilder | None = None,
) -> CSRMatrix:
    flags = config.flags
    scheme = flags.rap_scheme
    method = "one_pass" if flags.spgemm_one_pass else "two_pass"
    if scheme == "cf_block":
        nc = int((cf > 0).sum())
        P_F = P.extract_rows(np.arange(nc, A.nrows, dtype=np.int64))
        A_next, rap_plan = rap_cf_block_plan(
            A, P_F, cf, method=method,
            already_partitioned=flags.cf_reorder and flags.three_way_partition,
        )
    else:
        R = transpose(P, kernel="rap.transpose", parallel=flags.parallel_setup_kernels)
        if scheme == "hypre":
            return rap_hypre_fusion(R, A, P, two_pass=not flags.spgemm_one_pass)
        if scheme == "unfused":
            return rap_unfused(R, A, P, method=method)
        if scheme != "fused":
            raise ValueError(f"unknown rap_scheme {scheme!r}")
        A_next, rap_plan = rap_fused_plan(R, A, P)
    # The plan is a by-product of the product; a capturing build keeps it.
    if plan_builder is not None:
        plan_builder.capture_rap(rap_plan)
    return A_next


def _build_smoothers(levels: list[Level], config: AMGConfig) -> None:
    """Construct the per-level smoothers (every level but the coarsest)."""
    flags = config.flags
    for l in range(len(levels) - 1):
        lvl = levels[l]
        nthreads_l = config.nthreads
        if config.gpu_rows_per_block > 0:
            nthreads_l = max(4, lvl.A.nrows // config.gpu_rows_per_block)
        lvl.smoother = HybridGSSmoother(
            lvl.A,
            nthreads=nthreads_l,
            cf_marker=lvl.cf_marker,
            variant=smoother_variant(config.smoother),
            optimized=flags.three_way_partition,
            cf_contiguous=flags.cf_reorder,
            seed=config.seed,
        )


def _build_coarse_solver(levels: list[Level], config: AMGConfig) -> CoarseSolver:
    return CoarseSolver(
        levels[-1].A,
        dense_threshold=config.dense_coarse_threshold,
        nthreads=config.nthreads,
    )


def build_hierarchy(
    A0: CSRMatrix,
    config: AMGConfig | None = None,
    *,
    capture_plan: bool = False,
) -> Hierarchy:
    """Run the AMG setup phase on operator *A0*.

    With ``capture_plan=True`` the build additionally freezes its symbolic
    decisions into a :class:`~repro.amg.resetup.SetupPlan` (carried on
    ``Hierarchy.plan``) so that :meth:`Hierarchy.refresh` can redo setup
    numerically for later same-pattern operators.  Capture is silent in the
    performance model — the build emits exactly the records of a plain one.
    Unsupported configs simply yield ``plan=None``.
    """
    config = config or AMGConfig()
    flags = config.flags
    if A0.nrows != A0.ncols:
        raise ValueError("AMG requires a square operator")

    schemes = [interp_scheme(config, l) for l in range(config.max_levels - 1)]
    builder = PlanBuilder.begin(A0, config) if capture_plan else None
    levels: list[Level] = [Level(A=A0)]

    for l, scheme in enumerate(schemes):
        lvl = levels[l]
        A = lvl.A
        if A.nrows <= config.coarse_size:
            break
        if builder is not None:
            builder.start_level(A)

        with phase("Strength+Coarsen"):
            S, strong = strength_matrix(
                A,
                config.strength_threshold,
                config.max_row_sum,
                parallel=flags.parallel_setup_kernels,
                return_mask=True,
            )
            if scheme.aggressive:
                cf, cf_stage1 = aggressive_pmis(
                    S, seed=config.seed + l, nthreads=config.nthreads,
                    parallel_rng=flags.parallel_rng,
                    parallel=flags.parallel_setup_kernels,
                )
            elif config.coarsening == "rs":
                cf = rs_coarsening(S)
                cf_stage1 = None
            else:
                cf = pmis(
                    S, seed=config.seed + l, nthreads=config.nthreads,
                    parallel_rng=flags.parallel_rng,
                    parallel=flags.parallel_setup_kernels,
                )
                cf_stage1 = None
            if checking():
                check_csr(S, name=f"S[{l}]", level=l)

        nc = int((cf > 0).sum())
        if nc == 0 or nc == A.nrows:
            break

        if flags.cf_reorder:
            with phase("Setup_etc"):
                new2old, old2new = cf_permutation(cf)
                A = permute_matrix(A, new2old, kernel="reorder.operator")
                S = permute_matrix(S, new2old, kernel="reorder.strength")
                cf = cf[new2old]
                if cf_stage1 is not None:
                    cf_stage1 = cf_stage1[new2old]
                lvl.A = A
                lvl.new2old = new2old
                if l > 0:
                    # Renumber the parent's interpolation columns into this
                    # level's new ordering (one-time cost).  The parent's
                    # coarse block of P becomes a permutation matrix; record
                    # it so the identity-block SpMVs stay exact.
                    parent = levels[l - 1]
                    parent.P = CSRMatrix(
                        parent.P.shape,
                        parent.P.indptr,
                        old2new[parent.P.indices],
                        parent.P.data,
                    ).sort_indices()
                    parent.cperm = old2new
                if flags.three_way_partition:
                    # In-row 3-way partial sort: coarse>=0 | coarse<0 | fine,
                    # fused into the permutation's data sweep (§3.1.2).  The
                    # permuted rows are column-sorted, so the C columns lead
                    # each row already — the split the kernels use; the
                    # partitioned copy is never read, only its cost recorded.
                    count_fused_partition(A.nrows, 3, kernel="reorder.threeway")

        lvl.cf_marker = cf
        lvl.n_coarse = nc
        if builder is not None:
            builder.capture_level(lvl, S, strong, scheme)

        with phase("Interp"):
            P, interp_plan = scheme.build(A, S, cf, cf_stage1, config)
            if checking():
                check_csr(P, name=f"P[{l}]", level=l)
        lvl.P = P
        if builder is not None:
            builder.capture_interp(P, interp_plan)

        with phase("RAP"):
            A_next = _galerkin(A, P, cf, config, plan_builder=builder)
            if checking():
                check_csr(A_next, name=f"A[{l + 1}]", level=l + 1)

        levels.append(Level(A=A_next))
        if A_next.nrows <= config.coarse_size:
            break

    with phase("Setup_etc"):
        # Finalize grid transfers now that every level's ordering is fixed.
        for l in range(len(levels) - 1):
            lvl = levels[l]
            if flags.cf_reorder:
                lvl.P_F = lvl.P.extract_rows(
                    np.arange(lvl.n_coarse, lvl.A.nrows, dtype=np.int64)
                )
            if flags.keep_transpose and not flags.cf_reorder:
                lvl.R = transpose(
                    lvl.P, kernel="setup.keep_transpose",
                    parallel=flags.parallel_setup_kernels,
                )
        # Smoothers on every level but the coarsest.
        _build_smoothers(levels, config)
        coarse = _build_coarse_solver(levels, config)

    plan = builder.finish(levels) if builder is not None else None
    hierarchy = Hierarchy(
        levels=levels, coarse_solver=coarse, config=config, plan=plan
    )
    # Compile the smoothers' sweeps now so no solve pays for it.  Pure
    # pattern arithmetic: emits no perf records.
    attach_solve_plan(hierarchy)
    if checking():
        # Cross-level invariants: CF bookkeeping, P = [I; P_F], R == P^T,
        # Galerkin probe (the last three only under --check full).
        check_hierarchy(hierarchy)
    return hierarchy

"""Pattern-reuse numeric resetup: refresh a hierarchy's numerics (§3.1.1).

Time-dependent and Newton-type workloads re-solve with operators whose
**values change but sparsity does not**.  For those, every symbolic
decision of the setup phase — the strength pattern, the PMIS CF split, the
CF permutation, the interpolation pattern (including the truncation
keep-set), and the Galerkin product patterns — is identical across builds,
so all of the branchy symbolic work can be frozen once and only the
numerics recomputed.  This module implements both halves:

* **Capture** (:class:`PlanBuilder`, driven by
  :func:`~repro.amg.setup.build_hierarchy` with ``capture_plan=True``):
  while a hierarchy is built, a per-level :class:`LevelPlan` freezes the
  CF split's entry permutation, the strength mask, the strength matrix
  (a pattern matrix — its unit values never change), the raw and stored
  interpolation patterns, and the RAP reuse plan
  (:class:`~repro.sparse.triple_product.RAPCFBlockPlan` /
  :class:`~repro.sparse.triple_product.RAPFusedPlan`).  Capture is
  **silent** and does no kernel work of its own: the interpolation and
  Galerkin plans are by-products the build's kernels hand out anyway, so a
  capturing build emits exactly the kernel records of a plain one.

* **Refresh** (:func:`refresh_hierarchy`, the implementation of
  :meth:`Hierarchy.refresh <repro.amg.setup.Hierarchy.refresh>`): re-runs
  setup branch-free through the frozen plans under a dedicated
  ``Resetup`` phase and returns a **new** hierarchy — the input hierarchy
  is never mutated, so handles and cache entries that still reference it
  keep solving the operator it was built for (hierarchies are frozen once
  handed out; the two share only the immutable plan and symbolic arrays).
  Each level's interpolation is recomputed by the ``numeric`` of the
  :class:`~repro.amg.interp.InterpScheme` its :class:`LevelPlan` captured —
  the one lookup (:func:`~repro.amg.interp.interp_scheme`) the build used
  too, so refresh never re-reads ``config.interp``; capture is refused
  exactly when some level's scheme has no ``numeric`` (the
  aggressive-coarsening families).
  Cheap vectorized guards validate that the frozen symbolic artifacts are
  still correct for the new values — the level-0 sparsity pattern, the
  per-level strength mask, and the interpolation pattern produced by each
  numeric recomputation.  Any guard failure logs its reason on the
  ``repro.amg.resetup`` logger and falls back to a full (re-capturing)
  rebuild, so ``refresh`` is always correct and at worst costs one cold
  setup.

Bit-identity: on a same-pattern update, every per-level matrix produced by
refresh (``A``, ``P``, ``P_F``, ``R``) is bit-identical to what a
from-scratch :func:`~repro.amg.setup.build_hierarchy` on the new values
would store — the guards are exactly the conditions under which the fresh
build's symbolic decisions coincide with the frozen ones, and every
numeric kernel (gathers through frozen entry maps,
:func:`~repro.sparse.spgemm.spgemm_numeric`,
:func:`~repro.sparse.spgemm.sp_add_numeric`, interpolation replays)
reproduces the fresh kernel's floating-point operation order exactly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from ..config import AMGConfig
from ..perf.counters import IDX_BYTES, VAL_BYTES, collect, count, phase
from ..sparse.csr import CSRMatrix
from ..sparse.ops import row_ids_from_indptr
from ..sparse.spgemm import _index_dtype
from ..sparse.triple_product import (
    RAPCFBlockPlan,
    RAPFusedPlan,
    rap_cf_block_numeric,
    rap_fused_numeric,
)
from .interp import InterpScheme, interp_scheme
from .interp_extended import ExtIPlan
from .strength import _strong_connections_mask

logger = logging.getLogger("repro.amg.resetup")

__all__ = ["LevelPlan", "SetupPlan", "PlanBuilder", "refresh_hierarchy"]


@dataclass
class LevelPlan:
    """Frozen symbolic state of one setup level (see module docstring)."""

    #: incoming-entry -> stored-entry gather map for the level operator
    #: (``stored.data = incoming.data[entry_perm]``); None when the level
    #: is not CF-permuted (stored order == incoming order).
    entry_perm: np.ndarray | None
    #: frozen strong-connection mask over the stored operator's entries
    strong_mask: np.ndarray
    #: frozen strength matrix (unit values — never changes on refresh)
    S: CSRMatrix
    #: the level's interpolation scheme (refresh calls its ``numeric``)
    scheme: InterpScheme
    #: raw interpolation operator as the RAP consumed it (pre column
    #: renumbering); pattern reference for the refresh guard.
    p_raw: CSRMatrix | None = None
    #: frozen symbolic half of the interpolation build (extended+i and
    #: classical; direct interpolation has none)
    interp_plan: ExtIPlan | None = None
    #: RAP reuse plan for this level's Galerkin product
    rap: RAPCFBlockPlan | RAPFusedPlan | None = None
    #: raw-P -> stored-P entry map (column renumbering + re-sort); None
    #: when the child level was never CF-permuted (stored P == raw P).
    p_perm: np.ndarray | None = None
    #: frozen stored (renumbered) P, pattern reference when p_perm is set
    stored_p: CSRMatrix | None = None
    #: stored-P -> R transpose permutation for kept ``R = P^T``
    r_perm: np.ndarray | None = None
    #: frozen R pattern when r_perm is set
    r_frozen: CSRMatrix | None = None


@dataclass
class SetupPlan:
    """Everything :func:`refresh_hierarchy` needs to redo setup branch-free."""

    #: level-0 operator pattern (the refresh compatibility guard)
    a0_shape: tuple[int, int]
    a0_indptr: np.ndarray
    a0_indices: np.ndarray
    levels: list[LevelPlan] = field(default_factory=list)


def _entry_permutation(
    in_indptr: np.ndarray, in_indices: np.ndarray, ncols: int,
    stored: CSRMatrix, new2old: np.ndarray,
) -> np.ndarray | None:
    """Gather map from incoming entry order to CF-permuted stored order.

    Matches stored entries to incoming ones through their original
    ``(row, col)`` keys; the incoming matrix must be canonical (sorted,
    duplicate-free), in which case its key sequence is strictly
    increasing.  Returns None if any key fails to match (non-canonical
    input — capture is then unsupported).
    """
    r_old = new2old[stored.row_ids()]
    c_old = new2old[stored.indices]
    keys_stored = r_old * np.int64(ncols) + c_old
    keys_in = row_ids_from_indptr(in_indptr) * np.int64(ncols) + in_indices
    perm = np.searchsorted(keys_in, keys_stored)
    if perm.size and perm.max() >= len(keys_in):
        return None
    if not np.array_equal(keys_in[perm], keys_stored):
        return None
    return perm.astype(_index_dtype(len(keys_in)))


class PlanBuilder:
    """Incrementally captures a :class:`SetupPlan` during a hierarchy build.

    Created through :meth:`begin`, which returns None for configurations
    the resetup path does not support (a level whose interpolation scheme
    has no ``numeric``, non-plan-capable RAP schemes) — the build then
    proceeds exactly as without capture and the hierarchy simply carries
    no plan.
    All methods are cheap and silent (no kernel records).
    """

    SUPPORTED_RAP = ("cf_block", "fused")

    def __init__(self, A0: CSRMatrix, config: AMGConfig) -> None:
        self.config = config
        self.plan = SetupPlan(A0.shape, A0.indptr, A0.indices)
        self._dead = False
        self._incoming: CSRMatrix = A0

    @classmethod
    def begin(cls, A0: CSRMatrix, config: AMGConfig) -> "PlanBuilder | None":
        if any(interp_scheme(config, l).numeric is None
               for l in range(config.max_levels - 1)):
            return None
        if config.flags.rap_scheme not in cls.SUPPORTED_RAP:
            return None
        return cls(A0, config)

    def abort(self, reason: str) -> None:
        if not self._dead:
            logger.debug("setup plan capture aborted: %s", reason)
            self._dead = True

    def start_level(self, A_incoming: CSRMatrix) -> None:
        """Snapshot the level operator before any CF reordering."""
        self._incoming = A_incoming

    def capture_level(self, lvl, S: CSRMatrix, strong: np.ndarray,
                      scheme: InterpScheme) -> None:
        """Freeze the split/reorder/strength state of one level.

        Called once the level's ``A``/``cf_marker``/``n_coarse`` are final
        (post CF permutation), with the (permuted) strength matrix and the
        strong-connection mask :func:`~repro.amg.strength.strength_matrix`
        computed over the *incoming* operator's entries, and the scheme the
        level interpolates with.
        """
        if self._dead:
            return
        A = lvl.A
        if lvl.new2old is not None:
            entry_perm = _entry_permutation(
                self._incoming.indptr, self._incoming.indices,
                self._incoming.ncols, A, lvl.new2old,
            )
            if entry_perm is None:
                self.abort("level operator is not canonical CSR")
                return
        else:
            entry_perm = None
        mask = strong if entry_perm is None else strong.take(entry_perm)
        self.plan.levels.append(LevelPlan(
            entry_perm=entry_perm, strong_mask=mask, S=S, scheme=scheme,
        ))

    def capture_interp(self, P: CSRMatrix, interp_plan: ExtIPlan | None) -> None:
        """Freeze the raw (pre-renumbering) interpolation pattern and the
        symbolic plan it was built through."""
        if self._dead:
            return
        self.plan.levels[-1].p_raw = P
        self.plan.levels[-1].interp_plan = interp_plan

    def capture_rap(self, rap_plan) -> None:
        if self._dead:
            return
        self.plan.levels[-1].rap = rap_plan

    def finish(self, levels) -> SetupPlan | None:
        """Resolve cross-level artifacts once every ordering is final.

        Computes, per level, the raw->stored interpolation entry map (the
        child level's column renumbering re-sorts entries) and the kept
        ``R = P^T`` transpose permutation.  Returns the completed plan, or
        None if capture was aborted.
        """
        if self._dead:
            return None
        for l, lp in enumerate(self.plan.levels):
            if lp.p_raw is None or lp.rap is None:
                self.abort(f"level {l} plan is incomplete")
                return None
            child = levels[l + 1]
            stored_p = levels[l].P
            if child.new2old is not None:
                raw = lp.p_raw
                keys_raw = (raw.row_ids() * np.int64(raw.ncols)
                            + raw.indices)
                c_raw = child.new2old[stored_p.indices]
                keys_stored = (stored_p.row_ids() * np.int64(raw.ncols)
                               + c_raw)
                perm = np.searchsorted(keys_raw, keys_stored)
                if not np.array_equal(keys_raw[perm], keys_stored):
                    self.abort(f"level {l} interpolation is not canonical")
                    return None
                lp.p_perm = perm.astype(_index_dtype(raw.nnz))
                lp.stored_p = stored_p
            if levels[l].R is not None:
                # Kept transpose: capture R's entry permutation by pushing
                # entry ids through the transpose (silently).
                with collect():
                    from ..sparse.transpose import transpose

                    rid = transpose(CSRMatrix(
                        stored_p.shape, stored_p.indptr, stored_p.indices,
                        np.arange(stored_p.nnz, dtype=np.float64),
                    ))
                lp.r_perm = rid.data.astype(_index_dtype(stored_p.nnz))
                lp.r_frozen = levels[l].R
        return self.plan


def refresh_hierarchy(hierarchy, A_new: CSRMatrix):
    """Numeric-only resetup of *hierarchy* for same-pattern operator *A_new*.

    Always returns a **new** hierarchy: on the fast path a freshly
    assembled one whose per-level matrices carry *A_new*'s numerics
    (sharing only the immutable symbolic state — CF markers, permutations,
    and the captured plan — with the input), or a from-scratch build when a
    guard detects that the frozen symbolic state no longer matches the new
    values (reason logged on ``repro.amg.resetup``).  *hierarchy* itself is
    never mutated, so callers holding it (solver handles, cache entries)
    can keep solving the operator it was built for.

    All modeled work is charged under the ``Resetup`` phase; the numeric
    path executes zero data-dependent branches.
    """
    from ..analysis import check_hierarchy, checking
    from .level import Level
    from .setup import Hierarchy, _build_smoothers, build_hierarchy
    from .coarse import CoarseSolver
    from .smoothers import HybridGSSmoother
    from .solveplan import attach_solve_plan

    config = hierarchy.config
    plan = hierarchy.plan

    def fallback(reason: str):
        logger.info("resetup falling back to full rebuild: %s", reason)
        return build_hierarchy(A_new, config, capture_plan=True)

    if A_new.nrows != A_new.ncols:
        raise ValueError("AMG requires a square operator")
    if plan is None:
        return fallback("hierarchy carries no setup plan "
                        "(capture disabled or config unsupported)")
    if (A_new.shape != plan.a0_shape
            or not np.array_equal(A_new.indptr, plan.a0_indptr)
            or not np.array_equal(A_new.indices, plan.a0_indices)):
        return fallback("operator sparsity pattern differs from the "
                        "captured hierarchy")

    flags = config.flags
    levels = hierarchy.levels
    staged: list[dict] = []
    incoming = A_new
    with phase("Resetup"):
        for l, lp in enumerate(plan.levels):
            lvl = levels[l]
            if lp.entry_perm is not None:
                stored = CSRMatrix(lvl.A.shape, lvl.A.indptr, lvl.A.indices,
                                   incoming.data.take(lp.entry_perm))
                count(
                    "resetup.reorder_gather",
                    bytes_read=stored.nnz * (VAL_BYTES + IDX_BYTES),
                    bytes_written=stored.nnz * VAL_BYTES,
                    branches=0.0,
                )
            else:
                stored = CSRMatrix(lvl.A.shape, lvl.A.indptr, lvl.A.indices,
                                   incoming.data)
            # Guard: the frozen strength pattern (hence the frozen CF
            # split and permutation) must still hold for the new values.
            mask = _strong_connections_mask(
                stored, config.strength_threshold, config.max_row_sum
            )
            count(
                "resetup.guard",
                flops=2 * stored.nnz,
                bytes_read=stored.nnz * (VAL_BYTES + IDX_BYTES),
                branches=0.0,
            )
            if not np.array_equal(mask, lp.strong_mask):
                return fallback(
                    f"strength-of-connection pattern drifted at level {l}")

            P_raw = lp.scheme.numeric(lp.interp_plan, stored, lp.S,
                                      lvl.cf_marker, lp.p_raw, config)
            if P_raw is None:
                return fallback(
                    f"interpolation pattern drifted at level {l}")

            if isinstance(lp.rap, RAPCFBlockPlan):
                P_F_raw = P_raw.extract_rows(
                    np.arange(lvl.n_coarse, stored.nrows, dtype=np.int64))
                A_next = rap_cf_block_numeric(lp.rap, stored, P_F_raw)
            else:
                A_next = rap_fused_numeric(lp.rap, stored, P_raw)

            if lp.p_perm is not None:
                P_stored = CSRMatrix(
                    lp.stored_p.shape, lp.stored_p.indptr,
                    lp.stored_p.indices, P_raw.data.take(lp.p_perm))
                count(
                    "resetup.renumber_gather",
                    bytes_read=P_stored.nnz * (VAL_BYTES + IDX_BYTES),
                    bytes_written=P_stored.nnz * VAL_BYTES,
                    branches=0.0,
                )
            else:
                P_stored = P_raw

            entry: dict = {"A": stored, "P": P_stored}
            if flags.cf_reorder:
                entry["P_F"] = P_stored.extract_rows(
                    np.arange(lvl.n_coarse, stored.nrows, dtype=np.int64))
            if lp.r_perm is not None:
                entry["R"] = CSRMatrix(
                    lp.r_frozen.shape, lp.r_frozen.indptr,
                    lp.r_frozen.indices, P_stored.data.take(lp.r_perm))
                count(
                    "resetup.transpose_gather",
                    bytes_read=P_stored.nnz * (VAL_BYTES + IDX_BYTES),
                    bytes_written=P_stored.nnz * VAL_BYTES,
                    branches=0.0,
                )
            staged.append(entry)
            incoming = A_next

        # All guards passed: assemble a fresh hierarchy around the staged
        # numerics.  The input hierarchy is left untouched — it may still
        # be referenced by live solver handles or the cache's exact tier,
        # so its levels must stay frozen.  The new levels share only the
        # immutable symbolic arrays (CF markers, permutations) and the
        # captured plan, which refresh never writes to.
        new_levels: list[Level] = []
        for entry, lvl in zip(staged, levels):
            new_levels.append(Level(
                A=entry["A"],
                cf_marker=lvl.cf_marker,
                P=entry["P"],
                P_F=entry.get("P_F"),
                R=entry.get("R"),
                new2old=lvl.new2old,
                cperm=lvl.cperm,
                n_coarse=lvl.n_coarse,
            ))
        old_last = levels[-1]
        new_levels.append(Level(
            A=incoming,
            cf_marker=old_last.cf_marker,
            new2old=old_last.new2old,
            cperm=old_last.cperm,
            n_coarse=old_last.n_coarse,
        ))

        # Smoothers and the coarse solve are rebuilt from the refreshed
        # operators.  Their construction is replayed silently and charged
        # as numeric-only records: the schedules, colorings, and thread
        # partitions are pattern-only (reused), so the real numeric work
        # is the diagonal/value re-extraction and, on the coarsest level,
        # the dense refactorization.
        with collect():
            old_smoothers = [lv.smoother for lv in levels[:-1]]
            if all(sm is not None for sm in old_smoothers):
                # Numeric-only rebuild: share the wavefront schedules, thread
                # partitions, colorings and compiled sweeps (pure pattern
                # functions) and regather values/diagonals — bit-identical
                # to, and much cheaper than, replaying the constructors.
                for nl, sm in zip(new_levels[:-1], old_smoothers):
                    nl.smoother = HybridGSSmoother.from_numeric(sm, nl.A)
            else:
                _build_smoothers(new_levels, config)
            coarse = CoarseSolver.from_numeric(
                hierarchy.coarse_solver, new_levels[-1].A)
        refreshed = Hierarchy(
            levels=new_levels, coarse_solver=coarse, config=config, plan=plan
        )
        # Slab layouts are pattern + values too: share the pattern half
        # (no sort, no slab build), bind the values with one take.
        for new, old in zip(new_levels, levels):
            for (M, transposed), (M_old, _) in zip(new.cycle_products(flags),
                                                   old.cycle_products(flags)):
                M.share_layout(M_old, transposed)
        # Compile whatever the numeric rebuild could not carry over.
        attach_solve_plan(refreshed)
        fine_nnz = sum(lv.A.nnz for lv in new_levels[:-1])
        count(
            "resetup.smoother",
            flops=2.0 * sum(lv.A.nrows for lv in new_levels[:-1]),
            bytes_read=fine_nnz * (VAL_BYTES + IDX_BYTES),
            bytes_written=sum(lv.A.nrows for lv in new_levels[:-1]) * VAL_BYTES,
            branches=0.0,
        )
        if coarse.direct:
            count(
                "resetup.coarse_factorize",
                flops=2.0 * coarse.n ** 3,
                bytes_read=coarse.n * coarse.n * VAL_BYTES,
                bytes_written=coarse.n * coarse.n * VAL_BYTES,
                branches=0.0,
            )

    if checking():
        check_hierarchy(refreshed)
    return refreshed

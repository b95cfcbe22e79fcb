"""Distributed hybrid Gauss–Seidel smoothing (§2, §3.2, §4.4).

Hybrid GS across ranks is Jacobi at rank boundaries: the halo values are
exchanged once per sweep (the solve-phase communication that dominates at
128 nodes, Fig. 7) and each rank then smooths its local ``diag`` block with
the node-level hybrid-GS machinery (``nthreads`` blocks, C-F ordering),
reading the off-rank contribution from the exchanged buffer.

The ranks' sweeps are independent once the boundary term is on the
right-hand side, so the vehicle runs them as **one** smoother over the
block-diagonal stack of the ``diag`` blocks and appends rank *p*'s records —
exactly what its own smoother would emit, zero-guess placement included —
from tables frozen per pass.  The GS variants are also *built* once over the
stack (``HybridGSSmoother(..., stack=)``): thread blocks are balanced within
each rank and numbered ``p * nthreads + t``, so each (C/F group, direction)
wavefront schedule is every rank's own schedule side by side — level *l* of
the stack is level *l* of every rank — and each rank's pass records come
from its share of the stacked schedules.  Jacobi and multicolour smoothers
are built per rank (a multicolour rank's colouring is seeded by its rank),
silently, and stacked.  A variant's set-up record (the lex schedule, the
colouring) is charged from a table of the ranks' sizes.
Only the one compiled stacked smoother is kept.
"""

from __future__ import annotations

import numpy as np

from ..amg.smoothers import HybridGSSmoother, pattern_scan_fields
from ..amg.solveplan import SweepCounts, compile_smoother_plan, sweep_record
from ..perf.counters import (
    VAL_BYTES,
    RecordTable,
    collect,
    phase,
    silent,
)
from ..sparse.spmv import spmv
from .comm import SimComm
from .halo import build_halo
from .parcsr import ParCSRMatrix, ParVector, row_block
from .spmv import _spmv_fields

__all__ = ["DistSmoother"]


#: The three passes a V-cycle runs: ``(forward, zero_guess)``.
_PASSES = ((True, True), (True, False), (False, False))

#: The set-up record a rank's own smoother of each variant counts.
_SETUP_KERNEL = {"lex": "gs.lex_schedule_setup",
                 "multicolor": "gs.coloring_setup"}


def _gs_pass_tables(stacked: HybridGSSmoother,
                    bounds: np.ndarray) -> dict[tuple[bool, bool], RecordTable]:
    """Every rank's records of each pass of the GS smoother *stacked*
    (built over the rank stack with row boundaries *bounds*): what
    ``SmootherPlan.sweep_groups`` records for the rank's own smoother — a
    record per group the rank has rows in, the first of them carrying the
    zero-guess count — from the :class:`SweepCounts` of the rank's share
    of each stacked schedule."""
    nranks = len(bounds) - 1
    counts = {}
    for key, sched in stacked._schedules.items():
        rank = np.searchsorted(bounds, sched.rows, side="right") - 1
        e_rank = rank[sched.e_row]
        nrows = np.bincount(rank, minlength=nranks)
        nnz = (np.bincount(e_rank, minlength=nranks)
               + np.bincount(rank[sched.diag_entry >= 0], minlength=nranks))
        nlower = np.bincount(e_rank[sched.e_lower], minlength=nranks)
        counts[key] = [SweepCounts(*c) for c in zip(
            nnz.tolist(), nrows.tolist(), nlower.tolist())]

    def rank_pass(p: int, forward: bool, zero_guess: bool) -> list:
        recs = []
        order = range(len(stacked.groups))
        for gi in order if forward else reversed(order):
            c = counts[(gi, forward)][p]
            if c.nrows:
                recs.append(sweep_record(
                    c, 0, zero_guess, kernel="gs.hybrid",
                    optimized=stacked.optimized,
                    contiguous_rows=stacked.cf_contiguous))
                zero_guess = False
        return recs

    return {key: RecordTable(rank_pass(p, *key) for p in range(nranks))
            for key in _PASSES}


def _dry_run_records(local: HybridGSSmoother, forward: bool, zero_guess: bool):
    """The records one pre- (*forward*) or post-smoothing pass of a Jacobi
    or multicolour smoother *local* emits, asked once on a dry run."""
    x = np.zeros(local.A.nrows)
    with collect() as log:
        if forward:
            local.presmooth(x, x.copy(), zero_guess=zero_guess)
        else:
            local.postsmooth(x, x.copy())
    return log.records


class DistSmoother:
    """Per-level distributed smoother: hybrid GS within ranks, Jacobi across."""

    def __init__(
        self,
        comm: SimComm,
        A: ParCSRMatrix,
        cf_parts: list[np.ndarray] | None,
        *,
        nthreads: int = 14,
        variant: str = "hybrid",
        optimized: bool = True,
        persistent: bool = True,
        seed: int = 0,
        topology=None,
        net=None,
    ) -> None:
        self.comm = comm
        self.A = A
        self.halo = build_halo(comm, A, persistent=persistent,
                               topology=topology, net=net)
        # Build, stack and compile the ranks' sweeps up front so no solve
        # pays for it, and freeze the boundary Jacobi term's records: they
        # depend only on the sparsity.  Compiling is silent.
        diag, offd = A.stacked()
        bounds = A.row_part.bounds
        if variant in ("hybrid", "lex"):
            # One schedule build per (group, direction) over the stack; each
            # rank is charged its own smoother's set-up records.
            with silent():
                self.stacked = HybridGSSmoother(
                    diag, nthreads,
                    None if cf_parts is None else np.concatenate(cf_parts),
                    variant=variant, optimized=optimized, seed=seed,
                    stack=bounds)
            self._pass_recs = _gs_pass_tables(self.stacked, bounds)
        else:
            # Jacobi and multicolour smoothers are built per rank (a rank's
            # colouring is seeded by its rank), silently, and stacked.
            rb, cb = bounds.tolist(), A.col_part.bounds.tolist()
            with silent():
                local = [HybridGSSmoother(
                    row_block(diag, rb[p], rb[p + 1], cb[p], cb[p + 1] - cb[p]),
                    nthreads, None if cf_parts is None else cf_parts[p],
                    variant=variant, optimized=optimized, seed=seed + p)
                    for p in range(comm.nranks)]
            self.stacked = HybridGSSmoother.stacked(local, diag)
            self._pass_recs = {key: RecordTable(_dry_run_records(sm, *key)
                                                for sm in local)
                               for key in _PASSES}
        if variant in _SETUP_KERNEL:
            # Each rank charged its own smoother's set-up record.
            with phase("Setup_etc"):
                comm.record_on_ranks(RecordTable.per_rank(
                    _SETUP_KERNEL[variant], comm.nranks,
                    **pattern_scan_fields(A.rank_nnz()[0])))
        compile_smoother_plan(self.stacked)
        diag.layout()  # what dist_spmv and the boundary term multiply by
        offd.layout()

        self._offd = offd
        n, o = np.diff(bounds), A.rank_nnz()[1]
        self._offd_recs = RecordTable.join(
            RecordTable.per_rank("gs.offd", len(n), **_spmv_fields(n, o),
                                 present=o > 0),
            RecordTable.per_rank("gs.offd_sub", len(n), flops=n,
                                 bytes_read=n * VAL_BYTES,
                                 bytes_written=n * VAL_BYTES, present=o > 0))

    def _offd_rhs(self, b: ParVector, x: ParVector, *, zero_guess: bool) -> np.ndarray:
        """``b - A_offd x_ext`` of all ranks (the Jacobi boundary term)."""
        if zero_guess:
            # x is identically zero: skip the exchange and the offd product.
            return b.array.copy()
        x_ext = self.halo.gather(x)
        with silent():
            # Rows of ranks without off-diagonal entries subtract an exact
            # +0.0 and keep b's bits.
            rhs = b.array - spmv(self._offd, x_ext)
        self.comm.record_on_ranks(self._offd_recs)
        return rhs

    def _sweep(self, forward: bool, x: ParVector, rhs: np.ndarray,
               zero_guess: bool) -> ParVector:
        with silent():
            if forward:
                self.stacked.presmooth(x.array, rhs, zero_guess=zero_guess)
            else:
                self.stacked.postsmooth(x.array, rhs)
        self.comm.record_on_ranks(self._pass_recs[(forward, zero_guess)])
        return x

    def presmooth(self, x: ParVector, b: ParVector, *, zero_guess: bool = False) -> ParVector:
        rhs = self._offd_rhs(b, x, zero_guess=zero_guess)
        return self._sweep(True, x, rhs, zero_guess)

    def postsmooth(self, x: ParVector, b: ParVector) -> ParVector:
        rhs = self._offd_rhs(b, x, zero_guess=False)
        return self._sweep(False, x, rhs, False)

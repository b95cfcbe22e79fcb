"""Distributed hybrid Gauss–Seidel smoothing (§2, §3.2, §4.4).

Hybrid GS across ranks is Jacobi at rank boundaries: the halo values are
exchanged once per sweep (the solve-phase communication that dominates at
128 nodes, Fig. 7) and each rank then smooths its local ``diag`` block with
the node-level hybrid-GS machinery (``nthreads`` blocks, C-F ordering),
reading the off-rank contribution from the exchanged buffer.

The ranks' sweeps are independent once the boundary term is on the
right-hand side, so the vehicle runs them as **one** smoother over the
block-diagonal stack of the ``diag`` blocks
(:meth:`HybridGSSmoother.stacked`: wavefront level *l* of the stack is
level *l* of every rank) and appends rank *p*'s records — exactly what its
own smoother would emit, zero-guess placement included — from tables
frozen per pass.  The per-rank smoothers are still *built* per rank, on the
ranks' ``diag`` blocks (their set-up records and schedules are per rank),
but never compiled or run, and not kept: once stacked and their records
frozen, only the one compiled stacked smoother remains.
"""

from __future__ import annotations

import numpy as np

from ..amg.smoothers import HybridGSSmoother
from ..amg.solveplan import SweepCounts, compile_smoother_plan, sweep_record
from ..perf.counters import VAL_BYTES, RecordTable, collect, make_record, silent
from ..sparse.spmv import spmv
from .comm import SimComm
from .halo import build_halo
from .parcsr import ParCSRMatrix, ParVector
from .spmv import _spmv_record

__all__ = ["DistSmoother"]


def _pass_records(local: HybridGSSmoother, forward: bool, zero_guess: bool):
    """The records one pre- (*forward*) or post-smoothing pass of *local*
    emits: for the GS variants what ``SmootherPlan.sweep_groups`` records
    (the first non-empty group carries the zero-guess count), from the
    schedules alone; the other variants are asked once, on a dry run."""
    if local.variant in ("hybrid", "lex"):
        recs = []
        order = range(len(local.groups))
        for gi in order if forward else reversed(order):
            sched = local._schedules[(f"g{gi}", forward)]
            if sched.nrows:
                recs.append(sweep_record(
                    SweepCounts.of(sched), 0, zero_guess, kernel="gs.hybrid",
                    optimized=local.optimized,
                    contiguous_rows=local.cf_contiguous))
                zero_guess = False
        return recs
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
        local: list[HybridGSSmoother] = comm.run_on_ranks(
            lambda p: HybridGSSmoother(
                A.blocks[p].diag,
                nthreads=nthreads,
                cf_marker=cf_parts[p] if cf_parts is not None else None,
                variant=variant,
                optimized=optimized,
                seed=seed + p,
            ))
        # Stack and compile the ranks' sweeps up front so no solve pays for
        # it, and freeze the boundary Jacobi term's records: they depend
        # only on the sparsity.  All of it is silent.
        diag, offd = A.stacked()
        self.stacked = HybridGSSmoother.stacked(local, diag)
        compile_smoother_plan(self.stacked)
        diag.lockstep()  # what dist_spmv and the boundary term multiply by
        offd.lockstep()
        self._pass_recs = {
            key: RecordTable(_pass_records(sm, *key) for sm in local)
            for key in ((True, True), (True, False), (False, False))}

        self._offd = offd
        self._offd_recs = RecordTable(
            [_spmv_record("gs.offd", n, o),
             make_record("gs.offd_sub", flops=n, bytes_read=n * VAL_BYTES,
                         bytes_written=n * VAL_BYTES)]
            if o else () for n, o in zip(
                np.diff(A.row_part.bounds).tolist(), A.rank_nnz()[1].tolist()))

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

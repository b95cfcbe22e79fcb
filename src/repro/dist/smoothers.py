"""Distributed hybrid Gauss–Seidel smoothing (§2, §3.2, §4.4).

Hybrid GS across ranks is Jacobi at rank boundaries: the halo values are
exchanged once per sweep (the solve-phase communication that dominates at
128 nodes, Fig. 7) and each rank then smooths its local ``diag`` block with
the node-level hybrid-GS machinery (``nthreads`` blocks, C-F ordering),
reading the off-rank contribution from the exchanged buffer.
"""

from __future__ import annotations

import numpy as np

from ..amg.smoothers import HybridGSSmoother
from ..amg.solveplan import compile_smoother_plan
from ..perf.counters import VAL_BYTES, count_record, make_record
from ..sparse.spmv import spmv
from .comm import SimComm
from .halo import build_halo
from .parcsr import ParCSRMatrix, ParVector

__all__ = ["DistSmoother"]


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
        self.local: list[HybridGSSmoother] = []
        for p in range(comm.nranks):
            with comm.on_rank(p):
                self.local.append(
                    HybridGSSmoother(
                        A.blocks[p].diag,
                        nthreads=nthreads,
                        cf_marker=cf_parts[p] if cf_parts is not None else None,
                        variant=variant,
                        optimized=optimized,
                        seed=seed + p,
                    )
                )
        # Compile the per-rank sweeps up front so no solve pays for it, and
        # freeze the gs.offd_sub records: the boundary Jacobi term's traffic
        # depends only on the row partition.  Both are silent.
        for local in self.local:
            compile_smoother_plan(local)
        self._offd_recs = [
            make_record("gs.offd_sub", flops=blk.nrows,
                        bytes_read=blk.nrows * VAL_BYTES,
                        bytes_written=blk.nrows * VAL_BYTES)
            for blk in A.blocks
        ]

    def _offd_rhs(self, b: ParVector, x: ParVector, *, zero_guess: bool) -> list[np.ndarray]:
        """``b - A_offd x_ext`` per rank (the Jacobi boundary term)."""
        if zero_guess:
            # x is identically zero: skip the exchange and the offd product.
            return [b.parts[p].copy() for p in range(self.comm.nranks)]
        x_ext = self.halo(x)
        out = []
        for p, blk in enumerate(self.A.blocks):
            with self.comm.on_rank(p):
                if blk.offd.nnz:
                    rhs = b.parts[p] - spmv(blk.offd, x_ext[p], kernel="gs.offd")
                    count_record(self._offd_recs[p])
                else:
                    rhs = b.parts[p].copy()
            out.append(rhs)
        return out

    def presmooth(self, x: ParVector, b: ParVector, *, zero_guess: bool = False) -> ParVector:
        rhs = self._offd_rhs(b, x, zero_guess=zero_guess)
        for p in range(self.comm.nranks):
            with self.comm.on_rank(p):
                self.local[p].presmooth(x.parts[p], rhs[p], zero_guess=zero_guess)
        return x

    def postsmooth(self, x: ParVector, b: ParVector) -> ParVector:
        rhs = self._offd_rhs(b, x, zero_guess=False)
        for p in range(self.comm.nranks):
            with self.comm.on_rank(p):
                self.local[p].postsmooth(x.parts[p], rhs[p])
        return x

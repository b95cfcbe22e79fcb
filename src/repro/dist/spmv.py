"""Distributed SpMV (§4.1, Fig. 3b).

``y = A x``: each rank gathers its external vector entries via the halo
exchange, multiplies its ``diag`` block by the local part (this computation
overlaps the exchange in the modeled implementation) and its ``offd`` block
by the gathered buffer.  The vehicle runs all ranks at once — one SpMV over
the stacked ``diag`` blocks and one over the stacked ``offd`` blocks
(:meth:`ParCSRMatrix.stacked`) — and appends each rank's records from a
table frozen per ``(kernel, width)``.  Per-rank *reductions* keep their
per-rank BLAS dots — a dot's summation order is not reproducible by a
segmented sum — taken by :meth:`RowPartition.dots`, one ``np.vecdot`` per
run of equal-size ranks.

Resilience: the halo exchange is the only communication here, so on a
fault-injecting communicator (:class:`repro.faults.comm.FaultyComm`) every
``dist_spmv`` inherits the sequence-numbered ack / retry / backoff protocol
of :mod:`repro.dist.halo` and may raise
:class:`repro.faults.comm.CommFault`; callers that want checkpointed
recovery catch it (see ``DistAMGSolver.solve``).  ``dist_residual_norm``
additionally performs one allreduce, which a ``FaultyComm`` gates on
rank-failure windows.
"""

from __future__ import annotations

import numpy as np

from ..perf.counters import RecordTable, silent
from ..sparse.spmv import rhs_width, spmv, spmv_traffic
from .comm import SimComm
from .halo import HaloExchange
from .parcsr import ParCSRMatrix, ParVector

__all__ = ["dist_spmv", "dist_residual_norm"]


def _spmv_fields(nrows, nnz, width: int = 0) -> dict:
    """The fields ``spmv(M, x, kernel=...)`` records for an *nrows*-row,
    *nnz*-entry ``M`` and an *x* of *width* columns (0 = a vector), without
    running it (elementwise over arrays)."""
    br, bw = spmv_traffic(nrows, nnz, width)
    return {"flops": 2 * nnz * max(width, 1), "bytes_read": br,
            "bytes_written": bw}


def _spmv_table(A: ParCSRMatrix, kernel: str, width: int) -> RecordTable:
    """Rank *p*'s records of one ``A x``: its ``diag`` SpMV and, where it
    has off-diagonal entries, its ``offd`` SpMV (*width* 0 = single RHS)."""
    table = A.tables.get((kernel, width))
    if table is None:
        sizes, (diag, offd) = np.diff(A.row_part.bounds), A.rank_nnz()
        table = A.tables[(kernel, width)] = RecordTable.later(
            1 + (offd > 0), lambda: RecordTable.join(
                RecordTable.per_rank(kernel, len(sizes),
                                     **_spmv_fields(sizes, diag, width)),
                RecordTable.per_rank(kernel + ".offd", len(sizes),
                                     **_spmv_fields(sizes, offd, width),
                                     present=offd > 0)))
    return table


def dist_spmv(
    comm: SimComm,
    A: ParCSRMatrix,
    x: ParVector,
    halo: HaloExchange,
    *,
    kernel: str = "spmv",
) -> ParVector:
    """``y = A x``; *x* may hold 1-D parts or ``(n_p, k)`` multi-column parts.

    The multi-column path performs one k-wide halo exchange and blocked
    diag/offd SpMVs (matrix blocks streamed once per k columns).
    """
    if x.part.n != A.col_part.n:
        raise ValueError("dimension mismatch")
    x_ext = halo.gather(x)
    diag, offd = A.stacked()
    # ``+=`` adds an exact +0.0 on rows without off-diagonal entries.  Those
    # rows keep their bits because diag's sums are never -0.0: the slab
    # reduction of ``CSRMatrix._dot`` starts every row from +0.0, and a sum
    # is -0.0 only when both addends are.
    with silent():
        y = spmv(diag, x.array)
        y += spmv(offd, x_ext)
    comm.record_on_ranks(_spmv_table(A, kernel, rhs_width(x.array)))
    return ParVector(y, A.row_part)


def dist_residual_norm(
    comm: SimComm,
    A: ParCSRMatrix,
    x: ParVector,
    b: ParVector,
    halo: HaloExchange,
    *,
    fused: bool = True,
) -> tuple[ParVector, float]:
    """``r = b - A x`` and its 2-norm (one allreduce)."""
    Ax = dist_spmv(comm, A, x, halo, kernel="spmv.residual")
    r = ParVector(b.array - Ax.array, A.row_part)
    if fused:
        comm.record_on_ranks(
            b.part.vector_records("residual_norm_fused", 3, 2, 1))
    else:
        comm.record_on_ranks(b.part.vector_records("residual_sub", 1, 2, 1))
        comm.record_on_ranks(b.part.vector_records("blas1.norm2", 2, 1))
    total = comm.allreduce(r.part.dots(r.array, r.array))
    return r, float(np.sqrt(total))

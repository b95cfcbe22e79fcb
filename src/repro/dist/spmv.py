"""Distributed SpMV (§4.1, Fig. 3b).

``y = A x``: each rank gathers its external vector entries via the halo
exchange, multiplies its ``diag`` block by the local part (this computation
overlaps the exchange in the modeled implementation) and its ``offd`` block
by the gathered buffer.

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

from ..perf.counters import VAL_BYTES, count_record, make_record
from ..sparse.spmv import spmv, spmv_multi
from .comm import SimComm
from .halo import HaloExchange
from .parcsr import ParCSRMatrix, ParVector

__all__ = ["dist_spmv", "dist_residual_norm"]


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
    x_ext = halo(x)
    multi = x.parts[0].ndim == 2
    out = []
    for p, blk in enumerate(A.blocks):
        with comm.on_rank(p):
            if multi:
                y = spmv_multi(blk.diag, x.parts[p], kernel=kernel)
                if blk.offd.nnz:
                    y += spmv_multi(blk.offd, x_ext[p], kernel=kernel + ".offd")
            else:
                y = spmv(blk.diag, x.parts[p], kernel=kernel)
                if blk.offd.nnz:
                    y += spmv(blk.offd, x_ext[p], kernel=kernel + ".offd")
        out.append(y)
    return ParVector(out, A.row_part)


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
    # The per-rank record fields depend only on the frozen row partition:
    # prebuild them once per (halo, fused) and replay thereafter.
    cache = getattr(halo, "_resnorm_recs", None)
    if cache is None:
        cache = halo._resnorm_recs = {}
    recs = cache.get(fused)
    if recs is None:
        recs = cache[fused] = [
            [make_record("residual_norm_fused", flops=3 * n,
                         bytes_read=2 * n * VAL_BYTES,
                         bytes_written=n * VAL_BYTES)]
            if fused else
            [make_record("residual_sub", flops=n,
                         bytes_read=2 * n * VAL_BYTES,
                         bytes_written=n * VAL_BYTES),
             make_record("blas1.norm2", flops=2 * n,
                         bytes_read=n * VAL_BYTES)]
            for n in (len(b.parts[p]) for p in range(comm.nranks))
        ]
    parts = []
    sq = []
    for p in range(comm.nranks):
        with comm.on_rank(p):
            r = b.parts[p] - Ax.parts[p]
            for rec in recs[p]:
                count_record(rec)
        parts.append(r)
        sq.append(float(r @ r))
    total = comm.allreduce(sq)
    return ParVector(parts, A.row_part), float(np.sqrt(total))

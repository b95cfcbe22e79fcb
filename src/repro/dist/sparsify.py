"""Galerkin-product sparsification (Bienz et al., arXiv:1512.04629).

Coarse-level Galerkin operators ``RAP`` densify: each coarsening roughly
squares the stencil, and the fill lands disproportionately in the *offd*
blocks — long-range couplings to other ranks that inflate the halo pattern
(and, node-aware or not, the inter-node traffic) while contributing little
to convergence.  This module drops the weak offd entries of a coarse
operator and lumps the removed mass into the diagonal, preserving row sums
(so the near-nullspace the interpolation was built for is still treated
exactly).

The trade is explicitly guarded: setup keeps the full operator alongside
the sparsified one (``DistLevel.A_full``), and
:meth:`~repro.dist.setup.DistHierarchy.desparsify` reverts every level when
the solve's convergence guardrail decides sparsification cost too many
iterations.
"""

from __future__ import annotations

import numpy as np

from ..perf.counters import VAL_BYTES, RecordTable
from ..sparse.csr import CSRMatrix
from .comm import SimComm
from .parcsr import ParCSRMatrix

__all__ = ["sparsify_parcsr"]


def _row_abs_max(blk: CSRMatrix) -> np.ndarray:
    out = np.zeros(blk.nrows)
    np.maximum.at(out, blk.row_ids(), np.abs(blk.data))
    return out


def sparsify_parcsr(comm: SimComm, A: ParCSRMatrix,
                    tol: float) -> tuple[ParCSRMatrix, int]:
    """Drop weak offd entries of *A*, lumping them into the diagonal.

    An offd entry ``a_ij`` is dropped when ``|a_ij| < tol * max_k |a_ik|``
    (row-relative threshold over the whole row, diag and offd).  Dropped
    values are added to ``a_ii``, so every row sum — and hence the action
    on constant vectors — is preserved.  Returns the sparsified operator
    (with a correspondingly shrunk ``colmap``) and the number of entries
    dropped across all ranks.  Ranks without off-diagonal entries do no
    work (and log none); ranks that drop nothing keep their block as is.
    """
    diag, offd = A.stacked()
    rid = offd.row_ids()
    thr = tol * np.maximum(_row_abs_max(diag), _row_abs_max(offd))
    keep = np.abs(offd.data) >= thr[rid]
    rank = A.row_part.ranks()
    d_nnz, o_nnz = A.rank_nnz()
    kept = np.bincount(rank[rid[keep]], minlength=comm.nranks)
    comm.record_on_ranks(RecordTable.per_rank(
        "sparsify.filter", comm.nranks,
        flops=2.0 * (d_nnz + o_nnz),
        bytes_read=(d_nnz + o_nnz) * VAL_BYTES,
        bytes_written=kept * VAL_BYTES, present=o_nnz > 0))
    dropped = o_nnz - kept
    if not dropped.any():
        return A, 0
    # Lump the dropped mass into the diagonal entry of each row (of the
    # ranks that dropped anything).
    lump = np.zeros(diag.nrows)
    np.add.at(lump, rid[~keep], offd.data[~keep])
    d_rid = diag.row_ids()
    dmask = (diag.indices == d_rid) & (dropped > 0)[rank][d_rid]
    data = diag.data.copy()
    data[dmask] += lump[d_rid[dmask]]
    # Recompress the offd blocks against the surviving columns.
    used = (dropped == 0)[A.ext_ranks()]
    used[offd.indices[keep]] = True
    return A.recompressed(
        CSRMatrix(diag.shape, diag.indptr, diag.indices, data), keep,
        used), int(dropped.sum())

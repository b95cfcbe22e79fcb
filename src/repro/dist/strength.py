"""Distributed strength matrix.

Strength of connection is a purely row-local computation (the threshold is
the row's own off-diagonal maximum), so it needs no communication: each
rank evaluates the classical strength test over its combined
(diag + offd) rows.  The counted work matches the node-level kernel
(§3.3's prefix-sum-assembled strength matrix when ``parallel``).

Row-local also means rank-oblivious: the vehicle tests all ranks' rows in
one pass over the stacked ``diag`` / ``offd`` and charges each rank its
``strength`` record from its own entry counts.
"""

from __future__ import annotations

import numpy as np

from ..perf.counters import IDX_BYTES, PTR_BYTES, VAL_BYTES, RecordTable
from ..sparse.ops import segment_sum
from .comm import SimComm
from .parcsr import ParCSRMatrix, keep_entries

__all__ = ["dist_strength"]


def dist_strength(
    comm: SimComm,
    A: ParCSRMatrix,
    theta: float = 0.25,
    max_row_sum: float = 1.0,
    *,
    parallel: bool = True,
) -> ParCSRMatrix:
    """Strength matrix with the same partitioning (and offd colmaps
    re-compressed to the surviving strong columns)."""
    diag, offd = A.stacked()
    n = diag.nrows
    d_rid, o_rid = diag.row_ids(), offd.row_ids()
    diag_vals = A.diag.diagonal()
    sign = np.where(diag_vals >= 0, -1.0, 1.0)

    d_off = diag.indices != d_rid
    conn_d = sign[d_rid] * diag.data
    conn_o = sign[o_rid] * offd.data

    row_max = np.full(n, -np.inf)
    np.maximum.at(row_max, d_rid[d_off], conn_d[d_off])
    np.maximum.at(row_max, o_rid, conn_o)
    thresh = theta * np.where(row_max > 0, row_max, np.inf)

    strong_d = d_off & (conn_d >= thresh[d_rid])
    strong_o = conn_o >= thresh[o_rid]

    if max_row_sum < 1.0:
        row_sum = segment_sum(diag.data, d_rid, n)
        row_sum += segment_sum(offd.data, o_rid, n)
        dominant = np.abs(row_sum) > max_row_sum * np.abs(diag_vals)
        strong_d &= ~dominant[d_rid]
        strong_o &= ~dominant[o_rid]

    Sd = keep_entries(diag, strong_d, data=np.ones(int(strong_d.sum())))
    # Re-compress the offd colmaps to the surviving strong columns.
    used = np.zeros(offd.ncols, dtype=bool)
    used[offd.indices[strong_o]] = True
    S = A.recompressed(Sd, strong_o, used, np.ones(int(strong_o.sum())))

    d_nnz, o_nnz = A.rank_nnz()
    nnz, nloc = d_nnz + o_nnz, np.diff(A.row_part.bounds)
    kept = sum(S.rank_nnz())
    comm.record_on_ranks(RecordTable.per_rank(
        "strength", comm.nranks,
        flops=2 * nnz,
        bytes_read=nnz * (VAL_BYTES + IDX_BYTES) + (nloc + 1) * PTR_BYTES,
        bytes_written=kept * IDX_BYTES + (nloc + 1) * PTR_BYTES,
        branches=nnz,
        parallel=parallel))
    return S

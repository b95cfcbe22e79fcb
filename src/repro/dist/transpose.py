"""Distributed matrix transpose.

``C = A^T`` with ``C``'s row partition equal to ``A``'s column partition:
each rank scatters its entries ``(global col, global row, value)`` to the
rank owning the entry's column, then assembles its received triplets with
the parallel counting-sort transpose locally.  Used for ``R = P^T`` in the
coarse-operator construction and kept for the solve phase (§3.2).

The vehicle transposes all ranks in one pass: one message per (sender,
receiver) pair from a ``bincount`` over pair ids, the ``transpose.scatter``
/ ``transpose.local_sort`` records from per-rank entry counts, and one
assembly of the transposed triplets.
"""

from __future__ import annotations

import numpy as np

from ..perf.counters import VAL_BYTES, RecordTable
from .comm import MessageBatch, SimComm
from .parcsr import ParCSRMatrix
from .rowgather import GLOBAL_IDX_BYTES

__all__ = ["dist_transpose"]


def dist_transpose(comm: SimComm, A: ParCSRMatrix, *, tag: str = "transpose") -> ParCSRMatrix:
    nranks = comm.nranks
    rows = np.concatenate([A.diag.row_ids(), A.offd.row_ids()])
    cols = np.concatenate([A.diag.indices, A.colmap[A.offd.indices]])
    src = A.row_part.ranks()[rows]
    dst = A.col_part.owner_of(cols)
    # Entries sent per (sender, receiver) pair, sender-major.
    sent = np.bincount(src * nranks + dst,
                       minlength=nranks * nranks).reshape(nranks, nranks)
    s, d = np.nonzero(sent)
    comm.log_batch(MessageBatch(
        s, d, sent[s, d] * (VAL_BYTES + 2 * GLOBAL_IDX_BYTES), tag))
    out, got = sent.sum(axis=1), sent.sum(axis=0)
    scatter = RecordTable.per_rank(
        "transpose.scatter", nranks,
        bytes_read=out * (VAL_BYTES + GLOBAL_IDX_BYTES),
        bytes_written=out * (VAL_BYTES + 2 * GLOBAL_IDX_BYTES),
        branches=out)
    # Local counting-sort assembly of received triplets.
    local_sort = RecordTable.per_rank(
        "transpose.local_sort", nranks,
        bytes_read=2 * got * (VAL_BYTES + GLOBAL_IDX_BYTES),
        bytes_written=got * (VAL_BYTES + GLOBAL_IDX_BYTES))
    comm.record_on_ranks(RecordTable.join(scatter, local_sort))
    # Transposed triplet: row = old column, col = old row.
    return ParCSRMatrix.from_triplets(
        cols, rows, np.concatenate([A.diag.data, A.offd.data]),
        A.col_part, A.row_part)

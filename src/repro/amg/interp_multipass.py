"""Multipass interpolation for aggressive coarsening (Stüben [35], Table 4 ``mp``).

With aggressive coarsening many F points have no strong C neighbour, so
interpolation is built in passes:

* pass 1 — F points with at least one strong C neighbour get *direct*
  interpolation from those C points;
* pass p — remaining F points with at least one strong neighbour that was
  interpolated in an earlier pass combine their neighbours' interpolation
  rows: ``w_i = -(alpha_i / a_ii) * sum_{j in S_i, done} a_ij * P_j`` with
  ``alpha_i = (sum of all off-diagonals) / (sum over the used neighbours)``
  so that interpolation of constants is preserved.

F points that never become reachable (disconnected from C through strong
paths) end with empty rows.  Each pass is one restricted SpGEMM, which is
how the counted work scales.
"""

from __future__ import annotations

import numpy as np

from ..perf.counters import IDX_BYTES, PTR_BYTES, VAL_BYTES, count
from ..sparse.csr import CSRMatrix
from ..sparse.ops import segment_sum
from ..sparse.spgemm import spgemm
from .interp_common import coarse_index, entries_in_pattern
from .interp_direct import direct_interpolation
from .truncation import truncate_interpolation

__all__ = ["multipass_interpolation"]


def multipass_interpolation(
    A: CSRMatrix,
    S: CSRMatrix,
    cf_marker: np.ndarray,
    *,
    trunc_fact: float = 0.1,
    max_elmts: int = 4,
    fused_truncation: bool = True,
    truncate: bool = True,
    max_passes: int = 10,
) -> CSRMatrix:
    """Multipass interpolation operator ``P`` (``n x n_coarse``)."""
    n = A.nrows
    cf_marker = np.asarray(cf_marker)
    c_idx, nc = coarse_index(cf_marker)

    rid = A.row_ids()
    cols = A.indices
    vals = A.data
    offdiag = cols != rid
    diag = A.diagonal()
    strong = entries_in_pattern(rid, cols, S)
    strong_od = strong & offdiag

    # Pass 1: F points with a strong C neighbour -> direct interpolation.
    has_strong_c = (
        segment_sum(
            np.where(strong_od & (cf_marker[cols] > 0), 1.0, 0.0), rid, n
        )
        > 0
    )
    done = cf_marker > 0
    pass1_rows = np.flatnonzero((cf_marker <= 0) & has_strong_c)
    P = direct_interpolation(A, S, cf_marker, rows=pass1_rows)
    done[pass1_rows] = True

    sum_all_od = segment_sum(np.where(offdiag, vals, 0.0), rid, n)

    npass = 1
    while not done.all() and npass < max_passes:
        todo = (cf_marker <= 0) & ~done
        # Strong neighbours already interpolated.
        usable = strong_od & todo[rid] & done[cols]
        rows_ready = segment_sum(usable.astype(np.float64), rid, n) > 0
        work = todo & rows_ready
        if not work.any():
            break
        npass += 1
        sel = usable & work[rid]
        # Row-normalization factor.
        sum_used = segment_sum(np.where(sel, vals, 0.0), rid, n)
        safe = np.abs(sum_used) > 1e-300
        alpha = np.where(safe, sum_all_od / np.where(safe, sum_used, 1.0), 0.0)

        # Combine neighbour interpolation rows: one restricted SpGEMM.
        wrows = np.flatnonzero(work)
        remap = np.full(n, -1, dtype=np.int64)
        remap[wrows] = np.arange(len(wrows))
        W = CSRMatrix.from_coo(
            (len(wrows), n), remap[rid[sel]], cols[sel], vals[sel]
        )
        contrib = spgemm(W, P, kernel="interp.multipass_pass")
        scale = -(alpha[wrows] / np.where(np.abs(diag[wrows]) > 1e-300, diag[wrows], 1.0))
        contrib = contrib.scale_rows(scale)

        # Merge the new rows into P.
        P = CSRMatrix.from_coo(
            (n, nc),
            np.concatenate([P.row_ids(), wrows[contrib.row_ids()]]),
            np.concatenate([P.indices, contrib.indices]),
            np.concatenate([P.data, contrib.data]),
        )
        done[wrows] = True

    count(
        "interp.multipass",
        bytes_read=A.nnz * (VAL_BYTES + IDX_BYTES) + (n + 1) * PTR_BYTES,
        bytes_written=P.nnz * (VAL_BYTES + IDX_BYTES),
        branches=float(A.nnz),
    )
    if truncate:
        P = truncate_interpolation(P, trunc_fact, max_elmts,
                                   fused=fused_truncation)
    return P

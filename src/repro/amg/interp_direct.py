"""Direct (distance-one) interpolation.

The classical building block (used here by multipass interpolation and as a
cheap standalone option).  For an F point *i* with strong coarse neighbours
``C_i``, signed weight distribution::

    w_ij = -alpha * a_ij / d_i   (a_ij < 0),   w_ij = -beta * a_ij / d_i  (a_ij > 0)

    alpha = sum of negative off-diagonals / sum of negative a_ij over C_i
    beta  = sum of positive off-diagonals / sum of positive a_ij over C_i

When a row has positive off-diagonals but no positive strong C entry, the
positive mass is lumped into the diagonal ``d_i`` instead (BoomerAMG
behaviour).  C-point rows are identity.
"""

from __future__ import annotations

import numpy as np

from ..perf.counters import IDX_BYTES, PTR_BYTES, VAL_BYTES, count
from ..sparse.csr import CSRMatrix
from ..sparse.ops import segment_sum
from .interp_common import coarse_index, entries_in_pattern, identity_rows

__all__ = ["direct_interpolation"]


def direct_interpolation(
    A: CSRMatrix,
    S: CSRMatrix,
    cf_marker: np.ndarray,
    *,
    rows: np.ndarray | None = None,
) -> CSRMatrix:
    """Direct interpolation operator ``P`` (``n x n_coarse``).

    ``rows`` optionally restricts construction to a subset of F rows (used
    by multipass interpolation's first pass); other F rows come out empty.
    """
    n = A.nrows
    cf_marker = np.asarray(cf_marker)
    c_idx, nc = coarse_index(cf_marker)

    rid = A.row_ids()
    cols = A.indices
    vals = A.data
    offdiag = cols != rid
    diag = A.diagonal()

    is_f_row = cf_marker[rid] <= 0
    if rows is not None:
        sel_row = np.zeros(n, dtype=bool)
        sel_row[rows] = True
        is_f_row &= sel_row[rid]

    strong = entries_in_pattern(rid, cols, S)
    strong_c = strong & (cf_marker[cols] > 0) & is_f_row

    neg = vals < 0
    pos = (vals > 0) & offdiag

    sum_neg = segment_sum(np.where(neg & offdiag & is_f_row, vals, 0.0), rid, n)
    sum_pos = segment_sum(np.where(pos & is_f_row, vals, 0.0), rid, n)
    sum_cneg = segment_sum(np.where(strong_c & neg, vals, 0.0), rid, n)
    sum_cpos = segment_sum(np.where(strong_c & pos, vals, 0.0), rid, n)

    has_cpos = sum_cpos != 0.0
    # Lump positive mass into the diagonal when no positive strong C entry.
    d = diag + np.where(~has_cpos, sum_pos, 0.0)

    alpha = np.where(sum_cneg != 0.0, sum_neg / np.where(sum_cneg != 0, sum_cneg, 1.0), 0.0)
    beta = np.where(has_cpos, sum_pos / np.where(has_cpos, sum_cpos, 1.0), 0.0)

    sel = strong_c & (np.abs(d[rid]) > 1e-300)
    coef = np.where(neg, alpha[rid], beta[rid])
    w = -coef[sel] * vals[sel] / d[rid[sel]]

    cr, cc, cv = identity_rows(cf_marker)
    P = CSRMatrix.from_coo(
        (n, nc),
        np.concatenate([cr, rid[sel]]),
        np.concatenate([cc, c_idx[cols[sel]]]),
        np.concatenate([cv, w]),
    )
    a_bytes = A.nnz * (VAL_BYTES + IDX_BYTES) + (n + 1) * PTR_BYTES
    count(
        "interp.direct",
        flops=6 * A.nnz,
        bytes_read=a_bytes,
        bytes_written=P.nnz * (VAL_BYTES + IDX_BYTES) + (n + 1) * PTR_BYTES,
        branches=float(A.nnz),
    )
    return P

"""Interpolation truncation (§3.1.2).

For each row *i* of ``P`` the truncation threshold is (paper, verbatim)::

    min( trunc_fact * |p|_(1),  |p|_(max_elmts) )

where ``|p|_(1)`` is the largest absolute value in the row and
``|p|_(max_elmts)`` the ``max_elmts``-th largest, ties counted (taken as
+inf when the row has fewer entries, so only the relative threshold
applies; found by ``max_elmts`` rounds of segmented max, no sort).  Entries
whose absolute value falls below the threshold are dropped, and the surviving
entries are rescaled so the row sum is preserved (BoomerAMG behaviour —
interpolation of the constant is retained).

The optimized implementation *fuses* truncation into interpolation
construction: each row is truncated right after it is built, so the
untruncated matrix never reaches memory.  The baseline writes the full
matrix, reads it back, and writes the truncated result.  Both paths call
this routine; ``fused`` selects the counted traffic.
"""

from __future__ import annotations

import numpy as np

from ..perf.counters import IDX_BYTES, PTR_BYTES, VAL_BYTES, count
from ..sparse.csr import CSRMatrix
from ..sparse.ops import indptr_from_counts, segment_sum

__all__ = ["truncate_interpolation"]


def _kth_largest(absv: np.ndarray, starts: np.ndarray, k: int) -> np.ndarray:
    """The *k*-th largest of each segment ``absv[starts[s]:starts[s + 1]]``
    (the last one runs to the end), ties counted; ``inf`` when the segment
    is shorter than *k*.  NaN ranks below every number, where a descending
    sort would put it.  *k* rounds of segmented max, no sort: each round
    takes the segment's current maximum and all its ties.
    """
    nseg = len(starts)
    seg = np.repeat(np.arange(nseg), np.diff(starts, append=len(absv)))
    # Taken entries rank below NaN, NaN below every |value|.
    w = np.where(np.isnan(absv), -1.0, absv)
    need = np.full(nseg, k, dtype=np.int64)
    kth = np.full(nseg, np.inf)
    for _ in range(k):
        top = np.maximum.reduceat(w, starts)
        at_top = w == top[seg]
        ties = np.add.reduceat(at_top, starts, dtype=np.int64)
        done = (need > 0) & (ties >= need) & (top > -np.inf)
        kth[done] = np.where(top[done] < 0.0, np.nan, top[done])
        need -= ties
        if not (need > 0).any():
            break
        w[at_top] = -np.inf
    return kth


def truncate_interpolation(
    P: CSRMatrix,
    trunc_fact: float = 0.1,
    max_elmts: int = 4,
    *,
    rescale: bool = True,
    fused: bool = True,
) -> CSRMatrix:
    """Truncate interpolation matrix *P*; see module docstring."""
    n = P.nrows
    if P.nnz == 0 or (trunc_fact <= 0.0 and max_elmts <= 0):
        return P
    rid = P.row_ids()
    absv = np.abs(P.data)
    # Rows with entries: maximum.reduceat segments run start to next start.
    rows = np.flatnonzero(np.diff(P.indptr))
    starts = P.indptr[rows]

    row_max = np.zeros(n, dtype=np.float64)
    row_max[rows] = np.maximum.reduceat(absv, starts)
    kth = np.full(n, np.inf)
    if max_elmts > 0:
        kth[rows] = _kth_largest(absv, starts, max_elmts)

    rel = trunc_fact * row_max if trunc_fact > 0 else np.zeros(n)
    thresh = np.minimum(rel, kth)
    keep = absv >= thresh[rid]

    counts = segment_sum(keep.astype(np.float64), rid, n).astype(np.int64)
    data = P.data[keep]
    new_rid = rid[keep]
    if rescale:
        old_sum = segment_sum(P.data, rid, n)
        new_sum = segment_sum(data, new_rid, n)
        safe = np.abs(new_sum) > 1e-300
        scale = np.where(safe, old_sum / np.where(safe, new_sum, 1.0), 1.0)
        data = data * scale[new_rid]

    Pt = CSRMatrix((n, P.ncols), indptr_from_counts(counts), P.indices[keep], data)

    full_bytes = P.nnz * (VAL_BYTES + IDX_BYTES) + (n + 1) * PTR_BYTES
    trunc_bytes = Pt.nnz * (VAL_BYTES + IDX_BYTES) + (n + 1) * PTR_BYTES
    if fused:
        # Rows truncated in cache right after construction: only the final
        # matrix is written.
        count("interp.truncate_fused", flops=2 * P.nnz, bytes_written=trunc_bytes,
              branches=float(P.nnz))
    else:
        count(
            "interp.truncate",
            flops=2 * P.nnz,
            bytes_read=full_bytes,
            bytes_written=full_bytes + trunc_bytes,
            branches=float(P.nnz),
        )
    return Pt

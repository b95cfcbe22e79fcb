"""Reordering machinery: CF permutations and in-row partial sorts (§3.1.2, §3.2).

The optimized implementation renumbers grid points so that **coarse points
precede fine points** and permutes the operator accordingly.  The same
permutation then pays off three times:

* RAP reduces to block form (only the ``A_FF`` block needs the triple
  product) — :func:`repro.sparse.triple_product.rap_cf_block`;
* interpolation construction iterates over contiguous C/F ranges instead of
  branching per row;
* C-F smoothing iterates over the coarse range then the fine range.

Within each row, entries are *partially sorted* into categories (a 3-way
partition: one O(nnz) sweep, not a full sort): for interpolation
construction the categories are (coarse & non-negative coefficient, coarse &
negative, fine); for hybrid GS they are (own-thread lower, own-thread
upper, other-thread) — see Fig. 2(b)'s ``extptr``.
"""

from __future__ import annotations

import numpy as np

from ..perf.counters import IDX_BYTES, PTR_BYTES, VAL_BYTES, count
from .csr import CSRMatrix
from .ops import indptr_from_counts, segment_sum

__all__ = [
    "cf_permutation",
    "permute_matrix",
    "permute_rows",
    "partition_rows_by_category",
    "count_fused_partition",
    "extract_cf_blocks",
    "compose_cf_interpolation",
]

C_PT = 1
F_PT = -1


def cf_permutation(cf_marker: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Permutation placing coarse points before fine points (stable).

    ``cf_marker[i] > 0`` marks a C point (HYPRE convention).  Returns
    ``(new2old, old2new)``: ``new2old[p]`` is the original index of permuted
    point *p*; ``old2new`` is its inverse.
    """
    cf_marker = np.asarray(cf_marker)
    coarse = np.flatnonzero(cf_marker > 0)
    fine = np.flatnonzero(cf_marker <= 0)
    new2old = np.concatenate([coarse, fine]).astype(np.int64)
    old2new = np.empty_like(new2old)
    old2new[new2old] = np.arange(len(new2old), dtype=np.int64)
    return new2old, old2new


def permute_rows(A: CSRMatrix, new2old: np.ndarray) -> CSRMatrix:
    """Reorder rows only: row *p* of the result is row ``new2old[p]`` of A."""
    local, cols, vals = A.row_slice_arrays(new2old)
    counts = A.indptr[np.asarray(new2old) + 1] - A.indptr[new2old]
    return CSRMatrix((len(new2old), A.ncols), indptr_from_counts(counts), cols, vals)


def permute_matrix(
    A: CSRMatrix,
    new2old_rows: np.ndarray,
    old2new_cols: np.ndarray | None = None,
    *,
    kernel: str = "permute",
) -> CSRMatrix:
    """Symmetrically (or rectangularly) permute *A*.

    ``old2new_cols`` defaults to the inverse of ``new2old_rows`` (square
    symmetric permutation).  Column indices within rows are re-sorted.
    """
    if old2new_cols is None:
        old2new_cols = np.empty(A.ncols, dtype=np.int64)
        old2new_cols[np.asarray(new2old_rows)] = np.arange(A.ncols, dtype=np.int64)
    B = permute_rows(A, new2old_rows)
    B = CSRMatrix(B.shape, B.indptr, np.asarray(old2new_cols)[B.indices], B.data)
    B = B.sort_indices()
    m_bytes = A.nnz * (VAL_BYTES + IDX_BYTES) + (A.nrows + 1) * PTR_BYTES
    count(kernel, bytes_read=m_bytes, bytes_written=m_bytes)
    return B


def partition_rows_by_category(
    A: CSRMatrix, category: np.ndarray, ncat: int, *, kernel: str = "row_partition",
    fused_with_permute: bool = False,
) -> tuple[CSRMatrix, np.ndarray]:
    """Partially sort each row's entries by a small integer category.

    *category* assigns every stored entry (by its position in ``A.data``) a
    value in ``[0, ncat)``.  Entries are reordered so that within each row
    the categories appear in ascending order, with the original relative
    order preserved inside a category (stable — the paper's single O(nnz)
    sweep).

    Returns ``(B, ptrs)`` where ``ptrs`` has shape ``(ncat + 1, nrows)``:
    the entries of row *i* with category *c* occupy
    ``[ptrs[c, i], ptrs[c + 1, i])`` in ``B``; ``ptrs[0] == B.indptr[:-1]``
    and ``ptrs[ncat] == B.indptr[1:]``.
    """
    category = np.asarray(category)
    if len(category) != A.nnz:
        raise ValueError("category must have one entry per stored non-zero")
    rid = A.row_ids()
    order = np.lexsort((np.arange(A.nnz), category, rid))
    B = CSRMatrix(A.shape, A.indptr.copy(), A.indices[order], A.data[order])
    ptrs = np.empty((ncat + 1, A.nrows), dtype=np.int64)
    ptrs[0] = A.indptr[:-1]
    for c in range(ncat):
        in_cat = segment_sum((category == c).astype(np.float64), rid, A.nrows).astype(np.int64)
        ptrs[c + 1] = ptrs[c] + in_cat
    if fused_with_permute:
        count_fused_partition(A.nrows, ncat, kernel=kernel)
    else:
        m_bytes = A.nnz * (VAL_BYTES + IDX_BYTES)
        # One sweep: read entries, write them to their partition slot.
        count(kernel, bytes_read=m_bytes,
              bytes_written=m_bytes + ncat * A.nrows * PTR_BYTES,
              branches=float(A.nnz))
    return B, ptrs


def count_fused_partition(nrows: int, ncat: int, *, kernel: str = "row_partition") -> None:
    """Charge an ``ncat``-way in-row partition fused into a permutation.

    §3.1.2: "while we are permuting A, we also partition the coarse point
    columns" — the categorization rides along the permutation's data sweep;
    only the partition pointers are extra traffic.  The record of
    ``partition_rows_by_category(..., fused_with_permute=True)``, for a
    caller whose kernels need no partitioned copy.
    """
    count(kernel + ".fused", bytes_written=ncat * nrows * PTR_BYTES)


def extract_cf_blocks(
    A: CSRMatrix, cf_marker: np.ndarray, *, already_partitioned: bool = False
) -> tuple[CSRMatrix, CSRMatrix, CSRMatrix, CSRMatrix]:
    """Split a square *A* into ``(A_CC, A_CF, A_FC, A_FF)`` blocks.

    Rows/columns are compacted: C points keep their coarse numbering
    (order of appearance), F points likewise.

    ``already_partitioned``: in the optimized path the operator has been
    CF-permuted and 3-way partitioned in-row already, so the blocks are
    contiguous slices — the native extraction is row-pointer arithmetic,
    not a data sweep; only the pointer work is counted.
    """
    cf_marker = np.asarray(cf_marker)
    is_c = cf_marker > 0
    c_rows = np.flatnonzero(is_c)
    f_rows = np.flatnonzero(~is_c)
    c_index = np.cumsum(is_c) - 1  # old col -> coarse id (valid where is_c)
    f_index = np.cumsum(~is_c) - 1

    def block(rows, col_mask, col_index, ncols_new):
        local, cols, vals = A.row_slice_arrays(rows)
        keep = col_mask[cols]
        counts = np.bincount(local[keep], minlength=len(rows)).astype(np.int64)
        return CSRMatrix(
            (len(rows), ncols_new),
            indptr_from_counts(counts),
            col_index[cols[keep]],
            vals[keep],
        )

    nc, nf = len(c_rows), len(f_rows)
    A_CC = block(c_rows, is_c, c_index, nc)
    A_CF = block(c_rows, ~is_c, f_index, nf)
    A_FC = block(f_rows, is_c, c_index, nc)
    A_FF = block(f_rows, ~is_c, f_index, nf)
    if already_partitioned:
        count("extract_cf_blocks.views",
              bytes_read=2 * (A.nrows + 1) * PTR_BYTES,
              bytes_written=2 * (A.nrows + 1) * PTR_BYTES)
    else:
        m_bytes = A.nnz * (VAL_BYTES + IDX_BYTES) + (A.nrows + 1) * PTR_BYTES
        count("extract_cf_blocks", bytes_read=m_bytes, bytes_written=m_bytes,
              branches=float(A.nnz))
    return A_CC, A_CF, A_FC, A_FF


def compose_cf_interpolation(P_F: CSRMatrix) -> CSRMatrix:
    """Assemble the full interpolation ``P = [I; P_F]`` in CF ordering."""
    nc = P_F.ncols
    nf = P_F.nrows
    indptr = np.concatenate(
        [np.arange(nc + 1, dtype=np.int64), nc + P_F.indptr[1:]]
    )
    indices = np.concatenate([np.arange(nc, dtype=np.int64), P_F.indices])
    data = np.concatenate([np.ones(nc), P_F.data])
    return CSRMatrix((nc + nf, nc), indptr, indices, data)

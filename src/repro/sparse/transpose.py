"""Matrix transpose via parallel counting sort (§3.3).

The paper parallelizes the CSR transpose with a counting sort: count
entries per output row (= input column), prefix-sum into the output row
pointer, then scatter every entry to its slot.  Load balance comes from
partitioning input rows so each thread owns a similar number of non-zeros.

The vectorized implementation here is exactly a counting sort: ``bincount``
is the count phase, ``cumsum`` the prefix sum, and the scatter order is
:func:`~repro.sparse.ops.stable_order` of the column ids — numpy's radix
sort on a 16-bit cast whenever the column count fits 16 bits.
"""

from __future__ import annotations

import numpy as np

from ..perf.counters import IDX_BYTES, PTR_BYTES, VAL_BYTES, count
from .csr import CSRMatrix
from .ops import indptr_from_counts, stable_order

__all__ = ["transpose", "balanced_nnz_partition"]


def transpose(A: CSRMatrix, *, parallel: bool = True, kernel: str = "transpose") -> CSRMatrix:
    """Return ``A^T`` as a new CSR matrix with sorted row indices.

    ``parallel=False`` tags the counted work as serial — the baseline HYPRE
    transpose is not threaded (§3.3), which the machine model then charges
    at single-thread bandwidth.
    """
    counts = np.bincount(A.indices, minlength=A.ncols)
    indptrT = indptr_from_counts(counts)
    order = stable_order(A.indices, A.ncols)
    indicesT = A.row_ids()[order]
    dataT = A.data[order]
    matrix_bytes = A.nnz * (VAL_BYTES + IDX_BYTES) + (A.nrows + 1) * PTR_BYTES
    out_bytes = A.nnz * (VAL_BYTES + IDX_BYTES) + (A.ncols + 1) * PTR_BYTES
    # Counting sort reads the input twice (count pass + scatter pass) and
    # writes the output once; the scatter is irregular.
    count(
        kernel,
        flops=0,
        bytes_read=2 * matrix_bytes,
        bytes_written=out_bytes,
        parallel=parallel,
    )
    return CSRMatrix((A.ncols, A.nrows), indptrT, indicesT, dataT)


def balanced_nnz_partition(A: CSRMatrix, nparts: int) -> np.ndarray:
    """Row boundaries assigning each part a similar number of non-zeros.

    Returns an array ``bounds`` of length ``nparts + 1`` with
    ``bounds[0] == 0`` and ``bounds[-1] == A.nrows``; part *p* owns rows
    ``[bounds[p], bounds[p+1])``.  This is the load-balancing rule the paper
    uses for the threaded transpose and for hybrid-GS thread ranges.
    """
    if nparts <= 0:
        raise ValueError("nparts must be positive")
    targets = A.nnz * np.arange(1, nparts, dtype=np.float64) / nparts
    interior = np.searchsorted(A.indptr[1:], targets, side="left") + 1
    bounds = np.concatenate(([0], interior, [A.nrows])).astype(np.int64)
    return np.maximum.accumulate(bounds)

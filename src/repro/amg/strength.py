"""Classical strength-of-connection matrix (§2, §3.3).

Point *j* strongly influences *i* iff ``-a_ij >= alpha * max_{k != i}(-a_ik)``
(signs flipped when the diagonal is negative, as in BoomerAMG).  Row *i* of
the strength matrix ``S`` holds the points i strongly *depends on*.

``max_row_sum`` (Table 3: 0.8): rows whose row sum is large relative to the
diagonal (strongly diagonally dominant rows, which smooth well on their own)
get **no** strong connections, exactly as in BoomerAMG.

The optimized implementation parallelizes the final matrix assembly with a
prefix sum over per-row counts (§3.3, 6.1x speedup); the baseline assembles
serially.  Both code paths produce the same matrix — only the counted
work differs (``parallel`` flag).
"""

from __future__ import annotations

import numpy as np

from ..perf.counters import IDX_BYTES, PTR_BYTES, VAL_BYTES, count
from ..sparse.csr import CSRMatrix
from ..sparse.ops import indptr_from_counts, segment_sum

__all__ = ["strength_matrix"]


def _strong_connections_mask(
    A: CSRMatrix, theta: float, max_row_sum: float
) -> np.ndarray:
    """Boolean strong-connection mask over the stored entries of *A*.

    The pattern half of :func:`strength_matrix`, split out so the resetup
    guard (:mod:`repro.amg.resetup`) can recompute it on refreshed values
    and compare against the frozen mask.  Every per-row reduction here
    (diagonal, row max, row sum) is invariant under a symmetric permutation
    and any in-row entry reorder, so masks computed on the stored
    (CF-permuted, 3-way-partitioned) operator compare meaningfully across
    builds.
    """
    n = A.nrows
    rid = A.row_ids()
    offdiag = A.indices != rid

    diag = A.diagonal()
    # Signed connection value: -a_ij for positive diagonal rows, +a_ij
    # otherwise (BoomerAMG convention).
    sign = np.where(diag >= 0, -1.0, 1.0)
    conn = sign[rid] * A.data

    # Per-row max of off-diagonal connection values.
    neg_inf = np.float64(-np.inf)
    cand = np.where(offdiag, conn, neg_inf)
    row_max = np.full(n, neg_inf)
    np.maximum.at(row_max, rid, cand)

    strong = offdiag & (conn >= theta * np.where(row_max > 0, row_max, np.inf)[rid])

    if max_row_sum < 1.0:
        row_sum = segment_sum(A.data, rid, n)
        dominant = np.abs(row_sum) > max_row_sum * np.abs(diag)
        strong &= ~dominant[rid]
    return strong


def strength_matrix(
    A: CSRMatrix,
    theta: float = 0.25,
    max_row_sum: float = 1.0,
    *,
    parallel: bool = True,
    return_mask: bool = False,
) -> CSRMatrix | tuple[CSRMatrix, np.ndarray]:
    """Build the strength matrix ``S`` of *A*.

    Parameters
    ----------
    A:
        Square operator matrix.
    theta:
        Strength threshold ``alpha`` (Table 3 uses 0.25 or 0.6).
    max_row_sum:
        Rows with ``|sum_j a_ij| > max_row_sum * |a_ii|`` get no strong
        connections (disabled when ``>= 1``).
    parallel:
        Tag the counted assembly work as thread-parallel (optimized) or
        serial (baseline HYPRE, which had not threaded this kernel).
    return_mask:
        Also return the boolean strong-connection mask over *A*'s stored
        entries that ``S`` was assembled from (plan capture freezes it).

    Returns
    -------
    CSRMatrix
        Pattern matrix with unit values; ``S[i, j] != 0`` iff *i* strongly
        depends on *j*.  The diagonal is never included.  With
        ``return_mask`` the pair ``(S, mask)``.
    """
    if A.nrows != A.ncols:
        raise ValueError("strength matrix requires a square operator")
    n = A.nrows
    rid = A.row_ids()
    strong = _strong_connections_mask(A, theta, max_row_sum)

    counts = segment_sum(strong.astype(np.float64), rid, n).astype(np.int64)
    indptr = indptr_from_counts(counts)
    S = CSRMatrix((n, n), indptr, A.indices[strong], np.ones(int(counts.sum())))

    a_bytes = A.nnz * (VAL_BYTES + IDX_BYTES) + (n + 1) * PTR_BYTES
    s_bytes = S.nnz * IDX_BYTES + (n + 1) * PTR_BYTES
    count(
        "strength",
        flops=2 * A.nnz,
        bytes_read=a_bytes,
        bytes_written=s_bytes,
        branches=float(A.nnz),  # strong/weak test per entry
        parallel=parallel,
    )
    return (S, strong) if return_mask else S

"""Sparse matrix–vector products and their paper-specific variants.

Implements:

* :func:`spmv` — the workhorse ``y = A x`` (vectorized gather + segment sum).
* :func:`spmv_transposed` — ``y = A^T x`` without materializing the
  transpose.  The *baseline* HYPRE computes the transpose of ``P`` for every
  restriction (§3.2); the optimized code keeps ``R = P^T`` from setup.  The
  instrumentation of the two paths differs accordingly.
* :func:`spmv_identity_block` / :func:`spmv_identity_block_transposed` —
  interpolation/restriction exploiting the permuted ``P = [I; P_F]`` form so
  only the ``(n_l - n_{l+1}) x n_{l+1}`` block ``P_F`` is touched (§3.2).
* :func:`spmv_dot_fused` — SpMV fused with an inner product so the output
  vector is never written to memory (§3.3).

Traffic model per SpMV (counted, not measured): read values (8 B/nnz),
column indices (4 B/nnz), row pointer (4 B/row), the gathered source vector
(8 B/nnz — irregular), and write the destination (8 B/row).

Multiple right-hand sides: the ``*_multi`` variants operate on ``(n, k)``
blocks.  A blocked native kernel streams the matrix (values + indices +
row pointer) **once** for all *k* columns and the vector data *k* times, so
the counted traffic amortizes the matrix stream — the multi-RHS lever of
Richtmann et al. applied to the paper's bandwidth-bound solve kernels.

Execution: every kernel here is validation + :meth:`CSRMatrix._dot` + its
own record.  ``_dot`` sums ``data[e] * x[src[e]]`` per row (or column) in
entry order; on operators the coverage rule admits it runs the
:class:`~repro.sparse.ops.Lockstep` layout — all rows advance one entry at
a time, an ``(n, k)`` block rides along as the trailing axis, so the
vehicle too streams the operator once for all *k* columns — and on small
ones the ``bincount`` form.  Both round identically, so column *j* of a
blocked kernel is bit-identical to the single-RHS kernel on column *j*.
"""

from __future__ import annotations

import numpy as np

from ..perf.counters import IDX_BYTES, PTR_BYTES, VAL_BYTES, count
from .csr import CSRMatrix

__all__ = [
    "spmv",
    "spmv_transposed",
    "spmv_identity_block",
    "spmv_identity_block_transposed",
    "spmv_dot_fused",
    "residual",
    "spmv_traffic",
    "spmv_multi_traffic",
    "as_multi",
    "spmv_multi",
    "spmv_transposed_multi",
    "spmv_identity_block_multi",
    "spmv_identity_block_transposed_multi",
    "residual_multi",
]


def spmv_traffic(nrows: int, nnz: int, *, write_output: bool = True) -> tuple[float, float]:
    """(bytes_read, bytes_written) of one CSR SpMV."""
    bytes_read = nnz * (VAL_BYTES + IDX_BYTES + VAL_BYTES) + (nrows + 1) * PTR_BYTES
    bytes_written = nrows * VAL_BYTES if write_output else 0.0
    return float(bytes_read), float(bytes_written)


def spmv(A: CSRMatrix, x: np.ndarray, *, kernel: str = "spmv") -> np.ndarray:
    """``y = A @ x``."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != A.ncols:
        raise ValueError(f"dimension mismatch: A is {A.shape}, x has {x.shape[0]}")
    y = A._dot(x)
    br, bw = spmv_traffic(A.nrows, A.nnz)
    count(kernel, flops=2 * A.nnz, bytes_read=br, bytes_written=bw)
    return y


def spmv_transposed(A: CSRMatrix, x: np.ndarray, *, materialize: bool = False) -> np.ndarray:
    """``y = A^T @ x``.

    With ``materialize=True`` this models the baseline behaviour of
    transposing the matrix first (an extra full read + write of the matrix,
    the cost the paper's "keep R = P^T" optimization removes); the numerical
    result is identical.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != A.nrows:
        raise ValueError("dimension mismatch")
    y = A._dot(x, transposed=True)
    if materialize:
        # Transpose built then multiplied: counting-sort transpose traffic
        # (read matrix, write matrix) plus the SpMV on the result.  The
        # baseline transpose is serial — threading it is one of the §3.3
        # optimizations.
        matrix_bytes = A.nnz * (VAL_BYTES + IDX_BYTES) + (A.nrows + 1) * PTR_BYTES
        count(
            "transpose.per_restriction",
            bytes_read=matrix_bytes + A.nnz * IDX_BYTES,
            bytes_written=matrix_bytes,
            branches=0,
            parallel=False,
        )
    br, bw = spmv_traffic(A.ncols, A.nnz)
    count("spmv_t", flops=2 * A.nnz, bytes_read=br, bytes_written=bw)
    return y


def spmv_identity_block(
    P_F: CSRMatrix, xc: np.ndarray, cperm: np.ndarray | None = None
) -> np.ndarray:
    """Interpolation with the permuted operator ``P = [Pi; P_F]``.

    In CF ordering the coarse-point block of ``P`` is the identity — or,
    when the *next* level was itself CF-permuted, a permutation matrix
    ``Pi`` with ``Pi[i, cperm[i]] = 1``.  Either way no matrix values are
    read for that block: ``x_fine = concat(x_coarse[cperm], P_F @ x_coarse)``.
    """
    xc = np.asarray(xc, dtype=np.float64)
    xf_c = xc if cperm is None else xc[cperm]
    xf_f = P_F._dot(xc)
    br, bw = spmv_traffic(P_F.nrows, P_F.nnz)
    # The identity/permutation part is a vector copy (streamed read+write).
    count(
        "spmv.interp_idblock",
        flops=2 * P_F.nnz,
        bytes_read=br + len(xc) * VAL_BYTES,
        bytes_written=bw + len(xc) * VAL_BYTES,
    )
    return np.concatenate([xf_c, xf_f])


def spmv_identity_block_transposed(
    P_F: CSRMatrix, xf: np.ndarray, cperm: np.ndarray | None = None
) -> np.ndarray:
    """Restriction with ``R = P^T = [Pi^T  P_F^T]``: ``y = Pi^T x_C + P_F^T x_F``."""
    xf = np.asarray(xf, dtype=np.float64)
    nc = P_F.ncols
    y = P_F._dot(xf[nc:], transposed=True)
    if cperm is None:
        y += xf[:nc]
    else:
        # cperm is a permutation (no duplicate targets), so fancy-indexed
        # += is exact — same one-add-per-element as the np.add.at scatter.
        y[cperm] += xf[:nc]
    br, bw = spmv_traffic(nc, P_F.nnz)
    count(
        "spmv.restrict_idblock",
        flops=2 * P_F.nnz + nc,
        bytes_read=br + nc * VAL_BYTES,
        bytes_written=bw,
    )
    return y


def spmv_dot_fused(A: CSRMatrix, x: np.ndarray, w: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """``y = A x`` fused with ``d = <y, y>`` (or ``<y, w>``).

    §3.3: when the SpMV output is consumed only by an inner product, fusing
    saves writing — and re-reading — the output vector.  We still *return*
    ``y`` (callers may want it); the counted traffic omits the store.
    """
    x = np.asarray(x, dtype=np.float64)
    y = A._dot(x)
    d = float(y @ (y if w is None else np.asarray(w, dtype=np.float64)))
    br, _ = spmv_traffic(A.nrows, A.nnz, write_output=False)
    extra_read = A.nrows * VAL_BYTES if w is not None else 0.0
    count("spmv_dot_fused", flops=2 * A.nnz + 2 * A.nrows, bytes_read=br + extra_read)
    return y, d


def residual(A: CSRMatrix, x: np.ndarray, b: np.ndarray, *, fused_norm: bool = False):
    """``r = b - A x``; with ``fused_norm`` also returns ``||r||_2``.

    The fused variant models §3.3's SpMV+inner-product fusion applied to the
    residual-norm computation of the solve loop.
    """
    b = np.asarray(b, dtype=np.float64)
    if fused_norm:
        r = b - A._dot(np.asarray(x, dtype=np.float64))
        nrm = float(np.sqrt(r @ r))
        br, bw = spmv_traffic(A.nrows, A.nnz)
        # b is streamed in; r is written once (needed by the caller), but the
        # separate read-back for the norm is fused away.
        count(
            "residual_norm_fused",
            flops=2 * A.nnz + 3 * A.nrows,
            bytes_read=br + A.nrows * VAL_BYTES,
            bytes_written=bw,
        )
        return r, nrm
    y = spmv(A, x)
    r = b - y
    count(
        "residual_sub",
        flops=A.nrows,
        bytes_read=2 * A.nrows * VAL_BYTES,
        bytes_written=A.nrows * VAL_BYTES,
    )
    return r


# ---------------------------------------------------------------------------
# Multiple right-hand sides (blocked kernels)
# ---------------------------------------------------------------------------

def as_multi(X: np.ndarray, nrows: int) -> np.ndarray:
    """Validate a multi-RHS block: float64, shape ``(nrows, k)`` with k >= 1."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D (n, k) block, got shape {X.shape}")
    if X.shape[0] != nrows:
        raise ValueError(f"dimension mismatch: expected {nrows} rows, got {X.shape[0]}")
    if X.shape[1] < 1:
        raise ValueError("multi-RHS block needs at least one column")
    return X


def spmv_multi_traffic(
    nrows: int, nnz: int, k: int, *, write_output: bool = True
) -> tuple[float, float]:
    """(bytes_read, bytes_written) of one blocked CSR SpMV over *k* columns.

    The matrix stream (values, indices, row pointer) is read once; the
    gathered source vector is read per column.
    """
    bytes_read = nnz * (VAL_BYTES + IDX_BYTES) + (nrows + 1) * PTR_BYTES + k * nnz * VAL_BYTES
    bytes_written = k * nrows * VAL_BYTES if write_output else 0.0
    return float(bytes_read), float(bytes_written)


def spmv_multi(A: CSRMatrix, X: np.ndarray, *, kernel: str = "spmv_multi") -> np.ndarray:
    """``Y = A @ X`` for an ``(ncols, k)`` block ``X``."""
    X = as_multi(X, A.ncols)
    k = X.shape[1]
    Y = A._dot(X)
    br, bw = spmv_multi_traffic(A.nrows, A.nnz, k)
    count(kernel, flops=2 * A.nnz * k, bytes_read=br, bytes_written=bw)
    return Y


def spmv_transposed_multi(
    A: CSRMatrix, X: np.ndarray, *, materialize: bool = False
) -> np.ndarray:
    """``Y = A^T @ X`` for a block; one (optional) transpose serves all columns."""
    X = as_multi(X, A.nrows)
    k = X.shape[1]
    Y = A._dot(X, transposed=True)
    if materialize:
        matrix_bytes = A.nnz * (VAL_BYTES + IDX_BYTES) + (A.nrows + 1) * PTR_BYTES
        count(
            "transpose.per_restriction",
            bytes_read=matrix_bytes + A.nnz * IDX_BYTES,
            bytes_written=matrix_bytes,
            branches=0,
            parallel=False,
        )
    br, bw = spmv_multi_traffic(A.ncols, A.nnz, k)
    count("spmv_t_multi", flops=2 * A.nnz * k, bytes_read=br, bytes_written=bw)
    return Y


def spmv_identity_block_multi(
    P_F: CSRMatrix, Xc: np.ndarray, cperm: np.ndarray | None = None
) -> np.ndarray:
    """Blocked interpolation with the permuted operator ``P = [Pi; P_F]``."""
    Xc = as_multi(Xc, P_F.ncols)
    k = Xc.shape[1]
    Xf_c = Xc if cperm is None else Xc[cperm]
    Xf_f = P_F._dot(Xc)
    br, bw = spmv_multi_traffic(P_F.nrows, P_F.nnz, k)
    count(
        "spmv.interp_idblock",
        flops=2 * P_F.nnz * k,
        bytes_read=br + k * len(Xc) * VAL_BYTES,
        bytes_written=bw + k * len(Xc) * VAL_BYTES,
    )
    return np.concatenate([Xf_c, Xf_f])


def spmv_identity_block_transposed_multi(
    P_F: CSRMatrix, Xf: np.ndarray, cperm: np.ndarray | None = None
) -> np.ndarray:
    """Blocked restriction ``Y = Pi^T X_C + P_F^T X_F``."""
    Xf = as_multi(Xf, P_F.ncols + P_F.nrows)
    k = Xf.shape[1]
    nc = P_F.ncols
    Y = P_F._dot(Xf[nc:], transposed=True)
    # One add per element per column, exactly as the per-column scatter
    # (cperm is a permutation), but batched over the block.
    if cperm is None:
        Y += Xf[:nc]
    else:
        Y[cperm] += Xf[:nc]
    br, bw = spmv_multi_traffic(nc, P_F.nnz, k)
    count(
        "spmv.restrict_idblock",
        flops=(2 * P_F.nnz + nc) * k,
        bytes_read=br + k * nc * VAL_BYTES,
        bytes_written=bw,
    )
    return Y


def residual_multi(
    A: CSRMatrix, X: np.ndarray, B: np.ndarray, *, fused_norm: bool = False
):
    """``R = B - A X`` per column; with ``fused_norm`` also per-column norms.

    Column *j* reproduces :func:`residual` on ``(X[:, j], B[:, j])`` exactly;
    the counted traffic streams the matrix once for the whole block.
    """
    X = as_multi(X, A.ncols)
    B = as_multi(B, A.nrows)
    if X.shape[1] != B.shape[1]:
        raise ValueError("X and B must have the same number of columns")
    k = X.shape[1]
    n = A.nrows
    R = A._dot(X)
    np.subtract(B, R, out=R)
    br, bw = spmv_multi_traffic(n, A.nnz, k)
    if fused_norm:
        nrms = np.empty(k)
        for j in range(k):
            # Contiguous copy: same reduction code path (same bits) as the
            # single-RHS fused norm on a 1-D residual.
            r = np.ascontiguousarray(R[:, j])
            nrms[j] = float(np.sqrt(r @ r))
        # b streamed in per column; the norm's read-back is fused away.
        count(
            "residual_norm_fused",
            flops=(2 * A.nnz + 3 * n) * k,
            bytes_read=br + k * n * VAL_BYTES,
            bytes_written=bw,
        )
        return R, nrms
    count(
        "residual_sub_multi",
        flops=(2 * A.nnz + n) * k,
        bytes_read=br + k * n * VAL_BYTES,
        bytes_written=bw,
    )
    return R

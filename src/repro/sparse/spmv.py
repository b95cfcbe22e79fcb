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

Multiple right-hand sides: every kernel but :func:`spmv_dot_fused` takes a
vector ``(n,)`` (*width* 0, a single right-hand side) or an ``(n, k)``
block (*width* k).  A blocked native kernel streams the matrix (values +
indices + row pointer) **once** for all *k* columns and the vector data *k*
times, so the counted traffic (:func:`spmv_traffic`) amortizes the matrix
stream — the multi-RHS lever of Richtmann et al. applied to the paper's
bandwidth-bound solve kernels.  Record names follow the width only where a
native library would call a different routine: ``spmv`` / ``spmv_multi``
(the default kernel name), ``spmv_t`` / ``spmv_t_multi``, and the unfused
residual (``spmv`` + ``residual_sub`` for a vector, one
``residual_sub_multi`` for a block).

Execution: every kernel here is validation + :meth:`CSRMatrix._dot` + its
own record.  ``_dot`` sums ``data[e] * x[src[e]]`` per row (or column) in
entry order on the operator's padded slabs
(:class:`~repro.sparse.slabs.SpMVLayout`, built by the GS sweeps' builder):
per slice of rows one gather, one multiply and one reduction, an ``(n, k)``
block riding along as the trailing axis, so the vehicle too streams the
operator once for all *k* columns.  The sum is ``np.bincount``'s, bit for
bit, so column *j* of a blocked product is bit-identical to the product of
column *j*.
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
    "rhs_width",
]


def rhs_width(x: np.ndarray) -> int:
    """0 for a vector ``(n,)`` (single right-hand side), *k* for an
    ``(n, k)`` block."""
    return x.shape[1] if x.ndim == 2 else 0


def _operand(x, nrows: int) -> tuple[np.ndarray, int]:
    """*x* as float64 and its width, after checking it is a vector of
    *nrows* entries or an ``(nrows, k)`` block with ``k >= 1``."""
    x = np.asarray(x, dtype=np.float64)
    shape = x.shape
    if shape == (nrows,):
        return x, 0
    if len(shape) != 2 or shape[0] != nrows or shape[1] == 0:
        raise ValueError(f"dimension mismatch: expected ({nrows},) or "
                         f"({nrows}, k >= 1), got {shape}")
    return x, shape[1]


def spmv_traffic(nrows: int, nnz: int, width: int = 0, *,
                 write_output: bool = True) -> tuple[float, float]:
    """(bytes_read, bytes_written) of one CSR SpMV over *width* columns
    (0 = one vector); elementwise over arrays of *nrows* and *nnz*.

    The matrix stream (values, indices, row pointer) is read once; the
    gathered source vector is read, and the output written, per column.
    """
    k = max(width, 1)
    bytes_read = nnz * (VAL_BYTES + IDX_BYTES) + (nrows + 1) * PTR_BYTES + k * nnz * VAL_BYTES
    bytes_written = k * nrows * VAL_BYTES if write_output else 0.0
    return 1.0 * bytes_read, 1.0 * bytes_written


def spmv(A: CSRMatrix, x: np.ndarray, *, kernel: str | None = None) -> np.ndarray:
    """``y = A @ x``, recorded as *kernel* (default ``spmv``, or
    ``spmv_multi`` for a block)."""
    x, w = _operand(x, A.ncols)
    y = A._dot(x)
    br, bw = spmv_traffic(A.nrows, A.nnz, w)
    count(kernel or ("spmv_multi" if w else "spmv"), flops=2 * A.nnz * max(w, 1),
          bytes_read=br, bytes_written=bw)
    return y


def spmv_transposed(A: CSRMatrix, x: np.ndarray, *, materialize: bool = False) -> np.ndarray:
    """``y = A^T @ x``.

    With ``materialize=True`` this models the baseline behaviour of
    transposing the matrix first (an extra full read + write of the matrix,
    the cost the paper's "keep R = P^T" optimization removes — one
    transpose serves all columns of a block); the numerical result is
    identical.
    """
    x, w = _operand(x, A.nrows)
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
    br, bw = spmv_traffic(A.ncols, A.nnz, w)
    count("spmv_t_multi" if w else "spmv_t", flops=2 * A.nnz * max(w, 1),
          bytes_read=br, bytes_written=bw)
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
    xc, w = _operand(xc, P_F.ncols)
    k = max(w, 1)
    xf_c = xc if cperm is None else xc[cperm]
    xf_f = P_F._dot(xc)
    br, bw = spmv_traffic(P_F.nrows, P_F.nnz, w)
    # The identity/permutation part is a vector copy (streamed read+write).
    count(
        "spmv.interp_idblock",
        flops=2 * P_F.nnz * k,
        bytes_read=br + k * len(xc) * VAL_BYTES,
        bytes_written=bw + k * len(xc) * VAL_BYTES,
    )
    return np.concatenate([xf_c, xf_f])


def spmv_identity_block_transposed(
    P_F: CSRMatrix, xf: np.ndarray, cperm: np.ndarray | None = None
) -> np.ndarray:
    """Restriction with ``R = P^T = [Pi^T  P_F^T]``: ``y = Pi^T x_C + P_F^T x_F``."""
    nc = P_F.ncols
    xf, w = _operand(xf, nc + P_F.nrows)
    k = max(w, 1)
    y = P_F._dot(xf[nc:], transposed=True)
    if cperm is None:
        y += xf[:nc]
    else:
        # cperm is a permutation (no duplicate targets), so fancy-indexed
        # += is exact — same one-add-per-element as the np.add.at scatter.
        y[cperm] += xf[:nc]
    br, bw = spmv_traffic(nc, P_F.nnz, w)
    count(
        "spmv.restrict_idblock",
        flops=(2 * P_F.nnz + nc) * k,
        bytes_read=br + k * nc * VAL_BYTES,
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
    """``r = b - A x``; with ``fused_norm`` also returns ``||r||_2`` (per
    column for a block: a length-*k* array).

    The fused variant models §3.3's SpMV+inner-product fusion applied to the
    residual-norm computation of the solve loop.
    """
    x, w = _operand(x, A.ncols)
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (A.nrows,) + x.shape[1:]:
        raise ValueError(f"dimension mismatch: b has shape {b.shape}, "
                         f"A x has {(A.nrows,) + x.shape[1:]}")
    n, k = A.nrows, max(w, 1)
    r = A._dot(x)
    np.subtract(b, r, out=r)
    br, bw = spmv_traffic(n, A.nnz, w)
    if not fused_norm:
        if w:
            count("residual_sub_multi", flops=(2 * A.nnz + n) * k,
                  bytes_read=br + k * n * VAL_BYTES, bytes_written=bw)
        else:
            # The unfused single-RHS residual is an SpMV and a subtraction.
            count("spmv", flops=2 * A.nnz, bytes_read=br, bytes_written=bw)
            count("residual_sub", flops=n, bytes_read=2 * n * VAL_BYTES,
                  bytes_written=n * VAL_BYTES)
        return r
    if w:
        nrm = np.empty(k)
        for j in range(k):
            # Contiguous copy: same reduction code path (same bits) as the
            # norm of a 1-D residual.
            rj = np.ascontiguousarray(r[:, j])
            nrm[j] = float(np.sqrt(rj @ rj))
    else:
        nrm = float(np.sqrt(r @ r))
    # b is streamed in; r is written once (needed by the caller), but the
    # separate read-back for the norm is fused away.
    count("residual_norm_fused", flops=(2 * A.nnz + 3 * n) * k,
          bytes_read=br + k * n * VAL_BYTES, bytes_written=bw)
    return r, nrm

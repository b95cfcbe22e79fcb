"""Instrumented level-1 vector operations.

The solve phase's ``BLAS1`` bucket in Fig. 5 (vector scaling, addition,
inner products).  Each helper performs the numpy operation and counts the
streaming traffic of a native implementation.

Every op takes vectors ``(n,)`` or ``(n, k)`` blocks — one fused pass over
*k* right-hand sides, with per-column scalars given as length-*k* arrays
and reductions returning one value per column.  BLAS1 traffic is pure
vector data, so there is no matrix stream to amortize; batching still
helps the machine model through one kernel record (one launch on GPU
models) per block instead of *k*.  Column *j* of a block op is
bit-identical to the op on column *j*.
"""

from __future__ import annotations

import numpy as np

from ..perf.counters import VAL_BYTES, count

__all__ = ["dot", "norm2", "axpy", "waxpby"]


def _columns(x: np.ndarray):
    """The columns of a block as contiguous copies: the reduction then takes
    the same code path (and produces the same bits) as on a 1-D vector."""
    return (np.ascontiguousarray(c) for c in x.T)


def dot(x: np.ndarray, y: np.ndarray):
    """``<x, y>``; column-wise (a length-*k* array) for blocks."""
    n = x.size
    count("blas1.dot", flops=2 * n, bytes_read=2 * n * VAL_BYTES)
    if x.ndim == 1:
        return float(np.dot(x, y))
    return np.array([float(np.dot(a, b)) for a, b in zip(_columns(x), _columns(y))])


def norm2(x: np.ndarray):
    """``||x||_2``; column-wise (a length-*k* array) for blocks."""
    n = x.size
    count("blas1.norm2", flops=2 * n, bytes_read=n * VAL_BYTES)
    if x.ndim == 1:
        return float(np.sqrt(np.dot(x, x)))
    return np.array([float(np.sqrt(np.dot(c, c))) for c in _columns(x)])


def axpy(alpha, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``y += alpha * x`` (in place, returns y)."""
    n = x.size
    y += alpha * x
    count("blas1.axpy", flops=2 * n, bytes_read=2 * n * VAL_BYTES, bytes_written=n * VAL_BYTES)
    return y


def waxpby(alpha, x: np.ndarray, beta, y: np.ndarray) -> np.ndarray:
    """``w = alpha*x + beta*y`` (new vector)."""
    n = x.size
    count("blas1.waxpby", flops=3 * n, bytes_read=2 * n * VAL_BYTES, bytes_written=n * VAL_BYTES)
    return alpha * x + beta * y


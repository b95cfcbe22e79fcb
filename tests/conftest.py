"""Shared fixtures and generators for the test suite.

scipy.sparse is used throughout the tests as an *independent oracle*; the
library itself never imports it.
"""

from __future__ import annotations

import os
import sys

# Pin the BLAS / OpenMP pools to one thread before numpy loads them (a
# user's own setting wins): unpinned, the 68x68 ``pinv`` of a coarsest level
# stalls to ~0.1 s instead of ~0.001 s whenever the pool's threads contend
# on a small host, in any test that builds a hierarchy.  ``BLAS_PINNED``
# records whether the pin came early enough to take effect.
BLAS_PINNED = "numpy" not in sys.modules
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from repro.problems import laplace_2d_5pt, laplace_3d_7pt, laplace_3d_27pt  # noqa: E402
from repro.sparse import CSRMatrix  # noqa: E402


def random_csr(
    nrows: int, ncols: int, density: float = 0.2, seed: int = 0, *, spd: bool = False
) -> CSRMatrix:
    """Random CSR test matrix; ``spd=True`` symmetrizes and shifts it."""
    rng = np.random.default_rng(seed)
    dense = (rng.random((nrows, ncols)) < density) * rng.standard_normal((nrows, ncols))
    if spd:
        assert nrows == ncols
        dense = dense + dense.T
        dense += np.eye(nrows) * (np.abs(dense).sum(axis=1).max() + 1.0)
    return CSRMatrix.from_dense(dense)


def convection_diffusion(nx: int) -> CSRMatrix:
    """A structurally nonsymmetric operator: the ``nx x nx`` 5-point
    Laplacian plus ``-0.5`` at diagonal offset -2 (a one-sided convection
    term with no mirror entry) and ``+0.5`` on the diagonal."""
    A = laplace_2d_5pt(nx)
    n = A.nrows
    i = np.arange(2, n)
    rows = np.concatenate([A.row_ids(), i, np.arange(n)])
    cols = np.concatenate([A.indices, i - 2, np.arange(n)])
    vals = np.concatenate([A.data, np.full(n - 2, -0.5), np.full(n, 0.5)])
    return CSRMatrix.from_coo(A.shape, rows, cols, vals)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def lap2d_small():
    return laplace_2d_5pt(12)


@pytest.fixture
def lap2d_mid():
    return laplace_2d_5pt(32)


@pytest.fixture
def lap3d7_small():
    return laplace_3d_7pt(8)


@pytest.fixture
def lap3d27_small():
    return laplace_3d_27pt(7)


def lexsort_group(rows, cols, nrows: int, ncols: int):
    """Oracle of :func:`repro.sparse.ops.group_rowcol`, written without it:
    ``np.lexsort`` into ``(row, col)`` order, then run detection.  Returns
    ``(slot, indptr, indices)``: the output slot of every input entry, in
    input order, and the CSR structure of the distinct coordinates."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    order = np.lexsort((cols, rows))
    r, c = rows[order], cols[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
    slot = np.empty(len(order), dtype=np.int64)
    slot[order] = np.cumsum(new) - 1
    indptr = np.zeros(nrows + 1, dtype=np.int64)
    np.cumsum(np.bincount(r[new], minlength=nrows), out=indptr[1:])
    return slot, indptr, c[new]


def assert_csr_equal(A: CSRMatrix, B, atol: float = 1e-12) -> None:
    """Compare our CSR with a scipy matrix or another CSRMatrix densely."""
    lhs = A.to_dense()
    rhs = B.to_dense() if isinstance(B, CSRMatrix) else np.asarray(B.todense())
    assert lhs.shape == rhs.shape
    np.testing.assert_allclose(lhs, rhs, atol=atol)

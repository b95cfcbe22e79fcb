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


def assert_csr_equal(A: CSRMatrix, B, atol: float = 1e-12) -> None:
    """Compare our CSR with a scipy matrix or another CSRMatrix densely."""
    lhs = A.to_dense()
    rhs = B.to_dense() if isinstance(B, CSRMatrix) else np.asarray(B.todense())
    assert lhs.shape == rhs.shape
    np.testing.assert_allclose(lhs, rhs, atol=atol)

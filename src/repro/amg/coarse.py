"""Coarsest-level solver.

Small coarsest grids are solved directly (dense factorization precomputed in
the setup phase, applied as a matvec per cycle); grids that are still large
when ``max_levels`` is hit fall back to a few symmetric smoothing sweeps —
the same policy BoomerAMG follows.
"""

from __future__ import annotations

import copy

import numpy as np

from ..perf.counters import VAL_BYTES, count, phase
from ..sparse.csr import CSRMatrix
from ..sparse.spmv import rhs_width
from .smoothers import HybridGSSmoother

__all__ = ["CoarseSolver"]


class CoarseSolver:
    """Direct (dense pseudo-inverse) or smoothing-based coarsest solver."""

    def __init__(
        self,
        A: CSRMatrix,
        *,
        dense_threshold: int = 500,
        nthreads: int = 1,
        sweeps: int = 4,
    ) -> None:
        self.A = A
        self.n = A.nrows
        self.sweeps = sweeps
        self.direct = self.n <= dense_threshold
        self.inv = None
        self.smoother = None
        if self.direct:
            self._factorize()
        else:
            self.smoother = HybridGSSmoother(A, nthreads=nthreads)

    def _factorize(self) -> None:
        # Pseudo-inverse tolerates the singular coarse operators of pure
        # Neumann-like problems.
        self.inv = np.linalg.pinv(self.A.to_dense())
        count(
            "coarse.factorize",
            flops=2.0 * self.n**3,
            bytes_read=self.n * self.n * VAL_BYTES,
            bytes_written=self.n * self.n * VAL_BYTES,
            phase="Setup_etc",
        )

    @classmethod
    def from_numeric(cls, old: "CoarseSolver", A: CSRMatrix) -> "CoarseSolver":
        """Same-pattern numeric rebuild of *old* over the values of *A*: a
        direct solver refactorizes, a swept one shares *old*'s schedules and
        compiled sweeps (:meth:`HybridGSSmoother.from_numeric`)."""
        new = copy.copy(old)
        new.A = A
        if old.direct:
            new._factorize()
        else:
            new.smoother = HybridGSSmoother.from_numeric(old.smoother, A)
        return new

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Coarsest solve of a vector or an ``(n, k)`` block.

        Column *j* of a block matches the solve of ``b[:, j]`` exactly; the
        direct variant reads the factor once for all *k* right-hand sides.
        """
        with phase("Solve_etc"):
            if self.direct:
                if b.ndim == 1:
                    x = self.inv @ b
                else:
                    # One matrix-vector product per column: a matrix-matrix
                    # product would round differently.
                    x = np.empty(b.shape)
                    for j in range(b.shape[1]):
                        x[:, j] = self.inv @ b[:, j]
                k = max(rhs_width(b), 1)
                count(
                    "coarse.direct_solve",
                    flops=2.0 * self.n * self.n * k,
                    bytes_read=self.n * self.n * VAL_BYTES + k * self.n * VAL_BYTES,
                    bytes_written=k * self.n * VAL_BYTES,
                )
                return x
            x = np.zeros(b.shape)
            self.smoother.presmooth(x, b, zero_guess=True)
            for _ in range(self.sweeps - 1):
                self.smoother.presmooth(x, b)
                self.smoother.postsmooth(x, b)
            return x

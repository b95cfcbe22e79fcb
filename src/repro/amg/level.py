"""One level of the AMG hierarchy and its grid-transfer applications."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import OptimizationFlags
from ..sparse.csr import CSRMatrix
from ..sparse.spmv import (
    spmv,
    spmv_identity_block,
    spmv_identity_block_transposed,
    spmv_transposed,
)
from .smoothers import HybridGSSmoother

__all__ = ["Level"]


@dataclass
class Level:
    """Level *l* of the hierarchy.

    ``A`` is stored in this level's own ordering (CF-permuted when the
    ``cf_reorder`` optimization is on, so C points occupy rows
    ``[0, n_coarse)``); the parent level's ``P``/``R`` columns are expressed
    in this ordering too, so no vector ever needs permuting between levels.
    """

    A: CSRMatrix
    cf_marker: np.ndarray | None = None
    #: Full interpolation to the next level (rows: this level's ordering).
    P: CSRMatrix | None = None
    #: Fine-point block of P when CF-reordered (``P = [I; P_F]``).
    P_F: CSRMatrix | None = None
    #: Kept restriction ``R = P^T`` (``keep_transpose`` optimization).
    R: CSRMatrix | None = None
    smoother: HybridGSSmoother | None = None
    #: Permutation from the level's *incoming* ordering (the parent's coarse
    #: numbering, or the user ordering at level 0) to the stored ordering.
    new2old: np.ndarray | None = None
    #: When the *next* level was CF-permuted, the coarse block of ``P`` is a
    #: permutation matrix rather than the identity: ``P[i, cperm[i]] = 1``
    #: for coarse point *i* (``cperm = old2new`` of the child level).
    cperm: np.ndarray | None = None
    n_coarse: int = 0

    @property
    def n(self) -> int:
        return self.A.nrows

    def cycle_products(self, flags: OptimizationFlags):
        """``(operator, transposed)`` of every product a cycle performs on
        this level under *flags*: the residual and the arms
        :meth:`restrict` / :meth:`interpolate` pick (none on the coarsest
        level, which is solved, not cycled through)."""
        if self.P is None:
            return []
        if flags.cf_reorder and self.P_F is not None:
            return [(self.A, False), (self.P_F, True), (self.P_F, False)]
        if flags.keep_transpose and self.R is not None:
            return [(self.A, False), (self.R, False), (self.P, False)]
        return [(self.A, False), (self.P, True), (self.P, False)]

    # -- grid transfers (vectors or (n, k) blocks) -------------------------
    def restrict(self, r: np.ndarray, flags: OptimizationFlags) -> np.ndarray:
        """``r_coarse = R r`` with the configured restriction strategy."""
        if flags.cf_reorder and self.P_F is not None:
            return spmv_identity_block_transposed(self.P_F, r, self.cperm)
        if flags.keep_transpose and self.R is not None:
            return spmv(self.R, r, kernel="spmv.restrict")
        # Baseline: transpose P for every restriction (§3.2).
        return spmv_transposed(self.P, r, materialize=True)

    def interpolate(self, xc: np.ndarray, flags: OptimizationFlags) -> np.ndarray:
        """``x_fine = P x_coarse``."""
        if flags.cf_reorder and self.P_F is not None:
            return spmv_identity_block(self.P_F, xc, self.cperm)
        return spmv(self.P, xc, kernel="spmv.interp")

"""Two-stage extended+i interpolation for aggressive coarsening
(Yang [14], Table 4 ``2s-ei(444)``).

Aggressive coarsening runs PMIS twice (:func:`repro.amg.pmis.aggressive_pmis`),
leaving the final C points two strength-graph hops apart.  The long-range
operator is built as a product of two ordinary extended+i operators,
**truncated at every stage** (Table 4):

* stage 1: ``P1`` interpolates all points from the stage-1 C points, using
  extended+i on ``A`` with the stage-1 splitting;
* the intermediate operator ``A1 = P1^T A P1`` and its strength matrix are
  formed;
* stage 2: ``P2`` interpolates stage-1 C points from the final C points,
  using extended+i on ``A1``;
* the result is ``P = trunc(trunc(P1) * trunc(P2))``.

This reproduces the paper's cost trade-off (Fig. 7): interpolation
construction gets *more* expensive (two extended+i passes plus an extra
triple product), in exchange for lower operator complexity and fewer
iterations than multipass.
"""

from __future__ import annotations

import numpy as np

from ..sparse.csr import CSRMatrix
from ..sparse.spgemm import spgemm
from ..sparse.transpose import transpose
from ..sparse.triple_product import rap_fused
from .interp_extended import extended_i_interpolation
from .strength import strength_matrix
from .truncation import truncate_interpolation

__all__ = ["two_stage_extended_i"]


def two_stage_extended_i(
    A: CSRMatrix,
    S: CSRMatrix,
    cf_final: np.ndarray,
    cf_stage1: np.ndarray,
    *,
    theta: float = 0.25,
    max_row_sum: float = 1.0,
    trunc_fact: float = 0.1,
    max_elmts: int = 4,
    reordered: bool = True,
    fused_truncation: bool = True,
) -> CSRMatrix:
    """Two-stage extended+i operator ``P`` (``n x n_final_coarse``); all
    three truncations are charged as ``fused_truncation`` says."""
    cf_final = np.asarray(cf_final)
    cf_stage1 = np.asarray(cf_stage1)
    if np.any((cf_final > 0) & (cf_stage1 <= 0)):
        raise ValueError("final C points must be a subset of stage-1 C points")

    ei = dict(trunc_fact=trunc_fact, max_elmts=max_elmts,
              reordered=reordered, fused_truncation=fused_truncation)
    # Stage 1: interpolate everything from the stage-1 C points.
    P1 = extended_i_interpolation(A, S, cf_stage1, **ei)

    # Intermediate operator on the stage-1 coarse grid.
    R1 = transpose(P1, kernel="interp.2s_transpose")
    A1 = rap_fused(R1, A, P1)
    S1 = strength_matrix(A1, theta, max_row_sum)

    # Final C points expressed in stage-1 coarse numbering.
    c1 = np.flatnonzero(cf_stage1 > 0)
    cf2 = np.where(cf_final[c1] > 0, 1, -1).astype(np.int64)

    P2 = extended_i_interpolation(A1, S1, cf2, **ei)

    P = spgemm(P1, P2, kernel="interp.2s_product")
    return truncate_interpolation(P, trunc_fact, max_elmts,
                                  fused=fused_truncation)

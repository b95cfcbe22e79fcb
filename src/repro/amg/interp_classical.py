"""Classical (distance-one, modified) interpolation — the §2 comparator.

For an F point *i* with strong C neighbours ``C_i^s``::

    w_ij = -(1/a~_ii) * ( a_ij + sum_{k in F_i^s} a_ik * abar_kj / b_ik ),
    b_ik = sum_{l in C_i^s} abar_kl,
    a~_ii = a_ii + sum over weak neighbours of a_in,

with the same sign filter ``abar`` as extended+i.  Unlike extended+i, the
interpolation set is only ``C_i^s`` (distance one), so a strong F-F pair
without a common C neighbour leaves ``b_ik = 0`` — the classical breakdown
under PMIS coarsening that distance-two operators fix (§2).  Such ``k``
are lumped into the diagonal, degrading (not crashing) the operator; the
tests and the extension bench quantify the resulting convergence gap.

Structurally a strict simplification of
:mod:`repro.amg.interp_extended`: the distance-one :class:`ExtIPlan`,
built and refreshed through the same two bodies
(:func:`~repro.amg.interp_extended.plan_interpolation` /
:func:`~repro.amg.interp_extended.plan_numeric`).
"""

from __future__ import annotations

import numpy as np

from ..sparse.csr import CSRMatrix
from .interp_common import entries_in_pattern
from .interp_extended import ExtIPlan, _freeze_plan, plan_interpolation

__all__ = ["classical_interpolation"]


def _classical_symbolic(
    A: CSRMatrix, S: CSRMatrix, cf_marker: np.ndarray
) -> ExtIPlan:
    """Pattern-only half of classical interpolation: the distance-one case
    of :func:`repro.amg.interp_extended.extended_i_symbolic` (``Chat_i`` is
    just ``C_i^s``, no diagonal-return terms)."""
    n = A.nrows
    cf_marker = np.asarray(cf_marker)
    rid = A.row_ids()
    cols = A.indices
    offdiag = cols != rid
    f_row = cf_marker[rid] <= 0

    strong = entries_in_pattern(rid, cols, S)
    is_c_col = cf_marker[cols] > 0

    # Strong-C pattern per row: the (distance-one) interpolation set.
    sc = strong & is_c_col & f_row & offdiag
    Chat = CSRMatrix.from_coo((n, n), rid[sc], cols[sc], np.ones(int(sc.sum())))
    return _freeze_plan(
        A, cf_marker, Chat,
        pairs=strong & ~is_c_col & f_row & offdiag,
        direct=sc,
        weak=f_row & offdiag & ~strong,
        identity_rows=np.flatnonzero(cf_marker > 0),
        weak_first=True, kernel="interp.classical",
    )


def classical_interpolation(
    A: CSRMatrix,
    S: CSRMatrix,
    cf_marker: np.ndarray,
    *,
    trunc_fact: float = 0.0,
    max_elmts: int = 0,
    fused_truncation: bool = True,
    truncate: bool = False,
    return_plan: bool = False,
) -> CSRMatrix | tuple[CSRMatrix, ExtIPlan]:
    """Classical modified interpolation ``P`` (``n x n_coarse``).

    With ``return_plan`` the pair ``(P, plan)``, as
    :func:`repro.amg.interp_extended.extended_i_interpolation`.
    """
    plan = _classical_symbolic(A, S, cf_marker)
    P = plan_interpolation(
        plan, A, trunc_fact=trunc_fact, max_elmts=max_elmts,
        fused_truncation=fused_truncation, truncate=truncate,
    )
    return (P, plan) if return_plan else P

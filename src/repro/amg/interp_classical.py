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
:mod:`repro.amg.interp_extended` and implemented with the same vectorized
expansion machinery.
"""

from __future__ import annotations

import numpy as np

from ..perf.counters import IDX_BYTES, PTR_BYTES, VAL_BYTES, collect, count
from ..sparse.csr import CSRMatrix
from .interp_common import entries_in_pattern
from .interp_extended import ExtIPlan, _freeze_plan, _plan_weights, _same_pattern
from .truncation import truncate_interpolation

__all__ = ["classical_interpolation", "classical_numeric"]


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
        diag_return=False, weak_first=True,
    )


def classical_interpolation(
    A: CSRMatrix,
    S: CSRMatrix,
    cf_marker: np.ndarray,
    *,
    trunc_fact: float = 0.0,
    max_elmts: int = 0,
    truncate: bool = False,
    return_plan: bool = False,
) -> CSRMatrix | tuple[CSRMatrix, ExtIPlan]:
    """Classical modified interpolation ``P`` (``n x n_coarse``).

    With ``return_plan`` the pair ``(P, plan)``, as
    :func:`repro.amg.interp_extended.extended_i_interpolation`.
    """
    plan = _classical_symbolic(A, S, cf_marker)
    n = A.nrows
    P = _plan_weights(plan, A)
    count(
        "interp.classical",
        flops=4 * plan.expansion + 3 * A.nnz,
        bytes_read=A.nnz * (VAL_BYTES + IDX_BYTES) + (n + 1) * PTR_BYTES
        + plan.expansion * (VAL_BYTES + IDX_BYTES),
        bytes_written=P.nnz * (VAL_BYTES + IDX_BYTES) + (n + 1) * PTR_BYTES,
        branches=float(plan.expansion + A.nnz),
    )
    if truncate:
        P = truncate_interpolation(P, trunc_fact, max_elmts)
    return (P, plan) if return_plan else P


def classical_numeric(
    A: CSRMatrix,
    S: CSRMatrix,
    cf_marker: np.ndarray,
    pattern: CSRMatrix,
    *,
    trunc_fact: float = 0.0,
    max_elmts: int = 0,
    fused_truncation: bool = True,
    plan: ExtIPlan | None = None,
) -> CSRMatrix | None:
    """Numeric-only classical weight recomputation against a frozen pattern.

    Pattern-reuse counterpart of :func:`classical_interpolation` (plus its
    separate truncation pass), mirroring
    :func:`repro.amg.interp_extended.extended_i_numeric`: with the build's
    *plan* only the weights and the truncation are recomputed (without one
    the symbolic half is derived first, silently), the result's pattern is
    checked against *pattern*, and only the irreducible numeric work is
    charged (zero data-dependent branches).  Returns ``None`` on pattern
    drift — the caller must rebuild from scratch.
    """
    with collect():
        if plan is None:
            plan = _classical_symbolic(A, S, cf_marker)
        P = truncate_interpolation(
            _plan_weights(plan, A), trunc_fact, max_elmts, fused=fused_truncation
        )
    if not _same_pattern(P, pattern):
        return None
    n = A.nrows
    flops = 2 * plan.contrib + 3 * A.nnz + 2 * P.nnz
    count(
        "interp.classical.numeric_only",
        flops=flops,
        bytes_read=A.nnz * (VAL_BYTES + IDX_BYTES) + (n + 1) * PTR_BYTES
        + plan.expansion * VAL_BYTES + P.nnz * IDX_BYTES,
        bytes_written=P.nnz * VAL_BYTES,
        branches=0.0,
    )
    return P

"""Krylov solvers: FGMRES (the paper's multi-node outer solver), GMRES, CG.

``pcg_multi`` and ``fgmres_multi`` solve a block of right-hand sides in
lockstep — every kernel they call takes the whole ``(n, k)`` block (see
:mod:`repro.sparse.spmv`) — freezing each column as it converges or breaks,
so their results are one per column, each bit-identical to the single-RHS
solve of that column.
"""

from .bicgstab import bicgstab
from .cg import pcg, pcg_multi
from .gmres import KrylovResult, fgmres, fgmres_multi, gmres

__all__ = [
    "bicgstab",
    "pcg",
    "pcg_multi",
    "KrylovResult",
    "fgmres",
    "fgmres_multi",
    "gmres",
]

"""Krylov solvers: FGMRES (the paper's multi-node outer solver), GMRES, CG,
BiCGStab — one driver per algorithm over a vector space (:mod:`.space`).

``pcg_multi`` and ``fgmres_multi`` solve an ``(n, k)`` block in lockstep,
freezing each column as it converges or breaks; each column's result is
bit-identical to the single-RHS solve of that column.
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

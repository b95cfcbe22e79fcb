"""Full multigrid (FMG / nested iteration).

Instead of starting V-cycles from a zero guess on the finest grid, FMG
restricts the right-hand side to the coarsest level, solves there, and
interpolates upward, running one V-cycle per level on the way — producing
an O(n) initial guess that is already accurate to the level of a few
V-cycles.  A standard AMG-library feature (the natural companion of the
paper's V-cycle solve phase); mapped back to the caller's ordering, its
result is an ``x0`` for :meth:`repro.amg.solver.AMGSolver.solve`.
"""

from __future__ import annotations

import numpy as np

from ..perf.counters import phase
from ..sparse.blas1 import axpy
from ..sparse.spmv import residual
from .cycle import vcycle
from .setup import Hierarchy

__all__ = ["full_multigrid"]


def full_multigrid(h: Hierarchy, b: np.ndarray, *, vcycles_per_level: int = 1) -> np.ndarray:
    """One FMG pass for ``A_0 x = b``; returns the fine-level approximation.

    ``b`` and the result are in level 0's stored ordering (``Level.new2old``
    maps it from the caller's).
    """
    flags = h.config.flags

    # Restrict the right-hand side down the hierarchy.
    rhs = [np.asarray(b, dtype=np.float64)]
    for l in range(h.num_levels - 1):
        with phase("SpMV"):
            rhs.append(h.levels[l].restrict(rhs[-1], flags))

    # Coarsest solve.
    x = h.coarse_solver.solve(rhs[-1])

    # Interpolate upward, smoothing with V-cycles on each level.
    for l in range(h.num_levels - 2, -1, -1):
        lvl = h.levels[l]
        with phase("SpMV"):
            x = lvl.interpolate(x, flags)
        for _ in range(vcycles_per_level):
            with phase("SpMV"):
                r = residual(lvl.A, x, rhs[l])
            corr = vcycle(h, r, l)
            with phase("BLAS1"):
                axpy(1.0, corr, x)
    return x

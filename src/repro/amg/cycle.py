"""Multigrid cycles (§2).

The paper evaluates V-cycles (Table 3/4); W- and F-cycles are provided as
the standard extensions (§2 discusses K-cycles as the related-work
alternative for weak aggregation — W/F are their fixed-schedule cousins):

* V-cycle — one recursive visit per level;
* W-cycle — two recursive visits (``gamma = 2``);
* F-cycle — an F(1,1) schedule: a full cycle visits each coarse level with
  one W-like descent followed by V-cycle ascents.

Pre-smoothing at levels below the finest starts from a zero iterate,
enabling the §3.2 skip-the-upper-triangle optimization (``zero_guess``).

Every cycle takes a vector or an ``(n, k)`` block of right-hand sides.  On
a block each kernel along the way streams its matrix once for all *k*
columns — the multi-RHS amortization — and column *j* is bit-identical to
the cycle applied to column *j* alone.
"""

from __future__ import annotations

import numpy as np

from ..perf.counters import phase
from ..sparse.blas1 import axpy
from ..sparse.spmv import residual
from .setup import Hierarchy

__all__ = ["vcycle", "wcycle", "fcycle", "cycle"]


def _smooth_correct(h: Hierarchy, b: np.ndarray, level: int, recurse) -> np.ndarray:
    """Shared smoothing/correction skeleton around a recursion strategy."""
    flags = h.config.flags
    if level == h.num_levels - 1:
        return h.coarse_solver.solve(b)

    lvl = h.levels[level]
    x = np.zeros((lvl.n,) + b.shape[1:])

    with phase("GS"):
        lvl.smoother.presmooth(x, b, zero_guess=True)

    with phase("SpMV"):
        r = residual(lvl.A, x, b)
        rc = lvl.restrict(r, flags)

    xc = recurse(h, rc, level + 1)

    with phase("SpMV"):
        corr = lvl.interpolate(xc, flags)
    with phase("BLAS1"):
        axpy(1.0, corr, x)

    with phase("GS"):
        lvl.smoother.postsmooth(x, b)
    return x


def vcycle(h: Hierarchy, b: np.ndarray, level: int = 0) -> np.ndarray:
    """One V-cycle applied to *b* at *level* (zero initial guess)."""
    return _smooth_correct(h, b, level, vcycle)


def wcycle(h: Hierarchy, b: np.ndarray, level: int = 0) -> np.ndarray:
    """One W-cycle (``gamma = 2``): recurse twice per level."""

    def recurse(hh, bb, lv):
        if lv >= hh.num_levels - 1:
            return hh.coarse_solver.solve(bb)
        x1 = wcycle(hh, bb, lv)
        # Second visit solves the residual equation of the first.
        lvl = hh.levels[lv]
        with phase("SpMV"):
            r = residual(lvl.A, x1, bb)
        x2 = wcycle(hh, r, lv)
        with phase("BLAS1"):
            axpy(1.0, x2, x1)
        return x1

    return _smooth_correct(h, b, level, recurse)


def fcycle(h: Hierarchy, b: np.ndarray, level: int = 0) -> np.ndarray:
    """One F-cycle: descend like W once, then ascend with V-cycles."""

    def recurse(hh, bb, lv):
        if lv >= hh.num_levels - 1:
            return hh.coarse_solver.solve(bb)
        x1 = fcycle(hh, bb, lv)
        lvl = hh.levels[lv]
        with phase("SpMV"):
            r = residual(lvl.A, x1, bb)
        x2 = vcycle(hh, r, lv)
        with phase("BLAS1"):
            axpy(1.0, x2, x1)
        return x1

    return _smooth_correct(h, b, level, recurse)


_CYCLES = {"V": vcycle, "W": wcycle, "F": fcycle}


def cycle(h: Hierarchy, b: np.ndarray, kind: str = "V") -> np.ndarray:
    """Apply one cycle of the given kind ('V', 'W', or 'F')."""
    try:
        return _CYCLES[kind.upper()](h, b)
    except KeyError:
        raise ValueError(f"unknown cycle type {kind!r}; know {sorted(_CYCLES)}")


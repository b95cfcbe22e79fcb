"""Preconditioned conjugate gradients.

Another Krylov baseline (§1 cites CG's all-reduce-bound scaling); also used
in the examples to show AMG as a generic preconditioner for SPD systems.

:func:`pcg_solve` is the one PCG body, run over a vector space (see
:mod:`repro.krylov.space`): ``pcg`` and ``pcg_multi`` here and
:func:`repro.dist.krylov.dist_pcg` are wrappers that build a space.  Each
column is guarded: NaN/Inf residuals, divergence, and the CG breakdown
``p'Ap <= 0`` (non-positive curvature — the matrix or the preconditioner is
not SPD) stop it with the verdict recorded in its ``fault_events`` instead
of iterating on garbage, without poisoning its siblings.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from ..perf.counters import phase
from ..results import KrylovResult
from ..sparse.csr import CSRMatrix
from .space import Columns, NodeSpace, columnwise

__all__ = ["pcg", "pcg_multi", "pcg_solve"]


def pcg_solve(space, b, *, x0=None, tol: float, maxiter: int):
    """PCG over *space* for a vector *b* (one result) or a block (a list).

    ``r = b - A x0`` is formed only when a start *x0* is given; otherwise
    the solve starts from ``x = 0``, ``r = b``.
    """
    cols = Columns(space, b, tol, "iter {}")
    x = space.zeros(b) if x0 is None else x0.copy()
    it = 0
    try:
        r = b.copy() if x0 is None else space.residual(b, x)
        z = space.precondition(r)
        p = z.copy()
        with space.edge_phase("BLAS1"):
            rz = np.atleast_1d(space.dot(r, z))
            r0 = space.norm2(r)
        x, r, p, rz = cols.retire(cols.start(r0), x, r, p, rz)
        for it in range(1, maxiter + 1):
            if not cols.running:
                break
            Ap = space.matvec(p)
            with phase("BLAS1"):
                pAp = np.atleast_1d(space.dot(p, Ap))
            bad = (pAp <= 0.0) | ~np.isfinite(pAp)
            for i in np.flatnonzero(bad):
                cols.fail(i, "breakdown", f"p'Ap={pAp[i]:g} at iteration {it}",
                          "CG breakdown (non-positive curvature)")
            x, r, p, Ap, rz, pAp = cols.retire(bad, x, r, p, Ap, rz, pAp)
            if not cols.running:
                break
            alpha = rz / pAp
            with phase("BLAS1"):
                space.axpy(alpha, p, x)
                space.axpy(-alpha, Ap, r)
                rn = np.atleast_1d(space.norm2(r))
            done = np.array([cols.observe(i, it, v) for i, v in enumerate(rn)])
            x, r, p, rz = cols.retire(done, x, r, p, rz)
            if not cols.running:
                break
            z = space.precondition(r)
            with phase("BLAS1"):
                rz_new = np.atleast_1d(space.dot(r, z))
            with space.edge_phase("BLAS1"):
                p = space.waxpby(1.0, z, rz_new / rz, p)
            rz = rz_new
    except space.catches as exc:
        cols.abort(exc, it)
    return cols.results(x)


def pcg(
    A: CSRMatrix,
    b: np.ndarray,
    *,
    precondition: Callable[[np.ndarray], np.ndarray] | None = None,
    x0: np.ndarray | None = None,
    tol: float = 1e-7,
    maxiter: int | None = None,
) -> KrylovResult:
    """Preconditioned CG for SPD systems."""
    b = np.asarray(b, dtype=np.float64)
    x0 = np.zeros(len(b)) if x0 is None else np.asarray(x0, dtype=np.float64)
    return pcg_solve(NodeSpace(A, precondition), b, x0=x0, tol=tol,
                     maxiter=1000 if maxiter is None else maxiter)


def pcg_multi(
    A: CSRMatrix,
    B: np.ndarray,
    *,
    # (this keyword's name is pinned by the perf harness's
    # krylov.pcg_multi8_iter_s rung)
    precondition_multi: Callable[[np.ndarray], np.ndarray] | None = None,
    precondition: Callable[[np.ndarray], np.ndarray] | None = None,
    x0: np.ndarray | None = None,
    tol: float = 1e-7,
    maxiter: int | None = None,
) -> list[KrylovResult]:
    """Blocked PCG over an ``(n, k)`` block of right-hand sides.

    The *k* CG recurrences run in lockstep with per-column scalars
    (``alpha``, ``beta``), so every SpMV and preconditioner application is
    one blocked kernel.  A column that converges or breaks is frozen out of
    the block, making column *j*'s result — iterate bits, history, verdicts
    — that of ``pcg(A, B[:, j], ...)``.  ``precondition_multi`` takes an
    ``(n, k_active)`` block (e.g. ``AMGSolver.precondition``, which takes
    vectors and blocks alike); a single-vector ``precondition`` is applied
    column-wise instead.  A block without columns has no results.
    """
    B = np.asarray(B, dtype=np.float64)
    if B.ndim != 2:
        raise ValueError(f"expected a 2-D (n, k) block, got shape {B.shape}")
    if B.shape[1] == 0:
        return []
    M = precondition_multi if precondition_multi is not None \
        else columnwise(precondition)
    x0 = np.zeros(B.shape) if x0 is None else np.asarray(x0, dtype=np.float64)
    return pcg_solve(NodeSpace(A, M), B, x0=x0, tol=tol,
                     maxiter=1000 if maxiter is None else maxiter)

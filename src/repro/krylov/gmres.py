"""GMRES and Flexible GMRES (Saad [34]).

The multi-node evaluation (Table 4) wraps AMG as the preconditioner of
Flexible GMRES: FGMRES admits a preconditioner that varies between
iterations (an AMG V-cycle is nonlinear in finite precision), at the cost of
storing the preconditioned basis ``Z`` alongside the Krylov basis ``V``.

Right-preconditioned formulation with modified Gram–Schmidt; the Hessenberg
least-squares problem is solved with Givens rotations, so the residual norm
is available every iteration without forming the solution.
:func:`fgmres_solve` is the one FGMRES body, run over a vector space (see
:mod:`repro.krylov.space`): ``fgmres``, ``gmres``, ``fgmres_multi`` and
:func:`repro.dist.krylov.dist_fgmres` are wrappers that build a space.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from ..perf.counters import phase
from ..results import KrylovResult
from ..sparse.csr import CSRMatrix
from .space import Columns, NodeSpace, columnwise

__all__ = ["fgmres", "gmres", "fgmres_multi", "fgmres_solve", "KrylovResult"]


def _givens(H: np.ndarray, cs: np.ndarray, sn: np.ndarray, g: np.ndarray,
            j: int) -> np.ndarray:
    """Rotate column *j* of each Hessenberg system ``H[c]`` by the earlier
    rotations, extend them by one; returns the residual norms ``|g[:, j+1]|``."""
    for i in range(j):
        t = cs[:, i] * H[:, i, j] + sn[:, i] * H[:, i + 1, j]
        H[:, i + 1, j] = -sn[:, i] * H[:, i, j] + cs[:, i] * H[:, i + 1, j]
        H[:, i, j] = t
    denom = np.hypot(H[:, j, j], H[:, j + 1, j])
    nz = denom != 0.0
    cs[:, j], sn[:, j] = 1.0, 0.0
    cs[nz, j] = H[nz, j, j] / denom[nz]
    sn[nz, j] = H[nz, j + 1, j] / denom[nz]
    H[:, j, j] = cs[:, j] * H[:, j, j] + sn[:, j] * H[:, j + 1, j]
    H[:, j + 1, j] = 0.0
    g[:, j + 1] = -sn[:, j] * g[:, j]
    g[:, j] = cs[:, j] * g[:, j]
    return np.abs(g[:, j + 1])


def _back_substitute(H: np.ndarray, g: np.ndarray, n: int) -> np.ndarray:
    """Solve the leading ``n x n`` triangle of one column's (contiguous)
    Hessenberg system for the update coefficients."""
    y = np.zeros(n)
    for i in range(n - 1, -1, -1):
        y[i] = (g[i] - H[i, i + 1: n] @ y[i + 1: n]) / H[i, i]
    return y


def fgmres_solve(space, b, *, x0=None, tol: float, maxiter: int,
                 restart: int):
    """FGMRES over *space* for a vector *b* (one result) or a block (a list).

    Each column keeps its own Hessenberg system.  A column that stops
    mid-restart *coasts* — later Arnoldi steps never touch the triangular
    prefix its update is formed from — and leaves the block at the restart
    end.  A broken column skips its update: the poisoned Hessenberg would
    poison ``x``, so it keeps the previous restart's iterate.  ``r = b -
    A x0`` is formed only when a start *x0* is given.
    """
    cols = Columns(space, b, tol, "iteration {}")
    x = space.zeros(b) if x0 is None else x0.copy()
    total = 0
    try:
        r = b.copy() if x0 is None else space.residual(b, x)
        with space.edge_phase("BLAS1"):
            beta = np.atleast_1d(space.norm2(r))
        x, b, r, beta = cols.retire(cols.start(beta), x, b, r, beta)
        while total < maxiter and cols.running:
            m = min(restart, maxiter - total)
            k = beta.size
            V = [space.scaled(r, beta)]
            Z = []
            H = np.zeros((k, m + 1, m))
            cs, sn = np.zeros((k, m)), np.zeros((k, m))
            g = np.zeros((k, m + 1))
            g[:, 0] = beta
            steps = np.zeros(k, dtype=np.int64)
            stopped = np.zeros(k, dtype=bool)
            failed = np.zeros(k, dtype=bool)
            for j in range(m):
                Z.append(space.precondition(V[j]))
                w = space.matvec(Z[j])
                with phase("BLAS1"):
                    for i in range(j + 1):
                        h = space.dot(w, V[i])
                        H[:, i, j] = h
                        space.axpy(-h, V[i], w)
                    H[:, j + 1, j] = space.norm2(w)
                hn = H[:, j + 1, j]  # 0: the basis is exhausted, keep w as is
                V.append(space.scaled(w, np.where(hn != 0.0, hn, 1.0)))
                res = _givens(H, cs, sn, g, j)
                space.rotations(k)
                total += 1
                for i in np.flatnonzero(~stopped):
                    stopped[i] = cols.observe(i, total, res[i])
                    failed[i] = stopped[i] and cols.failed(i)
                    if not failed[i]:
                        steps[i] = j + 1
                if stopped.all():
                    break
            with phase("BLAS1"):
                for i in np.flatnonzero(~failed):
                    y = _back_substitute(H[i], g[i], steps[i])
                    xi = space.column(x, i)
                    for l, yl in enumerate(y):
                        space.axpy(yl, space.column(Z[l], i), xi)
            x, b, stopped = cols.retire(failed, x, b, stopped)
            if not cols.running:
                break
            r = space.residual(b, x)
            with space.edge_phase("BLAS1"):
                beta = np.atleast_1d(space.norm2(r))
            x, b, r, beta = cols.retire(stopped, x, b, r, beta)
    except space.catches as exc:
        cols.abort(exc, total)
    return cols.results(x)


def fgmres(
    A: CSRMatrix,
    b: np.ndarray,
    *,
    precondition: Callable[[np.ndarray], np.ndarray] | None = None,
    x0: np.ndarray | None = None,
    tol: float = 1e-7,
    maxiter: int | None = None,
    restart: int = 50,
) -> KrylovResult:
    """Flexible GMRES with a (possibly varying) right preconditioner."""
    b = np.asarray(b, dtype=np.float64)
    x0 = np.zeros(len(b)) if x0 is None else np.asarray(x0, dtype=np.float64)
    return fgmres_solve(NodeSpace(A, precondition), b, x0=x0, tol=tol,
                        maxiter=200 if maxiter is None else maxiter,
                        restart=restart)


def gmres(
    A: CSRMatrix,
    b: np.ndarray,
    *,
    x0: np.ndarray | None = None,
    tol: float = 1e-7,
    maxiter: int | None = None,
    restart: int = 50,
) -> KrylovResult:
    """Plain (unpreconditioned) restarted GMRES — the Krylov baseline whose
    iteration growth with problem size motivates AMG (§1)."""
    return fgmres(A, b, x0=x0, tol=tol, maxiter=maxiter,
                  restart=restart)


def fgmres_multi(
    A: CSRMatrix,
    B: np.ndarray,
    *,
    precondition_multi: Callable[[np.ndarray], np.ndarray] | None = None,
    precondition: Callable[[np.ndarray], np.ndarray] | None = None,
    tol: float = 1e-7,
    maxiter: int | None = None,
    restart: int = 50,
) -> list[KrylovResult]:
    """Flexible GMRES over an ``(n, k)`` block of right-hand sides.

    The *k* Krylov iterations run in lockstep so every SpMV, preconditioner
    application, and BLAS1 step is one blocked kernel (matrix streamed once
    per step, not *k* times).  Column *j*'s result — iterate bits, history,
    verdicts — is that of ``fgmres(A, B[:, j], ...)``: a column that
    converges or breaks mid-restart coasts, and leaves the block at the
    restart end (see :func:`fgmres_solve`).

    ``precondition_multi`` takes and returns an ``(n, k_active)`` block
    (e.g. ``AMGSolver.precondition``, which takes vectors and blocks
    alike); alternatively a single-vector ``precondition`` is applied
    column-wise.  A block without columns has no results.
    """
    B = np.asarray(B, dtype=np.float64)
    if B.ndim != 2:
        raise ValueError(f"expected a 2-D (n, k) block, got shape {B.shape}")
    if B.shape[1] == 0:
        return []
    M = precondition_multi if precondition_multi is not None \
        else columnwise(precondition)
    return fgmres_solve(NodeSpace(A, M), B, tol=tol,
                        maxiter=200 if maxiter is None else maxiter,
                        restart=restart)

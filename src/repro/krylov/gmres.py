"""GMRES and Flexible GMRES (Saad [34]).

The multi-node evaluation (Table 4) wraps AMG as the preconditioner of
Flexible GMRES: FGMRES admits a preconditioner that varies between
iterations (an AMG V-cycle is nonlinear in finite precision), at the cost of
storing the preconditioned basis ``Z`` alongside the Krylov basis ``V``.

Right-preconditioned formulation with modified Gram–Schmidt; the Hessenberg
least-squares problem is solved with Givens rotations, so the residual norm
is available every iteration without forming the solution.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from ..faults.guards import ResidualGuard
from ..faults.plan import FaultEvent
from ..perf.counters import count, phase
from ..results import KrylovResult, resolve_maxiter
from ..sparse.blas1 import axpy, dot, norm2
from ..sparse.csr import CSRMatrix
from ..sparse.spmv import spmv

__all__ = ["fgmres", "gmres", "fgmres_multi", "KrylovResult"]


def _arnoldi_step(A: CSRMatrix, V: list[np.ndarray], H: np.ndarray, j: int,
                  w: np.ndarray) -> np.ndarray:
    """Modified Gram–Schmidt orthogonalization of ``w`` against ``V[:j+1]``."""
    with phase("BLAS1"):
        for i in range(j + 1):
            H[i, j] = dot(w, V[i])
            axpy(-H[i, j], V[i], w)
        H[j + 1, j] = norm2(w)
    return w


def _givens_update(H: np.ndarray, cs: np.ndarray, sn: np.ndarray,
                   g: np.ndarray, j: int) -> float:
    """Apply/extend the Givens rotations; returns the new residual norm."""
    for i in range(j):
        t = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
        H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
        H[i, j] = t
    denom = np.hypot(H[j, j], H[j + 1, j])
    if denom == 0.0:
        cs[j], sn[j] = 1.0, 0.0
    else:
        cs[j] = H[j, j] / denom
        sn[j] = H[j + 1, j] / denom
    H[j, j] = cs[j] * H[j, j] + sn[j] * H[j + 1, j]
    H[j + 1, j] = 0.0
    g[j + 1] = -sn[j] * g[j]
    g[j] = cs[j] * g[j]
    return abs(g[j + 1])


def fgmres(
    A: CSRMatrix,
    b: np.ndarray,
    *,
    precondition: Callable[[np.ndarray], np.ndarray] | None = None,
    x0: np.ndarray | None = None,
    tol: float = 1e-7,
    maxiter: int | None = None,
    max_iter: int | None = None,
    restart: int = 50,
) -> KrylovResult:
    """Flexible GMRES with a (possibly varying) right preconditioner."""
    max_iter = resolve_maxiter(maxiter, max_iter, 200)
    b = np.asarray(b, dtype=np.float64)
    n = len(b)
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    M = precondition if precondition is not None else (lambda v: v)

    with phase("SpMV"):
        r = b - spmv(A, x, kernel="spmv.krylov")
    with phase("BLAS1"):
        beta = norm2(r)
    r0 = beta
    residuals = [beta]
    if beta == 0.0:
        return KrylovResult(x, 0, residuals, True)
    if not np.isfinite(beta):
        return KrylovResult(x, 0, residuals, False, degraded=True,
                            degraded_reason="nonfinite initial residual",
                            fault_events=[FaultEvent(
                                "nonfinite", detail="initial residual")])
    guard = ResidualGuard(r0, stagnation=False)

    total_it = 0
    while total_it < max_iter:
        m = min(restart, max_iter - total_it)
        V = [r / beta]
        Z: list[np.ndarray] = []
        H = np.zeros((m + 1, m))
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        g[0] = beta
        j_done = 0
        converged = False
        for j in range(m):
            z = M(V[j])
            Z.append(z)
            with phase("SpMV"):
                w = spmv(A, z, kernel="spmv.krylov")
            w = _arnoldi_step(A, V, H, j, w)
            if H[j + 1, j] != 0.0:
                V.append(w / H[j + 1, j])
            else:
                V.append(w)
            res = _givens_update(H, cs, sn, g, j)
            count("krylov.givens", flops=20.0, phase="Solve_etc")
            residuals.append(res)
            total_it += 1
            verdict = guard.check(res)
            if verdict is not None:
                # A poisoned Hessenberg would poison x through the
                # triangular solve; keep the previous restart's iterate.
                return KrylovResult(
                    x, total_it, residuals, False, degraded=True,
                    degraded_reason=f"{verdict} at iteration {total_it}",
                    fault_events=[FaultEvent(
                        verdict, detail=f"iteration {total_it}")])
            j_done = j + 1
            if res <= tol * r0:
                converged = True
                break
        # Solve the small triangular system and update x from Z.
        y = np.zeros(j_done)
        for i in range(j_done - 1, -1, -1):
            y[i] = (g[i] - H[i, i + 1: j_done] @ y[i + 1: j_done]) / H[i, i]
        with phase("BLAS1"):
            for i in range(j_done):
                axpy(y[i], Z[i], x)
        if converged or total_it >= max_iter:
            with phase("SpMV"):
                r = b - spmv(A, x, kernel="spmv.krylov")
            with phase("BLAS1"):
                beta = norm2(r)
            return KrylovResult(x, total_it, residuals, converged)
        with phase("SpMV"):
            r = b - spmv(A, x, kernel="spmv.krylov")
        with phase("BLAS1"):
            beta = norm2(r)
    return KrylovResult(x, total_it, residuals, False)


def gmres(
    A: CSRMatrix,
    b: np.ndarray,
    *,
    x0: np.ndarray | None = None,
    tol: float = 1e-7,
    maxiter: int | None = None,
    max_iter: int | None = None,
    restart: int = 50,
) -> KrylovResult:
    """Plain (unpreconditioned) restarted GMRES — the Krylov baseline whose
    iteration growth with problem size motivates AMG (§1)."""
    return fgmres(
        A, b, precondition=None, x0=x0, tol=tol,
        max_iter=resolve_maxiter(maxiter, max_iter, 200), restart=restart
    )


# ---------------------------------------------------------------------------
# Blocked FGMRES (multiple right-hand sides)
# ---------------------------------------------------------------------------

def _resolve_multi_precondition(precondition_multi, precondition):
    """Build a block preconditioner from whichever callable was given."""
    if precondition_multi is not None:
        return precondition_multi
    if precondition is not None:
        def columnwise(Vb: np.ndarray) -> np.ndarray:
            out = np.empty_like(Vb)
            for j in range(Vb.shape[1]):
                out[:, j] = precondition(Vb[:, j])
            return out

        return columnwise
    return lambda Vb: Vb


def fgmres_multi(
    A: CSRMatrix,
    B: np.ndarray,
    *,
    precondition_multi: Callable[[np.ndarray], np.ndarray] | None = None,
    precondition: Callable[[np.ndarray], np.ndarray] | None = None,
    tol: float = 1e-7,
    maxiter: int | None = None,
    max_iter: int | None = None,
    restart: int = 50,
) -> list[KrylovResult]:
    """Flexible GMRES over an ``(n, k)`` block of right-hand sides.

    The *k* Krylov iterations run in lockstep so every SpMV, preconditioner
    application, and BLAS1 step is one blocked kernel (matrix streamed once
    per step, not *k* times).  Each column keeps its own Hessenberg system;
    a column that converges mid-restart *coasts* — later Arnoldi steps never
    touch the triangular prefix its solution is formed from, so column *j*
    is bit-identical to ``fgmres(A, B[:, j], ...)``.  Converged columns are
    dropped from the block at restart boundaries.

    A column whose residual goes NaN/Inf is *frozen the same way* but
    flagged instead of converged: its solution update is skipped (the
    poisoned Hessenberg would poison ``x``), the verdict lands in its
    ``fault_events``, and — because every blocked kernel is column-wise —
    its siblings are unaffected.

    ``precondition_multi`` takes and returns an ``(n, k_active)`` block
    (e.g. ``AMGSolver.precondition``, which takes vectors and blocks
    alike); alternatively a single-vector ``precondition`` is applied
    column-wise.
    """
    max_iter = resolve_maxiter(maxiter, max_iter, 200)
    B = np.asarray(B, dtype=np.float64)
    if B.ndim != 2:
        raise ValueError(f"expected a 2-D (n, k) block, got shape {B.shape}")
    n, k = B.shape
    M = _resolve_multi_precondition(precondition_multi, precondition)

    X = np.zeros((n, k))
    R = B.copy()
    with phase("BLAS1"):
        beta = norm2(R)
    r0 = beta.copy()
    residuals: list[list[float]] = [[float(beta[c])] for c in range(k)]
    iterations = np.zeros(k, dtype=np.int64)
    converged = beta == 0.0
    failed = np.zeros(k, dtype=bool)
    col_events: list[list[FaultEvent]] = [[] for _ in range(k)]
    for c in np.flatnonzero(~np.isfinite(beta)):
        failed[c] = True
        col_events[c].append(FaultEvent("nonfinite",
                                        detail="initial residual"))
    active = np.flatnonzero(~converged & ~failed)

    total_it = 0
    while total_it < max_iter and len(active):
        m = min(restart, max_iter - total_it)
        ka = len(active)
        V = [R[:, active] / beta[active]]
        Z: list[np.ndarray] = []
        H = np.zeros((m + 1, m, ka))
        cs = np.zeros((m, ka))
        sn = np.zeros((m, ka))
        g = np.zeros((m + 1, ka))
        g[0] = beta[active]
        j_done = np.zeros(ka, dtype=np.int64)
        conv_local = np.zeros(ka, dtype=bool)
        fail_local = np.zeros(ka, dtype=bool)
        for j in range(m):
            Zj = M(V[j])
            Z.append(Zj)
            with phase("SpMV"):
                W = spmv(A, Zj, kernel="spmv.krylov")
            with phase("BLAS1"):
                for i in range(j + 1):
                    hij = dot(W, V[i])
                    H[i, j] = hij
                    axpy(-hij, V[i], W)
                h_last = norm2(W)
                H[j + 1, j] = h_last
            Vn = W.copy()
            nz = h_last != 0.0
            Vn[:, nz] /= h_last[nz]
            V.append(Vn)
            # Givens update, vectorized over columns (same FP ops per column
            # as the scalar _givens_update).
            for i in range(j):
                t = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
                H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
                H[i, j] = t
            denom = np.hypot(H[j, j], H[j + 1, j])
            csj = np.ones(ka)
            snj = np.zeros(ka)
            nzd = denom != 0.0
            csj[nzd] = H[j, j, nzd] / denom[nzd]
            snj[nzd] = H[j + 1, j, nzd] / denom[nzd]
            cs[j], sn[j] = csj, snj
            H[j, j] = csj * H[j, j] + snj * H[j + 1, j]
            H[j + 1, j] = 0.0
            g[j + 1] = -snj * g[j]
            g[j] = csj * g[j]
            count("krylov.givens", flops=20.0 * ka, phase="Solve_etc")
            res = np.abs(g[j + 1])
            total_it += 1
            for idx in range(ka):
                if conv_local[idx] or fail_local[idx]:
                    continue
                c = active[idx]
                residuals[c].append(float(res[idx]))
                iterations[c] += 1
                if not np.isfinite(res[idx]):
                    fail_local[idx] = True
                    failed[c] = True
                    col_events[c].append(FaultEvent(
                        "nonfinite", detail=f"iteration {int(iterations[c])}"))
                    continue
                j_done[idx] = j + 1
                if res[idx] <= tol * r0[c]:
                    conv_local[idx] = True
            if (conv_local | fail_local).all():
                break
        # Per-column triangular solve and solution update (same work as the
        # scalar restart boundary — the batched savings are in the loop above).
        # Failed columns are skipped: their Hessenberg prefix is poisoned, so
        # their x keeps the last healthy restart's value.
        with phase("BLAS1"):
            for idx in range(ka):
                if fail_local[idx]:
                    continue
                jd = int(j_done[idx])
                Hc, gc = H[:, :, idx], g[:, idx]
                y = np.zeros(jd)
                for i in range(jd - 1, -1, -1):
                    y[i] = (gc[i] - Hc[i, i + 1: jd] @ y[i + 1: jd]) / Hc[i, i]
                xc = X[:, active[idx]]
                for i in range(jd):
                    axpy(y[i], Z[i][:, idx], xc)
        with phase("SpMV"):
            Rnew = B[:, active] - spmv(A, X[:, active], kernel="spmv.krylov")
        R[:, active] = Rnew
        with phase("BLAS1"):
            beta[active] = norm2(Rnew)
        converged[active[conv_local]] = True
        active = active[~conv_local & ~fail_local]

    return [
        KrylovResult(X[:, c].copy(), int(iterations[c]), residuals[c],
                     bool(converged[c]), degraded=bool(failed[c]),
                     degraded_reason=(col_events[c][-1].kind
                                      if failed[c] and col_events[c] else None),
                     fault_events=list(col_events[c]))
        for c in range(k)
    ]

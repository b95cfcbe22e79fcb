"""Preconditioned conjugate gradients.

Another Krylov baseline (§1 cites CG's all-reduce-bound scaling); also used
in the examples to show AMG as a generic preconditioner for SPD systems.

Guardrails: both drivers detect NaN/Inf residuals, divergence, and the CG
breakdown ``p'Ap <= 0`` (non-positive curvature — the matrix or the
preconditioner is not SPD) and terminate with the verdict recorded in
``KrylovResult.fault_events`` instead of iterating on garbage.  In the
blocked driver each right-hand-side column is guarded independently: a
broken column is frozen out of the active block without poisoning its
siblings.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from ..faults.guards import ResidualGuard
from ..faults.plan import FaultEvent
from ..perf.counters import phase
from ..results import KrylovResult, resolve_maxiter
from ..sparse.blas1 import axpy, dot, norm2, waxpby
from ..sparse.csr import CSRMatrix
from ..sparse.spmv import spmv

__all__ = ["pcg", "pcg_multi"]


def pcg(
    A: CSRMatrix,
    b: np.ndarray,
    *,
    precondition: Callable[[np.ndarray], np.ndarray] | None = None,
    x0: np.ndarray | None = None,
    tol: float = 1e-7,
    maxiter: int | None = None,
    max_iter: int | None = None,
) -> KrylovResult:
    """Preconditioned CG for SPD systems."""
    max_iter = resolve_maxiter(maxiter, max_iter, 1000)
    b = np.asarray(b, dtype=np.float64)
    n = len(b)
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    M = precondition if precondition is not None else (lambda v: v.copy())

    with phase("SpMV"):
        r = b - spmv(A, x, kernel="spmv.krylov")
    z = M(r)
    p = z.copy()
    with phase("BLAS1"):
        rz = dot(r, z)
        r0 = norm2(r)
    residuals = [r0]
    if r0 == 0.0:
        return KrylovResult(x, 0, residuals, True)
    if not np.isfinite(r0):
        return KrylovResult(x, 0, residuals, False, degraded=True,
                            degraded_reason="nonfinite initial residual",
                            fault_events=[FaultEvent(
                                "nonfinite", detail="initial residual")])
    guard = ResidualGuard(r0, stagnation=False)

    for it in range(1, max_iter + 1):
        with phase("SpMV"):
            Ap = spmv(A, p, kernel="spmv.krylov")
        with phase("BLAS1"):
            pAp = dot(p, Ap)
            if pAp <= 0.0 or not np.isfinite(pAp):
                return KrylovResult(
                    x, it - 1, residuals, False, degraded=True,
                    degraded_reason="CG breakdown (non-positive curvature)",
                    fault_events=[FaultEvent(
                        "breakdown",
                        detail=f"p'Ap={pAp:g} at iteration {it}")])
            alpha = rz / pAp
            axpy(alpha, p, x)
            axpy(-alpha, Ap, r)
            rn = norm2(r)
        residuals.append(rn)
        if rn <= tol * r0:
            return KrylovResult(x, it, residuals, True)
        verdict = guard.check(rn)
        if verdict is not None:
            return KrylovResult(
                x, it, residuals, False, degraded=True,
                degraded_reason=f"{verdict} at iteration {it}",
                fault_events=[FaultEvent(verdict, detail=f"iter {it}")])
        z = M(r)
        with phase("BLAS1"):
            rz_new = dot(r, z)
            beta = rz_new / rz
            p = waxpby(1.0, z, beta, p)
        rz = rz_new
    return KrylovResult(x, max_iter, residuals, False)


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
    max_iter: int | None = None,
) -> list[KrylovResult]:
    """Blocked PCG over an ``(n, k)`` block of right-hand sides.

    The *k* CG recurrences run in lockstep with per-column scalars
    (``alpha``, ``beta``), so every SpMV and preconditioner application is
    one blocked kernel.  A column that converges is frozen (dropped from the
    active block), making column *j* bit-identical to
    ``pcg(A, B[:, j], ...)``.  A column that *breaks* — NaN/Inf residual,
    divergence, non-positive curvature — is likewise frozen and flagged
    (``converged=False``, the verdict in its ``fault_events``) without
    touching its siblings.  ``precondition_multi`` takes an
    ``(n, k_active)`` block (e.g. ``AMGSolver.precondition``, which takes
    vectors and blocks alike); a single-vector ``precondition`` is applied
    column-wise instead.  A block without columns has no results.
    """
    from ..faults.guards import DEFAULT_LIMITS
    from .gmres import _resolve_multi_precondition

    max_iter = resolve_maxiter(maxiter, max_iter, 1000)
    B = np.asarray(B, dtype=np.float64)
    if B.ndim != 2:
        raise ValueError(f"expected a 2-D (n, k) block, got shape {B.shape}")
    n, k = B.shape
    if k == 0:
        return []
    if precondition_multi is None and precondition is None:
        M = lambda Vb: Vb.copy()  # noqa: E731 — matches pcg's identity default
    else:
        M = _resolve_multi_precondition(precondition_multi, precondition)

    X = np.zeros((n, k)) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    with phase("SpMV"):
        R = B - spmv(A, X, kernel="spmv.krylov")
    Z = M(R)
    P = Z.copy()
    with phase("BLAS1"):
        rz = dot(R, Z)
        r0 = norm2(R)
    residuals: list[list[float]] = [[float(r0[c])] for c in range(k)]
    iterations = np.zeros(k, dtype=np.int64)
    converged = r0 == 0.0
    failed = np.zeros(k, dtype=bool)
    col_events: list[list[FaultEvent]] = [[] for _ in range(k)]
    for c in np.flatnonzero(~np.isfinite(r0)):
        failed[c] = True
        col_events[c].append(FaultEvent("nonfinite",
                                        detail="initial residual"))
    active = np.flatnonzero(~converged & ~failed)
    div_factor = DEFAULT_LIMITS.divergence_factor

    for it in range(1, max_iter + 1):
        if len(active) == 0:
            break
        Pa = P[:, active]
        with phase("SpMV"):
            APa = spmv(A, Pa, kernel="spmv.krylov")
        with phase("BLAS1"):
            curv = dot(Pa, APa)
        bad = np.flatnonzero((curv <= 0.0) | ~np.isfinite(curv))
        if len(bad):
            for idx in bad:
                c = active[idx]
                failed[c] = True
                col_events[c].append(FaultEvent(
                    "breakdown",
                    detail=f"p'Ap={curv[idx]:g} at iteration {it}"))
            keep = np.setdiff1d(np.arange(len(active)), bad)
            active = active[keep]
            if len(active) == 0:
                break
            Pa = Pa[:, keep]
            APa = APa[:, keep]
            curv = curv[keep]
        with phase("BLAS1"):
            alpha = rz[active] / curv
            Xa = X[:, active]
            axpy(alpha, Pa, Xa)
            X[:, active] = Xa
            Ra = R[:, active]
            axpy(-alpha, APa, Ra)
            R[:, active] = Ra
            rn = norm2(Ra)
        drop = []
        for idx, c in enumerate(active):
            residuals[c].append(float(rn[idx]))
            iterations[c] = it
            if rn[idx] <= tol * r0[c]:
                converged[c] = True
                drop.append(idx)
            elif not np.isfinite(rn[idx]):
                failed[c] = True
                col_events[c].append(FaultEvent(
                    "nonfinite", detail=f"iteration {it}"))
                drop.append(idx)
            elif rn[idx] > div_factor * r0[c]:
                failed[c] = True
                col_events[c].append(FaultEvent(
                    "diverged", detail=f"iteration {it}"))
                drop.append(idx)
        if drop:
            active = np.delete(active, drop)
        if len(active) == 0:
            break
        Za = M(R[:, active])
        Z[:, active] = Za
        with phase("BLAS1"):
            rz_new = dot(R[:, active], Za)
            beta = rz_new / rz[active]
            P[:, active] = waxpby(1.0, Za, beta, P[:, active])
        rz[active] = rz_new

    return [
        KrylovResult(X[:, c].copy(), int(iterations[c]), residuals[c],
                     bool(converged[c]), degraded=bool(failed[c]),
                     degraded_reason=(col_events[c][-1].kind
                                      if failed[c] and col_events[c] else None),
                     fault_events=list(col_events[c]))
        for c in range(k)
    ]

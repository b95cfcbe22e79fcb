"""BiCGStab — the nonsymmetric Krylov workhorse.

Completes the solver family for the nonsymmetric suite members
(``atmosmod*``): unlike CG it tolerates nonsymmetry, unlike GMRES it has
constant memory.  Supports right preconditioning with an AMG V-cycle.

Guarded like the other drivers (see :mod:`repro.krylov.space`): NaN/Inf or
exploding residuals stop the iteration with the verdict in
``fault_events``, and a breakdown (``rho``, ``r0hat'v`` or ``t't`` zero,
or a zero ``omega``) is recorded as a ``"breakdown"`` event.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from ..perf.counters import phase
from ..results import KrylovResult
from ..sparse.csr import CSRMatrix
from .space import Columns, NodeSpace

__all__ = ["bicgstab", "bicgstab_solve"]


def bicgstab_solve(space, b, *, x0, tol: float, maxiter: int):
    """Right-preconditioned BiCGStab over *space* from the start *x0*, for
    one right-hand side (a vector)."""
    if space.width(b):
        raise ValueError("BiCGStab takes one right-hand side (a vector)")
    cols = Columns(space, b, tol, "iteration {}")
    x = x0.copy()
    r = space.residual(b, x)
    with phase("BLAS1"):
        r0hat = r.copy()
        nrm0 = space.norm2(r)
    if cols.start(nrm0)[0]:
        return cols.results(x)
    zero = None  # the quantity whose vanishing broke the recurrence
    for it in range(1, maxiter + 1):
        with phase("BLAS1"):
            rho_new = space.dot(r0hat, r)
        if rho_new == 0.0:
            zero = "rho"
            break
        if it == 1:
            p = r.copy()
        else:
            beta = (rho_new / rho) * (alpha / omega)
            with phase("BLAS1"):
                p = r + beta * (p - omega * v)
        phat = space.precondition(p)
        v = space.matvec(phat)
        with phase("BLAS1"):
            denom = space.dot(r0hat, v)
        if denom == 0.0:
            zero = "r0hat'v"
            break
        alpha = rho_new / denom
        s = r - alpha * v
        with phase("BLAS1"):
            s_nrm = space.norm2(s)
        if s_nrm <= tol * nrm0:
            with phase("BLAS1"):
                space.axpy(alpha, phat, x)
            cols.observe(0, it, s_nrm)
            break
        shat = space.precondition(s)
        t = space.matvec(shat)
        with phase("BLAS1"):
            tt = space.dot(t, t)
        if tt == 0.0:
            zero = "t't"
            break
        with phase("BLAS1"):
            omega = space.dot(t, s) / tt
            space.axpy(alpha, phat, x)
            space.axpy(omega, shat, x)
        r = s - omega * t
        with phase("BLAS1"):
            nrm = space.norm2(r)
        rho = rho_new
        if cols.observe(0, it, nrm):
            break
        if omega == 0.0:
            zero = "omega"
            break
    if zero is not None:
        cols.fail(0, "breakdown", f"{zero}=0 at iteration {it}",
                  f"BiCGStab breakdown ({zero}=0)")
    return cols.results(x)


def bicgstab(
    A: CSRMatrix,
    b: np.ndarray,
    *,
    precondition: Callable[[np.ndarray], np.ndarray] | None = None,
    x0: np.ndarray | None = None,
    tol: float = 1e-7,
    maxiter: int | None = None,
) -> KrylovResult:
    """Right-preconditioned BiCGStab."""
    b = np.asarray(b, dtype=np.float64)
    x0 = np.zeros(len(b)) if x0 is None else np.asarray(x0, dtype=np.float64)
    return bicgstab_solve(NodeSpace(A, precondition), b, x0=x0, tol=tol,
                          maxiter=1000 if maxiter is None else maxiter)

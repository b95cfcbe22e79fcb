"""Top-level solver facade — the one-import entry point.

``repro.api`` hides the setup/solve split, the config factories, and the
matrix type behind three calls::

    import repro

    result = repro.solve(A, b)                      # AMG, Table 3 defaults
    result = repro.solve(A, b, method="fgmres")     # AMG-preconditioned FGMRES

    opts = repro.SolveOptions(method="fgmres", tol=1e-9)
    result = repro.solve(A, b, options=opts)        # same knobs, one object

    handle = repro.setup(A)                         # pay for setup once
    r1 = handle.solve(b1)
    rs = handle.solve_many(B)                       # (n, k) block, batched

:class:`SolveOptions` is the consolidated spelling of the per-call solver
knobs (``method``, ``tol``, ``maxiter``, ``reuse``, ``check``, ``config``)
and the one place their defaults are defined; the individual keywords keep
working and fold into it, but mixing an ``options`` object with explicit
keywords raises ``ValueError`` (two sources of truth).

Inputs are flexible: ``A`` may be a :class:`repro.sparse.CSRMatrix`, a
``scipy.sparse`` matrix, or a dense 2-D array.  Repeated ``solve`` calls on
the same matrix and config reuse the AMG hierarchy through
:data:`repro.amg.cache.DEFAULT_CACHE`, so only the first call pays the
setup phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import util as _importlib_util

import numpy as np

from .amg.cache import DEFAULT_CACHE, HierarchyCache
from .amg.cache import fingerprint as _fingerprint_csr
from .amg.cache import pattern_fingerprint as _pattern_fingerprint_csr
from .amg.solver import AMGSolver
from .analysis import check_csr, check_scope, checking
from .config import AMGConfig, single_node_config
from .faults.plan import FaultEvent
from .krylov.cg import pcg, pcg_multi
from .krylov.gmres import fgmres, fgmres_multi
from .results import SolveResult
from .sparse.csr import CSRMatrix

__all__ = ["SolveOptions", "SolverHandle", "as_csr", "fingerprint",
           "pattern_fingerprint", "setup", "solve", "solve_many"]

_METHODS = ("amg", "fgmres", "cg")
_REUSE_MODES = ("auto", "pattern", "never")

#: Sentinel distinguishing "keyword not passed" from an explicit value
#: (``None`` is meaningful for ``maxiter``, ``check`` and ``config``).
_UNSET = object()


@dataclass(frozen=True)
class SolveOptions:
    """Every per-call solver knob in one frozen object.

    This is the single place the facade's defaults are defined;
    :func:`solve`, :func:`solve_many`, :func:`setup` and
    :meth:`SolverHandle.update` all accept ``options=SolveOptions(...)``,
    and their individual keywords fold into one.  Passing both an
    ``options`` object and an explicit keyword raises ``ValueError``.

    Fields
    ------
    method:
        ``"amg"`` (standalone V-cycles, the Table 3 solver), ``"fgmres"``
        or ``"cg"`` (AMG-preconditioned Krylov).
    tol:
        Relative residual stopping tolerance.
    maxiter:
        Iteration cap; ``None`` uses each solver's own default.
    reuse:
        Setup-reuse policy: ``"auto"`` (exact cache hit, else same-pattern
        numeric refresh, else cold build), ``"pattern"`` (force the refresh
        tier), ``"never"`` (always build from scratch).
    check:
        :mod:`repro.analysis` sanitizer level (``"off"``/``"cheap"``/
        ``"full"``); ``None`` inherits ``REPRO_CHECK``.
    config:
        The :class:`~repro.config.AMGConfig` shaping the hierarchy;
        ``None`` uses :func:`~repro.config.single_node_config`.
    """

    method: str = "amg"
    tol: float = 1e-7
    maxiter: int | None = None
    reuse: str = "auto"
    check: str | None = None
    config: AMGConfig | None = None

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise ValueError(
                f"unknown method {self.method!r}; choose from {_METHODS}")
        if self.reuse not in _REUSE_MODES:
            raise ValueError(
                f"reuse must be one of {_REUSE_MODES}, got {self.reuse!r}")


def _resolve_options(options: SolveOptions | None,
                     **explicit) -> SolveOptions:
    """Fold explicit per-call keywords and an options object into one.

    ``explicit`` values default to the ``_UNSET`` sentinel; passing any of
    them alongside an ``options`` object is an error — one call, one
    source of truth.
    """
    given = {k: v for k, v in explicit.items() if v is not _UNSET}
    if options is None:
        return SolveOptions(**given)
    if given:
        raise ValueError(
            f"pass a SolveOptions object or the keyword(s) "
            f"{sorted(given)}, not both")
    return options


def _have_scipy() -> bool:
    return _importlib_util.find_spec("scipy") is not None


def as_csr(A) -> CSRMatrix:
    """Coerce *A* to the library's :class:`CSRMatrix`.

    Accepts a ``CSRMatrix`` (returned as-is), any ``scipy.sparse`` matrix
    (via ``.tocsr()``), or a dense 2-D array-like.
    """
    if isinstance(A, CSRMatrix):
        return A
    if hasattr(A, "tocsr"):
        # scipy.sparse duck-typing: conversion happens through the object's
        # own .tocsr(), so it works with whatever scipy built it.
        try:
            return CSRMatrix.from_scipy(A)
        except Exception as exc:
            raise TypeError(
                f"failed to convert {type(A).__name__} through .tocsr(): {exc}"
            ) from exc
    try:
        arr = np.asarray(A, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise TypeError(_as_csr_error(A)) from exc
    if arr.ndim != 2:
        raise TypeError(_as_csr_error(A))
    return CSRMatrix.from_dense(arr)


def _as_csr_error(A) -> str:
    msg = (
        "A must be a repro.sparse.CSRMatrix, a scipy.sparse matrix, or a "
        f"dense 2-D array-like; got {type(A).__name__}"
    )
    if not _have_scipy():
        msg += " (note: scipy is not installed, so scipy.sparse inputs are unavailable)"
    return msg


def fingerprint(A, config: AMGConfig | None = None) -> str:
    """Stable identity of a (matrix, config) pair.

    This is the library's one keying function: the hierarchy cache keys
    entries with it and the solve service (:mod:`repro.serve`) coalesces
    requests sharing it into micro-batches.  *A* may be anything
    :func:`as_csr` accepts; with ``config=None`` the fingerprint covers the
    matrix alone.
    """
    return _fingerprint_csr(as_csr(A), config)


def pattern_fingerprint(A) -> str:
    """Stable identity of a matrix's sparsity pattern (values ignored).

    Two matrices share a pattern fingerprint iff they have the same shape,
    ``indptr`` and ``indices`` — the precondition for numeric resetup
    (:meth:`SolverHandle.update`).  This is the hierarchy cache's
    second-tier key: an exact-tier miss whose pattern fingerprint matches a
    cached entry triggers a numeric-only :meth:`Hierarchy.refresh
    <repro.amg.setup.Hierarchy.refresh>` (which derives a new hierarchy
    from the cached one) instead of a cold build.  *A* may be anything
    :func:`as_csr` accepts.
    """
    return _pattern_fingerprint_csr(as_csr(A))


def _as_rhs(b, n: int) -> np.ndarray:
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 1:
        raise ValueError(
            f"b must be a 1-D vector of length {n}, got shape {b.shape}; "
            "use solve_many() for an (n, k) block"
        )
    if len(b) != n:
        raise ValueError(f"b has length {len(b)}, expected {n}")
    if not np.isfinite(b).all():
        bad = int(np.count_nonzero(~np.isfinite(b)))
        raise ValueError(
            f"b contains {bad} non-finite (NaN/Inf) entr"
            f"{'y' if bad == 1 else 'ies'}; clean the right-hand side "
            "before solving"
        )
    return b


def _as_rhs_block(B, n: int) -> np.ndarray:
    B = np.asarray(B, dtype=np.float64)
    if B.ndim != 2:
        raise ValueError(
            f"B must be a 2-D (n, k) block with n={n}, got shape {B.shape}; "
            "use solve() for a single vector"
        )
    if B.shape[0] != n:
        raise ValueError(f"B has {B.shape[0]} rows, expected {n}")
    if not np.isfinite(B).all():
        bad_cols = np.flatnonzero(~np.isfinite(B).all(axis=0))
        raise ValueError(
            "B contains non-finite (NaN/Inf) entries in column"
            f"{'s' if len(bad_cols) != 1 else ''} {bad_cols.tolist()}; "
            "clean the right-hand sides before solving"
        )
    return B


def _validate_operator(A: CSRMatrix) -> CSRMatrix:
    """Reject operators the solvers cannot meaningfully run on."""
    if A.nrows == 0 or A.ncols == 0:
        raise ValueError(f"A is empty (shape {A.nrows}x{A.ncols}); "
                         "the system must have at least one unknown")
    if A.nrows != A.ncols:
        raise ValueError(f"A must be square, got shape {A.nrows}x{A.ncols}")
    if A.nnz and not np.isfinite(A.data).all():
        bad = int(np.count_nonzero(~np.isfinite(A.data)))
        raise ValueError(
            f"A contains {bad} non-finite (NaN/Inf) stored entr"
            f"{'y' if bad == 1 else 'ies'}; clean the operator before setup"
        )
    return A


class SolverHandle:
    """A matrix bound to a ready-to-use AMG hierarchy.

    Created by :func:`setup`; ``solve`` / ``solve_many`` reuse the hierarchy
    so only the first setup (per matrix and config) is charged.
    """

    def __init__(
        self,
        A,
        config: AMGConfig | None = None,
        *,
        cache: HierarchyCache | None = DEFAULT_CACHE,
        check: str | None = None,
        reuse: str = "auto",
    ) -> None:
        #: Check level (``"off"``/``"cheap"``/``"full"``) this handle runs
        #: its setup and solves under; ``None`` inherits the process level
        #: (``REPRO_CHECK`` / :func:`repro.analysis.set_check_level`).
        self.check = check
        if reuse not in _REUSE_MODES:
            raise ValueError(f"reuse must be one of {_REUSE_MODES}, got {reuse!r}")
        self._cache = cache
        self._reuse = reuse
        with check_scope(check):
            self.A = _validate_operator(as_csr(A))
            if checking():
                check_csr(self.A, name="A", context="api.setup")
            self.config = config if config is not None else single_node_config()
            self._solver = AMGSolver(self.config)
            self._solver.setup(self.A, cache=cache, reuse=reuse)

    def update(self, A_new, *, reuse: str | None = None,
               options: SolveOptions | None = None) -> "SolverHandle":
        """Rebind the handle to *A_new*, reusing setup work where possible.

        For an operator with the **same sparsity pattern** as a previous
        setup, the hierarchy is refreshed numerically (pattern-reuse
        resetup) instead of rebuilt — same per-level matrices, a fraction of
        the setup cost.  A different pattern, ``reuse="never"``, or a
        guard-detected symbolic drift falls back to a full setup.  The
        reuse policy may also be carried by a :class:`SolveOptions` object
        (but not both).  Returns ``self`` (updated in place) for chaining.
        """
        if options is not None:
            if reuse is not None:
                raise ValueError(
                    "pass a SolveOptions object or the keyword(s) "
                    "['reuse'], not both")
            reuse = options.reuse
        r = self._reuse if reuse is None else reuse
        if r not in _REUSE_MODES:
            raise ValueError(f"reuse must be one of {_REUSE_MODES}, got {r!r}")
        with check_scope(self.check):
            A_new = _validate_operator(as_csr(A_new))
            if checking():
                check_csr(A_new, name="A_new", context="api.update")
            self.A = A_new
            if self._cache is not None:
                self._solver.setup(A_new, cache=self._cache, reuse=r)
            elif r == "never" or self._solver.hierarchy is None:
                self._solver.setup(A_new, cache=None, reuse=r)
            else:
                self._solver.update(A_new)
        return self

    @property
    def hierarchy(self):
        return self._solver.hierarchy

    @property
    def amg(self) -> AMGSolver:
        """The underlying :class:`AMGSolver` (e.g. for ``precondition``)."""
        return self._solver

    # -- graceful-degradation ladder ------------------------------------------
    def _diag_precondition(self):
        d = self.A.diagonal().copy()
        d[d == 0.0] = 1.0
        return lambda r: r / d

    def _fallback(self, b, primary: SolveResult, *, tol: float,
                  maxiter: int | None) -> SolveResult:
        """Last rung of the degradation ladder: diagonal-preconditioned CG.

        Called when the AMG(-preconditioned) solve broke (divergence,
        non-positive curvature, stagnation).  The fallback drops the AMG
        preconditioner entirely — a broken hierarchy can't hurt it — and the
        returned result stays flagged ``degraded`` with the full event trail
        (primary verdicts, the downgrade marker, fallback events).
        """
        events = list(primary.fault_events)
        events.append(FaultEvent(
            "degraded_fallback",
            detail="retrying with diagonal-preconditioned CG"))
        fb = pcg(self.A, b, precondition=self._diag_precondition(),
                 tol=tol, maxiter=maxiter)
        events.extend(fb.fault_events)
        if not fb.converged:
            # Fallback did no better; report the primary result, but keep
            # the ladder's event trail so the attempt is visible.
            return SolveResult(primary.x, primary.iterations,
                               primary.residuals, False, degraded=True,
                               degraded_reason=primary.degraded_reason,
                               fault_events=events)
        reason = ((primary.degraded_reason or "solver fault")
                  + "; recovered by diagonal-CG fallback")
        return SolveResult(fb.x, primary.iterations + fb.iterations,
                           fb.residuals, True, degraded=True,
                           degraded_reason=reason, fault_events=events)

    def solve(
        self,
        b,
        *,
        method: str = "amg",
        tol: float = 1e-7,
        maxiter: int | None = None,
        fallback: bool = True,
    ) -> SolveResult:
        """Solve ``A x = b`` with the chosen method (AMG-preconditioned).

        If the solve *breaks* (NaN/Inf, divergence, CG breakdown,
        stagnation) and ``fallback`` is on, the facade walks down the
        degradation ladder — one retry with plain diagonal-preconditioned
        CG — and flags the result ``degraded`` either way.
        """
        return self._solve(_as_rhs(b, self.A.nrows), method, tol, maxiter,
                           fallback)

    def solve_many(
        self,
        B,
        *,
        method: str = "amg",
        tol: float = 1e-7,
        maxiter: int | None = None,
        fallback: bool = True,
    ) -> list[SolveResult]:
        """Solve ``A X = B`` column-wise with the batched (multi-RHS) path.

        Broken columns are frozen by the blocked solvers without touching
        their siblings; with ``fallback`` on, each broken column is then
        retried individually through the degradation ladder, exactly as
        :meth:`solve` retries it.  A block without columns yields no
        results, whatever the method.
        """
        return self._solve(_as_rhs_block(B, self.A.nrows), method, tol,
                           maxiter, fallback)

    def _solve(self, B, method: str, tol: float, maxiter: int | None,
               fallback: bool):
        """*method* on a vector *B* (one result) or an ``(n, k)`` block (a
        list), then the fallback ladder for each broken column."""
        vector = B.ndim == 1
        amg, M = self._solver, self._solver.precondition
        kw = {"tol": tol, "maxiter": maxiter}
        with check_scope(self.check):
            if method == "amg":
                results = (amg.solve if vector else amg.solve_many)(B, **kw)
            elif method in ("cg", "fgmres"):
                # Each width keeps its start: the vector FGMRES forms
                # ``b - A·0``, the block one starts from ``r = B``, and the
                # modeled record streams pin the SpMV this saves.
                one, many = (pcg, pcg_multi) if method == "cg" \
                    else (fgmres, fgmres_multi)
                results = one(self.A, B, precondition=M, **kw) if vector \
                    else many(self.A, B, precondition_multi=M, **kw)
            else:
                raise ValueError(
                    f"unknown method {method!r}; choose from {_METHODS}")
            if fallback:
                columns = B.reshape(len(B), -1)
                results = [self._fallback(columns[:, j], r, **kw)
                           if r.degraded and not r.converged else r
                           for j, r in enumerate([results] if vector
                                                 else results)]
                results = results[0] if vector else results
        return results


def setup(
    A,
    config: AMGConfig | None = None,
    *,
    options: SolveOptions | None = None,
    cache: HierarchyCache | None = DEFAULT_CACHE,
    check: str | None = _UNSET,
    reuse: str = _UNSET,
) -> SolverHandle:
    """Build (or fetch from *cache*) the AMG hierarchy for *A*.

    Pass ``cache=None`` to force a fresh, uncached setup.  The hierarchy-
    shaping knobs — ``config``, ``check`` (the :mod:`repro.analysis`
    sanitizer level) and ``reuse`` (the setup-reuse policy) — may be given
    individually or carried by a :class:`SolveOptions` object, whose
    docstring defines them; mixing both spellings raises ``ValueError``.
    """
    opts = _resolve_options(
        options, config=_UNSET if config is None else config,
        check=check, reuse=reuse)
    return SolverHandle(A, opts.config, cache=cache, check=opts.check,
                        reuse=opts.reuse)


def solve(
    A,
    b,
    *,
    options: SolveOptions | None = None,
    method: str = _UNSET,
    config: AMGConfig | None = _UNSET,
    tol: float = _UNSET,
    maxiter: int | None = _UNSET,
    cache: HierarchyCache | None = DEFAULT_CACHE,
    check: str | None = _UNSET,
    reuse: str = _UNSET,
) -> SolveResult:
    """One-call solve of ``A x = b``.

    All per-call knobs (``method``, ``tol``, ``maxiter``, ``reuse``,
    ``check``, ``config`` — see :class:`SolveOptions` for their meaning
    and defaults) may be given individually or as one
    ``options=SolveOptions(...)`` object; mixing both raises
    ``ValueError``.  Repeated calls with the same matrix and config hit
    the hierarchy cache and skip the setup phase entirely; calls with a
    *same-pattern* matrix refresh the cached hierarchy numerically instead
    of rebuilding (``reuse="auto"``, see :func:`setup`).
    """
    opts = _resolve_options(options, method=method, config=config, tol=tol,
                            maxiter=maxiter, check=check, reuse=reuse)
    return setup(A, options=opts, cache=cache).solve(
        b, method=opts.method, tol=opts.tol, maxiter=opts.maxiter)


def solve_many(
    A,
    B,
    *,
    options: SolveOptions | None = None,
    method: str = _UNSET,
    config: AMGConfig | None = _UNSET,
    tol: float = _UNSET,
    maxiter: int | None = _UNSET,
    cache: HierarchyCache | None = DEFAULT_CACHE,
    check: str | None = _UNSET,
    reuse: str = _UNSET,
) -> list[SolveResult]:
    """One-call batched solve of ``A X = B`` for an ``(n, k)`` block.

    Every cycle streams the hierarchy once for all *k* right-hand sides
    (the multi-RHS path); returns one result per column, each bit-identical
    to the corresponding single-RHS :func:`solve`.  Per-call knobs follow
    the same rules as :func:`solve`: individual keywords or one
    ``options=SolveOptions(...)`` object, never both.
    """
    opts = _resolve_options(options, method=method, config=config, tol=tol,
                            maxiter=maxiter, check=check, reuse=reuse)
    return setup(A, options=opts, cache=cache).solve_many(
        B, method=opts.method, tol=opts.tol, maxiter=opts.maxiter)

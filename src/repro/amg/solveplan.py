"""Compiled smoother sweeps: the solve phase's only execution path.

The solve phase runs the same kernels thousands of times over *frozen*
sparsity: every GS sweep follows the same wavefront schedule and records
traffic that is a pure function of the pattern.  This module holds each
sweep's arithmetic **and** its traffic formula, exactly once:

* **compiled GS sweeps** (:class:`CompiledSweep`): per wavefront level, the
  fused gather index into a ``[live x | sweep-start snapshot]`` workspace
  (classify each row's non-zeros once, then sweep branch-free — §3.2,
  Fig. 2b), local segment ids, and value/diagonal views — plus *zero-start*
  variants that skip the entries whose source value is identically zero
  during the first visit of a level (the executed arithmetic drops exactly
  the terms §3.2 already excludes from the *count*, so iterates are
  unchanged bit for bit);
* **multicolor / Chebyshev plans** (:class:`MulticolorPlan`,
  :class:`ChebyPlan`) with the per-color gathers frozen;
* **record tables**: each kernel invocation's traffic
  (:class:`repro.perf.counters.KernelRecord`) built once from the pattern
  and appended per invocation via ``count_record``.

Who compiles when: a :class:`~repro.amg.smoothers.HybridGSSmoother` compiles
its :class:`SmootherPlan` on its first sweep; :func:`attach_solve_plan`
(run at the end of ``build_hierarchy``) and ``DistSmoother.__init__`` (for
its one rank-stacked smoother) do it at setup so no solve pays for it;
``HybridGSSmoother.from_numeric`` (the ``Hierarchy.refresh`` path) regathers
values through ``with_values`` and shares every index array with the plan
it came from.  Compilation is pure
pattern arithmetic and emits no perf records.  :func:`attach_solve_plan`
also decides — and builds where admitted — the lockstep layouts
(:meth:`repro.sparse.csr.CSRMatrix.lockstep`) of the operators the
configured cycle multiplies by; the sweeps themselves stay on ``bincount``
(a wavefront level holds 100-300 rows, far below the layout's crossover).  The public kernel functions
(``gs_sweep``, ``multicolor_gs_sweep``, ``chebyshev_sweep`` and their
``_multi`` forms) are one-shot wrappers over the same classes.
"""

from __future__ import annotations

import numpy as np

from ..perf.counters import (
    IDX_BYTES,
    PTR_BYTES,
    VAL_BYTES,
    KernelRecord,
    count,
    count_batch,
    count_record,
    make_record,
)
from ..sparse.ops import gather_range_indices
from ..sparse.spmv import spmv_multi_traffic, spmv_traffic

__all__ = [
    "CompiledSweep",
    "sweep_record",
    "MulticolorPlan",
    "ChebyPlan",
    "SmootherPlan",
    "compile_smoother_plan",
    "attach_solve_plan",
]


# ---------------------------------------------------------------------------
# Compiled hybrid/lexicographic GS sweeps
# ---------------------------------------------------------------------------

class CompiledSweep:
    """One GS schedule compiled to per-wavefront-level execution steps.

    The sweep runs over a ``2n`` workspace ``[live x | sweep-start copy]``:
    entry sources are pre-resolved to ``col`` (in-block, live) or ``col + n``
    (external, snapshot), so each level is six vectorized calls with no
    per-sweep classification.  Reproduces the sequential in-block GS of
    :func:`repro.amg.smoothers.gs_sweep_reference` on structurally
    symmetric patterns.
    """

    def __init__(self, sched, n: int, *, optimized: bool, contiguous_rows: bool,
                 kernel: str, zero_keep: np.ndarray | None = None) -> None:
        self.sched = sched
        self.n = n
        self.rows = sched.rows
        self.m = sched.nrows
        self.kernel = kernel
        self.optimized = optimized
        self.contiguous_rows = contiguous_rows

        rp, ep = sched.level_row_ptr, sched.e_ptr
        nlev = sched.nlevels
        # Pattern-only, whole-schedule precomputation; per-level views.
        e_src = np.where(sched.e_local, sched.e_cols, sched.e_cols + n)
        r0_per_entry = np.repeat(rp[:-1], np.diff(ep))
        e_out_local = sched.e_out - r0_per_entry
        self._e_src = e_src
        self._e_out_local = e_out_local
        self.steps = []
        for lv in range(nlev):
            r0, r1 = int(rp[lv]), int(rp[lv + 1])
            s = slice(int(ep[lv]), int(ep[lv + 1]))
            self.steps.append((r0, r1, sched.rows[r0:r1], e_src[s],
                               sched.e_vals[s], e_out_local[s],
                               sched.diag[r0:r1], r1 - r0))

        # Zero-start variant: keep only entries whose source can be nonzero
        # when the swept rows start at zero (lower-local reads, already-
        # updated upper-local reads, and external reads of rows swept
        # earlier in the same smoothing pass).  Dropped terms are exact
        # ``a * 0.0`` products; partial bincount sums start at +0.0 and can
        # never be -0.0, so skipping them is bitwise-neutral.
        self.zsteps = None
        self._zidx = None
        if zero_keep is not None and np.isfinite(sched.e_vals).all():
            self._zidx = []
            self.zsteps = []
            for lv in range(nlev):
                r0, r1 = int(rp[lv]), int(rp[lv + 1])
                e0 = int(ep[lv])
                s = slice(e0, int(ep[lv + 1]))
                zi = e0 + np.flatnonzero(zero_keep[s])
                self._zidx.append(zi)
                self.zsteps.append((r0, r1, sched.rows[r0:r1], e_src[zi],
                                    sched.e_vals[zi], e_out_local[zi],
                                    sched.diag[r0:r1], r1 - r0))

        # Plan-table records (pattern-only; shared across refreshes).
        self._rec: dict[tuple[int, bool], KernelRecord] = {}
        self._flats: dict[tuple[int, bool], list[np.ndarray]] = {}

    # -- counting ---------------------------------------------------------
    def record(self, k: int, zero_guess: bool) -> KernelRecord:
        """The traffic of one width-*k* sweep (``k=0`` = single RHS), built
        once per (k, flag).

        Fig. 2(b) accounting when ``optimized`` (pre-partitioned rows, no
        per-non-zero branch); the Fig. 2(a) baseline adds one branch per
        non-zero.  ``zero_guess`` skips the upper/external reads and the
        ``temp_x`` copy (§3.2).  The matrix stream and the classification
        branches are charged once for all *k* columns; the gathered
        iterate, ``b`` and the written rows per column."""
        key = (k, zero_guess)
        rec = self._rec.get(key)
        if rec is None:
            rec = self._rec[key] = sweep_record(
                self.sched, k, zero_guess, kernel=self.kernel,
                optimized=self.optimized,
                contiguous_rows=self.contiguous_rows)
        return rec

    # -- execution --------------------------------------------------------
    def _flat(self, k: int, zero: bool) -> list[np.ndarray]:
        """Flattened ``(entry, column) -> segment`` bincount ids per level."""
        key = (k, zero)
        fc = self._flats.get(key)
        if fc is None:
            ar = np.arange(k, dtype=np.int64)
            steps = self.zsteps if zero else self.steps
            fc = [(st[5][:, None] * k + ar).ravel() for st in steps]
            self._flats[key] = fc
        return fc

    def run(self, x: np.ndarray, b: np.ndarray, *, zero: bool = False) -> np.ndarray:
        n = self.n
        steps = self.zsteps if (zero and self.zsteps is not None) else self.steps
        ws = np.empty(2 * n)
        ws[:n] = x
        ws[n:] = x
        bp = b[self.rows]
        for r0, r1, rows, e_src, ev, eo, dg, m in steps:
            src = ws[e_src]
            np.multiply(ev, src, out=src)
            acc = np.bincount(eo, weights=src, minlength=m)
            if acc.dtype != np.float64:  # bincount of an empty weights array
                acc = acc.astype(np.float64)
            np.subtract(bp[r0:r1], acc, out=acc)
            np.divide(acc, dg, out=acc)
            ws[rows] = acc
        x[self.rows] = ws[self.rows]
        return x

    def run_multi(self, X: np.ndarray, B: np.ndarray, *, zero: bool = False) -> np.ndarray:
        n = self.n
        k = X.shape[1]
        zero = zero and self.zsteps is not None
        steps = self.zsteps if zero else self.steps
        flats = self._flat(k, zero)
        ws = np.empty((2 * n, k))
        ws[:n] = X
        ws[n:] = X
        Bp = B[self.rows]
        for (r0, r1, rows, e_src, ev, eo, dg, m), fl in zip(steps, flats):
            src = ws[e_src]
            src *= ev[:, None]
            acc = np.bincount(fl, weights=src.ravel(), minlength=m * k)
            if acc.dtype != np.float64:
                acc = acc.astype(np.float64)
            acc = acc.reshape(m, k)
            np.subtract(Bp[r0:r1], acc, out=acc)
            acc /= dg[:, None]
            ws[rows] = acc
        X[self.rows] = ws[self.rows]
        return X

    # -- numeric refresh --------------------------------------------------
    def with_values(self, sched) -> "CompiledSweep":
        """A sweep over *sched* (same pattern, new values), reusing every
        index array, flat cache, and plan-table record of ``self``."""
        new = CompiledSweep.__new__(CompiledSweep)
        new.sched = sched
        new.n = self.n
        new.rows = sched.rows
        new.m = self.m
        new.kernel = self.kernel
        new.optimized = self.optimized
        new.contiguous_rows = self.contiguous_rows
        new._e_src = self._e_src
        new._e_out_local = self._e_out_local
        rp, ep = sched.level_row_ptr, sched.e_ptr
        new.steps = [
            (r0, r1, rows, e_src, sched.e_vals[int(ep[lv]):int(ep[lv + 1])],
             eo, sched.diag[r0:r1], m)
            for lv, (r0, r1, rows, e_src, _, eo, _, m) in enumerate(self.steps)
        ]
        new._zidx = self._zidx
        if self.zsteps is None:
            new.zsteps = None
        else:
            new.zsteps = [
                (r0, r1, rows, e_src, sched.e_vals[zi], eo, sched.diag[r0:r1], m)
                for zi, (r0, r1, rows, e_src, _, eo, _, m)
                in zip(self._zidx, self.zsteps)
            ]
        new._rec = self._rec
        new._flats = self._flats
        return new


def sweep_record(sched, k: int, zero_guess: bool, *, kernel: str,
                 optimized: bool, contiguous_rows: bool) -> KernelRecord:
    """The :meth:`CompiledSweep.record` of one sweep over *sched*, from the
    schedule alone (no compilation needed)."""
    nnz, m = sched.nnz, sched.nrows
    touched = int(sched.e_lower.sum()) + m if zero_guess else nnz
    kk = max(k, 1)
    bytes_read = (touched * (VAL_BYTES + IDX_BYTES) + (m + 1) * PTR_BYTES
                  + kk * touched * VAL_BYTES + kk * m * VAL_BYTES)
    bytes_written = kk * m * VAL_BYTES
    if not zero_guess:
        # temp_x copy of the sweep's input (Fig. 2 line 1).
        bytes_read += kk * m * VAL_BYTES
        bytes_written += kk * m * VAL_BYTES
    branches = 0.0 if optimized else float(nnz)
    if not contiguous_rows:
        # Baseline C-F smoothing scans all rows and tests "is i a
        # C/F point?" per row instead of iterating contiguous
        # ranges (§3.2).
        branches += float(m)
    return make_record(kernel, flops=(2 * touched + m) * kk,
                       bytes_read=bytes_read, bytes_written=bytes_written,
                       branches=branches, phase="GS")


def _zero_keep_mask(sched, n: int, prefix_rows: np.ndarray | None) -> np.ndarray:
    """Entries of *sched* whose source is potentially nonzero in a sweep
    whose own rows start at zero, given that only ``prefix_rows`` (rows of
    groups swept earlier in the same pass) hold nonzero values."""
    keep = sched.e_lower.copy()
    external = ~sched.e_local
    if prefix_rows is not None and len(prefix_rows):
        nonzero = np.zeros(n, dtype=bool)
        nonzero[prefix_rows] = True
        keep |= external & nonzero[sched.e_cols]
    upper_local = sched.e_local & ~sched.e_lower
    if upper_local.any():
        # Asymmetric patterns can schedule an upper-local neighbour into an
        # *earlier* wavefront level, in which case its live value is already
        # updated (nonzero) when read.
        lvl_of = np.full(n, -1, dtype=np.int64)
        pack_lvl = np.repeat(
            np.arange(sched.nlevels, dtype=np.int64),
            np.diff(sched.level_row_ptr),
        )
        lvl_of[sched.rows] = pack_lvl
        row_lvl = pack_lvl[sched.e_out]
        keep |= upper_local & (lvl_of[sched.e_cols] < row_lvl)
    return keep


# ---------------------------------------------------------------------------
# Multicolor / Chebyshev plans
# ---------------------------------------------------------------------------

class MulticolorPlan:
    """Per-color gathers of a multicolor-GS smoother, frozen at setup."""

    def __init__(self, A, color: np.ndarray, diag: np.ndarray) -> None:
        self.nnz = A.nnz
        self.nrows = A.nrows
        self.ncolors = int(color.max()) + 1
        self.colors = []
        self._entry_src = []
        for c in range(self.ncolors):
            rows = np.flatnonzero(color == c)
            counts = A.indptr[rows + 1] - A.indptr[rows]
            idx = gather_range_indices(A.indptr[rows], counts)
            lr = np.repeat(np.arange(len(rows), dtype=np.int64), counts)
            cols = A.indices[idx]
            sel = cols != rows[lr]
            src_idx = idx[sel]
            self._entry_src.append((rows, lr[sel], cols[sel], src_idx))
            self.colors.append((rows, lr[sel], cols[sel], A.data[src_idx],
                                diag[rows], len(rows)))
        self._rec: dict[int, KernelRecord] = {}
        self._flats: dict[tuple[int, int], np.ndarray] = {}

    def record(self, k: int) -> KernelRecord:
        """The ``gs.multicolor`` record of one sweep (``k=0`` = single RHS)."""
        rec = self._rec.get(k)
        if rec is None:
            kk = max(k, 1)
            # Matrix stream once for all columns; gathered x per column.
            rec = self._rec[k] = make_record(
                "gs.multicolor", flops=2 * self.nnz * kk,
                bytes_read=self.nnz * (VAL_BYTES + IDX_BYTES)
                + self.ncolors * self.nrows * PTR_BYTES
                + kk * self.nnz * VAL_BYTES,
                bytes_written=self.nrows * VAL_BYTES * kk, phase="GS")
        return rec

    def run(self, x, b, *, forward: bool) -> np.ndarray:
        order = range(self.ncolors) if forward else range(self.ncolors - 1, -1, -1)
        for c in order:
            rows, lr, cols, vals, dg, m = self.colors[c]
            src = x[cols]
            np.multiply(vals, src, out=src)
            acc = np.bincount(lr, weights=src, minlength=m)
            if acc.dtype != np.float64:
                acc = acc.astype(np.float64)
            np.subtract(b[rows], acc, out=acc)
            np.divide(acc, dg, out=acc)
            x[rows] = acc
        count_record(self.record(0))
        return x

    def run_multi(self, X, B, *, forward: bool) -> np.ndarray:
        k = X.shape[1]
        order = range(self.ncolors) if forward else range(self.ncolors - 1, -1, -1)
        ar = np.arange(k, dtype=np.int64)
        for c in order:
            rows, lr, cols, vals, dg, m = self.colors[c]
            fl = self._flats.get((c, k))
            if fl is None:
                fl = (lr[:, None] * k + ar).ravel()
                self._flats[(c, k)] = fl
            src = X[cols]
            src *= vals[:, None]
            acc = np.bincount(fl, weights=src.ravel(), minlength=m * k)
            if acc.dtype != np.float64:
                acc = acc.astype(np.float64)
            acc = acc.reshape(m, k)
            np.subtract(B[rows], acc, out=acc)
            acc /= dg[:, None]
            X[rows] = acc
        count_record(self.record(k))
        return X

    def with_values(self, A, diag: np.ndarray) -> "MulticolorPlan":
        """Same-pattern numeric refresh: regather values/diagonal only."""
        new = MulticolorPlan.__new__(MulticolorPlan)
        new.nnz = self.nnz
        new.nrows = self.nrows
        new.ncolors = self.ncolors
        new._entry_src = self._entry_src
        new.colors = [
            (rows, lr, cols, A.data[src_idx], diag[rows], len(rows))
            for rows, lr, cols, src_idx in self._entry_src
        ]
        new._rec = self._rec
        new._flats = self._flats
        return new


class ChebyPlan:
    """Chebyshev smoothing with the per-degree SpMV records bulk-recorded."""

    def __init__(self, A, diag: np.ndarray, lam_max: float, *,
                 degree: int = 3, lam_min_frac: float = 0.3) -> None:
        self.A = A
        self.diag = diag
        self.lam_max = lam_max
        self.degree = degree
        self.lam_min_frac = lam_min_frac

    def _params(self):
        theta = 0.5 * (1.0 + self.lam_min_frac) * self.lam_max
        delta = 0.5 * (1.0 - self.lam_min_frac) * self.lam_max
        return theta, delta, theta / delta

    def run(self, x, b) -> np.ndarray:
        A, diag = self.A, self.diag
        theta, delta, sigma = self._params()
        rho = 1.0 / sigma
        r = b - A._dot(x)
        d = (r / diag) / theta
        x += d
        for _ in range(self.degree - 1):
            r = b - A._dot(x)
            rho_new = 1.0 / (2.0 * sigma - rho)
            d = rho_new * rho * d + (2.0 * rho_new / delta) * (r / diag)
            x += d
            rho = rho_new
        br, bw = spmv_traffic(A.nrows, A.nnz)
        count_batch("gs.cheby_spmv", self.degree, flops=2 * A.nnz,
                    bytes_read=br, bytes_written=bw)
        count("gs.cheby_update", flops=6.0 * A.nrows * self.degree,
              bytes_read=3 * A.nrows * VAL_BYTES * self.degree,
              bytes_written=A.nrows * VAL_BYTES * self.degree)
        return x

    def run_multi(self, X, B) -> np.ndarray:
        A, diag = self.A, self.diag
        k = X.shape[1]
        theta, delta, sigma = self._params()
        rho = 1.0 / sigma
        dcol = diag[:, None]
        R = B - A._dot(X)
        D = (R / dcol) / theta
        X += D
        for _ in range(self.degree - 1):
            R = B - A._dot(X)
            rho_new = 1.0 / (2.0 * sigma - rho)
            D = rho_new * rho * D + (2.0 * rho_new / delta) * (R / dcol)
            X += D
            rho = rho_new
        br, bw = spmv_multi_traffic(A.nrows, A.nnz, k)
        count_batch("gs.cheby_spmv", self.degree, flops=2 * A.nnz * k,
                    bytes_read=br, bytes_written=bw)
        count("gs.cheby_update", flops=6.0 * A.nrows * self.degree * k,
              bytes_read=3 * A.nrows * VAL_BYTES * self.degree * k,
              bytes_written=A.nrows * VAL_BYTES * self.degree * k)
        return X


# ---------------------------------------------------------------------------
# Smoother plan (dispatch per variant)
# ---------------------------------------------------------------------------

class SmootherPlan:
    """Planned execution of one :class:`~repro.amg.smoothers.HybridGSSmoother`.

    Holds the compiled sweeps of each (group, direction) schedule plus the
    variant-specific plans; the smoother's four entry points delegate here.
    Jacobi-family variants have no plan (already single-call vectorized
    kernels) and never reach this object.
    """

    def __init__(self, smoother) -> None:
        self.variant = smoother.variant
        self.ngroups = len(getattr(smoother, "groups", []))
        self.sweeps: dict[tuple[int, bool], CompiledSweep | None] = {}
        self.mc: MulticolorPlan | None = None
        self.cheby: ChebyPlan | None = None
        A = smoother.A
        n = A.nrows
        if smoother.variant == "multicolor":
            self.mc = MulticolorPlan(A, smoother.color, smoother.diag)
            return
        if smoother.variant == "chebyshev":
            self.cheby = ChebyPlan(A, smoother.diag, smoother.lam_max)
            return
        for gi in range(len(smoother.groups)):
            prefix = (np.concatenate(smoother.groups[:gi])
                      if gi > 0 else None)
            for fwd in (True, False):
                sched = smoother._schedules[(f"g{gi}", fwd)]
                if sched.nrows == 0:
                    self.sweeps[(gi, fwd)] = None
                    continue
                # Zero-start execution only ever happens on the forward
                # (pre-smoothing) pass; compile its keep mask there.
                zk = _zero_keep_mask(sched, n, prefix) if fwd else None
                self.sweeps[(gi, fwd)] = CompiledSweep(
                    sched, n, optimized=smoother.optimized,
                    contiguous_rows=smoother.cf_contiguous,
                    kernel="gs.hybrid", zero_keep=zk)

    # -- group sweeps (hybrid / lex) --------------------------------------
    def sweep_groups(self, x, b, group_order, forward, zero_guess):
        # ``zero_guess`` is the caller's promise that the iterate is
        # identically zero at pass start: the first group's sweep is
        # *counted* with the §3.2 skip, and every group's *execution* may
        # drop the reads that are still zero.
        zero_exec = zero_guess and forward
        for gi in group_order:
            cs = self.sweeps[(gi, forward)]
            if cs is None:
                continue
            cs.run(x, b, zero=zero_exec)
            count_record(cs.record(0, zero_guess))
            zero_guess = False
        return x

    def sweep_groups_multi(self, X, B, group_order, forward, zero_guess):
        zero_exec = zero_guess and forward
        k = X.shape[1]
        for gi in group_order:
            cs = self.sweeps[(gi, forward)]
            if cs is None:
                continue
            cs.run_multi(X, B, zero=zero_exec)
            count_record(cs.record(k, zero_guess))
            zero_guess = False
        return X

    # -- smoother-facing entry points -------------------------------------
    def presmooth(self, x, b, *, zero_guess=False):
        if self.cheby is not None:
            return self.cheby.run(x, b)
        if self.mc is not None:
            return self.mc.run(x, b, forward=True)
        return self.sweep_groups(x, b, range(self.ngroups), True, zero_guess)

    def postsmooth(self, x, b):
        if self.cheby is not None:
            return self.cheby.run(x, b)
        if self.mc is not None:
            return self.mc.run(x, b, forward=False)
        return self.sweep_groups(x, b, range(self.ngroups - 1, -1, -1),
                                 False, False)

    def presmooth_multi(self, X, B, *, zero_guess=False):
        if self.cheby is not None:
            return self.cheby.run_multi(X, B)
        if self.mc is not None:
            return self.mc.run_multi(X, B, forward=True)
        return self.sweep_groups_multi(X, B, range(self.ngroups), True,
                                       zero_guess)

    def postsmooth_multi(self, X, B):
        if self.cheby is not None:
            return self.cheby.run_multi(X, B)
        if self.mc is not None:
            return self.mc.run_multi(X, B, forward=False)
        return self.sweep_groups_multi(X, B, range(self.ngroups - 1, -1, -1),
                                       False, False)

    # -- numeric refresh --------------------------------------------------
    def with_values(self, smoother) -> "SmootherPlan":
        """Plan for a same-pattern refreshed smoother, reusing all indices."""
        new = SmootherPlan.__new__(SmootherPlan)
        new.variant = self.variant
        new.ngroups = self.ngroups
        new.sweeps = {}
        new.mc = None
        new.cheby = None
        if self.mc is not None:
            new.mc = self.mc.with_values(smoother.A, smoother.diag)
            return new
        if self.cheby is not None:
            new.cheby = ChebyPlan(smoother.A, smoother.diag, smoother.lam_max)
            return new
        for key, cs in self.sweeps.items():
            gi, fwd = key
            new.sweeps[key] = (
                None if cs is None
                else cs.with_values(smoother._schedules[(f"g{gi}", fwd)])
            )
        return new


def compile_smoother_plan(smoother) -> None:
    """Compile *smoother*'s sweeps (idempotent; silent: emits no perf
    records).  Setup code calls this so no solve pays for it; a smoother
    nobody prewarmed calls it on its first sweep.

    Jacobi-family variants have no plan: their sweeps are already single
    vectorized kernels with one record each.
    """
    if smoother is None or smoother.variant in ("jacobi", "l1_jacobi"):
        return
    if smoother._plan is None:
        smoother._plan = SmootherPlan(smoother)


def attach_solve_plan(hierarchy) -> None:
    """Compile every smoother of *hierarchy* — the per-level ones and a
    swept (non-direct) coarsest solver's — and decide (building where the
    coverage rule admits) the lockstep layouts of the operators the
    configured cycle multiplies by, so no solve pays for either.

    Idempotent and silent; works on any assembled hierarchy, whoever
    constructed its smoothers.
    """
    flags = hierarchy.config.flags
    for lvl in hierarchy.levels:
        compile_smoother_plan(lvl.smoother)
        for M, transposed in lvl.cycle_products(flags):
            M.lockstep(transposed)
    compile_smoother_plan(hierarchy.coarse_solver.smoother)

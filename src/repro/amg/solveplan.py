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
(``gs_sweep``, ``multicolor_gs_sweep``, ``chebyshev_sweep``) are one-shot
wrappers over the same classes.

Every ``run`` / ``sweep_groups`` takes an iterate ``(n,)`` or an ``(n, k)``
block (*width* 0 or *k*): the block's columns ride along as the inner axis
of the same steps, and column *j* is bit-identical to the sweep of column
*j* alone.
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
from ..sparse.spmv import rhs_width, spmv_traffic

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

        # Plan-table records and block segment ids (pattern-only; shared
        # across refreshes), and the block steps built from them.
        self._rec: dict[tuple[int, bool], KernelRecord] = {}
        self._flats: dict[tuple[int, bool], list[np.ndarray]] = {}
        self._wide: dict[tuple[int, bool], list[tuple]] = {}

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
    def _steps(self, k: int, zero: bool) -> list[tuple]:
        """Per level ``(r0, r1, rows, e_src, vals, seg, diag, nseg)`` of a
        width-*k* sweep: for a block, values and diagonal shaped to scale
        rows and the segments flattened over ``(entry, column)``."""
        steps = self.zsteps if zero else self.steps
        if k == 0:
            return steps
        key = (k, zero)
        wide = self._wide.get(key)
        if wide is None:
            flats = self._flats.get(key)
            if flats is None:
                flats = self._flats[key] = [_widen(st[5], k) for st in steps]
            wide = self._wide[key] = [
                (r0, r1, rows, e_src, ev[:, None], fl, dg[:, None], m * k)
                for (r0, r1, rows, e_src, ev, _, dg, m), fl in zip(steps, flats)]
        return wide

    def run(self, x: np.ndarray, b: np.ndarray, *, zero: bool = False) -> np.ndarray:
        """One sweep over *x* (``(n,)`` or ``(n, k)``) in place."""
        n, k = self.n, rhs_width(x)
        steps = self._steps(k, zero and self.zsteps is not None)
        ws = np.empty((2 * n,) + x.shape[1:])
        ws[:n] = x
        ws[n:] = x
        bp = b[self.rows]
        for r0, r1, rows, e_src, ev, seg, dg, nseg in steps:
            ws[rows] = _relax(ws, e_src, ev, seg, nseg, bp[r0:r1], dg, k)
        x[self.rows] = ws[self.rows]
        return x

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
        new._wide = {}
        return new


def _widen(seg: np.ndarray, k: int) -> np.ndarray:
    """Segment ids of a width-*k* ``bincount``: entry *e* of column *j*
    sums into ``seg[e] * k + j``."""
    return (seg[:, None] * k + np.arange(k, dtype=np.int64)).ravel()


def _relax(x: np.ndarray, src: np.ndarray, vals, seg: np.ndarray, nseg: int,
           rhs: np.ndarray, diag, k: int) -> np.ndarray:
    """``(rhs - sum_e vals[e] * x[src[e]]) / diag`` per segment, in entry
    order — one wavefront level (or colour) of a GS sweep, on a vector or,
    for width *k*, a block (*seg* widened, *vals* / *diag* shaped to scale
    rows)."""
    t = x[src]
    np.multiply(vals, t, out=t)
    acc = np.bincount(seg, weights=t.ravel() if k else t, minlength=nseg)
    if acc.dtype != np.float64:  # bincount of an empty weights array
        acc = acc.astype(np.float64)
    if k:
        acc = acc.reshape(-1, k)
    np.subtract(rhs, acc, out=acc)
    np.divide(acc, diag, out=acc)
    return acc


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
        self._flats: dict[int, list[np.ndarray]] = {}
        self._wide: dict[int, list[tuple]] = {}

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

    def _colors(self, k: int) -> list[tuple]:
        """Per colour ``(rows, seg, cols, vals, diag, nseg)`` of a width-*k*
        sweep (see :meth:`CompiledSweep._steps`)."""
        if k == 0:
            return self.colors
        wide = self._wide.get(k)
        if wide is None:
            flats = self._flats.get(k)
            if flats is None:
                flats = self._flats[k] = [_widen(c[1], k) for c in self.colors]
            wide = self._wide[k] = [
                (rows, fl, cols, vals[:, None], dg[:, None], m * k)
                for (rows, _, cols, vals, dg, m), fl in zip(self.colors, flats)]
        return wide

    def run(self, x, b, *, forward: bool) -> np.ndarray:
        """One sweep over *x* (``(n,)`` or ``(n, k)``) in place."""
        k = rhs_width(x)
        colors = self._colors(k)
        order = range(self.ncolors) if forward else range(self.ncolors - 1, -1, -1)
        for c in order:
            rows, seg, cols, vals, dg, nseg = colors[c]
            x[rows] = _relax(x, cols, vals, seg, nseg, b[rows], dg, k)
        count_record(self.record(k))
        return x

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
        new._wide = {}
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
        """One smoothing step on *x* (``(n,)`` or ``(n, k)``) in place."""
        A = self.A
        k = rhs_width(x)
        diag = self.diag[:, None] if k else self.diag
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
        kk = max(k, 1)
        br, bw = spmv_traffic(A.nrows, A.nnz, k)
        count_batch("gs.cheby_spmv", self.degree, flops=2 * A.nnz * kk,
                    bytes_read=br, bytes_written=bw)
        count("gs.cheby_update", flops=6.0 * A.nrows * self.degree * kk,
              bytes_read=3 * A.nrows * VAL_BYTES * self.degree * kk,
              bytes_written=A.nrows * VAL_BYTES * self.degree * kk)
        return x


# ---------------------------------------------------------------------------
# Smoother plan (dispatch per variant)
# ---------------------------------------------------------------------------

class SmootherPlan:
    """Planned execution of one :class:`~repro.amg.smoothers.HybridGSSmoother`.

    Holds the compiled sweeps of each (group, direction) schedule plus the
    variant-specific plans; the smoother's two entry points delegate here.
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
        k = rhs_width(x)
        for gi in group_order:
            cs = self.sweeps[(gi, forward)]
            if cs is None:
                continue
            cs.run(x, b, zero=zero_exec)
            count_record(cs.record(k, zero_guess))
            zero_guess = False
        return x

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

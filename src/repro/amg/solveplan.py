"""Compiled smoother sweeps: the solve phase's only execution path.

The solve phase runs the same kernels thousands of times over *frozen*
sparsity: every GS sweep follows the same wavefront schedule and records
traffic that is a pure function of the pattern.  This module holds each
sweep's arithmetic **and** its traffic formula, exactly once:

* **compiled GS sweeps** (:class:`CompiledSweep`): each wavefront level is
  one padded ELL slab (:class:`~repro.sparse.slabs.Slabs`, the layout the
  SpMV family runs on too) over a schedule-ordered workspace
  ``[swept rows, packed | +0.0 | sweep-start x]``, built straight from the
  :class:`~repro.amg.smoothers.GSSchedule`, whose entries already carry
  their workspace source (each row's non-zeros are classified once, at
  set-up, then swept branch-free — §3.2, Fig. 2b), so a level is
  one gather, one multiply and one reduction written straight into its
  contiguous output rows — plus *zero-start* slabs that leave out the
  entries whose source value is identically zero during the first visit
  of a level (the executed arithmetic drops exactly the terms §3.2 already
  excludes from the *count*, so iterates are unchanged bit for bit);
* **multicolor / Chebyshev plans** (:class:`MulticolorPlan`,
  :class:`ChebyPlan`): the colours run through the same level kernel;
* **record tables**: each kernel invocation's traffic
  (:class:`repro.perf.counters.KernelRecord`) built once from the pattern
  and appended per invocation via ``count_record``.

Who compiles when: a :class:`~repro.amg.smoothers.HybridGSSmoother` compiles
its :class:`SmootherPlan` on its first sweep; :func:`attach_solve_plan`
(run at the end of ``build_hierarchy``) and ``DistSmoother.__init__`` (for
its one rank-stacked smoother) do it at setup so no solve pays for it.
A compiled sweep's value maps index the operator's ``A.data`` directly, so
compiling drops the smoother's wavefront schedules, and
``HybridGSSmoother.from_numeric`` (the ``Hierarchy.refresh`` path) rebinds
the sweeps straight from the new ``A.data`` through ``with_values``,
sharing every index array with the plan it came from.  Compilation is
pure pattern arithmetic and emits no perf records.  :func:`attach_solve_plan`
also builds the slab layouts (:meth:`repro.sparse.csr.CSRMatrix.layout`)
of the products the configured cycle performs: the same :class:`Slabs`
builder and the same reduction, over slices of rows instead of wavefront
levels.
The public kernel functions (``gs_sweep``, ``multicolor_gs_sweep``,
``chebyshev_sweep``) are one-shot wrappers over the same classes.

Every ``run`` / ``sweep_groups`` takes an iterate ``(n,)`` or an ``(n, k)``
block (*width* 0 or *k*): the block's columns ride along as the trailing
axis of the same slabs, and column *j* is bit-identical to the sweep of
column *j* alone.  The SpMV family leads with the columns instead; a
sweep does not, because its levels are many and small: a columns-first
workspace read 0.80-0.88x of this one at k = 2 on the benchmark's large
node operators, but 1.06-1.12x at k = 8 and 1.21-1.35x on a 576-row
operator (EXPERIMENTS.md "Blocked slab products lead with the block's
columns").
"""

from __future__ import annotations

import copy
from typing import NamedTuple

import numpy as np

from ..perf.counters import (
    IDX_BYTES,
    PTR_BYTES,
    VAL_BYTES,
    KernelRecord,
    active_log,
    count,
    count_batch,
    count_record,
    make_record,
)
from ..sparse.ops import gather_range_indices
from ..sparse.slabs import Slabs, slab_sum
from ..sparse.spmv import rhs_width, spmv_traffic

__all__ = [
    "CompiledSweep",
    "SweepCounts",
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

def _sweep_levels(x: np.ndarray, b: np.ndarray, rows: np.ndarray,
                  levels, snapshot: bool) -> np.ndarray:
    """Run *levels* in order over the workspace ``[x[rows] | +0.0 | x]``
    (the sweep-start copy of *x* only with *snapshot*) and write the rows
    back into *x* (a vector or an ``(n, k)`` block, in place).

    Level by level: gather the slab, multiply, sum each row's slots in
    order from ``+0.0`` — ``bincount``'s ``((0 + t0) + t1) + …``; a running
    sum from ``+0.0`` is never ``-0.0``, so the ``+0.0`` pads change
    nothing — straight into the level's rows, then ``(b - sum) / diag``.
    A block's columns are the workspace's trailing axis (see the module
    docstring for why not the leading one), and the level's values and
    diagonal take a unit axis to scale its rows.
    """
    m, block = len(rows), x.ndim == 2
    ws = np.empty((m + 1 + (len(x) if snapshot else 0),) + x.shape[1:])
    x.take(rows, axis=0, out=ws[:m])
    ws[m] = 0.0
    if snapshot:
        ws[m + 1:] = x
    bp = b.take(rows, axis=0)
    for r0, r1, src, vals, diag, one_row in levels:
        if block:
            vals, diag = vals[:, :, None], diag[:, None]
        out = ws[r0:r1]
        t = ws.take(src, axis=0)
        np.multiply(vals, t, out=t)
        slab_sum(t, out, one_row)
        np.subtract(bp[r0:r1], out, out=out)
        np.divide(out, diag, out=out)
    x[rows] = ws[:m]
    return x


class SweepCounts(NamedTuple):
    """What a sweep's traffic formula (:func:`sweep_record`) reads of its
    schedule: the swept rows' stored entries (diagonals included), the
    swept rows, and the entries a zero-start sweep still reads
    (``e_lower``)."""

    nnz: int
    nrows: int
    nlower: int

    @classmethod
    def of(cls, sched) -> "SweepCounts":
        return cls(sched.nnz, sched.nrows, int(sched.e_lower.sum()))


class CompiledSweep:
    """One GS schedule compiled to one padded slab per wavefront level.

    The sweep runs over the workspace ``[swept rows in packed order | +0.0 |
    sweep-start x]``: the schedule's ``e_src`` already resolves an in-block
    read to the column's packed row (live: already updated when its level
    came first) and an external read to the snapshot, so level *l* reads
    its slab and writes the contiguous rows ``level_row_ptr[l]:
    level_row_ptr[l + 1]`` with no per-sweep classification and no
    scatter.  Reproduces the sequential in-block GS of
    :func:`repro.amg.smoothers.gs_sweep_reference` on any pattern.

    The slabs' value maps (and the diagonal's) are the schedule's
    ``e_entry`` / ``diag_entry``, so a sweep binds straight from the
    operator's ``data`` (*data*, and the argument of :meth:`with_values`)
    and keeps nothing of the schedule but its :class:`SweepCounts`.
    *zero_keep* (:func:`_zero_keep_mask`) selects the entries of the
    zero-start slabs.
    """

    def __init__(self, sched, n: int, data: np.ndarray, *, optimized: bool,
                 contiguous_rows: bool, kernel: str,
                 zero_keep: np.ndarray | None = None) -> None:
        self.n = n
        self.rows = sched.rows
        self.m = sched.nrows
        self.kernel = kernel
        self.optimized = optimized
        self.contiguous_rows = contiguous_rows
        self.counts = SweepCounts.of(sched)

        def slabs(keep=slice(None)):
            return Slabs(sched.level_row_ptr, sched.e_row[keep], sched.e_src[keep],
                         sched.e_entry[keep], len(data), self.m)

        self.slabs = slabs()
        self.zslabs = None if zero_keep is None else slabs(np.flatnonzero(zero_keep))
        # A structurally missing diagonal reads the appended 0.0.
        self.diag_map = np.where(sched.diag_entry >= 0, sched.diag_entry,
                                 len(data)).astype(self.slabs.emap.dtype)
        # Plan-table records (pattern-only; shared across refreshes).
        self._rec: dict[tuple[int, bool], KernelRecord] = {}
        self._bind(data)

    def _bind(self, data: np.ndarray) -> None:
        """Attach the values *data* (the operator's ``data``): one ``take``
        per slab set and one for the diagonal.  The zero-start slabs are
        admitted only while every bound value is finite (``inf * 0.0`` is
        a NaN, not a term to drop) — decided here, from the values being
        bound."""
        vals = np.append(data, 0.0)
        v = vals.take(self.slabs.emap)
        diag = vals.take(self.diag_map)
        self.levels = self.slabs.split(v, diag)
        self.zlevels = None
        if self.zslabs is not None and np.isfinite(v).all():
            self.zlevels = self.zslabs.bind(vals, diag)

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
                self.counts, k, zero_guess, kernel=self.kernel,
                optimized=self.optimized,
                contiguous_rows=self.contiguous_rows)
        return rec

    # -- execution --------------------------------------------------------
    def run(self, x: np.ndarray, b: np.ndarray, *, zero: bool = False) -> np.ndarray:
        """One sweep over *x* (``(n,)`` or ``(n, k)``) in place; *zero* is
        the promise that the iterate was zero when the smoothing pass began
        (:meth:`SmootherPlan.sweep_groups`)."""
        levels = self.zlevels if zero and self.zlevels is not None else self.levels
        return _sweep_levels(x, b, self.rows, levels, snapshot=True)

    # -- numeric refresh --------------------------------------------------
    def with_values(self, data: np.ndarray) -> "CompiledSweep":
        """The sweep over *data* (a same-pattern operator's values), sharing
        every slab index array and plan-table record of ``self``."""
        new = copy.copy(self)
        new._bind(data)
        return new


def sweep_record(counts, k: int, zero_guess: bool, *, kernel: str,
                 optimized: bool, contiguous_rows: bool) -> KernelRecord:
    """The :meth:`CompiledSweep.record` of one sweep with :class:`SweepCounts`
    *counts* (no compilation needed)."""
    nnz, m, nlower = counts
    touched = nlower + m if zero_guess else nnz
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
    """Entries of *sched* whose source can be nonzero in a sweep whose own
    rows start at zero, given that only ``prefix_rows`` (rows of groups swept
    earlier in the same pass) hold nonzero values: the lower-local reads
    (already updated) and the external reads of a prefix row.

    Every other read is an in-block row not yet updated, or a zero row: the
    dropped terms are exact ``a * 0.0`` products for finite ``a``, and the
    row sums start at +0.0 and can never be -0.0, so skipping them is
    bitwise-neutral.
    """
    keep = sched.e_lower.copy()
    if prefix_rows is not None and len(prefix_rows):
        # Over the workspace: external sources sit at m + 1 + column.
        m = sched.nrows
        nonzero = np.zeros(m + 1 + n, dtype=bool)
        nonzero[m + 1 + prefix_rows] = True
        keep |= nonzero[sched.e_src]
    return keep


# ---------------------------------------------------------------------------
# Multicolor / Chebyshev plans
# ---------------------------------------------------------------------------

class MulticolorPlan:
    """A multicolor-GS smoother frozen at setup: its colours are the levels
    of one :class:`Slabs` over the workspace ``[x, colour by colour |
    +0.0]`` (every read is live) and run, forward or backward, through the
    GS sweeps' level kernel."""

    def __init__(self, A, color: np.ndarray, diag: np.ndarray) -> None:
        self.nnz = A.nnz
        self.nrows = n = A.nrows
        self.ncolors = int(color.max()) + 1
        self.rows = np.argsort(color, kind="stable")
        sizes = np.bincount(color, minlength=self.ncolors)
        row_ptr = np.concatenate(([0], np.cumsum(sizes[sizes > 0])))
        counts = A.indptr[self.rows + 1] - A.indptr[self.rows]
        idx = gather_range_indices(A.indptr[self.rows], counts)
        lr = np.repeat(np.arange(n), counts)
        cols = A.indices[idx]
        off = cols != self.rows[lr]
        packed = np.empty(n, dtype=np.intp)
        packed[self.rows] = np.arange(n)
        self.slabs = Slabs(row_ptr, lr[off], packed[cols[off]], idx[off], A.nnz, n)
        self.levels = self.slabs.bind(np.append(A.data, 0.0), diag[self.rows])
        self._rec: dict[int, KernelRecord] = {}

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
        """One sweep over *x* (``(n,)`` or ``(n, k)``) in place."""
        levels = self.levels if forward else self.levels[::-1]
        _sweep_levels(x, b, self.rows, levels, snapshot=False)
        count_record(self.record(rhs_width(x)))
        return x

    def with_values(self, A, diag: np.ndarray) -> "MulticolorPlan":
        """Same-pattern numeric refresh: regather values/diagonal only."""
        new = copy.copy(self)
        new.levels = self.slabs.bind(np.append(A.data, 0.0), diag[self.rows])
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
                sched = smoother._schedules[(gi, fwd)]
                if sched.nrows == 0:
                    self.sweeps[(gi, fwd)] = None
                    continue
                # Zero-start execution only ever happens on the forward
                # (pre-smoothing) pass; compile its keep mask there.
                zk = _zero_keep_mask(sched, n, prefix) if fwd else None
                self.sweeps[(gi, fwd)] = CompiledSweep(
                    sched, n, A.data, optimized=smoother.optimized,
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
            log = active_log()
            if log is not None:  # (a silenced sweep builds no record)
                log.add_record(cs.record(k, zero_guess))
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
            new.sweeps[key] = None if cs is None else cs.with_values(smoother.A.data)
        return new


def compile_smoother_plan(smoother) -> None:
    """Compile *smoother*'s sweeps (idempotent; silent: emits no perf
    records).  Setup code calls this so no solve pays for it; a smoother
    nobody prewarmed calls it on its first sweep.

    Jacobi-family variants have no plan: their sweeps are already single
    vectorized kernels with one record each.  A GS smoother drops its
    wavefront schedules once compiled.
    """
    if smoother is None or smoother.variant in ("jacobi", "l1_jacobi"):
        return
    if smoother._plan is None:
        smoother._plan = SmootherPlan(smoother)
        # No solve or refresh reads a schedule again: the sweeps bind
        # straight from A.data.
        smoother._schedules = None


def attach_solve_plan(hierarchy) -> None:
    """Compile every smoother of *hierarchy* — the per-level ones and a
    swept (non-direct) coarsest solver's — and build the slab layouts of
    the products the configured cycle performs, so no solve pays for
    either.

    Idempotent and silent; works on any assembled hierarchy, whoever
    constructed its smoothers.
    """
    flags = hierarchy.config.flags
    for lvl in hierarchy.levels:
        compile_smoother_plan(lvl.smoother)
        for M, transposed in lvl.cycle_products(flags):
            M.layout(transposed)
    compile_smoother_plan(hierarchy.coarse_solver.smoother)

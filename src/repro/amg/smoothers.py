"""Smoothers: hybrid Gauss–Seidel (Fig. 2), lexicographic wavefront GS,
multicolor GS, and Jacobi (§2, §3.2).

**Hybrid GS** is Gauss–Seidel within a thread's row block and Jacobi across
blocks: the output vector is copied to ``temp_x`` at sweep start, in-block
columns read the live ``x``, out-of-block columns read ``temp_x`` (write-
after-read dependency, Fig. 2).  The baseline (Fig. 2a) tests every column
``j in [is, ie)`` — one data-dependent branch per non-zero; the optimized
variant (Fig. 2b) pre-partitions each row (lower-local / upper-local /
external, ``extptr``) so the sweep is branch-free.  Both code paths produce
bit-identical iterates; only the counted work differs.

**Execution strategy** (the Python-vectorization substitute for the tight C
loop): the sequential dependence of GS inside a block follows only the
*lower-local* couplings, so rows are scheduled into **wavefront levels** —
rows in a level have no lower-local coupling to each other and are updated
with one vectorized step.  For structurally symmetric matrices this
reproduces the sequential in-block GS exactly (verified against a literal
per-row reference in the tests).  With one block covering all rows the same
machinery yields the **lexicographic GS** of [38] (point-to-point
synchronization = level scheduling), whose pre-processing cost (dependency
analysis) is what §5.2 charges against its better convergence.  This module
builds the schedules; the sweep arithmetic and its traffic formulas live in
:mod:`repro.amg.solveplan`, which compiles each schedule once per smoother.

**C-F smoothing** (§3.2): the C rows are swept first, then the F rows (and
vice versa in post-smoothing).  The optimized path iterates over the two
contiguous ranges of the CF-permuted matrix; the baseline pays a branch per
row.  With a zero initial guess the upper-triangle reads are skipped
(counted; the values are zero so the numerics are unchanged).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..perf.counters import IDX_BYTES, VAL_BYTES, count, count_record
from ..sparse.csr import CSRMatrix
from ..sparse.ops import gather_range_indices, segment_sum
from ..sparse.spmv import rhs_width, spmv
from ..sparse.transpose import balanced_nnz_partition
from .solveplan import ChebyPlan, CompiledSweep, MulticolorPlan, compile_smoother_plan

__all__ = [
    "GSSchedule",
    "build_gs_schedule",
    "merge_schedules",
    "gs_sweep",
    "gs_sweep_reference",
    "jacobi_sweep",
    "greedy_coloring",
    "multicolor_gs_sweep",
    "HybridGSSmoother",
    "block_of_rows",
]


# ---------------------------------------------------------------------------
# Wavefront schedule
# ---------------------------------------------------------------------------

@dataclass
class GSSchedule:
    """Wavefront schedule of one GS sweep over a row subset.

    ``rows`` lists the swept rows packed level by level
    (``level_row_ptr`` delimits levels).  ``e_*`` arrays hold the off-
    diagonal entries of those rows in the same packing (``e_ptr`` delimits
    levels): ``e_out`` is the entry's position within ``rows``, ``e_local``
    marks in-block (live ``x``) reads vs external (``temp_x``) reads.
    ``nlevels`` is the synchronization depth — the quantity that limits
    lexicographic-GS parallelism.  ``e_entry`` / ``diag_entry`` give the
    position of each packed entry / each packed row's diagonal in
    ``A.data`` (``-1``: structurally missing); the compiled sweep
    (:class:`repro.amg.solveplan.CompiledSweep`) composes its value maps
    with them, binds straight from ``A.data`` and keeps no schedule.
    """

    rows: np.ndarray
    level_row_ptr: np.ndarray
    e_ptr: np.ndarray
    e_cols: np.ndarray
    e_vals: np.ndarray
    e_out: np.ndarray
    e_local: np.ndarray
    e_lower: np.ndarray
    diag: np.ndarray
    nnz: int
    e_entry: np.ndarray
    diag_entry: np.ndarray

    @property
    def nlevels(self) -> int:
        return len(self.level_row_ptr) - 1

    @property
    def nrows(self) -> int:
        return len(self.rows)


def block_of_rows(n: int, nblocks: int, A: CSRMatrix | None = None,
                  rows: np.ndarray | None = None) -> np.ndarray:
    """Assign rows to ``nblocks`` contiguous blocks, balanced by non-zeros.

    Returns a length-``n`` array with block ids for the selected ``rows``
    (all rows by default) and ``-1`` elsewhere.
    """
    block = np.full(n, -1, dtype=np.int64)
    if rows is None:
        rows = np.arange(n, dtype=np.int64)
    if len(rows) == 0:
        return block
    if A is not None:
        sub = A.extract_rows(rows)
        bounds = balanced_nnz_partition(sub, nblocks)
    else:
        bounds = np.linspace(0, len(rows), nblocks + 1).astype(np.int64)
    for t in range(nblocks):
        block[rows[bounds[t]: bounds[t + 1]]] = t
    return block


def build_gs_schedule(
    A: CSRMatrix,
    block_of: np.ndarray,
    *,
    forward: bool = True,
) -> GSSchedule:
    """Build the wavefront schedule for a (hybrid) GS sweep.

    ``block_of[i] >= 0`` selects the swept rows and gives their thread
    block; ``-1`` rows are treated as external (their values are read from
    ``temp_x``).  Dependencies follow lower (forward) or upper (backward)
    in-block couplings.
    """
    n = A.nrows
    in_range = block_of >= 0
    rows_sel = np.flatnonzero(in_range)
    m = len(rows_sel)
    local_id = np.full(n, -1, dtype=np.int64)
    local_id[rows_sel] = np.arange(m)

    # Expanded row_slice_arrays that also keeps the global entry positions
    # (``idx``) so the schedule records where its values live in ``A.data``.
    counts = A.indptr[rows_sel + 1] - A.indptr[rows_sel]
    idx = gather_range_indices(A.indptr[rows_sel], counts)
    lr = np.repeat(np.arange(m), counts)
    cols = A.indices[idx]
    vals = A.data[idx]
    grows = rows_sel[lr]
    off = cols != grows
    same_block = in_range[cols] & (block_of[cols] == block_of[grows])
    if forward:
        dep = off & same_block & (cols < grows)
    else:
        dep = off & same_block & (cols > grows)
    local = off & same_block

    # Level assignment by topological peeling of the dependency DAG.
    indeg = np.bincount(lr[dep], minlength=m).astype(np.int64)
    level = np.full(m, -1, dtype=np.int64)
    frontier = np.flatnonzero(indeg == 0)
    lev = 0
    # dependents: for symmetric patterns, the dependents of local row r are
    # its same-block neighbours on the other triangle.
    rev = off & same_block & ((cols > grows) if forward else (cols < grows))
    rev_src = lr[rev]
    rev_dst = local_id[cols[rev]]
    order_rev = np.argsort(rev_src, kind="stable")
    rev_src_s = rev_src[order_rev]
    rev_dst_s = rev_dst[order_rev]
    rev_ptr = np.searchsorted(rev_src_s, np.arange(m + 1))

    while len(frontier):
        level[frontier] = lev
        lev += 1
        # Decrement in-degrees of the dependents of the frontier rows.
        dst = rev_dst_s[gather_range_indices(
            rev_ptr[frontier], rev_ptr[frontier + 1] - rev_ptr[frontier])]
        if len(dst):
            indeg -= np.bincount(dst, minlength=m)
        # Rows whose last dependency cleared this round:
        frontier = np.flatnonzero((indeg == 0) & (level == -1))
        if len(frontier) == 0 and (level == -1).any() and not len(dst):
            raise RuntimeError("GS schedule: dependency cycle (non-symmetric pattern?)")

    if (level == -1).any():
        raise RuntimeError("GS schedule failed to level all rows")

    order = np.lexsort((np.arange(m), level))
    rows_packed = rows_sel[order]
    lvl_sorted = level[order]
    nlev = int(lvl_sorted[-1]) + 1 if m else 0
    level_row_ptr = np.searchsorted(lvl_sorted, np.arange(nlev + 1))

    # Pack entries in the same order.
    pos_in_pack = np.empty(m, dtype=np.int64)
    pos_in_pack[order] = np.arange(m)
    e_entry_row = pos_in_pack[lr]  # packed row position per entry
    keep = off  # all off-diagonal entries participate in the sweep
    e_order = np.argsort(e_entry_row[keep], kind="stable")
    e_out = e_entry_row[keep][e_order]
    e_cols_p = cols[keep][e_order]
    e_vals_p = vals[keep][e_order]
    e_local_p = local[keep][e_order]
    e_lower_p = dep[keep][e_order]
    e_ptr = np.searchsorted(e_out, level_row_ptr)

    diag = np.zeros(m)
    dsel = ~off
    diag[pos_in_pack[lr[dsel]]] = vals[dsel]
    diag_entry = np.full(m, -1, dtype=np.int64)
    diag_entry[pos_in_pack[lr[dsel]]] = idx[dsel]

    return GSSchedule(
        rows=rows_packed,
        level_row_ptr=level_row_ptr.astype(np.int64),
        e_ptr=e_ptr.astype(np.int64),
        e_cols=e_cols_p,
        e_vals=e_vals_p,
        e_out=e_out,
        e_local=e_local_p,
        e_lower=e_lower_p,
        diag=diag,
        nnz=int(keep.sum()) + int(dsel.sum()),
        e_entry=idx[keep][e_order],
        diag_entry=diag_entry,
    )


def merge_schedules(scheds: list[GSSchedule], offsets, entry_offsets) -> GSSchedule:
    """One schedule sweeping independent blocks side by side.

    ``scheds[p]`` schedules the rows of diagonal block *p* of a
    block-diagonal operator, whose rows/columns start at ``offsets[p]``
    and whose stored entries start at ``entry_offsets[p]``.
    Wavefront level *l* of the result is level *l* of every block (block
    order, each block's packing kept), so every row sees the same sources
    in the same entry order as in its own block's sweep — bit-identical
    iterates at ``max`` instead of ``sum`` of the blocks' depths.
    """
    def cat(field, shift=None):
        arrs = [getattr(s, field) for s in scheds]
        if shift is not None:
            arrs = [a + o for a, o in zip(arrs, shift)]
        return np.concatenate(arrs)

    def level_of(ptr_field):
        return np.concatenate([
            np.repeat(np.arange(s.nlevels), np.diff(getattr(s, ptr_field)))
            for s in scheds])

    nlev = max(s.nlevels for s in scheds)
    row_lvl, e_lvl = level_of("level_row_ptr"), level_of("e_ptr")
    r_order = np.argsort(row_lvl, kind="stable")
    e_order = np.argsort(e_lvl, kind="stable")
    # Packed position of each block-major row in the level-major packing.
    pos = np.empty(len(r_order), dtype=np.int64)
    pos[r_order] = np.arange(len(r_order))
    row_base = np.cumsum([0] + [s.nrows for s in scheds[:-1]])
    levels = np.arange(nlev + 1)
    return GSSchedule(
        rows=cat("rows", offsets)[r_order],
        level_row_ptr=np.searchsorted(row_lvl[r_order], levels),
        e_ptr=np.searchsorted(e_lvl[e_order], levels),
        e_cols=cat("e_cols", offsets)[e_order],
        e_vals=cat("e_vals")[e_order],
        e_out=pos[cat("e_out", row_base)][e_order],
        e_local=cat("e_local")[e_order],
        e_lower=cat("e_lower")[e_order],
        diag=cat("diag")[r_order],
        nnz=sum(s.nnz for s in scheds),
        e_entry=cat("e_entry", entry_offsets)[e_order],
        diag_entry=np.concatenate([
            np.where(s.diag_entry >= 0, s.diag_entry + o, -1)
            for s, o in zip(scheds, entry_offsets)])[r_order],
    )


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def gs_sweep(
    x: np.ndarray,
    b: np.ndarray,
    sched: GSSchedule,
    *,
    optimized: bool = True,
    zero_guess: bool = False,
    contiguous_rows: bool = True,
    kernel: str = "gs",
) -> np.ndarray:
    """One in-place hybrid-GS sweep following *sched* (returns ``x``).

    ``optimized`` selects the Fig. 2(b) accounting (pre-partitioned rows, no
    per-non-zero branch); the baseline Fig. 2(a) accounting adds one branch
    per non-zero.  ``zero_guess`` marks a sweep whose input iterate is zero:
    upper/external reads are skipped in the count (their contribution is
    zero either way; the numerics are identical).  On an ``(n, k)`` block
    the matrix stream and the branches are counted once for all *k*
    columns; column *j* is bit-identical to the sweep of column *j*.
    """
    if sched.nrows == 0:
        return x
    # The schedule's own values, laid out entries first, then diagonals.
    ne = len(sched.e_vals)
    own = replace(sched, e_entry=np.arange(ne),
                  diag_entry=np.arange(ne, ne + sched.nrows))
    cs = CompiledSweep(own, len(x), np.concatenate([sched.e_vals, sched.diag]),
                       optimized=optimized, contiguous_rows=contiguous_rows,
                       kernel=kernel)
    cs.run(x, b)
    count_record(cs.record(rhs_width(x), zero_guess))
    return x


def gs_sweep_reference(
    A: CSRMatrix,
    x: np.ndarray,
    b: np.ndarray,
    block_of: np.ndarray,
    *,
    forward: bool = True,
) -> np.ndarray:
    """Literal sequential hybrid-GS sweep (Fig. 2a); test oracle."""
    temp = x.copy()
    n = A.nrows
    rows = np.flatnonzero(block_of >= 0)
    order = rows if forward else rows[::-1]
    for i in order:
        acc = b[i]
        d = 0.0
        for t in range(A.indptr[i], A.indptr[i + 1]):
            j = A.indices[t]
            if j == i:
                d = A.data[t]
            elif block_of[j] == block_of[i] and block_of[j] >= 0:
                acc -= A.data[t] * x[j]
            else:
                acc -= A.data[t] * temp[j]
        x[i] = acc / d
    return x


def _per_row(d: np.ndarray, x: np.ndarray) -> np.ndarray:
    """*d* shaped to scale the rows of *x* (a vector or a block)."""
    return d if x.ndim == 1 else d[:, None]


def jacobi_sweep(
    A: CSRMatrix,
    x: np.ndarray,
    b: np.ndarray,
    diag: np.ndarray,
    *,
    weight: float = 1.0,
) -> np.ndarray:
    """One weighted-Jacobi sweep (returns the new iterate)."""
    r = b - spmv(A, x, kernel="gs.jacobi_spmv")
    x_new = x + weight * r / _per_row(diag, x)
    n = x.size
    count("gs.jacobi_update", flops=3 * n,
          bytes_read=3 * n * VAL_BYTES, bytes_written=n * VAL_BYTES)
    return x_new


def l1_diagonal(A: CSRMatrix) -> np.ndarray:
    """The l1 smoothing diagonal ``d_i = a_ii + sum_{j != i} |a_ij|``.

    l1-Jacobi (Baker/Falgout/Kolev/Yang [26], the paper's smoother survey)
    is unconditionally convergent for SPD operators with unit weight — the
    massively parallel fallback smoother."""
    rid = A.row_ids()
    off = A.indices != rid
    return A.diagonal() + segment_sum(np.where(off, np.abs(A.data), 0.0),
                                      rid, A.nrows)


def l1_jacobi_sweep(
    A: CSRMatrix, x: np.ndarray, b: np.ndarray, l1diag: np.ndarray
) -> np.ndarray:
    """One l1-Jacobi sweep (returns the new iterate)."""
    r = b - spmv(A, x, kernel="gs.l1jacobi_spmv")
    x_new = x + r / _per_row(l1diag, x)
    n = x.size
    count("gs.l1jacobi_update", flops=2 * n,
          bytes_read=3 * n * VAL_BYTES, bytes_written=n * VAL_BYTES)
    return x_new


def estimate_lambda_max(A: CSRMatrix, diag: np.ndarray, *, iters: int = 12,
                        seed: int = 0) -> float:
    """Power-iteration estimate of ``lambda_max(D^{-1} A)`` (Chebyshev setup).

    Counted as setup work; HYPRE uses a comparable CG-based estimate."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(A.nrows)
    v /= np.linalg.norm(v)
    lam = 1.0
    for _ in range(iters):
        w = spmv(A, v, kernel="cheby.power_spmv") / diag
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            return 1.0
        lam = float(v @ w)
        v = w / nrm
    count("cheby.power_setup", flops=4.0 * A.nrows * iters, phase="Setup_etc")
    # Safety factor (the estimate approaches from below).
    return 1.1 * abs(lam)


def chebyshev_sweep(
    A: CSRMatrix,
    x: np.ndarray,
    b: np.ndarray,
    diag: np.ndarray,
    lam_max: float,
    *,
    degree: int = 3,
    lam_min_frac: float = 0.3,
) -> np.ndarray:
    """One degree-``degree`` Jacobi-preconditioned Chebyshev smoothing step.

    Targets the interval ``[lam_min_frac * lam_max, lam_max]`` of
    ``D^{-1} A`` — the standard polynomial smoother for highly parallel
    machines (no sequential dependence at all).  Updates ``x`` in place.
    """
    return ChebyPlan(A, diag, lam_max, degree=degree,
                     lam_min_frac=lam_min_frac).run(x, b)


# ---------------------------------------------------------------------------
# Multicolor GS
# ---------------------------------------------------------------------------

def greedy_coloring(A: CSRMatrix, *, seed: int = 0, max_rounds: int = 200) -> np.ndarray:
    """Distance-1 coloring of A's symmetrized pattern (Luby-style MIS rounds).

    Used by the multicolor GS smoother [23].  Returns a color per row.
    """
    n = A.nrows
    rid = A.row_ids()
    off = A.indices != rid
    src = np.concatenate([rid[off], A.indices[off]])
    dst = np.concatenate([A.indices[off], rid[off]])
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    ptr = np.searchsorted(src, np.arange(n + 1))

    color = np.full(n, -1, dtype=np.int64)
    rng = np.random.default_rng(seed)
    prio = rng.random(n)
    c = 0
    while (color == -1).any():
        if c >= max_rounds:
            raise RuntimeError("coloring did not converge")
        # MIS among uncolored by priority.
        unc = color == -1
        active = unc.copy()
        while active.any():
            pvals = np.where(unc & (color == -1), prio, -np.inf)
            nbr_max = np.full(n, -np.inf)
            mask_e = unc[src] & unc[dst] & (color[src] == -1) & (color[dst] == -1)
            np.maximum.at(nbr_max, src[mask_e], pvals[dst[mask_e]])
            winners = unc & (color == -1) & (pvals > nbr_max)
            if not winners.any():
                rem = np.flatnonzero(unc & (color == -1))
                winners = np.zeros(n, dtype=bool)
                winners[rem[np.argmax(prio[rem])]] = True
            color[winners] = c
            # Neighbours of winners leave this round's candidate pool.
            blocked = np.zeros(n, dtype=bool)
            sel = winners[src]
            blocked[dst[sel]] = True
            unc = unc & ~winners & ~blocked
            active = unc
        c += 1
    return color


def multicolor_gs_sweep(
    A: CSRMatrix,
    x: np.ndarray,
    b: np.ndarray,
    color: np.ndarray,
    diag: np.ndarray,
    *,
    forward: bool = True,
) -> np.ndarray:
    """One multicolor-GS sweep (in place; returns ``x``)."""
    return MulticolorPlan(A, color, diag).run(x, b, forward=forward)


# ---------------------------------------------------------------------------
# Smoother object used by the AMG hierarchy
# ---------------------------------------------------------------------------

class HybridGSSmoother:
    """Per-level smoother with C-F ordering (§3.2).

    Parameters
    ----------
    A:
        Level operator (CF-permuted in the optimized path).
    nthreads:
        Hybrid-GS block count (1 = lexicographic GS, huge = Jacobi-like —
        the knob that models AmgX's massively parallel smoothing).
    cf_marker:
        Per-row C/F split in A's ordering; ``None`` disables C-F ordering.
    variant:
        ``"hybrid"`` (default), ``"lex"`` (one block), ``"jacobi"``, or
        ``"multicolor"``.
    optimized:
        Fig. 2(b) (partitioned, branch-free) vs Fig. 2(a) accounting.
    """

    def __init__(
        self,
        A: CSRMatrix,
        nthreads: int = 14,
        cf_marker: np.ndarray | None = None,
        *,
        variant: str = "hybrid",
        optimized: bool = True,
        cf_contiguous: bool = True,
        seed: int = 0,
    ) -> None:
        self.A = A
        self.variant = variant
        self.optimized = optimized
        #: Whether the C/F groups occupy contiguous row ranges (CF-permuted
        #: operator, §3.2); the baseline pays a per-row classification test.
        self.cf_contiguous = cf_contiguous or cf_marker is None
        self.nthreads = 1 if variant == "lex" else nthreads
        self.seed = seed
        self.diag = A.diagonal()
        n = A.nrows
        #: Wavefront schedules per (group, direction), read once by the
        #: compile; ``None`` from then on.
        self._schedules: dict[tuple[str, bool], GSSchedule] | None = {}
        self.color: np.ndarray | None = None
        #: Compiled sweeps (:class:`repro.amg.solveplan.SmootherPlan`);
        #: ``None`` = not compiled yet.  ``attach_solve_plan`` compiles at
        #: setup, otherwise the first sweep does.  Jacobi variants have none.
        self._plan = None

        if variant == "jacobi":
            self.groups: list[np.ndarray] = []
            return
        if variant == "l1_jacobi":
            self.groups = []
            self.l1diag = l1_diagonal(A)
            return
        if variant == "chebyshev":
            self.groups = []
            self.lam_max = estimate_lambda_max(A, self.diag, seed=seed)
            return
        if variant == "multicolor":
            self.color = greedy_coloring(A, seed=seed)
            count("gs.coloring_setup", bytes_read=2 * A.nnz * IDX_BYTES,
                  branches=float(A.nnz), phase="Setup_etc")
            return

        if cf_marker is not None:
            c_rows = np.flatnonzero(np.asarray(cf_marker) > 0)
            f_rows = np.flatnonzero(np.asarray(cf_marker) <= 0)
            self.groups = [c_rows, f_rows]
        else:
            self.groups = [np.arange(n, dtype=np.int64)]

        for gi, rows in enumerate(self.groups):
            blk = block_of_rows(n, self.nthreads, A, rows)
            for fwd in (True, False):
                self._schedules[(f"g{gi}", fwd)] = build_gs_schedule(A, blk, forward=fwd)
        if variant == "lex":
            # Dependency-graph construction cost of level scheduling [38].
            count("gs.lex_schedule_setup", bytes_read=2 * A.nnz * IDX_BYTES,
                  branches=float(A.nnz), phase="Setup_etc")

    @classmethod
    def from_numeric(cls, old: "HybridGSSmoother", A: CSRMatrix) -> "HybridGSSmoother":
        """Same-pattern numeric rebuild of *old* over the values of *A*.

        Shares every pattern-derived structure (groups, coloring, the
        compiled sweeps' slabs and records) and rebinds only the numerics —
        the smoother counterpart of :meth:`repro.amg.Hierarchy.refresh`.
        A GS smoother's sweeps rebind straight from ``A.data`` (*old* is
        compiled first if nothing swept it yet).  Bit-identical to
        constructing a fresh smoother with the same arguments (the shared
        structures are pure functions of the frozen sparsity and seed).
        """
        new = cls.__new__(cls)
        new.A = A
        new.variant = old.variant
        new.optimized = old.optimized
        new.cf_contiguous = old.cf_contiguous
        new.nthreads = old.nthreads
        new.seed = old.seed
        new.diag = A.diagonal()
        new._schedules = {}
        new.color = old.color
        new._plan = None
        new.groups = old.groups
        if old.variant == "l1_jacobi":
            new.l1diag = l1_diagonal(A)
        elif old.variant == "chebyshev":
            # Value-dependent: the power iteration must re-run (same seed
            # => same result as a from-scratch rebuild).
            new.lam_max = estimate_lambda_max(A, new.diag, seed=old.seed)
        elif old.variant not in ("jacobi", "multicolor"):
            compile_smoother_plan(old)
            new._schedules = None
        if old._plan is not None:
            # Compiled sweeps rebind values only; slab index arrays and
            # record tables stay shared with *old*.
            new._plan = old._plan.with_values(new)
        return new

    @classmethod
    def stacked(cls, parts: list["HybridGSSmoother"], A: CSRMatrix) -> "HybridGSSmoother":
        """*parts* — identically configured smoothers of independent
        operators — as one smoother of their block-diagonal stack *A*.

        Nothing is re-analysed: groups, colourings and diagonals are
        concatenated and the wavefront schedules merged level by level
        (:func:`merge_schedules`), so a stacked sweep leaves every block
        with the iterate its own smoother would produce, bit for bit.
        *A*'s stored entries are the parts' operators' entries in part
        order, and the parts are not compiled yet (compiling drops their
        schedules).
        """
        first = parts[0]
        offsets = np.cumsum([0] + [s.A.nrows for s in parts[:-1]])
        entry_offsets = np.cumsum([0] + [s.A.nnz for s in parts[:-1]])
        new = cls.__new__(cls)
        new.A = A
        for name in ("variant", "optimized", "cf_contiguous", "nthreads", "seed"):
            setattr(new, name, getattr(first, name))
        new.diag = np.concatenate([s.diag for s in parts])
        new.color = (None if first.color is None
                     else np.concatenate([s.color for s in parts]))
        # (multicolor smoothers have no row groups at all)
        new.groups = [np.concatenate([s.groups[gi] + o
                                      for s, o in zip(parts, offsets)])
                      for gi in range(len(getattr(first, "groups", ())))]
        new._schedules = {
            key: merge_schedules([s._schedules[key] for s in parts], offsets,
                                 entry_offsets)
            for key in first._schedules}
        new._plan = None
        return new

    # -- sweeps ----------------------------------------------------------
    #: Damping for the Jacobi variant (omega = 2/3, the standard choice that
    #: makes Jacobi an actual smoother on Poisson-like operators).
    JACOBI_WEIGHT = 2.0 / 3.0

    def _compiled(self):
        """The smoother's :class:`~repro.amg.solveplan.SmootherPlan`,
        compiled on first use (silent: no perf records)."""
        if self._plan is None:
            compile_smoother_plan(self)
        return self._plan

    def presmooth(self, x: np.ndarray, b: np.ndarray, *, zero_guess: bool = False) -> np.ndarray:
        """Forward sweep, C points first (updates ``x`` in place).

        *x* / *b* are vectors or ``(n, k)`` blocks; column *j* of a block
        sweep reproduces the sweep of ``(x[:, j], b[:, j])`` exactly, and
        the counted matrix stream is shared across columns.
        """
        if self.variant == "jacobi":
            x[:] = jacobi_sweep(self.A, x, b, self.diag, weight=self.JACOBI_WEIGHT)
            return x
        if self.variant == "l1_jacobi":
            x[:] = l1_jacobi_sweep(self.A, x, b, self.l1diag)
            return x
        return self._compiled().presmooth(x, b, zero_guess=zero_guess)

    #: Pinned by the perf harness's ``amg.gs_sweep_multi8_s`` rung.
    presmooth_multi = presmooth

    def postsmooth(self, x: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Backward sweep, F points first (updates ``x`` in place)."""
        if self.variant in ("jacobi", "l1_jacobi"):
            return self.presmooth(x, b)
        return self._compiled().postsmooth(x, b)

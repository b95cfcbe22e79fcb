"""GS sweeps on padded level slabs, against the bincount kernels they replace.

``CompiledSweep`` runs each wavefront level as one padded ELL slab over a
schedule-ordered workspace and sums it with ``np.add.reduce`` (or, for
one-row levels, ``np.bincount`` over tiled ids);
``MulticolorPlan`` runs its colours through the same level kernel.  The
oracles below are previous implementations, verbatim — ``_relax`` and the
``CompiledSweep`` / ``MulticolorPlan`` bodies, and the two-step schedule
(``ref_build_gs_schedule``, the 12-field schedule the slabs were
re-derived from) — and every property compares bytes:

* random symmetric and asymmetric patterns, 1-8 thread blocks, with and
  without C/F groups, both directions; zero-start sweeps behind a swept
  prefix (equal to the full sweep); widths 0, 1, 2, 3, 8 in C order, F
  order and strided; values with ``+-0.0`` and ``+-inf``, one-row levels,
  rows with no kept entries;
* on symmetric patterns the schedule, its zero-start mask and its
  compiled slabs equal the two-step build's (which cannot level a
  nonsymmetric pattern);
* a numpy-ordering tripwire: the reduction the compiler relies on is the
  sequential sum on every shape it is sent, and one-row levels (whose
  reduction numpy sums pairwise) never reach it;
* no slab is built by a solve, a blocked solve or ``Hierarchy.refresh``;
* a refreshed smoother decides its zero-start skip from its own values.

What may differ is only the *sign* of a NaN that met a NaN of the other
sign (the operand order of one x86 instruction — pinned for the SpMV
layout, which shares these slabs and their reduction, by
``tests/test_lockstep.py::TestNaNSign``): NaN positions are compared
exactly, NaN payloads canonicalised.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import convection_diffusion

import repro
from repro import amg
from repro.amg import solveplan
from repro.amg.smoothers import (
    GSSchedule,
    HybridGSSmoother,
    block_of_rows,
    build_gs_schedule,
    greedy_coloring,
)
from repro.amg.solveplan import (
    CompiledSweep,
    MulticolorPlan,
    _zero_keep_mask,
    compile_smoother_plan,
)
from repro.sparse.slabs import Slabs
from repro.problems import laplace_2d_5pt, laplace_3d_27pt, rotated_anisotropy_2d
from repro.serve.workload import PROBLEM_BUILDERS
from repro.sparse import CSRMatrix
from repro.sparse.ops import gather_range_indices
from repro.sparse.spmv import rhs_width

COMMON = dict(deadline=None, max_examples=60,
              suppress_health_check=[HealthCheck.too_slow])
WIDTHS = (0, 1, 2, 3, 8)
LAYOUTS = ("C", "F", "strided")


# ---------------------------------------------------------------------------
# Oracle: the bincount level kernel and the sweep bodies it ran in
# ---------------------------------------------------------------------------

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


class OracleSweep:
    """The step-tuple ``CompiledSweep`` (execution half) over a schedule's
    entries, its values gathered from ``data[e_entry]`` /
    ``data[diag_entry]``."""

    def __init__(self, sched, data: np.ndarray, n: int,
                 zero_keep: np.ndarray | None = None) -> None:
        self.sched = sched
        self.n = n
        self.rows = sched.rows
        m = sched.nrows
        rp = sched.level_row_ptr
        ep = np.searchsorted(sched.e_row, rp)
        nlev = sched.nlevels
        # Live reads index x, snapshot reads its copy at x + n.
        local = sched.e_src < m
        e_src = np.where(local, sched.rows[np.minimum(sched.e_src, m - 1)],
                         sched.e_src - (m + 1) + n)
        e_vals = data[sched.e_entry]
        diag = np.where(sched.diag_entry >= 0, data[sched.diag_entry], 0.0)
        r0_per_entry = np.repeat(rp[:-1], np.diff(ep))
        e_out_local = sched.e_row - r0_per_entry
        self.steps = []
        for lv in range(nlev):
            r0, r1 = int(rp[lv]), int(rp[lv + 1])
            s = slice(int(ep[lv]), int(ep[lv + 1]))
            self.steps.append((r0, r1, sched.rows[r0:r1], e_src[s],
                               e_vals[s], e_out_local[s],
                               diag[r0:r1], r1 - r0))
        self.zsteps = None
        if zero_keep is not None and np.isfinite(e_vals).all():
            self.zsteps = []
            for lv in range(nlev):
                r0, r1 = int(rp[lv]), int(rp[lv + 1])
                e0 = int(ep[lv])
                s = slice(e0, int(ep[lv + 1]))
                zi = e0 + np.flatnonzero(zero_keep[s])
                self.zsteps.append((r0, r1, sched.rows[r0:r1], e_src[zi],
                                    e_vals[zi], e_out_local[zi],
                                    diag[r0:r1], r1 - r0))
        self._flats: dict = {}
        self._wide: dict = {}

    def _steps(self, k: int, zero: bool) -> list[tuple]:
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


class OracleMulticolor:
    """The per-colour-gather ``MulticolorPlan`` (execution half)."""

    def __init__(self, A, color: np.ndarray, diag: np.ndarray) -> None:
        self.ncolors = int(color.max()) + 1
        self.colors = []
        for c in range(self.ncolors):
            rows = np.flatnonzero(color == c)
            counts = A.indptr[rows + 1] - A.indptr[rows]
            idx = gather_range_indices(A.indptr[rows], counts)
            lr = np.repeat(np.arange(len(rows), dtype=np.int64), counts)
            cols = A.indices[idx]
            sel = cols != rows[lr]
            src_idx = idx[sel]
            self.colors.append((rows, lr[sel], cols[sel], A.data[src_idx],
                                diag[rows], len(rows)))
        self._flats: dict = {}
        self._wide: dict = {}

    def _colors(self, k: int) -> list[tuple]:
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
        return x


# ---------------------------------------------------------------------------
# Oracle: the two-step schedule (a 12-field schedule, then the slabs'
# re-derivation), verbatim; it levels symmetric patterns only
# ---------------------------------------------------------------------------

@dataclass
class RefSchedule:
    """The previous ``GSSchedule``: value copies (``e_vals``, ``diag``) and
    column-keyed entries (``e_cols``, ``e_local``) the compile re-derived
    its reads from."""

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


def ref_build_gs_schedule(
    A: CSRMatrix,
    block_of: np.ndarray,
    *,
    forward: bool = True,
) -> RefSchedule:
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

    return RefSchedule(
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


def converted(ref: RefSchedule, n: int) -> GSSchedule:
    """*ref* in the fields a slab reads (``e_src`` is what ``_sweep_slabs``
    derived)."""
    m = ref.nrows
    packed = np.zeros(n, dtype=np.int64)
    packed[ref.rows] = np.arange(m)
    return GSSchedule(
        rows=ref.rows, level_row_ptr=ref.level_row_ptr,
        diag_entry=ref.diag_entry, e_row=ref.e_out,
        e_src=np.where(ref.e_local, packed[ref.e_cols], ref.e_cols + (m + 1)),
        e_entry=ref.e_entry, e_lower=ref.e_lower)


def ref_sweep_slabs(sched: RefSchedule, n: int, nvals: int,
                    zero_keep: np.ndarray | None):
    """The deleted ``_sweep_slabs``: a sweep's slabs (and zero-start slabs)
    re-derived from a :class:`RefSchedule`."""
    m = sched.nrows
    packed = np.empty(n, dtype=np.intp)
    packed[sched.rows] = np.arange(m)
    # In-block reads go to the live packed row, external ones to the snapshot.
    e_src = sched.e_cols + (m + 1)
    np.copyto(e_src, packed.take(sched.e_cols), where=sched.e_local)
    slabs = Slabs(sched.level_row_ptr, sched.e_out, e_src, sched.e_entry, nvals, m)
    if zero_keep is None:
        return slabs, None
    keep = np.flatnonzero(zero_keep)
    return slabs, Slabs(sched.level_row_ptr, sched.e_out[keep], e_src[keep],
                        sched.e_entry[keep], nvals, m)


def ref_zero_keep_mask(sched: RefSchedule, n: int,
                       prefix_rows: np.ndarray | None) -> np.ndarray:
    """The previous ``_zero_keep_mask`` over a :class:`RefSchedule`."""
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


def assert_same_schedule(got: GSSchedule, want: GSSchedule) -> None:
    for f in fields(GSSchedule):
        g, w = getattr(got, f.name), getattr(want, f.name)
        assert g.dtype == w.dtype, f.name
        assert np.array_equal(g, w), f.name


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------

# Off-diagonal values: signed zeros, infinities, and ordinary magnitudes
# wide enough that the summation order shows in the last bits.
OFFDIAG = (0.0, -0.0, np.inf, -np.inf, 1.0, -1.0, 3e-8, -7e7, 0.1, -1.0 / 3.0)


def canon(a) -> bytes:
    """Bytes of *a* with every NaN mapped to the canonical one."""
    a = np.array(a, dtype=np.float64)
    a[np.isnan(a)] = np.nan
    return a.tobytes()


def assert_same(got, want) -> None:
    got, want = np.asarray(got), np.asarray(want)
    assert np.isnan(got).tolist() == np.isnan(want).tolist()
    if np.isnan(want).any():
        assert canon(got) == canon(want)
    else:
        assert got.tobytes() == want.tobytes()


@st.composite
def operators(draw, max_n: int = 24, symmetric: bool | None = None):
    """A random operator (stored zeros and infinities included) and its
    hybrid-GS row structure: symmetric or asymmetric pattern (either, unless
    *symmetric* says which), C/F groups or not, 1-8 thread blocks."""
    n = draw(st.integers(1, max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    density = draw(st.sampled_from([0.0, 0.1, 0.3, 0.7]))
    pat = rng.random((n, n)) < density
    if draw(st.booleans()) if symmetric is None else symmetric:
        pat |= pat.T
    np.fill_diagonal(pat, True)
    special = draw(st.booleans())
    rows, cols = np.nonzero(pat)
    data = rng.standard_normal(len(rows)) * 10.0 ** rng.integers(-8, 8, len(rows))
    if special:
        pick = rng.random(len(rows)) < 0.3
        data[pick] = rng.choice(OFFDIAG, int(pick.sum()))
    on_diag = rows == cols
    data[on_diag] = 4.0 + rng.random(int(on_diag.sum()))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    A = CSRMatrix((n, n), indptr, cols.astype(np.int64), data)
    cf = (rng.random(n) < 0.4).astype(np.int64) if draw(st.booleans()) else None
    nthreads = draw(st.integers(1, 8))
    return A, cf, nthreads, rng


def operand(values: np.ndarray, layout: str) -> np.ndarray:
    """*values* (a vector or a block) laid out C-, F-ordered or strided."""
    if layout == "F":
        return np.asfortranarray(values)
    if layout == "strided":
        wide = np.zeros(tuple(2 * s for s in values.shape))
        view = wide[(slice(None, None, 2),) * values.ndim]
        view[...] = values
        return view
    return np.ascontiguousarray(values)


def draw_values(rng, shape, special: bool) -> np.ndarray:
    v = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 6, shape)
    if special:
        pick = rng.random(shape) < 0.2
        v[pick] = rng.choice((0.0, -0.0, np.inf), int(pick.sum()))
    return v


def sweeps_of(sm: HybridGSSmoother, n: int):
    """``(group, forward, new, oracle, prefix rows)`` of every schedule."""
    out = []
    for gi in range(len(sm.groups)):
        prefix = np.concatenate(sm.groups[:gi]) if gi else None
        for fwd in (True, False):
            sched = sm._schedules[(gi, fwd)]
            if sched.nrows == 0:
                continue
            zk = _zero_keep_mask(sched, n, prefix) if fwd else None
            new = CompiledSweep(sched, n, sm.A.data, optimized=True,
                                contiguous_rows=True, kernel="gs.hybrid",
                                zero_keep=zk)
            out.append((gi, fwd, new, OracleSweep(sched, sm.A.data, n, zk), prefix))
    return out


# ---------------------------------------------------------------------------
# One build is the two-step schedule on symmetric patterns, bit for bit
# ---------------------------------------------------------------------------

def check_against_reference(A: CSRMatrix, cf, nthreads: int) -> None:
    """Every (group, direction) schedule of *A*'s smoother, its zero-start
    mask and its compiled slabs against the reference build."""
    n = A.nrows
    groups = ([np.flatnonzero(cf > 0), np.flatnonzero(cf <= 0)]
              if cf is not None else [np.arange(n)])
    for gi, rows in enumerate(groups):
        prefix = np.concatenate(groups[:gi]) if gi else None
        blk = block_of_rows(n, nthreads, A, rows)
        for fwd in (True, False):
            got = build_gs_schedule(A, blk, forward=fwd)
            ref = ref_build_gs_schedule(A, blk, forward=fwd)
            assert_same_schedule(got, converted(ref, n))
            assert got.nnz == ref.nnz
            if got.nrows == 0:
                continue
            zk = _zero_keep_mask(got, n, prefix) if fwd else None
            if fwd:
                assert np.array_equal(zk, ref_zero_keep_mask(ref, n, prefix))
            cs = CompiledSweep(got, n, A.data, optimized=True,
                               contiguous_rows=True, kernel="gs.hybrid",
                               zero_keep=zk)
            want = ref_sweep_slabs(ref, n, A.nnz, zk)
            for new, old in zip((cs.slabs, cs.zslabs), want):
                if old is None:
                    assert new is None
                    continue
                for name in ("src", "emap"):
                    g, w = getattr(new, name), getattr(old, name)
                    assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), name


class TestScheduleAgainstReference:
    @given(op=operators(symmetric=True))
    @settings(**COMMON)
    def test_symmetric_patterns(self, op):
        A, cf, nthreads, _ = op
        check_against_reference(A, cf, nthreads)

    @pytest.mark.parametrize("problem, nthreads, cf_every", [
        ("lap2d", 1, 0), ("lap27", 3, 3), ("rotaniso", 14, 2), ("rotaniso", 14, 0)])
    def test_benchmark_stencils(self, problem, nthreads, cf_every):
        A = {"lap2d": lambda: laplace_2d_5pt(16),
             "lap27": lambda: laplace_3d_27pt(6),
             "rotaniso": lambda: rotated_anisotropy_2d(24)}[problem]()
        cf = ((np.arange(A.nrows) % cf_every == 0).astype(np.int64)
              if cf_every else None)
        check_against_reference(A, cf, nthreads)

    def test_the_reference_cannot_level_a_nonsymmetric_pattern(self):
        # The rows the reference strands are what the one-triangle peel
        # missed; the build levels them.
        A = convection_diffusion(8)
        blk = block_of_rows(A.nrows, 1, A)
        with pytest.raises(RuntimeError):
            ref_build_gs_schedule(A, blk)
        assert build_gs_schedule(A, blk).nrows == A.nrows


# ---------------------------------------------------------------------------
# The slab kernel is the bincount kernel, bit for bit
# ---------------------------------------------------------------------------

class TestAgainstOracle:
    @given(op=operators(), k=st.sampled_from(WIDTHS),
           layout=st.sampled_from(LAYOUTS), special=st.booleans())
    @settings(**COMMON)
    def test_full_sweeps(self, op, k, layout, special):
        A, cf, nthreads, rng = op
        n = A.nrows
        sm = HybridGSSmoother(A, nthreads=nthreads, cf_marker=cf)
        shape = (n, k) if k else (n,)
        for _, _, new, oracle, _ in sweeps_of(sm, n):
            x0, b = draw_values(rng, shape, special), draw_values(rng, shape, special)
            got, want = operand(x0, layout), operand(x0, layout)
            with np.errstate(all="ignore"):
                new.run(got, operand(b, layout))
                oracle.run(want, operand(b, layout))
            assert_same(got, want)

    @given(op=operators(), k=st.sampled_from(WIDTHS),
           layout=st.sampled_from(LAYOUTS), special=st.booleans())
    @settings(**COMMON)
    def test_zero_start_behind_a_swept_prefix(self, op, k, layout, special):
        A, cf, nthreads, rng = op
        n = A.nrows
        sm = HybridGSSmoother(A, nthreads=nthreads, cf_marker=cf)
        shape = (n, k) if k else (n,)
        for _, fwd, new, oracle, prefix in sweeps_of(sm, n):
            if not fwd:
                continue
            assert (new.zlevels is None) == (oracle.zsteps is None)
            x0 = np.zeros(shape)
            if prefix is not None:
                x0[prefix] = draw_values(rng, (len(prefix),) + shape[1:], special)
            b = draw_values(rng, shape, special)
            got, want = operand(x0, layout), operand(x0, layout)
            full = operand(x0, layout)
            with np.errstate(all="ignore"):
                new.run(got, operand(b, layout), zero=True)
                oracle.run(want, operand(b, layout), zero=True)
                new.run(full, operand(b, layout))
            assert_same(got, want)
            if new.zlevels is not None:
                # Every skipped term was an exact a * 0.0: the skip is
                # invisible, whichever triangle the pattern stores.
                assert_same(got, full)

    @given(op=operators(), k=st.sampled_from(WIDTHS),
           layout=st.sampled_from(LAYOUTS), forward=st.booleans(),
           coloring=st.sampled_from(["greedy", "random"]))
    @settings(**COMMON)
    def test_multicolor(self, op, k, layout, forward, coloring):
        A, _, _, rng = op
        n = A.nrows
        # A random colouring leaves colours empty and neighbours in one
        # colour: the kernel must still read the colour's start values.
        color = (greedy_coloring(A, seed=1) if coloring == "greedy"
                 else rng.integers(0, 4, n))
        diag = A.diagonal()
        shape = (n, k) if k else (n,)
        x0, b = draw_values(rng, shape, True), draw_values(rng, shape, True)
        got, want = operand(x0, layout), operand(x0, layout)
        plan = MulticolorPlan(A, color, diag)
        with np.errstate(all="ignore"):
            plan.run(got, operand(b, layout), forward=forward)
            OracleMulticolor(A, color, diag).run(want, operand(b, layout), forward=forward)
        assert_same(got, want)

    @pytest.mark.parametrize("variant", ["hybrid", "lex", "multicolor"])
    @pytest.mark.parametrize("k", WIDTHS)
    def test_one_and_many_columns_on_a_real_level(self, variant, k, rng):
        # lex on a 27-point stencil: long chains of one-row levels.
        A = laplace_3d_27pt(5)
        cf = (np.arange(A.nrows) % 3 == 0).astype(np.int64)
        sm = HybridGSSmoother(A, nthreads=3, cf_marker=cf, variant=variant)
        shape = (A.nrows, k) if k else (A.nrows,)
        b, x0 = rng.standard_normal(shape), rng.standard_normal(shape)
        if variant == "multicolor":
            compile_smoother_plan(sm)
            got = sm._plan.mc.run(x0.copy(), b, forward=False)
            want = OracleMulticolor(A, sm.color, sm.diag).run(x0.copy(), b, forward=False)
            assert got.tobytes() == want.tobytes()
            return
        for gi, fwd, new, oracle, _ in sweeps_of(sm, A.nrows):
            for zero in (False, True):
                x = np.zeros(shape) if zero else x0
                got, want = new.run(x.copy(), b, zero=zero), oracle.run(x.copy(), b, zero=zero)
                assert got.tobytes() == want.tobytes(), (gi, fwd, zero)


# ---------------------------------------------------------------------------
# Numpy-ordering tripwire
# ---------------------------------------------------------------------------

def _sequential(t: np.ndarray) -> np.ndarray:
    acc = np.zeros(t.shape[1:])
    for p in range(t.shape[0]):
        acc = acc + t[p]
    return acc


def _adversarial(rng, shape) -> np.ndarray:
    """Magnitudes 1e-30..1e30 of mixed sign: any reassociation shows."""
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, shape)


def _compiled_levels():
    """Every level of the sweeps of a few benchmark-shaped hierarchies."""
    levels = []
    for A, variant in ((PROBLEM_BUILDERS["lap3d27g"](8), "hybrid_gs"),
                       (rotated_anisotropy_2d(24), "hybrid_gs"),
                       (laplace_3d_27pt(6), "lex"),
                       (laplace_3d_27pt(6), "multicolor")):
        h = amg.build_hierarchy(A, replace(repro.single_node_config(True),
                                           smoother=variant))
        for sm in [lv.smoother for lv in h.levels] + [h.coarse_solver.smoother]:
            plan = getattr(sm, "_plan", None)
            if plan is None:
                continue
            if plan.mc is not None:
                levels += plan.mc.levels
            for cs in plan.sweeps.values():
                if cs is not None:
                    levels += cs.levels + (cs.zlevels or [])
    return levels


class TestReductionOrder:
    @pytest.fixture(scope="class")
    def levels(self):
        return _compiled_levels()

    def test_exactly_the_one_row_levels_sum_with_bincount(self, levels):
        assert any(lv.one_row for lv in levels)  # lex sweeps, small coarse levels
        assert all(lv.one_row == (lv.src.shape[1] == 1) for lv in levels)

    def test_reduction_is_sequential_on_every_compiled_shape(self, levels):
        rng = np.random.default_rng(0)
        # A vector sweep reduces a (w, m) slab, a width-k block (w, m, k).
        shapes = {lv.src.shape + ((k,) if k else ()) for lv in levels
                  if not lv.one_row for k in (0, 1, 2, 3, 8)}
        assert shapes
        for shape in sorted(shapes):
            t = _adversarial(rng, shape)
            out = np.empty(shape[1:])
            np.add.reduce(t, axis=0, out=out, initial=0.0)
            assert out.tobytes() == _sequential(t).tobytes(), shape

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 8])
    def test_reduction_is_sequential_on_every_small_shape(self, k):
        # Every slab depth the sweeps produce (a 27-point row has 26
        # off-diagonal entries; coarse levels reach ~100), every row count
        # from the smallest the reduction is sent.
        rng = np.random.default_rng(k)
        for w in range(0, 41):
            for m in (2, 3, 4, 7, 16, 33):
                t = _adversarial(rng, (w, m, k) if k else (w, m))
                out = np.empty(t.shape[1:])
                np.add.reduce(t, axis=0, out=out, initial=0.0)
                assert out.tobytes() == _sequential(t).tobytes(), (w, m, k)


# ---------------------------------------------------------------------------
# No slab is built on the solve or refresh path
# ---------------------------------------------------------------------------

def test_solves_and_refresh_build_no_slabs(monkeypatch):
    cfg = repro.single_node_config(True)
    A = PROBLEM_BUILDERS["lap3d27g"](8)
    A2 = CSRMatrix(A.shape, A.indptr, A.indices, A.data * 1.02)
    rng = np.random.default_rng(3)
    b, B = rng.standard_normal(A.nrows), rng.standard_normal((A.nrows, 8))
    solver = repro.AMGSolver(cfg)
    solver.hierarchy = amg.build_hierarchy(A, cfg, capture_plan=True)
    built = []

    class Counting(solveplan.Slabs):
        def __init__(self, *args, **kwargs):
            built.append(args[0])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(solveplan, "Slabs", Counting)
    assert solver.solve(b, tol=1e-8).converged
    assert all(r.converged for r in solver.solve_many(B, tol=1e-8))
    solver.hierarchy = solver.hierarchy.refresh(A2)
    assert solver.solve(b, tol=1e-8).converged
    assert built == []
    amg.build_hierarchy(A2, cfg)  # the spy sees a cold build's slabs
    assert built


# ---------------------------------------------------------------------------
# A refreshed smoother decides the zero-start skip from its own values
# ---------------------------------------------------------------------------

def _with_upper_f_entry(A: CSRMatrix, cf: np.ndarray, value: float) -> CSRMatrix:
    """*A* with the first upper off-diagonal entry of an F row (to another F
    row) set to *value*."""
    data = A.data.copy()
    for r in np.flatnonzero(cf == 0):
        lo, hi = A.indptr[r], A.indptr[r + 1]
        hit = np.flatnonzero((A.indices[lo:hi] > r) & (cf[A.indices[lo:hi]] == 0))
        if len(hit):
            data[lo + hit[0]] = value
            return CSRMatrix(A.shape, A.indptr, A.indices, data)
    raise AssertionError("no upper F-F entry")


@pytest.mark.parametrize("direction", ["finite->inf", "inf->finite"])
def test_refreshed_zero_start_matches_a_fresh_smoother(direction):
    A = laplace_3d_27pt(6)
    cf = (np.arange(A.nrows) % 3 == 0).astype(np.int64)
    A_inf = _with_upper_f_entry(A, cf, np.inf)
    before, after = (A, A_inf) if direction == "finite->inf" else (A_inf, A)

    def smoother(M):
        sm = HybridGSSmoother(M, nthreads=4, cf_marker=cf)
        compile_smoother_plan(sm)
        return sm

    refreshed = HybridGSSmoother.from_numeric(smoother(before), after)
    fresh = smoother(after)
    outs = []
    for sm in (refreshed, fresh):
        with np.errstate(all="ignore"):
            outs.append(sm.presmooth(np.zeros(A.nrows), np.ones(A.nrows),
                                     zero_guess=True))
    assert outs[0].tobytes() == outs[1].tobytes()
    nans = int(np.isnan(outs[1]).sum())
    assert nans > 0 if after is A_inf else nans == 0

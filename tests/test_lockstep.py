"""The padded-slab SpMV layout against the ``bincount`` kernels it replaced.

Every member of the SpMV family (six kernels, each on a vector and on an
``(n, k)`` block, ``ChebyPlan``'s inline products, ``dist_spmv`` through
``spmv``) runs on :meth:`CSRMatrix._dot`, which runs the operator's
:class:`~repro.sparse.slabs.SpMVLayout` — slices of segments as padded ELL
slabs, built by the GS sweeps' :class:`~repro.sparse.slabs.Slabs` — and
nothing else.  The oracle here is *not* that code: the ``ref_*`` functions
below are the eleven kernel bodies (six single-RHS ones and five blocked
twins) of the commit before the SpMV family shared one core, kept
literally (gather, multiply, ``np.bincount(weights=)``, the per-column
loops, the ``count`` calls, the blocked twins' validation and traffic
helpers).  Results are compared as **bytes** (``tobytes()``: signed zeros
count), the record streams with ``==``, and every product additionally
against ``analysis/sanitizers.py``'s independent ``np.add.at`` oracle.
Each case runs at the shipped slice budget and at a shrunken one (many
slices, ranked segments, one-row slices).

One caveat, measured and pinned below (``TestNaNSign``): when a NaN *input*
meets a computed NaN of the other sign, which sign the sum keeps is the
operand order of an x86 instruction, which numpy's SIMD loops do not fix.
NaN *placement* is identical; nothing in the library reads a NaN's sign.
Comparisons therefore map every NaN to the canonical one first, and the
NaN-input-free cases (``inf - inf`` and ``0 * inf`` included) are compared
raw.

This file also runs under ``REPRO_CHECK=full`` in CI.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.amg as amg
import repro.sparse.slabs as slabs
from repro.amg.solveplan import ChebyPlan
from repro.amg.solveplan import __file__ as solveplan_file
from repro.analysis import InvariantViolation, check_csr, check_hierarchy
from repro.analysis.sanitizers import _raw_spmv, _raw_spmv_t
from repro.config import multi_node_config
from repro.dist import (DistAMGSolver, ParCSRMatrix, ParVector, RowPartition,
                        SimComm, build_halo, dist_fgmres, dist_spmv)
from repro.perf.counters import (IDX_BYTES, PTR_BYTES, VAL_BYTES, collect,
                                 count)
from repro.problems import laplace_3d_27pt, rotated_anisotropy_2d
from repro.serve import ServiceConfig, SolveService
from repro.serve.workload import PROBLEM_BUILDERS, WorkloadSpec
from repro.serve.workload import build as build_workload
from repro.sparse import CSRMatrix
from repro.sparse.slabs import SpMVLayout
from repro.sparse.spmv import spmv_traffic

#: The kernel module (``repro.sparse.spmv`` the attribute is the function).
K = importlib.import_module("repro.sparse.spmv")

# ---------------------------------------------------------------------------
# The reference: the parent commit's kernel bodies, verbatim
# ---------------------------------------------------------------------------


def segment_sum(values, seg_ids, nseg):
    if len(values) == 0:
        return np.zeros(nseg, dtype=np.float64)
    return np.bincount(seg_ids, weights=values, minlength=nseg)[:nseg]


def as_multi(X, nrows):
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D (n, k) block, got shape {X.shape}")
    if X.shape[0] != nrows:
        raise ValueError(f"dimension mismatch: expected {nrows} rows, got {X.shape[0]}")
    if X.shape[1] < 1:
        raise ValueError("multi-RHS block needs at least one column")
    return X


def spmv_multi_traffic(nrows, nnz, k, *, write_output=True):
    bytes_read = nnz * (VAL_BYTES + IDX_BYTES) + (nrows + 1) * PTR_BYTES + k * nnz * VAL_BYTES
    bytes_written = k * nrows * VAL_BYTES if write_output else 0.0
    return float(bytes_read), float(bytes_written)


def ref_spmv(A, x, *, kernel="spmv"):
    x = np.asarray(x, dtype=np.float64)
    t = x[A.indices]
    np.multiply(A.data, t, out=t)
    y = segment_sum(t, A.row_ids(), A.nrows)
    br, bw = spmv_traffic(A.nrows, A.nnz)
    count(kernel, flops=2 * A.nnz, bytes_read=br, bytes_written=bw)
    return y


def ref_spmv_transposed(A, x, *, materialize=False):
    x = np.asarray(x, dtype=np.float64)
    y = segment_sum(A.data * x[A.row_ids()], A.indices, A.ncols)
    if materialize:
        matrix_bytes = A.nnz * (VAL_BYTES + IDX_BYTES) + (A.nrows + 1) * PTR_BYTES
        count("transpose.per_restriction",
              bytes_read=matrix_bytes + A.nnz * IDX_BYTES,
              bytes_written=matrix_bytes, branches=0, parallel=False)
    br, bw = spmv_traffic(A.ncols, A.nnz)
    count("spmv_t", flops=2 * A.nnz, bytes_read=br, bytes_written=bw)
    return y


def ref_spmv_identity_block(P_F, xc, cperm=None):
    xc = np.asarray(xc, dtype=np.float64)
    xf_c = xc if cperm is None else xc[cperm]
    xf_f = segment_sum(P_F.data * xc[P_F.indices], P_F.row_ids(), P_F.nrows)
    br, bw = spmv_traffic(P_F.nrows, P_F.nnz)
    count("spmv.interp_idblock", flops=2 * P_F.nnz,
          bytes_read=br + len(xc) * VAL_BYTES,
          bytes_written=bw + len(xc) * VAL_BYTES)
    return np.concatenate([xf_c, xf_f])


def ref_spmv_identity_block_transposed(P_F, xf, cperm=None):
    xf = np.asarray(xf, dtype=np.float64)
    nc = P_F.ncols
    xF = xf[nc:]
    y = segment_sum(P_F.data * xF[P_F.row_ids()], P_F.indices, nc)
    if cperm is None:
        y += xf[:nc]
    else:
        y[cperm] += xf[:nc]
    br, bw = spmv_traffic(nc, P_F.nnz)
    count("spmv.restrict_idblock", flops=2 * P_F.nnz + nc,
          bytes_read=br + nc * VAL_BYTES, bytes_written=bw)
    return y


def ref_spmv_dot_fused(A, x, w=None):
    x = np.asarray(x, dtype=np.float64)
    y = segment_sum(A.data * x[A.indices], A.row_ids(), A.nrows)
    d = float(y @ (y if w is None else np.asarray(w, dtype=np.float64)))
    br, _ = spmv_traffic(A.nrows, A.nnz, write_output=False)
    extra_read = A.nrows * VAL_BYTES if w is not None else 0.0
    count("spmv_dot_fused", flops=2 * A.nnz + 2 * A.nrows, bytes_read=br + extra_read)
    return y, d


def ref_residual(A, x, b, *, fused_norm=False):
    b = np.asarray(b, dtype=np.float64)
    if fused_norm:
        t = np.asarray(x, dtype=np.float64)[A.indices]
        np.multiply(A.data, t, out=t)
        y = segment_sum(t, A.row_ids(), A.nrows)
        r = b - y
        nrm = float(np.sqrt(r @ r))
        br, bw = spmv_traffic(A.nrows, A.nnz)
        count("residual_norm_fused", flops=2 * A.nnz + 3 * A.nrows,
              bytes_read=br + A.nrows * VAL_BYTES, bytes_written=bw)
        return r, nrm
    y = ref_spmv(A, x)
    r = b - y
    count("residual_sub", flops=A.nrows, bytes_read=2 * A.nrows * VAL_BYTES,
          bytes_written=A.nrows * VAL_BYTES)
    return r


def ref_spmv_multi(A, X, *, kernel="spmv_multi"):
    X = as_multi(X, A.ncols)
    k = X.shape[1]
    rid = A.row_ids()
    Y = np.empty((A.nrows, k))
    for j in range(k):
        Y[:, j] = segment_sum(A.data * X[A.indices, j], rid, A.nrows)
    br, bw = spmv_multi_traffic(A.nrows, A.nnz, k)
    count(kernel, flops=2 * A.nnz * k, bytes_read=br, bytes_written=bw)
    return Y


def ref_spmv_transposed_multi(A, X, *, materialize=False):
    X = as_multi(X, A.nrows)
    k = X.shape[1]
    rid = A.row_ids()
    Y = np.empty((A.ncols, k))
    for j in range(k):
        Y[:, j] = segment_sum(A.data * X[rid, j], A.indices, A.ncols)
    if materialize:
        matrix_bytes = A.nnz * (VAL_BYTES + IDX_BYTES) + (A.nrows + 1) * PTR_BYTES
        count("transpose.per_restriction",
              bytes_read=matrix_bytes + A.nnz * IDX_BYTES,
              bytes_written=matrix_bytes, branches=0, parallel=False)
    br, bw = spmv_multi_traffic(A.ncols, A.nnz, k)
    count("spmv_t_multi", flops=2 * A.nnz * k, bytes_read=br, bytes_written=bw)
    return Y


def ref_spmv_identity_block_multi(P_F, Xc, cperm=None):
    Xc = as_multi(Xc, P_F.ncols)
    k = Xc.shape[1]
    rid = P_F.row_ids()
    Xf_c = Xc if cperm is None else Xc[cperm]
    Xf_f = np.empty((P_F.nrows, k))
    for j in range(k):
        Xf_f[:, j] = segment_sum(P_F.data * Xc[P_F.indices, j], rid, P_F.nrows)
    br, bw = spmv_multi_traffic(P_F.nrows, P_F.nnz, k)
    count("spmv.interp_idblock", flops=2 * P_F.nnz * k,
          bytes_read=br + k * len(Xc) * VAL_BYTES,
          bytes_written=bw + k * len(Xc) * VAL_BYTES)
    return np.concatenate([Xf_c, Xf_f])


def ref_spmv_identity_block_transposed_multi(P_F, Xf, cperm=None):
    Xf = as_multi(Xf, P_F.ncols + P_F.nrows)
    k = Xf.shape[1]
    nc = P_F.ncols
    rid = P_F.row_ids()
    XF = Xf[nc:]
    Y = np.empty((nc, k))
    for j in range(k):
        Y[:, j] = segment_sum(P_F.data * XF[rid, j], P_F.indices, nc)
    if cperm is None:
        Y += Xf[:nc]
    else:
        Y[cperm] += Xf[:nc]
    br, bw = spmv_multi_traffic(nc, P_F.nnz, k)
    count("spmv.restrict_idblock", flops=(2 * P_F.nnz + nc) * k,
          bytes_read=br + k * nc * VAL_BYTES, bytes_written=bw)
    return Y


def ref_residual_multi(A, X, B, *, fused_norm=False):
    X = as_multi(X, A.ncols)
    B = as_multi(B, A.nrows)
    k = X.shape[1]
    n = A.nrows
    rid = A.row_ids()
    R = np.empty((n, k))
    for j in range(k):
        R[:, j] = B[:, j] - segment_sum(A.data * X[A.indices, j], rid, n)
    br, bw = spmv_multi_traffic(n, A.nnz, k)
    if fused_norm:
        nrms = np.empty(k)
        for j in range(k):
            r = np.ascontiguousarray(R[:, j])
            nrms[j] = float(np.sqrt(r @ r))
        count("residual_norm_fused", flops=(2 * A.nnz + 3 * n) * k,
              bytes_read=br + k * n * VAL_BYTES, bytes_written=bw)
        return R, nrms
    count("residual_sub_multi", flops=(2 * A.nnz + n) * k,
          bytes_read=br + k * n * VAL_BYTES, bytes_written=bw)
    return R


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------


@contextmanager
def slab_budget(slots):
    """:data:`repro.sparse.slabs.SLAB_SLOTS` moved for the layouts built
    inside (a small budget: ranked segments, many slices, one-row slices)."""
    saved = slabs.SLAB_SLOTS
    slabs.SLAB_SLOTS = slots
    try:
        yield
    finally:
        slabs.SLAB_SLOTS = saved


@contextmanager
def counting_builds():
    """Spy on :meth:`SpMVLayout.build` — the only place a layout's pattern
    is made (``with_values`` binds values to an existing one)."""
    built = []
    real = SpMVLayout.build.__func__

    def spy(cls, counts, *a):
        built.append(int(counts.sum()))
        return real(cls, counts, *a)

    SpMVLayout.build = classmethod(spy)
    try:
        yield built
    finally:
        SpMVLayout.build = classmethod(real)


def canon(a) -> bytes:
    """Bytes of *a* with every NaN mapped to the canonical one."""
    a = np.array(a, dtype=np.float64)
    a[np.isnan(a)] = np.nan
    return a.tobytes()


def raw(a) -> bytes:
    return np.asarray(a, dtype=np.float64).tobytes()


def fresh(A: CSRMatrix) -> CSRMatrix:
    """Same arrays, nothing memoised."""
    return CSRMatrix(A.shape, A.indptr, A.indices, A.data)


def run_family(A, x, xt, cperm, kernels, same=canon):
    """Every kernel of the family (*kernels* = the module under test or the
    ``ref_`` namespace) on *A*: ``{name: bytes}`` plus the record stream.
    *x* / *xt* have ``A.ncols`` / ``A.nrows`` rows; square-only members
    run when the shapes allow."""
    multi = "_multi" if x.ndim == 2 else ""
    # The library has one polymorphic kernel per name; the reference keeps
    # the single-RHS body and its blocked ``_multi`` twin apart.
    g = ((lambda n: getattr(kernels, n.removesuffix(multi)))
         if kernels is K else (lambda n: globals()["ref_" + n]))
    out = {}
    with np.errstate(all="ignore"), collect() as log:
        out["spmv"] = same(g("spmv" + multi)(A, x))
        out["spmv_t"] = same(g("spmv_transposed" + multi)(A, xt))
        out["spmv_t.mat"] = same(g("spmv_transposed" + multi)(A, xt, materialize=True))
        out["idblock"] = same(g("spmv_identity_block" + multi)(A, x, cperm))
        xf = np.concatenate([x, xt])
        out["idblock_t"] = same(g("spmv_identity_block_transposed" + multi)(A, xf, cperm))
        if A.nrows == A.ncols:
            out["residual"] = same(g("residual" + multi)(A, x, xt))
            r, nrm = g("residual" + multi)(A, x, xt, fused_norm=True)
            out["residual.fused"] = same(r) + same(nrm)
            if not multi:
                y, d = g("spmv_dot_fused")(A, x)
                out["dot_fused"] = same(y) + same(d)
                y, d = g("spmv_dot_fused")(A, x, xt)
                out["dot_fused.w"] = same(y) + same(d)
    return out, log.records


def check_all_arms(A, x, xt, cperm=None, same=canon, budget=1):
    """The slab layout at the shipped budget and at *budget* ≡ the parent's
    bodies ≡ ``np.add.at``."""
    want, want_recs = run_family(fresh(A), x, xt, cperm, None, same)
    for slots in (slabs.SLAB_SLOTS, budget):
        with slab_budget(slots):
            B = fresh(A)
            got, recs = run_family(B, x, xt, cperm, K, same)
        assert all(isinstance(lay, SpMVLayout) for lay in B._layout)
        B.check()                                # incl. "stale slab layout"
        if np.isfinite(A.data).all():
            check_csr(B, full=True, sorted_indices=False)
        assert got == want, slots
        assert recs == want_recs
    with np.errstate(all="ignore"):
        cols = [x, xt] if x.ndim == 1 else [*x.T, *xt.T]
        n = len(cols) // 2
        for v in cols[:n]:
            assert same(_raw_spmv(A, v)) == same(ref_spmv(A, v))
        for v in cols[n:]:
            assert same(_raw_spmv_t(A, v)) == same(ref_spmv_transposed(A, v))


# ---------------------------------------------------------------------------
# Hypothesis: random CSR with everything that can go wrong in it
# ---------------------------------------------------------------------------

SPECIAL = [0.0, -0.0, np.inf, -np.inf, 1.5, -2.25, 1e308, -1e308, 5e-324, 1 / 3]
value = st.one_of(st.sampled_from(SPECIAL),
                  st.floats(allow_nan=False, allow_infinity=False, width=64))
value_or_nan = st.one_of(value, st.sampled_from([np.nan, -np.nan]))


@st.composite
def csr_and_vectors(draw, values=value, widths=(0, 1, 2, 3, 8)):
    """Unsorted, duplicated column indices; empty rows and columns; the
    0 x n, n x 0 and one-row matrices; a block width (0 = 1-D); operands
    strided or not; and a slice budget from one slot (every segment its
    own one-row slice) up."""
    nrows = draw(st.integers(0, 7))
    ncols = draw(st.integers(0, 7))
    nnz = draw(st.integers(0, 30)) if nrows and ncols else 0
    rows = np.sort(np.array(draw(st.lists(st.integers(0, max(nrows - 1, 0)),
                                          min_size=nnz, max_size=nnz)), dtype=np.int64))
    cols = np.array(draw(st.lists(st.integers(0, max(ncols - 1, 0)),
                                  min_size=nnz, max_size=nnz)), dtype=np.int64)
    data = np.array(draw(st.lists(values, min_size=nnz, max_size=nnz)), dtype=np.float64)
    indptr = np.zeros(nrows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=nrows)[:nrows], out=indptr[1:])
    A = CSRMatrix((nrows, ncols), indptr, cols, data)
    k = draw(st.sampled_from(widths))
    strided = draw(st.booleans())

    def vec(n):
        shape = (n,) if k == 0 else (n, k)
        flat = draw(st.lists(values, min_size=n * max(k, 1), max_size=n * max(k, 1)))
        v = np.array(flat, dtype=np.float64).reshape(shape)
        return np.repeat(v, 2, axis=0)[::2] if strided else v

    cperm = (np.array(draw(st.permutations(range(ncols))), dtype=np.int64)
             if draw(st.booleans()) else None)
    budget = draw(st.integers(1, 40))
    return A, vec(ncols), vec(nrows), cperm, budget


class TestBitIdentity:
    @settings(max_examples=150, deadline=None)
    @given(csr_and_vectors())
    def test_nan_free_inputs_raw_bytes(self, case):
        # +-0.0, +-inf, overflow, subnormals; NaNs arise only from
        # inf - inf and 0 * inf, and still compare raw.
        A, x, xt, cperm, budget = case
        check_all_arms(A, x, xt, cperm, same=raw, budget=budget)

    @settings(max_examples=150, deadline=None)
    @given(csr_and_vectors(values=value_or_nan))
    def test_nan_inputs_same_placement(self, case):
        A, x, xt, cperm, budget = case
        check_all_arms(A, x, xt, cperm, same=canon, budget=budget)

    @pytest.mark.parametrize("order", ["F", "strided", "float32", "int"])
    @pytest.mark.parametrize("k", [0, 3])
    def test_operand_layouts(self, order, k, rng):
        A = rotated_anisotropy_2d(6)
        shape = (A.ncols,) if k == 0 else (A.ncols, k)
        x = rng.standard_normal(shape)
        xt = rng.standard_normal(shape)
        if order == "F":
            x, xt = np.asfortranarray(x), np.asfortranarray(xt)
        elif order == "strided":
            x, xt = np.repeat(x, 2, axis=0)[::2], np.repeat(xt, 2, axis=-1)[..., ::2]
            assert not x.flags.c_contiguous
        elif order == "float32":
            x, xt = x.astype(np.float32), xt.astype(np.float32)
        else:
            x, xt = (x * 8).astype(np.int64), (xt * 8).astype(np.int32)
        check_all_arms(A, x, xt, same=raw, budget=40)

    def test_segment_longer_than_16_bits(self, rng):
        # One row (and, transposed, one column) of 70,000 entries: the
        # ranking's radix arm sorts 16-bit keys, this takes the other, and
        # the long segment is a one-row slice at the shipped budget.
        n = 70_000
        A = CSRMatrix((2, n), [0, n, n + 3], np.r_[np.arange(n), 0, 5, 5],
                      rng.standard_normal(n + 3))
        check_all_arms(A, rng.standard_normal(n), rng.standard_normal(2), same=raw)
        check_all_arms(A.transpose(), rng.standard_normal(2),
                       rng.standard_normal(n), same=raw)

    def test_more_than_16_bits_of_columns(self, rng):
        # The column direction's stable sort: uint16 radix arm up to 65,536
        # columns, the int64 arm beyond.
        for ncols in (1 << 16, (1 << 16) + 1):
            cols = rng.integers(0, ncols, 4000)
            cols[:3] = ncols - 1
            A = CSRMatrix((40, ncols), np.arange(0, 4001, 100), cols,
                          rng.standard_normal(4000))
            check_all_arms(A, rng.standard_normal(ncols), rng.standard_normal(40),
                           same=raw)

    @pytest.mark.parametrize("k", [0, 1, 2, 8])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_row_longer_than_the_budget_is_a_one_row_slice(self, k, transposed, rng):
        # A 100-entry segment among 3-entry ones, budget 64: it is a slice
        # of its own, which numpy's reduction would sum pairwise (it does
        # for k = 0 and 1); np.bincount keeps the order.
        lengths = np.r_[3, 100, np.full(30, 3)]
        A = CSRMatrix((len(lengths), 120), np.r_[0, np.cumsum(lengths)],
                      np.concatenate([rng.permutation(120)[:c] for c in lengths]),
                      rng.standard_normal(lengths.sum()))
        if transposed:
            A = A.transpose()
        x = rng.standard_normal((A.ncols, k) if k else A.ncols)
        xt = rng.standard_normal((A.nrows, k) if k else A.nrows)
        with slab_budget(64):
            lay = fresh(A).layout(transposed)
            assert lay.slot is not None
            assert [lv.src.shape for lv in lay.levels if lv.one_row] == [(100, 1)]
        check_all_arms(A, x, xt, same=raw, budget=64)

    @pytest.mark.parametrize("rule, one_row", [
        ((96, 1), False), ((95, 2), True),       # one slice in storage order / ranked
        ((6, 16), False), ((5, 32), True),       # two rows per slice / one
    ])
    def test_either_side_of_both_thresholds(self, rule, one_row, rng):
        # 32 rows of 3 entries: 96 slots in one storage-order slice.  One
        # slot less and the rows are ranked into slices of budget // 3 rows;
        # under 6 that is one row, which sums with bincount.
        budget, nslices = rule
        A = CSRMatrix((32, 40), np.arange(0, 97, 3), rng.integers(0, 40, 96),
                      rng.standard_normal(96))
        x, X = rng.standard_normal(40), rng.standard_normal((40, 3))
        want = raw(ref_spmv(A, x)), raw(ref_spmv_multi(A, X))
        with slab_budget(budget):
            B = fresh(A)
            assert (raw(K.spmv(B, x)), raw(K.spmv(B, X))) == want
        lay = B.layout()
        assert len(lay.levels) == nslices
        assert (lay.slot is None) == (budget >= 96)
        assert any(lv.one_row for lv in lay.levels) is one_row

    def test_decision_is_per_matrix_not_per_width(self, rng):
        A = rotated_anisotropy_2d(6)
        with slab_budget(1):
            A.layout()
        # Built under the small budget; later calls of any width reuse it.
        lay = A._layout[0]
        K.spmv(A, rng.standard_normal(A.ncols))
        K.spmv(A, rng.standard_normal((A.ncols, 8)))
        assert A._layout[0] is lay

    def test_cheby_plan_inline_products(self, rng):
        A = rotated_anisotropy_2d(8)
        diag = A.diagonal()
        b, B = rng.standard_normal(A.nrows), rng.standard_normal((A.nrows, 3))

        def ref_run(x, b):
            # ChebyPlan.run's recurrence over the reference products.
            plan = ChebyPlan(A, diag, 2.0)
            d_ = diag[:, None] if x.ndim == 2 else diag
            dot = ref_spmv_multi if x.ndim == 2 else ref_spmv
            theta, delta, sigma = plan._params()
            rho = 1.0 / sigma
            with collect():
                r = b - dot(A, x)
                d = (r / d_) / theta
                x += d
                for _ in range(plan.degree - 1):
                    r = b - dot(A, x)
                    rho_new = 1.0 / (2.0 * sigma - rho)
                    d = rho_new * rho * d + (2.0 * rho_new / delta) * (r / d_)
                    x += d
                    rho = rho_new
            return x

        want = ref_run(np.zeros(A.nrows), b), ref_run(np.zeros((A.nrows, 3)), B)
        logs = []
        for slots in (slabs.SLAB_SLOTS, 1):
            with slab_budget(slots):
                plan = ChebyPlan(fresh(A), diag, 2.0)
                with collect() as log:
                    got = plan.run(np.zeros(A.nrows), b), plan.run(np.zeros((A.nrows, 3)), B)
            assert isinstance(plan.A._layout[0], SpMVLayout)
            assert [raw(v) for v in got] == [raw(v) for v in want]
            logs.append(log.records)
        assert logs[0] == logs[1]
        for j in range(3):   # the blocked sweep is the single one per column
            assert raw(want[1][:, j]) == raw(plan.run(np.zeros(A.nrows), B[:, j]))

    def test_dist_spmv_on_an_offd_without_entries(self, rng):
        # Block-diagonal operator on 4 ranks: every row of the stacked offd
        # is empty, and `y += spmv(offd, ...)` must add an exact +0.0.
        blocks = [rotated_anisotropy_2d(3).to_dense() for _ in range(4)]
        n = 9
        dense = np.zeros((4 * n, 4 * n))
        for p, blk in enumerate(blocks):
            dense[p * n:(p + 1) * n, p * n:(p + 1) * n] = blk
        A = CSRMatrix.from_dense(dense)
        x = rng.standard_normal(4 * n)
        x[::5] = -0.0
        part = RowPartition.uniform(4 * n, 4)
        comm = SimComm(4)
        Ap = ParCSRMatrix.from_global(A, part)
        halo = build_halo(comm, Ap)
        y = dist_spmv(comm, Ap, ParVector.from_global(x, part), halo)
        diag, offd = Ap.stacked()
        assert offd.nnz == 0 and isinstance(diag._layout[0], SpMVLayout)
        assert [lv.src.shape for lv in offd._layout[0].levels] == [(0, 4 * n)]
        X = np.stack([x, -x], axis=1)
        Y = dist_spmv(comm, Ap, ParVector.from_global(X, part), halo)
        assert raw(y.to_global()) == raw(ref_spmv(A, x))
        assert raw(Y.to_global()) == raw(ref_spmv_multi(A, X))


def contract_operator(rng):
    """32 rows, one of 100 entries among 3-entry ones, over 120 columns."""
    lengths = np.r_[3, 100, np.full(30, 3)]
    return CSRMatrix((len(lengths), 120), np.r_[0, np.cumsum(lengths)],
                     np.concatenate([rng.permutation(120)[:c] for c in lengths]),
                     rng.standard_normal(lengths.sum()))


def block_operand(order, n, rng):
    """An ``(n, k)`` float64 block in memory *order*."""
    if order == "k1":
        return rng.standard_normal((n, 1))
    X = rng.standard_normal((n, 6))
    if order == "F":
        return np.asfortranarray(X)
    if order == "strided_rows":
        return np.repeat(X, 2, axis=0)[::2]
    if order == "strided_cols":
        return X[:, ::2]
    return X


class TestBlockOutputContract:
    """What a blocked product hands back: a C-contiguous float64 ``(nseg, k)``
    whose every column is the vector product's, bit for bit, whatever the
    operand's memory order and whatever the layout's slicing."""

    @pytest.mark.parametrize("order", ["C", "F", "strided_rows", "strided_cols", "k1"])
    @pytest.mark.parametrize("transposed", [False, True])
    @pytest.mark.parametrize("budget", [None, 400, 64, 1])
    def test_c_contiguous_and_columns_are_vector_products(self, order, transposed,
                                                          budget, rng):
        A = contract_operator(rng)
        with slab_budget(slabs.SLAB_SLOTS if budget is None else budget):
            B = fresh(A)
            lay = B.layout(transposed)
        # None: one storage-order slice; 400 and 64: ranked slices (64 cuts
        # the 100-entry row into a one-row slice); 1: one-row slices, and
        # transposed one slice (0, m) of the empty columns after them.
        assert (lay.slot is None) == (budget is None)
        assert (len(lay.levels) == 1) == (budget is None)
        assert any(lv.one_row for lv in lay.levels) == (
            budget == 1 or (budget == 64 and not transposed))
        if budget == 1:
            assert all(lv.one_row for lv in lay.levels if len(lv.src))
            assert any(not len(lv.src) for lv in lay.levels) == transposed
        X = block_operand(order, A.shape[not transposed], rng)
        Y = B._dot(X, transposed)
        assert Y.dtype == np.float64 and Y.shape == (lay.nseg, X.shape[1])
        assert Y.flags.c_contiguous
        hashlib.sha256(Y)        # a buffer hashlib accepts
        for j in range(X.shape[1]):
            want = B._dot(np.ascontiguousarray(X[:, j]), transposed)
            assert raw(Y[:, j]) == raw(want), j


def test_the_per_column_loops_stay_deleted():
    # CI greps the same: one `for j in range(k)` left in sparse/spmv.py
    # (the fused residual norm: BLAS bit-identity needs contiguous
    # columns), neither the kernels nor ChebyPlan call segment_sum, and
    # CSRMatrix._dot has one arm: the layout.
    src = Path(K.__file__).read_text()
    assert src.count("for j in range(k)") == 1
    assert "segment_sum" not in src
    assert "segment_sum" not in Path(solveplan_file).read_text()
    body = inspect.getsource(CSRMatrix._dot).split('"""')[-1]  # the code
    assert body.count("return") == 1 and "bincount" not in body and "segment_sum" not in body


class TestNaNSign:
    def test_what_may_differ_is_only_a_nans_sign(self):
        # data = [inf, 1], x = [0, nan]: the row sums (0 + inf*0) + 1*nan =
        # (-nan) + (+nan).  Which sign survives is not pinned; that the
        # result is NaN, and that finite rows beside it are exact, is.
        A = CSRMatrix((2, 2), [0, 2, 4], [0, 1, 0, 1], [np.inf, 1.0, 2.0, -0.0])
        x = np.array([0.0, np.nan])
        with np.errstate(all="ignore"):
            got = K.spmv(fresh(A), x)
            want = ref_spmv(A, x)
        assert np.isnan(got).tolist() == np.isnan(want).tolist() == [True, True]
        assert canon(got) == canon(want)


# ---------------------------------------------------------------------------
# Robustness: what the layout would otherwise regress
# ---------------------------------------------------------------------------


class TestRobustness:
    @pytest.mark.parametrize("bad", [-1, 40, 1 << 40])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_bad_column_index_raises_at_build(self, bad, transposed, rng):
        # -1 and 40 would read the +0.0 pad row (take() wraps -1 onto it).
        A = CSRMatrix((32, 40), np.arange(0, 97, 3), rng.integers(0, 40, 96),
                      rng.standard_normal(96))
        A.indices[17] = bad
        x = rng.standard_normal(32 if transposed else 40)
        with pytest.raises(IndexError, match="column index"):
            A._dot(x, transposed)
        assert A._layout == [None, None]         # nothing half-built is kept
        with pytest.raises(AssertionError, match="column index"):
            A.check()
        with pytest.raises(InvariantViolation) as e:
            check_csr(A)
        assert e.value.invariant == "csr.indices_range"

    @pytest.mark.parametrize("kernel, xshape", [
        (K.spmv_identity_block, 39), (K.spmv_identity_block_transposed, 71),
        (K.spmv_dot_fused, 39)])
    def test_short_operand_raises_instead_of_clipping(self, kernel, xshape, rng):
        A = CSRMatrix((32, 40), np.arange(0, 97, 3), rng.integers(0, 40, 96),
                      rng.standard_normal(96))
        for slots in (1, slabs.SLAB_SLOTS):
            with slab_budget(slots), pytest.raises(ValueError, match="dimension mismatch"):
                kernel(fresh(A), rng.standard_normal(xshape))

    def test_mutation_without_invalidate_is_reported_and_with_is_correct(self, rng):
        A = rotated_anisotropy_2d(8)
        x = rng.standard_normal(A.ncols)
        K.spmv(A, x)
        K.spmv_transposed(A, x)
        A.check()
        check_csr(A, full=True)
        A.data[3] *= 2.0                         # the layouts snapshot values
        with pytest.raises(AssertionError, match="stale slab layout"):
            A.check()
        with pytest.raises(InvariantViolation) as e:
            check_csr(A, full=True)
        assert e.value.invariant == "csr.stale_layout"
        check_csr(A, full=False)                 # cheap level does not pay for it
        A.invalidate_cache()
        assert A._layout == [None, None] and A._row_ids is None
        assert raw(K.spmv(A, x)) == raw(ref_spmv(A, x))
        assert raw(K.spmv_transposed(A, x)) == raw(ref_spmv_transposed(A, x))
        check_csr(A, full=True)

    def test_check_hierarchy_names_the_stale_level(self):
        A = PROBLEM_BUILDERS["lap3d27g"](6)
        h = amg.build_hierarchy(A, repro.single_node_config(True))
        check_hierarchy(h, full=True)
        last = h.num_levels - 2                  # the coarsest is solved, not multiplied by
        assert isinstance(h.levels[last].A._layout[0], SpMVLayout)
        h.levels[last].A.data[0] += 1.0
        with pytest.raises(InvariantViolation) as e:
            check_hierarchy(h, full=True)
        assert e.value.invariant == "csr.stale_layout" and e.value.level == last

    def test_poison_before_first_product_is_seen(self, rng):
        # tests/test_robustness.py's pattern: the write precedes the build.
        A = rotated_anisotropy_2d(8)
        A.data[0] = np.nan
        with np.errstate(all="ignore"):
            y = K.spmv(A, rng.standard_normal(A.ncols))
        assert np.isnan(y[0]) and np.isfinite(y[1:]).all()


# ---------------------------------------------------------------------------
# Refresh shares the pattern half, gathers the value half
# ---------------------------------------------------------------------------


def layouts_of(h):
    """``{(level, operator, transposed): layout}`` of everything built."""
    out = {}
    for l, lvl in enumerate(h.levels):
        for name in ("A", "P", "P_F", "R"):
            M = getattr(lvl, name)
            for t, lay in enumerate(M._layout if M is not None else ()):
                if lay is not None:
                    out[(l, name, bool(t))] = lay
    return out


def cycle_keys(h):
    """``(level, operator, transposed)`` of every product the cycle performs."""
    keys = set()
    for l, lvl in enumerate(h.levels):
        for M, t in lvl.cycle_products(h.config.flags):
            name = next(n for n in ("A", "P_F", "R", "P") if getattr(lvl, n) is M)
            keys.add((l, name, t))
    return keys


def retained_bytes(layouts, shared=()):
    def arrays(lay):
        return (lay.slabs.src, lay.slabs.emap, lay.slot, lay.vals)

    seen = {id(a) for lay in shared for a in arrays(lay) if a is not None}
    total = 0
    for lay in layouts:
        for a in arrays(lay):
            if a is not None and id(a) not in seen:
                seen.add(id(a))
                total += a.nbytes
    return total


@pytest.fixture(scope="module", params=["lap3d27g", "rotaniso2d"])
def refresh_case(request):
    A = (PROBLEM_BUILDERS["lap3d27g"](12) if request.param == "lap3d27g"
         else rotated_anisotropy_2d(48))
    A2 = CSRMatrix(A.shape, A.indptr, A.indices, A.data * 1.02)
    cfg = repro.single_node_config(True)
    h = amg.build_hierarchy(A, cfg, capture_plan=True)
    return A, A2, cfg, h


class TestRefreshSharesPattern:
    def test_pattern_is_the_parents_only_values_are_new(self, refresh_case, monkeypatch):
        A, A2, cfg, h = refresh_case
        before = layouts_of(h)
        assert before.keys() == cycle_keys(h) and (0, "A", False) in before
        binds = []
        real = SpMVLayout.with_values

        def spy(self, data):
            binds.append(self)
            return real(self, data)

        monkeypatch.setattr(SpMVLayout, "with_values", spy)
        with counting_builds() as built:
            h2 = h.refresh(A2)
        assert built == []                       # no pattern built, nothing sorted
        after = layouts_of(h2)
        assert after.keys() == before.keys()
        assert sorted(map(id, binds)) == sorted(map(id, before.values()))
        for (l, name, t), lay in after.items():
            old = before[(l, name, t)]
            assert lay.slabs is old.slabs and lay.slot is old.slot
            assert lay.vals is not old.vals
            # One take through the shared value map binds the new values.
            data = getattr(h2.levels[l], name).data
            assert raw(lay.vals) == raw(np.append(data, 0.0).take(lay.slabs.emap))
        check_hierarchy(h2, full=True)           # incl. csr.stale_layout
        # A build retains 20 B per slot (src, int32 emap, values) and a
        # ranked layout 8 B per segment (slot); a refresh 8 B per slot.
        slots = sum(len(lay.slabs.src) for lay in before.values())
        ranked = sum(len(lay.slot) for lay in before.values() if lay.slot is not None)
        assert retained_bytes(before.values()) == 20 * slots + 8 * ranked
        assert retained_bytes(after.values(), shared=before.values()) == 8 * slots

    def test_refreshed_solve_is_a_cold_builds(self, refresh_case, rng):
        A, A2, cfg, h = refresh_case
        b, B = rng.standard_normal(A.nrows), rng.standard_normal((A.nrows, 3))
        cold, warm = repro.AMGSolver(cfg), repro.AMGSolver(cfg)
        cold.hierarchy = amg.build_hierarchy(A2, cfg)
        warm.hierarchy = h.refresh(A2)
        r1, r2 = cold.solve(b, tol=1e-8), warm.solve(b, tol=1e-8)
        assert raw(r1.x) == raw(r2.x) and r1.residuals == r2.residuals
        for c, w in zip(cold.solve_many(B, tol=1e-8), warm.solve_many(B, tol=1e-8)):
            assert raw(c.x) == raw(w.x)

    def test_through_the_facade_handle(self, refresh_case, rng):
        A, A2, cfg, _ = refresh_case
        handle = repro.setup(A, cfg, cache=None)
        before = layouts_of(handle.hierarchy)
        with counting_builds() as built:
            handle.update(A2)
            # Level operators: shared.  The *user's* A2 is not a level
            # operator; its row layout is built by its first product.
            assert built == []
            res = handle.solve(rng.standard_normal(A.nrows), method="cg", tol=1e-8)
        assert built == [A2.nnz] and res.converged
        after = layouts_of(handle.hierarchy)
        assert after.keys() == before.keys()
        assert all(after[k].slabs is before[k].slabs for k in after)


# ---------------------------------------------------------------------------
# Built at set-up, never in a solve, on the benchmark's shapes
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def node_lap27():
    A = PROBLEM_BUILDERS["lap3d27g"](20)
    solver = repro.AMGSolver(repro.single_node_config(True))
    with counting_builds() as built:
        solver.setup(A)
    return A, solver, list(built)


class TestBenchmarkShapes:
    def test_node_lap27_builds_every_cycle_product_at_set_up(self, node_lap27):
        A, solver, built = node_lap27
        h = solver.hierarchy
        layouts = layouts_of(h)
        assert layouts.keys() == cycle_keys(h)
        assert sorted(built) == sorted(getattr(h.levels[l], name).nnz
                                       for l, name, _ in layouts)
        # Measured: level 0's A (195,112 entries, 27 per row) is 13 ranked
        # slices; level 2's (6,977 entries, 91 rows) one in storage order.
        assert len(layouts[(0, "A", False)].levels) == 13
        assert layouts[(2, "A", False)].slot is None
        # A row-laid-out operator gives its row-id expansion back (8 B per
        # entry); whoever still asks gets it recomputed.
        A0 = h.levels[0].A
        assert A0._row_ids is None
        assert np.array_equal(A0.row_ids(), np.repeat(np.arange(A0.nrows), np.diff(A0.indptr)))

    def test_node_lap27_solves_build_nothing(self, node_lap27, monkeypatch, rng):
        A, solver, _ = node_lap27
        B = rng.standard_normal((A.nrows, 8))
        calls = [0]
        real = slabs.np.bincount

        import repro.sparse.csr as csr_mod

        def counted(*a):
            calls[0] += 1
            return real(*a)

        monkeypatch.setattr(csr_mod, "segment_sum", counted)
        with counting_builds() as built:
            single = [solver.solve(B[:, j], tol=1e-8) for j in range(8)]
            blocked = solver.solve_many(B, tol=1e-8)
        assert built == []
        assert calls[0] == 0                     # no bincount arm is left
        for s, m in zip(single, blocked):        # columns_match_singles
            assert raw(s.x) == raw(m.x) and s.residuals == m.residuals

    def test_node_lap27_blocked_product_holds_one_slab(self, node_lap27, rng):
        # tracemalloc peak of one level-0 A._dot(X) at k = 8 (8,000 rows,
        # 13 ranked slices, the largest 18 x 910 = 16,380 slots).  With the
        # block on the trailing axis it read 3,121,224 B: the operand copy
        # [x | +0.0] (8 k (n + 1) = 512,064 B), two gathered slabs (the
        # previous slice's was still bound while the next was gathered:
        # 2 x 8 k 16,380 = 2,096,640 B), the output (8 k nseg = 512,000 B)
        # and 520 B of array headers.  Columns first, a call holds the
        # operand copy, one slab and the output; the copy to C order comes
        # after the operand copy and the slabs are freed.
        A0 = node_lap27[1].hierarchy.levels[0].A
        lay, k = A0.layout(), 8
        X = rng.standard_normal((A0.ncols, k))
        A0._dot(X)
        tracemalloc.start()
        try:
            A0._dot(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        slab = max(lv.src.size for lv in lay.levels)
        held = 8 * k * ((A0.ncols + 1) + slab + lay.nseg)
        assert (lay.nseg, slab, len(lay.levels)) == (8000, 16380, 13)
        assert held <= peak <= held + 4096
        assert peak <= 3_121_224

    def test_dist_32_ranks_solves_build_nothing(self, rng):
        A = laplace_3d_27pt(16)
        comm = SimComm(32)
        Ap = ParCSRMatrix.from_global(A, RowPartition.uniform(A.nrows, 32))
        s = DistAMGSolver(comm, multi_node_config("ei"))
        with counting_builds() as built:
            s.setup(Ap)
        h = s.hierarchy
        laid_out = []
        for l, lvl in enumerate(h.levels):
            if lvl.smoother is None:
                continue
            for name in ("A", "P", "R"):
                M = getattr(lvl, name)
                for B in (M.stacked() if M is not None else ()):
                    assert B._layout[0] is not None, (l, name)
                    laid_out.append(B.nnz)
        assert sorted(built) == sorted(laid_out)
        b = ParVector.from_global(rng.standard_normal(A.nrows), Ap.row_part)
        with counting_builds() as built:
            res = dist_fgmres(comm, Ap, b, precondition=s.precondition,
                              tol=1e-7, halo=h.levels[0].halo)
        assert built == [] and res.converged

    def test_serve_mixed_builds_at_set_up_only(self):
        # The mix of the serve-mixed workload: <= 576 rows, <= 10,648
        # entries, every product one storage-order slice.  A warm service
        # serves the whole stream again without building a layout.
        workload = build_workload(WorkloadSpec(
            seed=2, requests=24, rate=4000.0,
            problems=({"problem": "lap2d", "size": 24, "weight": 2.0},
                      {"problem": "lap3d27g", "size": 8, "weight": 1.0},
                      {"problem": "anisotropic", "size": 20, "weight": 1.0}),
            steps=4, step_shift=0.02, tol=1e-8))
        assert max(A.nrows for A in workload.matrices) == 576
        assert max(A.nnz for A in workload.matrices) == 10648
        for max_batch in (1, 8):
            svc = SolveService(ServiceConfig(max_batch=max_batch, max_queue=512))
            assert all(r.ok for r in svc.run_workload(workload))
            assert len(svc.cache) > 0
            for hierarchy, _ in svc.cache._entries.values():
                layouts = layouts_of(hierarchy)
                assert layouts.keys() == cycle_keys(hierarchy)
                assert all(lay.slot is None for lay in layouts.values())
            with counting_builds() as built:
                assert all(r.ok for r in svc.run_workload(workload))
            assert built == []

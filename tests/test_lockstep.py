"""The lockstep segmented-sum core against the ``bincount`` kernels it replaced.

Every member of the SpMV family (six kernels, each on a vector and on an
``(n, k)`` block, ``ChebyPlan``'s inline products, ``dist_spmv`` through
``spmv``) runs on :meth:`CSRMatrix._dot` — the
:class:`~repro.sparse.ops.Lockstep` layout on operators the coverage rule
admits, the ``bincount`` form on the rest.  The oracle here is *not* that
code: the ``ref_*`` functions below are the eleven kernel bodies (six
single-RHS ones and five blocked twins) of the commit before the core, kept
literally (gather, multiply, ``np.bincount(weights=)``, the per-column
loops, the ``count`` calls, the blocked twins' validation and traffic
helpers).  Results are compared as **bytes** (``tobytes()``: signed zeros
count), the record streams with ``==``, and every product additionally
against ``analysis/sanitizers.py``'s independent ``np.add.at`` oracle.

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

import importlib
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.amg as amg
import repro.sparse.ops as ops
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
from repro.sparse.ops import Lockstep
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
def coverage_rule(min_nnz=0, per_step=0):
    """The two constants moved (default: every matrix takes the core)."""
    saved = ops.LOCKSTEP_MIN_NNZ, ops.LOCKSTEP_MIN_SEGMENTS_PER_STEP
    ops.LOCKSTEP_MIN_NNZ, ops.LOCKSTEP_MIN_SEGMENTS_PER_STEP = min_nnz, per_step
    try:
        yield
    finally:
        ops.LOCKSTEP_MIN_NNZ, ops.LOCKSTEP_MIN_SEGMENTS_PER_STEP = saved


@contextmanager
def counting_builds():
    """Spy on :meth:`Lockstep.build` — the only place a layout is sorted."""
    built = []
    real = Lockstep.build.__func__

    def spy(cls, counts, *a):
        built.append(int(counts.sum()))
        return real(cls, counts, *a)

    Lockstep.build = classmethod(spy)
    try:
        yield built
    finally:
        Lockstep.build = classmethod(real)


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


def check_all_arms(A, x, xt, cperm=None, same=canon):
    """Lockstep arm ≡ bincount arm ≡ the parent's bodies ≡ ``np.add.at``."""
    want, want_recs = run_family(fresh(A), x, xt, cperm, None, same)
    with coverage_rule():
        B = fresh(A)
        got, recs = run_family(B, x, xt, cperm, K, same)
        assert A.nnz == 0 or all(isinstance(lay, Lockstep) for lay in B._lockstep)
        B.check()                                # incl. "stale lockstep layout"
        if np.isfinite(A.data).all():
            check_csr(B, full=True, sorted_indices=False)
    assert got == want
    assert recs == want_recs
    with coverage_rule(min_nnz=1 << 62):
        C = fresh(A)
        small, recs = run_family(C, x, xt, cperm, K, same)
        assert C._lockstep == [False, False]
    assert small == want and recs == want_recs
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
    0 x n, n x 0 and one-row matrices; a block width (0 = 1-D)."""
    nrows = draw(st.integers(0, 7))
    ncols = draw(st.integers(0, 7))
    nnz = draw(st.integers(0, 24)) if nrows and ncols else 0
    rows = np.sort(np.array(draw(st.lists(st.integers(0, max(nrows - 1, 0)),
                                          min_size=nnz, max_size=nnz)), dtype=np.int64))
    cols = np.array(draw(st.lists(st.integers(0, max(ncols - 1, 0)),
                                  min_size=nnz, max_size=nnz)), dtype=np.int64)
    data = np.array(draw(st.lists(values, min_size=nnz, max_size=nnz)), dtype=np.float64)
    indptr = np.zeros(nrows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=nrows)[:nrows], out=indptr[1:])
    A = CSRMatrix((nrows, ncols), indptr, cols, data)
    k = draw(st.sampled_from(widths))

    def vec(n):
        shape = (n,) if k == 0 else (n, k)
        flat = draw(st.lists(values, min_size=n * max(k, 1), max_size=n * max(k, 1)))
        return np.array(flat, dtype=np.float64).reshape(shape)

    cperm = (np.array(draw(st.permutations(range(ncols))), dtype=np.int64)
             if draw(st.booleans()) else None)
    return A, vec(ncols), vec(nrows), cperm


class TestBitIdentity:
    @settings(max_examples=150, deadline=None)
    @given(csr_and_vectors())
    def test_nan_free_inputs_raw_bytes(self, case):
        # +-0.0, +-inf, overflow, subnormals; NaNs arise only from
        # inf - inf and 0 * inf, and still compare raw.
        check_all_arms(*case, same=raw)

    @settings(max_examples=150, deadline=None)
    @given(csr_and_vectors(values=value_or_nan))
    def test_nan_inputs_same_placement(self, case):
        check_all_arms(*case, same=canon)

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
        check_all_arms(A, x, xt, same=raw)

    def test_segment_longer_than_16_bits(self, rng):
        # One row (and, transposed, one column) of 70,000 entries: the
        # ranking's radix arm sorts 16-bit keys, this takes the other.
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

    @pytest.mark.parametrize("rule, covered", [
        ((100, 0), False), ((96, 0), True),      # entry floor: nnz = 96
        ((0, 33), False), ((0, 32), True),       # 96 entries / longest 3 = 32 per step
    ])
    def test_either_side_of_both_thresholds(self, rule, covered, rng):
        A = CSRMatrix((32, 40), np.arange(0, 97, 3), rng.integers(0, 40, 96),
                      rng.standard_normal(96))
        x, X = rng.standard_normal(40), rng.standard_normal((40, 3))
        want = raw(ref_spmv(A, x)), raw(ref_spmv_multi(A, X))
        with coverage_rule(*rule):
            B = fresh(A)
            assert (raw(K.spmv(B, x)), raw(K.spmv(B, X))) == want
            assert isinstance(B._lockstep[0], Lockstep) is covered
            assert B.lockstep() is (B._lockstep[0] if covered else None)

    def test_decision_is_per_matrix_not_per_width(self, rng):
        A = rotated_anisotropy_2d(6)
        with coverage_rule():
            A.lockstep()
        # Decided under the low rule; later calls of any width reuse it.
        lay = A._lockstep[0]
        K.spmv(A, rng.standard_normal(A.ncols))
        K.spmv(A, rng.standard_normal((A.ncols, 8)))
        assert A._lockstep[0] is lay

    def test_cheby_plan_inline_products(self, rng):
        A = rotated_anisotropy_2d(8)
        diag = A.diagonal()
        b, B = rng.standard_normal(A.nrows), rng.standard_normal((A.nrows, 3))
        small = ChebyPlan(fresh(A), diag, 2.0)
        with collect() as want_log:
            want = small.run(np.zeros(A.nrows), b), small.run(np.zeros((A.nrows, 3)), B)
        assert small.A._lockstep[0] is False
        for j in range(3):   # the blocked sweep is the single one per column
            assert raw(want[1][:, j]) == raw(small.run(np.zeros(A.nrows), B[:, j]))
        with coverage_rule():
            core = ChebyPlan(fresh(A), diag, 2.0)
            with collect() as log:
                got = core.run(np.zeros(A.nrows), b), core.run(np.zeros((A.nrows, 3)), B)
        assert isinstance(core.A._lockstep[0], Lockstep)
        assert [raw(v) for v in got] == [raw(v) for v in want]
        assert log.records == want_log.records

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
        with coverage_rule():
            comm = SimComm(4)
            Ap = ParCSRMatrix.from_global(A, part)
            halo = build_halo(comm, Ap)
            y = dist_spmv(comm, Ap, ParVector.from_global(x, part), halo)
            diag, offd = Ap.stacked()
            assert offd.nnz == 0 and isinstance(diag._lockstep[0], Lockstep)
            X = np.stack([x, -x], axis=1)
            Y = dist_spmv(comm, Ap, ParVector.from_global(X, part), halo)
        assert raw(y.to_global()) == raw(ref_spmv(A, x))
        assert raw(Y.to_global()) == raw(ref_spmv_multi(A, X))


def test_the_per_column_loops_stay_deleted():
    # CI greps the same: one `for j in range(k)` left in sparse/spmv.py
    # (the fused residual norm: BLAS bit-identity needs contiguous
    # columns), and neither the kernels nor ChebyPlan call segment_sum.
    src = Path(K.__file__).read_text()
    assert src.count("for j in range(k)") == 1
    assert "segment_sum" not in src
    assert "segment_sum" not in Path(solveplan_file).read_text()


class TestNaNSign:
    def test_what_may_differ_is_only_a_nans_sign(self):
        # data = [inf, 1], x = [0, nan]: the row sums (0 + inf*0) + 1*nan =
        # (-nan) + (+nan).  Which sign survives is not pinned; that the
        # result is NaN, and that finite rows beside it are exact, is.
        A = CSRMatrix((2, 2), [0, 2, 4], [0, 1, 0, 1], [np.inf, 1.0, 2.0, -0.0])
        x = np.array([0.0, np.nan])
        with np.errstate(all="ignore"), coverage_rule():
            got = K.spmv(fresh(A), x)
            want = ref_spmv(A, x)
        assert np.isnan(got).tolist() == np.isnan(want).tolist() == [True, True]
        assert canon(got) == canon(want)


# ---------------------------------------------------------------------------
# Robustness: what the core would otherwise regress
# ---------------------------------------------------------------------------


class TestRobustness:
    @pytest.mark.parametrize("bad", [-1, 40, 1 << 40])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_bad_column_index_raises_at_build(self, bad, transposed, rng):
        A = CSRMatrix((32, 40), np.arange(0, 97, 3), rng.integers(0, 40, 96),
                      rng.standard_normal(96))
        A.indices[17] = bad
        x = rng.standard_normal(32 if transposed else 40)
        with coverage_rule(), pytest.raises(IndexError, match="column index"):
            A._dot(x, transposed)
        assert A._lockstep == [None, None]       # nothing half-built is kept
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
        for rule in ((0, 0), (1 << 14, 256)):
            with coverage_rule(*rule), pytest.raises(ValueError, match="dimension mismatch"):
                kernel(fresh(A), rng.standard_normal(xshape))

    def test_mutation_without_invalidate_is_reported_and_with_is_correct(self, rng):
        A = rotated_anisotropy_2d(8)
        x = rng.standard_normal(A.ncols)
        with coverage_rule():
            K.spmv(A, x)
            K.spmv_transposed(A, x)
            A.check()
            check_csr(A, full=True)
            A.data[3] *= 2.0                     # the layouts snapshot values
            with pytest.raises(AssertionError, match="stale lockstep layout"):
                A.check()
            with pytest.raises(InvariantViolation) as e:
                check_csr(A, full=True)
            assert e.value.invariant == "csr.stale_layout"
            check_csr(A, full=False)             # cheap level does not pay for it
            A.invalidate_cache()
            assert A._lockstep == [None, None] and A._row_ids is None
            assert raw(K.spmv(A, x)) == raw(ref_spmv(A, x))
            assert raw(K.spmv_transposed(A, x)) == raw(ref_spmv_transposed(A, x))
            check_csr(A, full=True)

    def test_check_hierarchy_names_the_stale_level(self):
        A = PROBLEM_BUILDERS["lap3d27g"](6)
        with coverage_rule():
            h = amg.build_hierarchy(A, repro.single_node_config(True))
            check_hierarchy(h, full=True)
            last = h.num_levels - 2              # the coarsest is solved, not multiplied by
            assert isinstance(h.levels[last].A._lockstep[0], Lockstep)
            h.levels[last].A.data[0] += 1.0
            with pytest.raises(InvariantViolation) as e:
                check_hierarchy(h, full=True)
        assert e.value.invariant == "csr.stale_layout" and e.value.level == last

    def test_poison_before_first_product_is_seen(self, rng):
        # tests/test_robustness.py's pattern: the write precedes the build.
        A = rotated_anisotropy_2d(8)
        A.data[0] = np.nan
        with coverage_rule(), np.errstate(all="ignore"):
            y = K.spmv(A, rng.standard_normal(A.ncols))
        assert np.isnan(y[0]) and np.isfinite(y[1:]).all()


# ---------------------------------------------------------------------------
# Refresh shares the pattern half, gathers the value half
# ---------------------------------------------------------------------------

PATTERN_FIELDS = ("slot", "bounds", "starts", "entry", "src")


def layouts_of(h):
    """``{(level, operator, transposed): layout}`` of everything covered."""
    out = {}
    for l, lvl in enumerate(h.levels):
        for name in ("A", "P", "P_F", "R"):
            M = getattr(lvl, name)
            for t, lay in enumerate(M._lockstep if M is not None else ()):
                if lay:
                    out[(l, name, bool(t))] = lay
    return out


def retained_bytes(layouts, shared=()):
    seen = {id(a) for lay in shared for a in
            (getattr(lay, f) for f in PATTERN_FIELDS) if isinstance(a, np.ndarray)}
    total = 0
    for lay in layouts:
        for f in (*PATTERN_FIELDS, "vals"):
            a = getattr(lay, f)
            if isinstance(a, np.ndarray) and id(a) not in seen:
                seen.add(id(a))
                total += a.nbytes
    return total


@pytest.fixture(scope="module", params=["lap3d27g", "rotaniso2d"])
def refresh_case(request):
    # Sized so that the real rule covers level 0 (19,683-entry lap3d27g(9)
    # would not have 256 rows per step on level 1; rotaniso(48) does).
    A = (PROBLEM_BUILDERS["lap3d27g"](12) if request.param == "lap3d27g"
         else rotated_anisotropy_2d(48))
    A2 = CSRMatrix(A.shape, A.indptr, A.indices, A.data * 1.02)
    cfg = repro.single_node_config(True)
    h = amg.build_hierarchy(A, cfg, capture_plan=True)
    return A, A2, cfg, h


class TestRefreshSharesPattern:
    def test_pattern_is_the_parents_only_values_are_new(self, refresh_case):
        A, A2, cfg, h = refresh_case
        before = layouts_of(h)
        assert before and (0, "A", False) in before
        with counting_builds() as built:
            h2 = h.refresh(A2)
        assert built == []                       # nothing sorted, nothing decided anew
        after = layouts_of(h2)
        assert after.keys() == before.keys()
        for key, lay in after.items():
            for f in PATTERN_FIELDS:
                assert getattr(lay, f) is getattr(before[key], f), (key, f)
            assert lay.vals is not before[key].vals
        # Undecided / rejected operators stay what they were.
        for lvl, lvl2 in zip(h.levels, h2.levels):
            for name in ("A", "P_F"):
                M, M2 = getattr(lvl, name), getattr(lvl2, name)
                if M is not None:
                    assert [bool(x) for x in M._lockstep] == [bool(x) for x in M2._lockstep]
                    assert [x is None for x in M._lockstep] == [x is None for x in M2._lockstep]
        check_hierarchy(h2, full=True)           # incl. csr.stale_layout
        # 16 B per covered entry of its own (src + vals) for the build, 8 B
        # (vals) for a refresh; `entry` only for column directions.
        covered = sum(len(lay.vals) for lay in before.values())
        cols = sum(len(lay.vals) for (_, _, t), lay in before.items() if t)
        n_sized = sum(2 * len(lay.slot) * 8 for lay in before.values())
        assert retained_bytes(before.values()) == 16 * covered + 8 * cols + n_sized
        assert retained_bytes(after.values(), shared=before.values()) == 8 * covered

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
        assert all(after[k].src is before[k].src for k in after)


# ---------------------------------------------------------------------------
# Coverage and no-build-in-solve on the benchmark's shapes
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def node_lap27():
    A = PROBLEM_BUILDERS["lap3d27g"](20)
    solver = repro.AMGSolver(repro.single_node_config(True))
    with counting_builds() as built:
        solver.setup(A)
    return A, solver, list(built)


class TestBenchmarkShapes:
    def test_node_lap27_covers_exactly_what_the_rule_admits(self, node_lap27):
        A, solver, built = node_lap27
        h = solver.hierarchy
        # Measured: level 0 A 195,112 entries / 27 per row; P_F 55,172
        # entries, rows <= 14, columns <= 111; level 1 A 45,456 / 107.
        # Level 1's P_F (6,819) and everything below are under 2^14.
        assert sorted(layouts_of(h)) == [
            (0, "A", False), (0, "P_F", False), (0, "P_F", True), (1, "A", False)]
        assert sorted(built) == sorted([195112, 55172, 55172, 45456])
        # A row-covered operator gives its row-id expansion back (8 B per
        # entry); whoever still asks gets it recomputed.
        A0 = h.levels[0].A
        assert A0._row_ids is None
        assert np.array_equal(A0.row_ids(), np.repeat(np.arange(A0.nrows), np.diff(A0.indptr)))
        for l, lvl in enumerate(h.levels[:-1]):
            for M, t in lvl.cycle_products(h.config.flags):
                assert M._lockstep[t] is not None, (l, t)    # decided at set-up
                assert bool(M._lockstep[t]) == (
                    M.nnz >= 1 << 14 and M.nnz >= 256 * max(
                        np.bincount(M.indices).max() if t else np.diff(M.indptr).max(), 1))

    def test_node_lap27_solves_build_nothing(self, node_lap27, monkeypatch, rng):
        A, solver, _ = node_lap27
        B = rng.standard_normal((A.nrows, 8))
        calls = [0]
        real = ops.segment_sum

        def counted(*a):
            calls[0] += 1
            return real(*a)

        import repro.sparse.csr as csr_mod
        monkeypatch.setattr(csr_mod, "segment_sum", counted)
        with counting_builds() as built:
            single = [solver.solve(B[:, j], tol=1e-8) for j in range(8)]
            calls[0] = 0
            blocked = solver.solve_many(B, tol=1e-8)
        assert built == []
        # Measured 575 at this commit's parent was 1,158: what is left is
        # the per-column bincount arm on the levels under the rule.
        assert 0 < calls[0] <= 600
        for s, m in zip(single, blocked):        # columns_match_singles
            assert raw(s.x) == raw(m.x) and s.residuals == m.residuals

    def test_dist_32_ranks_solves_build_nothing(self, rng):
        A = laplace_3d_27pt(16)
        comm = SimComm(32)
        Ap = ParCSRMatrix.from_global(A, RowPartition.uniform(A.nrows, 32))
        s = DistAMGSolver(comm, multi_node_config("ei"))
        with counting_builds() as built:
            s.setup(Ap)
        h = s.hierarchy
        covered = {}
        for l, lvl in enumerate(h.levels):
            for name in ("A", "P", "R"):
                M = getattr(lvl, name)
                for block, B in zip(("diag", "offd"), M.stacked() if M is not None else ()):
                    assert B._lockstep[0] is not None or lvl.smoother is None, (l, name)
                    if B._lockstep[0]:
                        covered[(l, name, block)] = B.nnz
        # Measured: the stacked level-0 operator (diag rows <= 9 entries,
        # offd rows <= 21) and level 0's P.offd (rows <= 13).  R.offd
        # (21,841 entries, rows <= 98) and level 1's A.offd (20,012, rows
        # <= 106) are above the floor but have under 256 rows per step.
        assert covered == {(0, "A", "diag"): 32384, (0, "A", "offd"): 64952,
                           (0, "P", "offd"): 21841}
        assert sorted(built) == sorted(covered.values())
        b = ParVector.from_global(rng.standard_normal(A.nrows), Ap.row_part)
        with counting_builds() as built:
            res = dist_fgmres(comm, Ap, b, precondition=s.precondition,
                              tol=1e-7, halo=h.levels[0].halo)
        assert built == [] and res.converged

    def test_serve_mixed_operators_never_get_a_layout(self):
        # The mix of the serve-mixed workload: <= 576 rows, <= 10,648
        # entries — all under the entry floor, so the service executes the
        # parent's instructions.
        workload = build_workload(WorkloadSpec(
            seed=2, requests=24, rate=4000.0,
            problems=({"problem": "lap2d", "size": 24, "weight": 2.0},
                      {"problem": "lap3d27g", "size": 8, "weight": 1.0},
                      {"problem": "anisotropic", "size": 20, "weight": 1.0}),
            steps=4, step_shift=0.02, tol=1e-8))
        assert max(A.nrows for A in workload.matrices) == 576
        assert max(A.nnz for A in workload.matrices) == 10648
        for max_batch in (1, 8):
            with counting_builds() as built:
                svc = SolveService(ServiceConfig(max_batch=max_batch, max_queue=512))
                results = svc.run_workload(workload)
            assert built == []
            assert all(r.ok for r in results)
            assert len(svc.cache) > 0
            for hierarchy, _ in svc.cache._entries.values():
                assert layouts_of(hierarchy) == {}
            assert all(A._lockstep[1] is None and not A._lockstep[0]
                       for A in workload.matrices)

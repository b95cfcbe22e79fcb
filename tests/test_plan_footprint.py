"""What a hierarchy keeps, and that keeping less changes no bit.

* A :class:`~repro.sparse.spgemm.SpGEMMPlan` holds its terms in Gustavson
  expansion order — the ``B`` entry and the output slot of every term, one
  term count per ``A`` entry — and its numeric pass (and the RAP numeric
  passes built on it) is the fresh kernel, byte for byte: duplicate
  output slots, empty rows, products without a term and zero-row
  operands included.
* A compiled GS sweep binds straight from ``A.data``: refreshing it onto
  new values gives the iterates of a fresh compile on those values, bit
  for bit, at widths 0 and 8 — with ``+-inf``/NaN values (the zero-start
  slabs are withdrawn, then readmitted by a later finite refresh) and
  structurally missing diagonals.
* No wavefront schedule survives compilation, and the bytes one
  ``repro.setup`` retains stay where they were measured.
"""

from __future__ import annotations

import dataclasses
import gc
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.amg import build_hierarchy
from repro.amg.smoothers import GSSchedule, HybridGSSmoother
from repro.amg.solveplan import compile_smoother_plan
from repro.config import multi_node_config
from repro.dist import DistAMGSolver, ParCSRMatrix, RowPartition, SimComm
from repro.perf import collect
from repro.problems import laplace_3d_27pt, rotated_anisotropy_2d
from repro.sparse import CSRMatrix, spgemm, spgemm_numeric, spgemm_symbolic
from repro.sparse.spgemm import SpGEMMPlan
from repro.sparse.triple_product import (
    rap_cf_block,
    rap_cf_block_numeric,
    rap_cf_block_plan,
    rap_fused,
    rap_fused_numeric,
    rap_fused_plan,
)
from repro.sparse.transpose import transpose

PLAN = dict(deadline=None, max_examples=80,
            suppress_health_check=[HealthCheck.too_slow])


def _pattern(rng, nrows, ncols, density, *, empty_rows=0.0):
    dense = (rng.random((nrows, ncols)) < density) * rng.standard_normal((nrows, ncols))
    if nrows and empty_rows:
        dense[rng.random(nrows) < empty_rows] = 0.0
    return CSRMatrix.from_dense(dense)


def _revalued(M: CSRMatrix, rng) -> CSRMatrix:
    """Same pattern, new values (explicit zeros and sign flips included)."""
    data = M.data * rng.choice([-1.0, 0.0, 0.5, 3.0], M.nnz)
    return CSRMatrix(M.shape, M.indptr.copy(), M.indices.copy(), data)


def _same_bytes(X: CSRMatrix, Y: CSRMatrix) -> None:
    assert X.shape == Y.shape
    for a, b in ((X.indptr, Y.indptr), (X.indices, Y.indices), (X.data, Y.data)):
        assert a.tobytes() == b.tobytes()


def _per_term_arrays(plan: SpGEMMPlan) -> list[str]:
    """The plan's ndarray fields that hold one element per product term
    (by field, whatever the lengths happen to be)."""
    return [f.name for f in dataclasses.fields(plan)
            if f.name.startswith("term_")
            and isinstance(getattr(plan, f.name), np.ndarray)]


@st.composite
def operands(draw):
    """``(A, B)`` with a matching inner dimension: zero-row and zero-column
    operands, empty operands (no term), empty rows and dense ones (many
    terms per output slot)."""
    n, k, m = (draw(st.integers(0, 10)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    da, db = (draw(st.sampled_from([0.0, 0.15, 0.5, 1.0])) for _ in range(2))
    empty = draw(st.sampled_from([0.0, 0.3]))
    return (_pattern(rng, n, k, da, empty_rows=empty),
            _pattern(rng, k, m, db, empty_rows=empty), rng)


class TestExpansionOrderPlans:
    @given(operands())
    @settings(**PLAN)
    def test_spgemm_numeric_is_the_fresh_product(self, abr):
        A, B, rng = abr
        with collect():
            C, plan = spgemm(A, B, return_plan=True)
            sym = spgemm_symbolic(A, B)
        _same_bytes(C, spgemm(A, B))
        assert _per_term_arrays(plan) == ["term_b", "term_slot"]
        assert len(plan.term_b) == len(plan.term_slot) == plan.expansion
        assert len(plan.a_counts) == A.nnz
        assert int(plan.a_counts.sum()) == plan.expansion
        # Expansion order: A's entries in storage order, each with its
        # B row's entries in storage order.
        starts = B.indptr[A.indices]
        want = np.concatenate([np.arange(s, s + c) for s, c in
                               zip(starts.tolist(), plan.a_counts.tolist())]
                              + [np.empty(0, dtype=np.int64)])
        assert np.array_equal(plan.term_b, want)
        for name in ("term_b", "term_slot", "a_counts"):
            assert np.array_equal(getattr(plan, name), getattr(sym, name))
        A2, B2 = _revalued(A, rng), _revalued(B, rng)
        with collect():
            for p in (plan, sym):
                _same_bytes(spgemm_numeric(p, A2, B2), spgemm(A2, B2))

    @given(st.integers(0, 12), st.integers(0, 6), st.sampled_from([0.1, 0.4, 1.0]),
           st.integers(0, 2**31 - 1))
    @settings(**PLAN)
    def test_rap_numeric_is_the_fresh_product(self, n, nc, density, seed):
        rng = np.random.default_rng(seed)
        A = _pattern(rng, n, n, density, empty_rows=0.2)
        P = _pattern(rng, n, nc, density, empty_rows=0.2)
        with collect():
            R = transpose(P)
            C, fplan = rap_fused_plan(R, A, P)
            _same_bytes(C, rap_fused(R, A, P))
            A2, P2 = _revalued(A, rng), _revalued(P, rng)
            _same_bytes(rap_fused_numeric(fplan, A2, P2),
                        rap_fused(transpose(P2), A2, P2))
        for sub in (fplan.ra, fplan.bp):
            assert _per_term_arrays(sub) == ["term_b", "term_slot"]

        cf = np.where(rng.random(n) < 0.4, 1, -1)
        nci, nf = int((cf > 0).sum()), int((cf <= 0).sum())
        P_F = _pattern(rng, nf, nci, density, empty_rows=0.2)
        with collect():
            C, cplan = rap_cf_block_plan(A, P_F, cf)
            _same_bytes(C, rap_cf_block(A, P_F, cf))
            P_F2 = _revalued(P_F, rng)
            _same_bytes(rap_cf_block_numeric(cplan, A2, P_F2),
                        rap_cf_block(A2, P_F2, cf))
        for sub in (cplan.p_fc, cplan.p_ff, cplan.p_inner):
            assert _per_term_arrays(sub) == ["term_b", "term_slot"]

    @pytest.mark.parametrize("rap_scheme", ["cf_block", "fused"])
    def test_plan_maps_are_32_bit(self, rap_scheme):
        cfg = repro.single_node_config(True)
        if rap_scheme == "fused":
            cfg = dataclasses.replace(cfg, flags=dataclasses.replace(
                cfg.flags, rap_scheme="fused", cf_reorder=False,
                three_way_partition=False))
        h = build_hierarchy(rotated_anisotropy_2d(24), cfg, capture_plan=True)
        assert h.plan is not None
        assert any(lp.p_perm is not None or lp.r_perm is not None
                   for lp in h.plan.levels)
        for lp in h.plan.levels:
            maps = [lp.entry_perm, lp.p_perm, lp.r_perm]
            rap = lp.rap
            if hasattr(rap, "blocks"):
                maps += [emap for *_, emap in rap.blocks.values()] + [rap.pft_perm]
            else:
                maps.append(rap.r_perm)
            for sub in (getattr(rap, n, None) for n in
                        ("ra", "bp", "p_fc", "p_ff", "p_inner")):
                if sub is not None:
                    maps += [sub.term_b, sub.term_slot, sub.a_counts]
            for m in maps:
                assert m is None or m.dtype == np.int32


# ---------------------------------------------------------------------------
# Compiled sweeps rebind from A.data
# ---------------------------------------------------------------------------

def _without_some_diagonals(A: CSRMatrix, rng) -> CSRMatrix:
    """*A* with a few diagonal entries structurally removed."""
    rid = A.row_ids()
    drop = (A.indices == rid) & (rng.random(A.nnz) < 0.15)
    keep = ~drop
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rid[keep], minlength=A.nrows))))
    return CSRMatrix(A.shape, indptr, A.indices[keep], A.data[keep])


def _values(A: CSRMatrix, rng, special: str) -> CSRMatrix:
    data = A.data * (1.0 + 0.2 * rng.standard_normal(A.nnz))
    if special != "finite":
        hit = rng.random(A.nnz) < 0.05
        data[hit] = {"inf": np.inf, "-inf": -np.inf, "nan": np.nan}[special]
    return CSRMatrix(A.shape, A.indptr, A.indices, data)


def _compiled(A: CSRMatrix, cf, variant: str) -> HybridGSSmoother:
    sm = HybridGSSmoother(A, nthreads=3, cf_marker=cf, variant=variant)
    compile_smoother_plan(sm)
    return sm


def _sweeps(sm: HybridGSSmoother, k: int, rng) -> list[bytes]:
    shape = (sm.A.nrows, k) if k else (sm.A.nrows,)
    b, x0 = rng.standard_normal(shape), rng.standard_normal(shape)
    outs = []
    with np.errstate(all="ignore"), collect():
        x = np.zeros(shape)
        outs.append(sm.presmooth(x, b, zero_guess=True).tobytes())
        outs.append(sm.postsmooth(x, b).tobytes())
        outs.append(sm.presmooth(x0.copy(), b).tobytes())
    return outs


class TestSweepRebinding:
    @pytest.mark.parametrize("variant", ["hybrid", "lex"])
    @pytest.mark.parametrize("missing_diag", [False, True])
    @pytest.mark.parametrize("special", ["inf", "-inf", "nan"])
    def test_refresh_is_a_fresh_compile(self, variant, missing_diag, special):
        rng = np.random.default_rng(11)
        A = laplace_3d_27pt(5)
        if missing_diag:
            A = _without_some_diagonals(A, rng)
        cf = (np.arange(A.nrows) % 3 == 0).astype(np.int64)
        # finite -> non-finite (zero-start withdrawn) -> finite (readmitted).
        chain = [_values(A, rng, s) for s in ("finite", special, "finite", special)]
        sm = _compiled(chain[0], cf, variant)
        for M in chain[1:]:
            sm = HybridGSSmoother.from_numeric(sm, M)
            fresh = _compiled(M, cf, variant)
            finite = bool(np.isfinite(M.data).all())
            for key, cs in sm._plan.sweeps.items():
                if cs is None:
                    continue
                cold = fresh._plan.sweeps[key]
                assert (cs.zlevels is None) == (cold.zlevels is None)
                if cs.zslabs is not None:
                    # Withdrawn exactly while some swept value is not finite.
                    assert (cs.zlevels is not None) == bool(
                        np.isfinite(np.concatenate([lv.vals.ravel() for lv in cs.levels])).all())
                    if finite:
                        assert cs.zlevels is not None
            for k in (0, 8):
                seed = int(rng.integers(2**31))
                assert (_sweeps(sm, k, np.random.default_rng(seed))
                        == _sweeps(fresh, k, np.random.default_rng(seed)))

    def test_an_uncompiled_smoother_refreshes_like_a_compiled_one(self):
        rng = np.random.default_rng(2)
        A = laplace_3d_27pt(4)
        cf = (np.arange(A.nrows) % 2 == 0).astype(np.int64)
        A2 = _values(A, rng, "finite")
        lazy = HybridGSSmoother.from_numeric(
            HybridGSSmoother(A, nthreads=3, cf_marker=cf), A2)
        eager = HybridGSSmoother.from_numeric(_compiled(A, cf, "hybrid"), A2)
        assert _sweeps(lazy, 0, np.random.default_rng(1)) == _sweeps(
            eager, 0, np.random.default_rng(1))


# ---------------------------------------------------------------------------
# What a compiled hierarchy retains
# ---------------------------------------------------------------------------

#: Not descended: leaves, and the code objects through which every module
#: global (another test's smoothers included) would be reachable.
_OPAQUE = (np.ndarray, str, bytes, int, float, type, types.ModuleType,
           types.FunctionType, types.BuiltinFunctionType, types.MethodType,
           types.CodeType)


def _reachable(root, cls) -> list:
    """Instances of *cls* reachable from *root* through its data (instance
    attributes and containers)."""
    seen, found, stack = set(), [], [root]
    while stack:
        o = stack.pop()
        if id(o) in seen or isinstance(o, _OPAQUE):
            continue
        seen.add(id(o))
        if isinstance(o, cls):
            found.append(o)
        stack.extend(gc.get_referents(o))
    return found


#: tracemalloc-retained bytes of ``repro.setup(rotated_anisotropy_2d(64))``
#: with this storage, measured on x86-64 with numpy 2.4 (sorted-order
#: product plans and retained wavefront schedules took 22,229,419 B; a
#: lockstep layout on level 0's ``A`` alone, in place of a slab layout on
#: every cycle product, 16,634,735 B).
RETAINED_BYTES = 17_989_742


class TestFootprint:
    def test_no_schedule_survives_compilation(self):
        h = repro.setup(rotated_anisotropy_2d(24), cache=None).hierarchy
        assert h.plan is not None
        assert _reachable(h, GSSchedule) == []
        for lvl in h.levels:
            if lvl.smoother is not None and lvl.smoother.variant in ("hybrid", "lex"):
                assert lvl.smoother._schedules is None

    def test_no_schedule_or_rank_smoother_in_a_distributed_hierarchy(self):
        A = laplace_3d_27pt(6)
        part = RowPartition.uniform(A.nrows, 4)
        s = DistAMGSolver(SimComm(4), multi_node_config("ei", nthreads=2))
        with collect():
            s.setup(ParCSRMatrix.from_global(A, part))
        assert _reachable(s.hierarchy, GSSchedule) == []
        smoothers = _reachable(s.hierarchy, HybridGSSmoother)
        # One stacked smoother per smoothed level, none per rank.
        assert len(smoothers) == sum(
            lvl.smoother is not None for lvl in s.hierarchy.levels)

    def test_retained_bytes_of_one_setup(self):
        repro.setup(rotated_anisotropy_2d(8), cache=None)  # warm caches
        A = rotated_anisotropy_2d(64)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            handle = repro.setup(A, cache=None)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert handle.hierarchy.plan is not None
        assert retained <= 1.05 * RETAINED_BYTES, retained

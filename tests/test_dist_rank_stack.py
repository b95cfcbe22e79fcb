"""Node kernels over the rank stack against the per-rank builds they replaced.

``DistSmoother`` builds each hybrid-GS wavefront schedule once over the
stacked ``diag`` (thread blocks balanced within each rank), the Fig. 4
renumbering and ``ParCSRMatrix.from_sorted`` number their ``(rank, column)``
keys through one dense map, and ``dist_extended_i`` runs the node kernel once
per chunk of ranks over the block-diagonal stack of their compact blocks.
The oracles here are the per-rank bodies: one ``HybridGSSmoother`` per rank,
its schedules built by ``test_gs_levels.ref_build_gs_schedule`` and merged by
``ref_merge_schedules`` (the deleted ``merge_schedules``, kept literally),
per-rank renumbering, and one ``extended_i_interpolation`` call
per block.  Everything is compared bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_dist_setup_stacked import (
    assert_blocks_equal,
    assert_csr_identical,
    assert_same_logs,
    partition,
    random_matrix,
    ref_from_global,
    ref_renumber_baseline,
    ref_renumber_parallel,
)
from test_dist_stacked import sym_matrix
from test_gs_levels import (
    RefSchedule,
    assert_same_schedule,
    converted,
    ref_build_gs_schedule,
)

import repro.dist.interp as dist_interp
import repro.sparse.ops as ops
from repro.amg import extended_i_interpolation, pmis, strength_matrix
from repro.amg.interp_extended import extended_i_blocks
from repro.amg.smoothers import HybridGSSmoother, block_of_rows
from repro.amg.solveplan import SweepCounts, sweep_record
from repro.dist import (
    ParCSRMatrix,
    RowPartition,
    SimComm,
    build_halo,
    dist_extended_i,
    dist_pmis,
    dist_strength,
)
from repro.dist.renumber import renumber_ranks
from repro.dist.smoothers import DistSmoother
from repro.perf.counters import collect, phase, silent
from repro.problems import laplace_2d_5pt, laplace_3d_27pt
from repro.sparse import CSRMatrix

# ---------------------------------------------------------------------------
# Stacked GS schedules
# ---------------------------------------------------------------------------


def ref_merge_schedules(scheds, offsets, entry_offsets):
    """The deleted ``merge_schedules``: independent blocks' schedules side
    by side, level *l* of the result being level *l* of every block."""
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
    pos = np.empty(len(r_order), dtype=np.int64)
    pos[r_order] = np.arange(len(r_order))
    row_base = np.cumsum([0] + [s.nrows for s in scheds[:-1]])
    levels = np.arange(nlev + 1)
    return RefSchedule(
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


def ref_pass_records(local, forward, zero_guess):
    """The old ``_pass_records`` of a GS smoother: from its own schedules."""
    recs = []
    order = range(len(local.groups))
    for gi in order if forward else reversed(order):
        sched = local._schedules[(gi, forward)]
        if sched.nrows:
            recs.append(sweep_record(
                SweepCounts.of(sched), 0, zero_guess, kernel="gs.hybrid",
                optimized=local.optimized, contiguous_rows=local.cf_contiguous))
            zero_guess = False
    return recs


PASSES = ((True, True), (True, False), (False, False))


@st.composite
def gs_cases(draw):
    n = draw(st.integers(1, 90))
    nranks = draw(st.integers(1, 6))
    # Non-uniform partitions, zero-row ranks included.
    cuts = draw(st.lists(st.integers(0, n), min_size=nranks - 1,
                         max_size=nranks - 1))
    # Per rank: a random split, all C, or all F; or no C/F ordering.
    kinds = draw(st.lists(st.sampled_from(["mixed", "C", "F"]),
                          min_size=nranks, max_size=nranks))
    return dict(n=n, cuts=cuts, kinds=kinds,
                cf=draw(st.booleans()),
                variant=draw(st.sampled_from(["hybrid", "lex"])),
                nthreads=draw(st.integers(1, 14)),
                optimized=draw(st.booleans()),
                seed=draw(st.integers(0, 2**31 - 1)))


def check_gs_stack(n, cuts, kinds, cf, variant, nthreads, optimized, seed):
    A = sym_matrix(n, seed % 1000, density=min(0.5, 5.0 / n))
    part = partition(n, cuts)
    rng = np.random.default_rng(seed)
    cf_parts = None
    if cf:
        cf_parts = []
        for p, kind in enumerate(kinds):
            m = part.size(p)
            cf_parts.append({"C": np.ones(m, dtype=np.int64),
                             "F": -np.ones(m, dtype=np.int64),
                             "mixed": rng.choice([-1, 1], m)}[kind])
    kw = dict(nthreads=nthreads, variant=variant, optimized=optimized)

    # The per-rank reference: one smoother per rank, merged; the old
    # DistSmoother's set-up log (halo, then every rank's build on its rank).
    rcomm = SimComm(part.nranks)
    rAp = ParCSRMatrix.from_global(A, part)
    with phase("Setup_etc"):
        build_halo(rcomm, rAp, persistent=True)
        local = []
        for p, blk in enumerate(rAp.blocks):
            with rcomm.on_rank(p):
                local.append(HybridGSSmoother(
                    blk.diag, cf_marker=None if cf_parts is None else cf_parts[p],
                    seed=p, **kw))
    offsets = part.bounds[:-1]
    entry_offsets = np.cumsum([0] + [s.A.nnz for s in local[:-1]])

    def ref_schedules(s):
        """Rank smoother *s*'s schedules, built by the reference."""
        return {(gi, fwd): ref_build_gs_schedule(
                    s.A, block_of_rows(s.A.nrows, s.nthreads, s.A, rows), forward=fwd)
                for gi, rows in enumerate(s.groups) for fwd in (True, False)}

    refs = [ref_schedules(s) for s in local]

    Ap = ParCSRMatrix.from_global(A, part)
    with silent():
        stacked = HybridGSSmoother(
            Ap.diag, nthreads,
            None if cf_parts is None else np.concatenate(cf_parts),
            variant=variant, optimized=optimized, stack=part.bounds)
    assert sorted(stacked._schedules) == sorted(local[0]._schedules)
    for key, got in stacked._schedules.items():
        want = ref_merge_schedules([r[key] for r in refs], offsets, entry_offsets)
        assert_same_schedule(got, converted(want, n))

    comm = SimComm(part.nranks)
    with phase("Setup_etc"):
        sm = DistSmoother(comm, Ap, cf_parts, **kw)
    for key in PASSES:
        assert sm._pass_recs[key].live("GS", None) == tuple(
            tuple(ref_pass_records(s, *key)) for s in local), key
    assert_same_logs(comm, rcomm)


class TestStackedSchedules:
    @given(gs_cases())
    @settings(deadline=None, max_examples=120,
              suppress_health_check=[HealthCheck.too_slow])
    def test_schedules_and_pass_tables_equal_the_merged_per_rank_build(self, case):
        check_gs_stack(**case)

    @pytest.mark.parametrize("variant", ["hybrid", "lex"])
    @pytest.mark.parametrize("nthreads", [1, 3, 14])
    def test_empty_all_c_and_all_f_ranks(self, variant, nthreads):
        check_gs_stack(n=40, cuts=[0, 10, 10, 25], kinds=["C", "C", "F", "mixed", "F"],
                       cf=True, variant=variant, nthreads=nthreads,
                       optimized=False, seed=11)

    def test_block_ids_are_offset_by_rank(self):
        A = sym_matrix(30, 2)
        bounds = np.array([0, 12, 12, 30])
        blk = block_of_rows(30, 4, A, stack=bounds)
        assert set(blk[:12].tolist()) <= set(range(4))
        assert set(blk[12:].tolist()) <= set(range(8, 12))
        # Each part alone is the single-operator balancing of its rows.
        for p in (0, 2):
            lo, hi = bounds[p], bounds[p + 1]
            sub = A.extract_rows(np.arange(lo, hi))
            np.testing.assert_array_equal(blk[lo:hi] - 4 * p,
                                          block_of_rows(hi - lo, 4, sub))


# ---------------------------------------------------------------------------
# Dense maps: renumbering and from_sorted on both arms
# ---------------------------------------------------------------------------


ARMS = {"dense": 10**9, "sort": 0}


@pytest.fixture(params=sorted(ARMS))
def arm(request, monkeypatch):
    """Force one arm of ``unique_inverse`` everywhere."""
    monkeypatch.setattr(ops, "GROUP_MARKER_DENSITY", ARMS[request.param])
    return request.param


class TestDenseMaps:
    @pytest.mark.parametrize("parallel", [True, False])
    @pytest.mark.parametrize("seed", range(4))
    def test_renumber_ranks_with_silent_ranks_and_empty_colmaps(
            self, arm, parallel, seed):
        rng = np.random.default_rng(seed)
        nranks, ncols = 6, 40
        # Rank 1 has no colmap, rank 2 no queries, rank 4 neither.
        colmaps = [np.unique(rng.integers(0, ncols, 7)) for _ in range(nranks)]
        colmaps[1] = colmaps[4] = np.empty(0, dtype=np.int64)
        queries = [rng.integers(0, ncols, 12) for _ in range(nranks)]
        queries[2] = queries[4] = np.empty(0, dtype=np.int64)
        ext_ptr = np.cumsum([0] + [len(c) for c in colmaps])
        q_key = np.concatenate([p * ncols + q for p, q in enumerate(queries)])

        comm, rcomm = SimComm(nranks), SimComm(nranks)
        ren = renumber_ranks(comm, np.concatenate(colmaps), ext_ptr, q_key,
                             ncols, parallel=parallel, nthreads=4)
        ref = ref_renumber_parallel if parallel else ref_renumber_baseline
        kw = {"nthreads": 4} if parallel else {}
        want = []
        for p in range(nranks):
            with rcomm.on_rank(p):
                want.append(ref(colmaps[p], queries[p], **kw))
        for p, (colmap_new, compressed, n_app) in enumerate(want):
            got_app = ren.appended[ren.app_ptr[p]: ren.app_ptr[p + 1]]
            np.testing.assert_array_equal(
                np.concatenate([colmaps[p], got_app]), colmap_new)
            assert len(got_app) == n_app
        np.testing.assert_array_equal(
            ren.compressed, np.concatenate([w[1] for w in want]))
        assert ren.compressed.dtype == np.int64
        assert_same_logs(comm, rcomm)

    @pytest.mark.parametrize("cuts, ccuts", [
        ([0, 9, 20], [4, 4, 30]),      # a rank with no rows, one with no columns
        ([10, 10, 10], [0, 15, 40]),
    ])
    def test_from_sorted_with_empty_colmaps(self, arm, cuts, ccuts):
        A = random_matrix(30, 40, seed=3)
        # Rows 0-8 keep only their own columns: rank 0's colmap is empty.
        dense = A.to_dense()
        dense[:9, 4:] = 0.0
        A = CSRMatrix.from_dense(dense)
        row_part, col_part = partition(30, cuts), partition(40, ccuts)
        M = ParCSRMatrix.from_sorted(A, row_part, col_part)
        assert_blocks_equal(M, ref_from_global(A, row_part, col_part))
        assert M.offd.indices.dtype == np.int64


# ---------------------------------------------------------------------------
# Extended+i over a block stack
# ---------------------------------------------------------------------------


def block_diag(mats):
    """The block-diagonal stack of square CSR matrices."""
    offs = np.cumsum([0] + [M.nrows for M in mats])
    nnz = np.cumsum([0] + [M.nnz for M in mats])
    return CSRMatrix(
        (int(offs[-1]), int(offs[-1])),
        np.concatenate([[0]] + [M.indptr[1:] + e for M, e in zip(mats, nnz)]),
        np.concatenate([np.empty(0, np.int64)]
                       + [M.indices + o for M, o in zip(mats, offs)]),
        np.concatenate([np.empty(0)] + [M.data for M in mats])), offs


def exti_block(A, active_frac, seed, all_c=False):
    S = strength_matrix(A, 0.25, 0.8)
    cf = np.ones(A.nrows, dtype=np.int64) if all_c else pmis(S, seed=seed)
    active = np.random.default_rng(seed).random(A.nrows) < active_frac
    return A, S, cf, active


class TestExtendedIOverBlocks:
    @pytest.mark.parametrize("trunc", [
        dict(), dict(fused_truncation=False), dict(truncate=False),
        dict(trunc_fact=0.0, max_elmts=0), dict(reordered=False)])
    def test_blocks_equal_their_own_calls(self, trunc):
        blocks = [
            exti_block(laplace_2d_5pt(6), 0.7, 1),
            exti_block(laplace_3d_27pt(3), 1.0, 2),
            exti_block(CSRMatrix.from_dense(np.zeros((0, 0))), 1.0, 3),
            exti_block(laplace_2d_5pt(4), 1.0, 4, all_c=True),   # no F rows
            exti_block(laplace_2d_5pt(5), 0.0, 5),               # nothing active
            exti_block(laplace_3d_27pt(4), 0.5, 6),
        ]
        want_P, want_recs = [], []
        for A, S, cf, active in blocks:
            with collect() as log:
                want_P.append(extended_i_interpolation(
                    A, S, cf, active_rows=active, **trunc))
            want_recs.append(log.records)
        A, offs = block_diag([b[0] for b in blocks])
        S, _ = block_diag([b[1] for b in blocks])
        cf = np.concatenate([b[2] for b in blocks])
        active = np.concatenate([b[3] for b in blocks])
        with collect() as log:
            P, recs = extended_i_blocks(A, S, cf, offs, active_rows=active,
                                        **trunc)
        assert log.records == []
        assert recs == want_recs
        # P is every block's own P side by side (coarse columns in order).
        nc = np.cumsum([0] + [Pb.ncols for Pb in want_P])
        for b, Pb in enumerate(want_P):
            got = CSRMatrix(
                Pb.shape, P.indptr[offs[b]: offs[b + 1] + 1] - P.indptr[offs[b]],
                P.indices[P.indptr[offs[b]]: P.indptr[offs[b + 1]]] - nc[b],
                P.data[P.indptr[offs[b]]: P.indptr[offs[b + 1]]])
            assert_csr_identical(got, Pb)
        assert P.shape == (len(cf), int(nc[-1]))

    @pytest.mark.parametrize("chunk, sizes", [(4, [4, 3]), (3, [3, 3, 1])])
    def test_chunked_dist_build_equals_per_rank_calls(self, monkeypatch,
                                                      chunk, sizes):
        """7 ranks in chunks of 4 or 3 (a short last chunk either way)
        against one node-kernel call per rank: P, messages, collectives and
        every rank's records equal."""
        A = laplace_3d_27pt(6)
        part = RowPartition(np.array([0, 30, 30, 75, 110, 150, 190, 216]))

        def build(chunk):
            monkeypatch.setattr(dist_interp, "CHUNK_RANKS", chunk)
            comm = SimComm(7)
            Ap = ParCSRMatrix.from_global(A, part)
            S = dist_strength(comm, Ap, 0.25, 0.8)
            cf = dist_pmis(comm, S, seed=3)
            with phase("Interp"):
                P, cp = dist_extended_i(comm, Ap, S, cf)
            return comm, P, cp

        calls = []
        kernel = dist_interp.extended_i_blocks
        monkeypatch.setattr(dist_interp, "extended_i_blocks",
                            lambda *a, **k: calls.append(len(a[3]) - 1)
                            or kernel(*a, **k))
        comm, P, cp = build(chunk)
        assert calls == sizes
        rcomm, rP, rcp = build(1)
        assert cp.n == rcp.n
        for got, want in ((P.diag, rP.diag), (P.offd, rP.offd)):
            assert_csr_identical(got, want)
        np.testing.assert_array_equal(P.colmap, rP.colmap)
        assert_same_logs(comm, rcomm)

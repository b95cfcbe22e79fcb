"""The rank-stacked distributed set-up against the per-rank loops it replaced.

``ParCSRMatrix`` stores its ranks row-concatenated and every set-up kernel
on the ext+i path runs once over all of them, logging messages in batches
and per-rank records from segment sums.  The oracle here is *not* that
code: the ``ref_*`` functions below are the deleted per-rank bodies of
``_split_rows``, ``gather_matrix_rows``, ``dist_transpose``,
``dist_strength``, ``renumber_parallel`` (with its ``_finish``) and the
``HaloExchange`` pattern loop, kept literally — ``comm.log_message`` per
message, ``with on_rank(comm, p)`` per rank, one ``from_coo`` per block.
Everything is compared bit for bit: arrays with ``np.array_equal``, the
message log, the collectives and every rank's record stream with ``==``.

Whole hierarchies are pinned by ``tests/golden/dist_setup_streams.json``
(generated at the parent commit, see ``tests/dist_setup_cases.py``), and the
benchmark's 32-rank shape by exact call counts.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dist_setup_cases
from conftest import on_rank
from repro.analysis import check_scope
from repro.config import multi_node_config
from repro.dist import (
    DistAMGSolver,
    ParCSRMatrix,
    RowPartition,
    SimComm,
    build_halo,
    dist_strength,
    dist_transpose,
    gather_matrix_rows,
    renumber_baseline,
    renumber_parallel,
)
from repro.dist.parcsr import CHUNK_RANKS
from repro.perf.counters import (
    IDX_BYTES,
    PTR_BYTES,
    VAL_BYTES,
    collect,
    count,
)
from repro.problems import laplace_3d_27pt
from repro.sparse import CSRMatrix
from repro.sparse.ops import segment_sum
from repro.topo import NodeTopology

GLOBAL_IDX_BYTES = 8

# ---------------------------------------------------------------------------
# The per-rank reference: the bodies this PR deleted
# ---------------------------------------------------------------------------


def row_arrays_global(blk, col_lo):
    rows = np.concatenate([blk.diag.row_ids(), blk.offd.row_ids()])
    cols = np.concatenate([blk.diag.indices + col_lo,
                           blk.colmap[blk.offd.indices]])
    return rows, cols, np.concatenate([blk.diag.data, blk.offd.data])


def ref_split_rows(local_rows, global_cols, vals, nrows, col_part, rank):
    """Old ``_split_rows``: ``(diag, offd, colmap)`` of one rank."""
    lo, hi = col_part.lo(rank), col_part.hi(rank)
    nloc = hi - lo
    in_diag = (global_cols >= lo) & (global_cols < hi)

    diag = CSRMatrix.from_coo(
        (nrows, nloc), local_rows[in_diag], global_cols[in_diag] - lo, vals[in_diag]
    )
    ext_cols = global_cols[~in_diag]
    colmap = np.unique(ext_cols)
    comp = np.searchsorted(colmap, ext_cols)
    offd = CSRMatrix.from_coo(
        (nrows, len(colmap)), local_rows[~in_diag], comp, vals[~in_diag]
    )
    return diag, offd, colmap


def ref_from_global(A, row_part, col_part):
    blocks = []
    for p in range(row_part.nranks):
        rows = row_part.range(p)
        local, cols, vals = A.row_slice_arrays(rows)
        blocks.append(ref_split_rows(local, cols, vals, len(rows), col_part, p))
    return blocks


def ref_gather_matrix_rows(comm, B, needed, *, tag="rowgather",
                           entry_filter=None, extra_payloads=None,
                           extra_bytes_per_entry=0.0):
    """Old ``gather_matrix_rows``: per requester, per owner."""
    nranks = comm.nranks
    results = []

    owner_rows, owner_cols, owner_vals, owner_extra = [], [], [], []
    for q, blk in enumerate(B.blocks):
        r, c, v = row_arrays_global(blk, B.col_part.lo(q))
        order = np.lexsort((c, r))
        owner_rows.append(r[order])
        owner_cols.append(c[order])
        owner_vals.append(v[order])
        ex = {}
        if extra_payloads:
            for name, per_rank in extra_payloads.items():
                ex[name] = per_rank[q][order]
        owner_extra.append(ex)

    for p in range(nranks):
        want = np.asarray(needed[p], dtype=np.int64)
        want = np.unique(want)
        owners = B.row_part.owner_of(want)
        pieces_rows, pieces_cols, pieces_vals = [], [], []
        pieces_extra = {name: [] for name in (extra_payloads or {})}
        for q in np.unique(owners):
            q = int(q)
            rows_q = want[owners == q]
            if q != p:
                comm.log_message(p, q, len(rows_q) * GLOBAL_IDX_BYTES,
                                 tag=tag + ".req")
            local = rows_q - B.row_part.lo(q)
            sel = np.isin(owner_rows[q], local)
            r_sel = owner_rows[q][sel] + B.row_part.lo(q)
            c_sel = owner_cols[q][sel]
            v_sel = owner_vals[q][sel]
            ex_sel = {name: arr[sel] for name, arr in owner_extra[q].items()}
            if entry_filter is not None:
                keep = entry_filter(p, r_sel, c_sel, v_sel)
                r_sel, c_sel, v_sel = r_sel[keep], c_sel[keep], v_sel[keep]
                ex_sel = {name: arr[keep] for name, arr in ex_sel.items()}
            if q != p:
                nbytes = len(v_sel) * (
                    VAL_BYTES + GLOBAL_IDX_BYTES + extra_bytes_per_entry
                ) + len(rows_q) * IDX_BYTES
                comm.log_message(q, p, nbytes, tag=tag)
                with on_rank(comm, q):
                    count("rowgather.pack",
                          bytes_read=len(v_sel) * (VAL_BYTES + IDX_BYTES),
                          bytes_written=len(v_sel) * (VAL_BYTES + GLOBAL_IDX_BYTES))
            pieces_rows.append(r_sel)
            pieces_cols.append(c_sel)
            pieces_vals.append(v_sel)
            for name in pieces_extra:
                pieces_extra[name].append(ex_sel[name])

        if pieces_rows:
            ar = np.concatenate(pieces_rows)
            ac = np.concatenate(pieces_cols)
            av = np.concatenate(pieces_vals)
            aextra = {n: np.concatenate(v) for n, v in pieces_extra.items()}
        else:
            ar = np.empty(0, dtype=np.int64)
            ac = np.empty(0, dtype=np.int64)
            av = np.empty(0, dtype=np.float64)
            aextra = {n: np.empty(0) for n in pieces_extra}
        order = np.lexsort((ac, ar))
        ar, ac, av = ar[order], ac[order], av[order]
        aextra = {n: v[order] for n, v in aextra.items()}
        counts = np.bincount(
            np.searchsorted(want, ar), minlength=len(want)
        ) if len(want) else np.empty(0, dtype=np.int64)
        indptr = np.zeros(len(want) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        with on_rank(comm, p):
            count("rowgather.assemble",
                  bytes_read=len(av) * (VAL_BYTES + GLOBAL_IDX_BYTES),
                  bytes_written=len(av) * (VAL_BYTES + GLOBAL_IDX_BYTES),
                  branches=float(len(av)))
        results.append((want, indptr, ac, av, aextra))
    return results


def ref_dist_transpose(comm, A, *, tag="transpose"):
    """Old ``dist_transpose``; returns the transposed blocks."""
    nranks = comm.nranks
    out_rows = [[] for _ in range(nranks)]
    out_cols = [[] for _ in range(nranks)]
    out_vals = [[] for _ in range(nranks)]

    for p, blk in enumerate(A.blocks):
        r, c, v = row_arrays_global(blk, A.col_part.lo(p))
        gr = r + A.row_part.lo(p)
        dest = A.col_part.owner_of(c)
        with on_rank(comm, p):
            count("transpose.scatter",
                  bytes_read=len(v) * (VAL_BYTES + GLOBAL_IDX_BYTES),
                  bytes_written=len(v) * (VAL_BYTES + 2 * GLOBAL_IDX_BYTES),
                  branches=float(len(v)))
        for q in np.unique(dest):
            q = int(q)
            sel = dest == q
            if q != p:
                comm.log_message(
                    p, q,
                    int(sel.sum()) * (VAL_BYTES + 2 * GLOBAL_IDX_BYTES),
                    tag=tag,
                )
            out_rows[q].append(A.col_part.to_local(c[sel], q))
            out_cols[q].append(gr[sel])
            out_vals[q].append(v[sel])

    blocks = []
    for q in range(nranks):
        if out_rows[q]:
            r = np.concatenate(out_rows[q])
            c = np.concatenate(out_cols[q])
            v = np.concatenate(out_vals[q])
        else:
            r = np.empty(0, dtype=np.int64)
            c = np.empty(0, dtype=np.int64)
            v = np.empty(0, dtype=np.float64)
        with on_rank(comm, q):
            count("transpose.local_sort",
                  bytes_read=2 * len(v) * (VAL_BYTES + GLOBAL_IDX_BYTES),
                  bytes_written=len(v) * (VAL_BYTES + GLOBAL_IDX_BYTES))
        blocks.append(ref_split_rows(r, c, v, A.col_part.size(q), A.row_part, q))
    return blocks


def ref_dist_strength(comm, A, theta=0.25, max_row_sum=1.0, *, parallel=True):
    """Old ``dist_strength``; returns the strength blocks."""
    blocks = []
    for p in range(comm.nranks):
        blk = A.blocks[p]
        nloc = blk.nrows
        d_rid = blk.diag.row_ids()
        o_rid = blk.offd.row_ids()
        diag_vals = blk.diag.diagonal()
        sign = np.where(diag_vals >= 0, -1.0, 1.0)

        d_off = blk.diag.indices != d_rid
        conn_d = sign[d_rid] * blk.diag.data
        conn_o = sign[o_rid] * blk.offd.data

        row_max = np.full(nloc, -np.inf)
        np.maximum.at(row_max, d_rid[d_off], conn_d[d_off])
        if blk.offd.nnz:
            np.maximum.at(row_max, o_rid, conn_o)
        thresh = theta * np.where(row_max > 0, row_max, np.inf)

        strong_d = d_off & (conn_d >= thresh[d_rid])
        strong_o = conn_o >= thresh[o_rid]

        if max_row_sum < 1.0:
            row_sum = segment_sum(blk.diag.data, d_rid, nloc)
            if blk.offd.nnz:
                row_sum += segment_sum(blk.offd.data, o_rid, nloc)
            dominant = np.abs(row_sum) > max_row_sum * np.abs(diag_vals)
            strong_d &= ~dominant[d_rid]
            strong_o &= ~dominant[o_rid]

        Sd = CSRMatrix.from_coo(
            (nloc, blk.diag.ncols),
            d_rid[strong_d], blk.diag.indices[strong_d],
            np.ones(int(strong_d.sum())),
        )
        kept_cols = blk.offd.indices[strong_o]
        new_map_idx = np.unique(kept_cols) if len(kept_cols) else np.empty(0, np.int64)
        remap = np.searchsorted(new_map_idx, kept_cols)
        So = CSRMatrix.from_coo(
            (nloc, len(new_map_idx)), o_rid[strong_o], remap,
            np.ones(int(strong_o.sum())),
        )
        colmap = blk.colmap[new_map_idx] if len(new_map_idx) else np.empty(0, np.int64)
        blocks.append((Sd, So, colmap))

        nnz = blk.nnz
        with on_rank(comm, p):
            count(
                "strength",
                flops=2 * nnz,
                bytes_read=nnz * (VAL_BYTES + IDX_BYTES) + (nloc + 1) * PTR_BYTES,
                bytes_written=(Sd.nnz + So.nnz) * IDX_BYTES + (nloc + 1) * PTR_BYTES,
                branches=float(nnz),
                parallel=parallel,
            )
    return blocks


def ref_finish(old_colmap, queries):
    """Old ``renumber._finish``: ``(colmap_new, compressed, n_appended)``."""
    in_old = np.isin(queries, old_colmap)
    new_sorted = np.unique(queries[~in_old])
    colmap_new = np.concatenate([old_colmap, new_sorted])
    compressed = np.empty(len(queries), dtype=np.int64)
    if len(old_colmap):
        pos_old = np.searchsorted(old_colmap, queries[in_old])
        compressed[in_old] = pos_old
    compressed[~in_old] = len(old_colmap) + np.searchsorted(
        new_sorted, queries[~in_old]
    )
    return colmap_new, compressed, len(new_sorted)


def ref_renumber_baseline(old_colmap, queries):
    queries = np.asarray(queries, dtype=np.int64)
    res = ref_finish(np.asarray(old_colmap, dtype=np.int64), queries)
    n = len(queries)
    logn = math.log2(max(len(res[0]), 2))
    count(
        "renumber.baseline",
        bytes_read=n * IDX_BYTES * logn,
        bytes_written=res[2] * IDX_BYTES * logn,
        branches=float(n * logn),
        parallel=False,
    )
    return res


def ref_renumber_parallel(old_colmap, queries, *, nthreads=14):
    """Old ``renumber_parallel``, dry-run stages 1-2 included."""
    queries = np.asarray(queries, dtype=np.int64)
    old_colmap = np.asarray(old_colmap, dtype=np.int64)
    n = len(queries)

    t = max(nthreads, 1)
    if n:
        size, extra = divmod(n, t)
        sizes = np.full(t, size, dtype=np.int64)
        sizes[:extra] += 1
        chunk_of = np.repeat(np.arange(t, dtype=np.int64), sizes)
        order = np.lexsort((queries, chunk_of))
        qs, cs = queries[order], chunk_of[order]
        first = np.empty(n, dtype=bool)
        first[0] = True
        first[1:] = (qs[1:] != qs[:-1]) | (cs[1:] != cs[:-1])
        survivors_flat = qs[first]
    else:
        survivors_flat = queries
    merged = np.unique(survivors_flat)
    res = ref_finish(old_colmap, queries)

    logt = math.log2(max(nthreads, 2))
    count(
        "renumber.parallel",
        bytes_read=n * IDX_BYTES
        + len(merged) * IDX_BYTES * 2,
        bytes_written=res[2] * IDX_BYTES,
        branches=float(n + n * logt / 8),
        parallel=True,
    )
    return res


def ref_halo_pattern(A):
    """Old ``HaloExchange.__init__`` pattern loop:
    ``(recv_plan, needs, pattern)``."""
    col_part = A.col_part
    recv_plan, needs, pattern = [], [], {}
    for p, blk in enumerate(A.blocks):
        owners = col_part.owner_of(blk.colmap)
        plan = []
        need = []
        for q in np.unique(owners):
            ids = blk.colmap[owners == q]
            plan.append((int(q), col_part.to_local(ids, int(q))))
            need.append((int(q), ids))
            pattern[(int(q), p)] = len(ids)
        recv_plan.append(plan)
        needs.append(need)
    return recv_plan, needs, pattern


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def logs(comm):
    return ([(m.event, m.phase) for m in comm.messages],
            list(comm.collectives),
            [list(log.records) for log in comm.rank_logs])


def assert_same_logs(new, ref):
    for got, want, what in zip(logs(new), logs(ref),
                               ("messages", "collectives", "records")):
        assert got == want, what


def assert_csr_identical(got, want):
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and np.array_equal(g, w), name


def assert_blocks_equal(M, ref_blocks):
    assert len(M.blocks) == len(ref_blocks)
    for blk, (diag, offd, colmap) in zip(M.blocks, ref_blocks):
        assert_csr_identical(blk.diag, diag)
        assert_csr_identical(blk.offd, offd)
        assert blk.colmap.dtype == colmap.dtype
        assert np.array_equal(blk.colmap, colmap)
    # The storage is those blocks, stacked.
    diag, offd = M.stacked()
    assert diag.nnz == sum(b[0].nnz for b in ref_blocks)
    assert offd.nnz == sum(b[1].nnz for b in ref_blocks)
    assert np.array_equal(M.colmap, np.concatenate(
        [np.empty(0, np.int64)] + [b[2] for b in ref_blocks]))


def random_matrix(nrows, ncols, seed, density=None, *, dominant=False):
    rng = np.random.default_rng(seed)
    density = min(0.5, 6.0 / max(ncols, 1)) if density is None else density
    dense = (rng.random((nrows, ncols)) < density) * rng.standard_normal(
        (nrows, ncols))
    if dominant:
        dense = np.triu(dense, 1)
        dense = dense + dense.T
        dense += np.diag(np.abs(dense).sum(axis=1) + 1.0)
    return CSRMatrix.from_dense(dense)


def partition(n, cuts):
    return RowPartition(np.array([0, *sorted(cuts), n], dtype=np.int64))


def keep_some(req, rows, cols, vals):
    """A §4.3-style filter that works per (requester, owner) pair (*req* a
    rank) and over all pairs at once (*req* a rank per entry)."""
    return (rows == cols) | ((cols + req) % 3 != 0) & (vals < 0.5)


# ---------------------------------------------------------------------------
# Stacked kernels == per-rank loops
# ---------------------------------------------------------------------------


@st.composite
def setup_cases(draw):
    n = draw(st.integers(1, 400))
    nranks = draw(st.sampled_from([1, 2, 3, 5, 8]))
    # Random cuts: zero-row ranks and 1-row partitions included.
    cuts = draw(st.lists(st.integers(0, n), min_size=nranks - 1,
                         max_size=nranks - 1))
    seed = draw(st.integers(0, 2**31 - 1))
    # A rectangular operator whose column partition leaves ranks empty.
    nc = draw(st.integers(1, max(n // 3, 1)))
    ccuts = draw(st.lists(st.integers(0, nc), min_size=nranks - 1,
                          max_size=nranks - 1))
    return dict(n=n, cuts=cuts, seed=seed, nc=nc, ccuts=ccuts,
                use_filter=draw(st.booleans()),
                use_payload=draw(st.booleans()),
                density=draw(st.sampled_from([None, 0.0, 0.02, 0.3])))


def check_setup(n, cuts, seed, nc, ccuts, use_filter, use_payload,
                density=None):
    rng = np.random.default_rng(seed)
    part, cpart = partition(n, cuts), partition(nc, ccuts)
    nranks = part.nranks
    A = random_matrix(n, n, seed, density, dominant=True)
    P = random_matrix(n, nc, seed + 1, density)

    # -- assembly: from_global / from_triplets of the stacked triplets ==
    # _split_rows per rank
    Ap = ParCSRMatrix.from_global(A, part)
    assert_blocks_equal(Ap, ref_from_global(A, part, part))
    Pp = ParCSRMatrix.from_global(P, part, cpart)
    ref_P = ref_from_global(P, part, cpart)
    assert_blocks_equal(Pp, ref_P)
    assert_blocks_equal(
        ParCSRMatrix.from_triplets(*Pp.triplets(), part, cpart), ref_P)
    G = Pp.to_global()
    assert_csr_identical(G, CSRMatrix.from_coo(P.shape, P.row_ids(),
                                               P.indices, P.data))

    # -- halo pattern
    for M in (Ap, Pp):
        halo = build_halo(SimComm(nranks), M, persistent=False)
        recv_plan, _, pattern = ref_halo_pattern(M)
        assert list(halo.pattern.items()) == list(pattern.items())
        assert len(halo.recv_plan) == len(recv_plan)
        for got, want in zip(halo.recv_plan, recv_plan):
            assert [q for q, _ in got] == [q for q, _ in want]
            for (_, g), (_, w) in zip(got, want):
                assert np.array_equal(g, w)
        assert halo.total_elems == sum(pattern.values())

    # -- transpose, strength
    for M in (Ap, Pp):
        comm, rcomm = SimComm(nranks), SimComm(nranks)
        assert_blocks_equal(dist_transpose(comm, M, tag="t"),
                            ref_dist_transpose(rcomm, M, tag="t"))
        assert_same_logs(comm, rcomm)
    for theta, mrs, par in ((0.25, 0.8, True), (0.5, 1.0, False)):
        comm, rcomm = SimComm(nranks), SimComm(nranks)
        assert_blocks_equal(
            dist_strength(comm, Ap, theta, mrs, parallel=par),
            ref_dist_strength(rcomm, Ap, theta, mrs, parallel=par))
        assert_same_logs(comm, rcomm)

    # -- row gather: colmap rows (the SpGEMM request), then arbitrary rows,
    # duplicates and rows the requester owns itself included.
    for B, needed in (
            (Pp, [b.colmap for b in Ap.blocks]),
            (Ap, [rng.integers(0, n, size=rng.integers(0, 12))
                  for _ in range(nranks)])):
        payload = ({"w": [rng.standard_normal(b.nnz) for b in B.blocks],
                    "k": [rng.integers(0, 9, b.nnz).astype(np.float64)
                          for b in B.blocks]} if use_payload else None)
        kw = dict(tag="g", entry_filter=keep_some if use_filter else None,
                  extra_payloads=payload,
                  extra_bytes_per_entry=10.0 if use_payload else 0.0)
        comm, rcomm = SimComm(nranks), SimComm(nranks)
        got = gather_matrix_rows(comm, B, needed, **kw)
        want = ref_gather_matrix_rows(rcomm, B, needed, **kw)
        assert len(got) == nranks
        for p in range(nranks):
            g, (gids, indptr, gcols, vals, extra) = got[p], want[p]
            assert np.array_equal(g.row_gids, gids)
            assert np.array_equal(g.indptr, indptr)
            assert np.array_equal(g.gcols, gcols)
            assert np.array_equal(g.vals, vals)
            assert g.extra.keys() == extra.keys()
            for name in extra:
                assert np.array_equal(g.extra[name], extra[name])
        assert_same_logs(comm, rcomm)

    # -- renumbering, against colmaps and queries of this operator
    for p, blk in enumerate(Ap.blocks):
        queries = rng.integers(0, n, size=rng.integers(0, 40))
        queries = queries[(queries < part.lo(p)) | (queries >= part.hi(p))]
        for old in (blk.colmap, blk.colmap[::2]):
            for new, ref, kw in (
                    (renumber_parallel, ref_renumber_parallel, {"nthreads": 3}),
                    (renumber_baseline, ref_renumber_baseline, {})):
                with collect() as log:
                    res = new(old, queries, **kw)
                with collect() as rlog:
                    colmap_new, compressed, n_app = ref(old, queries, **kw)
                assert np.array_equal(res.colmap_new, colmap_new)
                assert np.array_equal(res.compressed, compressed)
                assert res.n_appended == n_app
                assert log.records == rlog.records


class TestStackedEqualsPerRank:
    @given(case=setup_cases())
    @settings(deadline=None, max_examples=40,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_operators_and_partitions(self, case):
        check_setup(**case)

    @pytest.mark.parametrize("use_filter", [False, True])
    @pytest.mark.parametrize("use_payload", [False, True])
    def test_zero_row_ranks_and_one_row_partitions(self, use_filter,
                                                   use_payload):
        check_setup(n=17, cuts=[5, 5, 6, 17], seed=1, nc=5, ccuts=[0, 0, 5, 5],
                    use_filter=use_filter, use_payload=use_payload,
                    density=0.4)

    def test_single_rank(self):
        check_setup(n=9, cuts=[], seed=2, nc=3, ccuts=[], use_filter=True,
                    use_payload=True, density=0.4)

    def test_no_offdiagonal_entries_anywhere(self):
        # density 0: A is diagonal, P empty — empty colmaps on every rank.
        check_setup(n=12, cuts=[3, 6], seed=3, nc=4, ccuts=[1, 1],
                    use_filter=False, use_payload=True, density=0.0)
        A = ParCSRMatrix.from_global(
            CSRMatrix.from_dense(np.diag(np.arange(1.0, 11.0))),
            partition(10, [3, 6]))
        assert A.offd.nnz == 0 and len(A.colmap) == 0
        assert A.ext_ptr.tolist() == [0, 0, 0, 0]

    def test_coarse_ranks_that_own_nothing(self):
        # All coarse points on rank 2: every other rank's P is pure offd.
        check_setup(n=40, cuts=[10, 20, 30], seed=4, nc=6, ccuts=[0, 0, 6],
                    use_filter=True, use_payload=False, density=0.3)

    def test_requesters_want_rows_they_own(self):
        A = random_matrix(20, 20, 5, 0.3, dominant=True)
        part = partition(20, [7, 13])
        Ap = ParCSRMatrix.from_global(A, part)
        needed = [np.array([0, 3, 19, 3]), np.array([7, 8]), np.array([1])]
        comm, rcomm = SimComm(3), SimComm(3)
        got = gather_matrix_rows(comm, Ap, needed, tag="own")
        ref_gather_matrix_rows(rcomm, Ap, needed, tag="own")
        assert_same_logs(comm, rcomm)
        # Rank 1 asked only for its own rows: it neither sent nor received.
        assert all(1 not in (m.event.src, m.event.dst) or m.event.src == 0
                   or m.event.dst == 0 or m.event.src == 2 or m.event.dst == 2
                   for m in comm.messages)
        assert got[1].row_gids.tolist() == [7, 8]

    def test_blocks_are_cached_views_of_the_storage(self):
        A = ParCSRMatrix.from_global(laplace_3d_27pt(4), partition(64, [20, 40]))
        assert A.blocks is A.blocks
        assert A.stacked() == (A.diag, A.offd)
        blk = A.blocks[1]
        assert np.shares_memory(blk.diag.data, A.diag.data)
        assert np.shares_memory(blk.colmap, A.colmap)


# ---------------------------------------------------------------------------
# Whole hierarchies: the golden taken at the parent commit
# ---------------------------------------------------------------------------


GOLDEN = json.loads(dist_setup_cases.GOLDEN.read_text())


class TestGolden:
    def test_golden_covers_the_case_matrix(self):
        assert sorted(GOLDEN) == sorted(dist_setup_cases.CASES)

    @pytest.mark.parametrize("name", list(dist_setup_cases.CASES))
    def test_setup_equals_parent_commit(self, name):
        got = json.loads(json.dumps(dist_setup_cases.run_case(name)))
        want = GOLDEN[name]
        for key in want:
            assert got[key] == want[key], key

    @pytest.mark.parametrize("name", [
        "5r-ei-opt-ppn4-sparsify-filter", "3r-2s-ei-base-ppn4-full-nofilter",
        "8r-mp-opt-ppn4-full-filter", "32r-ei-opt-ppn4-full-filter"])
    def test_under_full_checks(self, name):
        with check_scope("full"):
            got = json.loads(json.dumps(dist_setup_cases.run_case(name)))
        assert got == GOLDEN[name]


# ---------------------------------------------------------------------------
# The per-rank Python is gone: exact call counts on the benchmark's shape
# ---------------------------------------------------------------------------


class TestNoPerRankPython:
    """One ``DistAMGSolver.setup`` on the benchmark's 32-rank shape, counted
    with ``sys.setprofile`` (Python-level calls and C-function dispatches).

    At the last per-rank commit the same set-up made 804,180 calls (424,190
    Python-level + 379,990 into C), among them 2,840 ``np.isin``, 2,650
    ``np.unique``, 1,921 ``CSRMatrix.from_coo``, 576 ``_split_rows``, 192
    ``renumber_parallel``, 7,443 ``log_message`` and 8,370 ``on_rank``
    (a generator-based context manager counts twice per entry).  With the
    ranks stacked: 308,288 calls, 0 ``np.isin``, 210 ``from_coo`` (192 of
    them in the per-rank ext+i kernel), 64 per-rank ``HybridGSSmoother``
    builds making 256 ``build_gs_schedule`` calls, 64
    ``extended_i_interpolation`` calls and 8 ``run_on_ranks``.  With the
    schedules and extended+i built over the rank stack: 185,008 calls, 66
    ``from_coo``, one ``HybridGSSmoother`` per smoothed level (2) making 8
    ``build_gs_schedule`` calls, 16 ``extended_i_blocks`` calls (one per
    chunk of 4 ranks per level), 4 ``run_on_ranks`` (all from
    ``dist_spgemm``), 476 ``np.unique`` (474 in the node-aware halo plans)
    and 2 ``on_rank`` (the coarse factorization).  Later changes took that
    to 150,823 calls, 144 of them node ``spgemm`` calls (one per rank per
    product).  With the local product stacked too, every kernel charges its
    ranks through ``record_on_ranks`` and no log is activated: 130,342
    calls, ``run_on_ranks`` and ``on_rank`` deleted, 0 ``collect``, 16
    node ``spgemm`` calls (the distance-two product inside each
    ``extended_i_blocks``) and one ``_expand`` per chunk of ranks per
    distributed product.
    """

    @pytest.fixture(scope="class")
    def calls(self):
        A = laplace_3d_27pt(16)
        part = RowPartition.uniform(A.nrows, 32)
        topo = NodeTopology(32, 4)

        def setup():
            comm = SimComm(32)
            solver = DistAMGSolver(comm, multi_node_config("ei"), topology=topo,
                                   net=topo.network())
            solver.setup(ParCSRMatrix.from_global(A, part))
            return comm, solver.hierarchy

        seen: dict = {}

        def profile(frame, event, arg):
            if event == "call":
                code = frame.f_code
                key = ("/".join(code.co_filename.split("/")[-2:]), code.co_name)
            elif event == "c_call":
                key = ("C", getattr(arg, "__qualname__", repr(arg)))
            else:
                return
            seen[key] = seen.get(key, 0) + 1

        # (the analyzers of a REPRO_CHECK run are not part of the count)
        with check_scope("off"):
            setup()  # imports, caches
            sys.setprofile(profile)
            try:
                comm, h = setup()
            finally:
                sys.setprofile(None)
        seen["messages"] = len(comm.messages)
        seen["smoothed levels"] = sum(lvl.smoother is not None for lvl in h.levels)
        seen["interpolated levels"] = sum(lvl.P is not None for lvl in h.levels)
        return seen

    def test_no_per_rank_assembly_or_search(self, calls):
        def n(path, name):
            return calls.get((path, name), 0)

        assert n("dist/parcsr.py", "_split_rows") == 0
        assert n("dist/comm.py", "log_message") == 0
        assert calls["messages"] == 18563  # dist.setup_messages, unchanged
        assert n("lib/_arraysetops_impl.py", "isin") <= 200
        assert n("sparse/csr.py", "from_coo") <= 100
        assert n("perf/counters.py", "collect") == 0  # no rank log activated
        assert n("dist/renumber.py", "renumber_parallel") == 0

    def test_node_kernels_run_over_the_rank_stack(self, calls):
        def n(path, name):
            return calls.get((path, name), 0)

        smoothed = calls["smoothed levels"]
        assert smoothed == 2 and calls["interpolated levels"] == 2
        # Two C/F groups, two directions, once per level — not per rank —
        # and one stacked smoother per level (HybridGSSmoother.__init__ is
        # the module's only __init__): no per-rank smoother is built.
        assert n("amg/smoothers.py", "build_gs_schedule") == 2 * 2 * smoothed
        assert n("amg/smoothers.py", "__init__") == smoothed
        # One extended+i call per chunk of ranks per level.
        assert n("amg/interp_extended.py", "extended_i_interpolation") == 0
        assert (n("amg/interp_extended.py", "extended_i_blocks")
                <= math.ceil(32 / CHUNK_RANKS) * calls["interpolated levels"])
        # No kernel runs rank by rank: the only node SpGEMMs are the
        # distance-two products inside extended+i, and each distributed
        # product (two per Galerkin product) expands once per chunk.
        assert not {"run_on_ranks", "on_rank"} & {k[1] for k in calls
                                                  if isinstance(k, tuple)}
        assert (n("sparse/spgemm.py", "spgemm")
                == n("amg/interp_extended.py", "extended_i_blocks"))
        assert (n("sparse/spgemm.py", "_expand")
                <= n("sparse/spgemm.py", "spgemm")
                + math.ceil(32 / CHUNK_RANKS) * 2 * calls["interpolated levels"])

    def test_total_calls(self, calls):
        total = sum(v for k, v in calls.items() if isinstance(k, tuple))
        assert total <= 194_000, total  # measured 185,008, plus 5 %

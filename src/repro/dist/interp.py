"""Distributed interpolation construction (§4.1–§4.3).

Extended+i traverses *neighbours of neighbours*, so each rank must gather
the rows of ``A`` owned by other ranks that its strong fine neighbours live
in — a matrix-row halo exchange with the column-index renumbering of §4.2 —
before running the node-level kernel on the assembled local block
(:func:`repro.amg.interp_extended.extended_i_blocks` with ``active_rows``
limiting construction to owned rows).

§4.3 — *filtered* transfers: of a shipped row ``k``, Eq. (1) can only ever
use entries whose column is a C point with sign opposite to ``a_kk``, the
diagonal itself, or entries pointing back into the requester's row range
(the ``abar_ki`` term) with opposite sign.  The filtered gather drops
everything else at the sender; the result is bit-identical (asserted in
tests) while the communication volume drops by >3x on the paper's inputs.

The needed rows, the gather, the filter, the renumbering and the assembly
of the compact blocks run once for all ranks (see
:func:`dist_extended_i`), and the node-level kernel runs once per chunk of
:data:`~repro.dist.parcsr.CHUNK_RANKS` ranks over the block-diagonal stack
of their compact blocks, each rank charged the records its own call would
count.

Multipass interpolation gathers *interpolation* rows instead (one
distributed SpGEMM per pass); its first pass is one direct interpolation
over the stack of the ranks' compact blocks, and the later passes' row
selection, scaling and merge are array passes over all ranks' entries.  The
2-stage extended+i composes two distributed extended+i applications around
a distributed RAP.  Truncation is row-local, so it runs once over all rows.
Every kernel here charges the ranks one way: a
:class:`~repro.perf.counters.RecordTable` from per-rank sizes, appended with
:meth:`~repro.dist.comm.SimComm.record_on_ranks`.
"""

from __future__ import annotations

import numpy as np

from ..amg.interp_direct import _direct_fields, direct_interpolation
from ..amg.interp_extended import extended_i_blocks
from ..amg.truncation import _truncation_record, truncate_interpolation
from ..amg.interp_common import entries_in_pattern
from ..perf.counters import RecordTable, phase, silent
from ..sparse.csr import CSRMatrix
from ..sparse.ops import gather_range_indices, indptr_from_counts, segment_sum
from .comm import SimComm
from .halo import build_halo
from .parcsr import ParCSRMatrix, ParVector, rank_chunks, stack_rows
from .partition import RowPartition
from .renumber import renumber_ranks
from .rowgather import gather_rows
from .spgemm import dist_rap, dist_spgemm

__all__ = [
    "coarse_numbering",
    "dist_extended_i",
    "dist_multipass",
    "dist_two_stage_ei",
    "par_truncate",
]

C_PT = 1


def coarse_numbering(
    comm: SimComm, cf_parts: list[np.ndarray]
) -> tuple[RowPartition, list[np.ndarray]]:
    """Global coarse ids: rank-major, ``offset_p + local C index``.

    Returns the coarse partition and per-rank arrays of length ``nloc``
    holding each point's coarse gid (-1 for F points).
    """
    ncs = np.array([(cf > 0).sum() for cf in cf_parts], dtype=np.int64)
    comm.scan_offsets(ncs)
    # Rank-major numbering = the running count of C points.
    sel = np.concatenate(cf_parts) > 0
    g = np.full(len(sel), -1, dtype=np.int64)
    g[sel] = np.arange(int(ncs.sum()), dtype=np.int64)
    cuts = np.cumsum([len(cf) for cf in cf_parts])[:-1]
    return RowPartition.from_sizes(ncs), np.split(g, cuts)


def _exchange_point_info(comm, A, cf, cg):
    """Halo-exchange cf markers and coarse gids (whole distributed vectors)
    over A's pattern; returns them aligned with ``A.colmap``."""
    halo = build_halo(comm, A, persistent=False)
    return tuple(
        halo.gather(ParVector(v.astype(np.float64), A.row_part)).astype(np.int64)
        for v in (cf, cg))


def dist_extended_i(
    comm: SimComm,
    A: ParCSRMatrix,
    S: ParCSRMatrix,
    cf_parts: list[np.ndarray],
    *,
    trunc_fact: float = 0.1,
    max_elmts: int = 4,
    reordered: bool = True,
    fused_truncation: bool = True,
    filter_comm: bool = True,
    parallel_renumber: bool = True,
    nthreads: int = 14,
) -> tuple[ParCSRMatrix, RowPartition]:
    """Distributed extended+i; returns ``(P, coarse_partition)``.

    Needed rows, the gather, the renumbering and the compact-space
    assembly run once for all ranks; the node-level kernel then runs once
    per chunk of :data:`~repro.dist.parcsr.CHUNK_RANKS` ranks over their
    compact blocks, charging each rank its own records.
    """
    part = A.row_part
    n = part.n
    lo, hi = part.bounds[:-1], part.bounds[1:]
    coarse_part, cgid_parts = coarse_numbering(comm, cf_parts)
    cf, cg = np.concatenate(cf_parts), np.concatenate(cgid_parts)
    cf_ext, cg_ext = _exchange_point_info(comm, A, cf, cg)

    # ---- rows to gather: external strong F neighbours of local F rows ----
    s_rid = S.offd.row_ids()
    s_gcol = S.colmap[S.offd.indices]
    sel = (cf[s_rid] <= 0) & (cf[s_gcol] <= 0)
    want = np.unique(S.row_part.ranks()[s_rid[sel]] * n + s_gcol[sel])

    if filter_comm:
        # §4.3: the sender keeps only entries Eq. (1) can use — the
        # diagonal, and opposite-sign entries that point back into the
        # requester's rows or at a C point (the owner knows the cf of every
        # column it stores).
        diag_vals = A.diag.diagonal()

        def entry_filter(req, row_gids, gcols, vals):
            opposite = np.sign(vals) != np.sign(diag_vals[row_gids])
            back_ref = (gcols >= lo[req]) & (gcols < hi[req])
            return (gcols == row_gids) | back_ref & opposite \
                | (cf[gcols] > 0) & opposite
    else:
        entry_filter = None

    # Shipped with every entry: strong flag, column cf, column coarse gid.
    g = gather_rows(comm, A, want // n, want % n, tag="interp",
                    entry_filter=entry_filter, extra_bytes_per_entry=10.0)
    g_rank = g.spread(g.req)
    g_strong = entries_in_pattern(g.spread(g.row_gids), g.gcols, S.to_global())

    with phase("Interp"):
        # ---- §4.2 renumbering into the extended compact space ----
        owned = (g.gcols >= lo[g_rank]) & (g.gcols < hi[g_rank])
        ren = renumber_ranks(comm, A.colmap, A.ext_ptr,
                             (g_rank * n + g.gcols)[~owned], n,
                             parallel=parallel_renumber, nthreads=nthreads)

    # Rank p's compact space: its rows, then its external slots — old
    # colmap, appended columns.  Its block of the compact operators is its
    # rows of ``A`` / ``S`` (sorted as stored) over the gathered rows, each
    # at the slot of its gid (sorted here); columns are block-relative.
    # The blocks are stacked rank-major: rank p's block starts at row
    # ``off[p]``, its local rows first.
    nloc, n_old = hi - lo, np.diff(A.ext_ptr)
    X = indptr_from_counts(n_old + np.diff(ren.app_ptr))    # slots per rank
    off = part.bounds + X
    slot_at = X[:-1] - A.ext_ptr[:-1]                       # + stacked colmap slot
    col_at = nloc - A.ext_ptr[:-1]                          # (block-relative)
    rank, a_ext = A.row_part.ranks(), A.ext_ranks()
    a_key = a_ext * n + A.colmap
    # S's colmap slots as A colmap slots.
    s_slot = np.searchsorted(a_key, S.ext_ranks() * n + S.colmap)
    size = (int(X[-1]), int((nloc + np.diff(X)).max()))
    g_rows = g.spread(np.searchsorted(a_key, g.req * n + g.row_gids)
                      + slot_at[g.req])
    g_cols = g.gcols - lo[g_rank]
    g_cols[~owned] = ren.compressed + nloc[g_rank[~owned]]
    del g_rank, owned
    # All local rows of A / S, then all gathered rows.
    stacks = []
    for M, offd_cols, E in (
            (A, A.offd.indices,
             CSRMatrix.from_coo(size, g_rows, g_cols, g.vals)),
            (S, s_slot[S.offd.indices],
             CSRMatrix.from_coo(size, g_rows[g_strong], g_cols[g_strong],
                                np.ones(int(g_strong.sum()))))):
        stacks.append(stack_rows(
            M, M.diag.indices - lo[rank][M.diag.row_ids()],
            offd_cols + col_at[rank][M.offd.row_ids()], size[1],
            below=(E.indptr, E.indices, E.data)))
    del g, g_rows, g_cols, g_strong, E
    # cf / coarse gids / global row (-1: external) of every stacked row.
    at_ext = np.arange(size[0]) + np.repeat(part.bounds[1:], np.diff(X))
    at_local = np.arange(n) + X[rank]
    cf_x = np.empty(n + size[0], dtype=np.int64)
    cg_x = np.empty(n + size[0], dtype=np.int64)
    gid = np.full(n + size[0], -1, dtype=np.int64)
    cf_x[at_local], cg_x[at_local], gid[at_local] = cf, cg, np.arange(n)
    for at, f, c in (
            (np.arange(len(a_ext)) + slot_at[a_ext], cf_ext, cg_ext),
            (np.arange(len(ren.appended)) + np.repeat(
                X[:-1] + n_old - ren.app_ptr[:-1], np.diff(ren.app_ptr)),
             cf[ren.appended], cg[ren.appended])):
        cf_x[at_ext[at]], cg_x[at_ext[at]] = f, c
    # Where rank p's rows sit in ``stacks``: its local rows, its gathered rows.
    src = np.column_stack([lo, n + X[:-1]]).ravel()
    src_count = np.column_stack([nloc, np.diff(X)]).ravel()

    # The node-level kernel once per chunk of ranks, over the
    # block-diagonal stack of their compact blocks; each rank is charged
    # what its own call would count.
    triplets, records = [], []
    with phase("Interp"):
        for a, b in rank_chunks(comm.nranks):
            rows = gather_range_indices(src[2 * a: 2 * b], src_count[2 * a: 2 * b])
            shift = np.repeat(off[a:b] - off[a], np.diff(off[a: b + 1]))
            c0, c1 = int(off[a]), int(off[b])
            cf_c = cf_x[c0:c1]
            P_c, recs = extended_i_blocks(
                *(_shifted_rows(M, rows, shift, c1 - c0) for M in stacks), cf_c,
                off[a: b + 1] - off[a],
                trunc_fact=trunc_fact,
                max_elmts=max_elmts,
                reordered=reordered,
                fused_truncation=fused_truncation,
                active_rows=gid[c0:c1] >= 0,
            )
            # Compact coarse index -> global coarse id.
            triplets.append((gid[c0 + P_c.row_ids()],
                             cg_x[c0 + np.flatnonzero(cf_c > 0)[P_c.indices]],
                             P_c.data))
            records += recs
        comm.record_on_ranks(RecordTable(records))
    P = ParCSRMatrix.from_triplets(
        *(np.concatenate(x) for x in zip(*triplets)), part, coarse_part)
    return P, coarse_part


def _shifted_rows(M: CSRMatrix, rows: np.ndarray, shift: np.ndarray,
                  ncols: int) -> CSRMatrix:
    """Rows *rows* of *M* as one matrix of *ncols* columns, row *t*'s
    columns shifted by ``shift[t]``."""
    sub = M.extract_rows(rows)
    sub.indices += np.repeat(shift, np.diff(sub.indptr))
    return CSRMatrix((len(rows), ncols), sub.indptr, sub.indices, sub.data)


# ---------------------------------------------------------------------------
# Multipass
# ---------------------------------------------------------------------------

def dist_multipass(
    comm: SimComm,
    A: ParCSRMatrix,
    S: ParCSRMatrix,
    cf_parts: list[np.ndarray],
    *,
    trunc_fact: float = 0.1,
    max_elmts: int = 4,
    fused_truncation: bool = True,
    parallel_renumber: bool = True,
    nthreads: int = 14,
    max_passes: int = 10,
) -> tuple[ParCSRMatrix, RowPartition]:
    """Distributed multipass interpolation; returns ``(P, coarse_part)``.

    Pass 1 is one direct interpolation over the block-diagonal stack of the
    ranks' compact operators, each rank charged its own call's record.  A
    later pass takes the rows it can complete (``W``: their strong
    connections to done points), multiplies ``W P`` with one distributed
    SpGEMM, and scales and merges the new rows.
    """
    part = A.row_part
    n, rank = part.n, part.ranks()
    coarse_part, cgid_parts = coarse_numbering(comm, cf_parts)
    cf, cg = np.concatenate(cf_parts), np.concatenate(cgid_parts)
    cf_ext, cg_ext = _exchange_point_info(comm, A, cf, cg)
    rows, cols, vals = A.triplets()
    strong = entries_in_pattern(rows, cols, S.to_global())

    # ---- pass 1: direct interpolation (no row gathering) ----
    # Rank p's compact block: its rows, then its colmap slots.  Blocks are
    # stacked rank-major: local row i sits at ``at_local[i]``, stacked
    # colmap slot e at ``at_ext[e]``.
    at_local = np.arange(n) + A.ext_ptr[rank]
    at_ext = np.arange(len(A.colmap)) + part.bounds[1:][A.ext_ranks()]
    off = part.bounds + A.ext_ptr
    m = int(off[-1])
    d_n = A.diag.nnz  # the first d_n triplets are the diag block's
    at_col = np.concatenate([at_local[cols[:d_n]], at_ext[A.offd.indices]])
    A_c = CSRMatrix.from_coo((m, m), at_local[rows], at_col, vals)
    s_slot = np.searchsorted(A.ext_ranks() * n + A.colmap,
                             S.ext_ranks() * n + S.colmap)
    s_rows = np.concatenate([S.diag.row_ids(), S.offd.row_ids()])
    S_c = CSRMatrix.from_coo(
        (m, m), at_local[s_rows],
        np.concatenate([at_local[S.diag.indices],
                        at_ext[s_slot[S.offd.indices]]]),
        np.ones(len(s_rows)))
    cf_c = np.empty(m, dtype=np.int64)
    cg_c = np.empty(m, dtype=np.int64)
    cf_c[at_local], cg_c[at_local] = cf, cg
    cf_c[at_ext], cg_c[at_ext] = cf_ext, cg_ext
    # Local F rows with a strong C neighbour.
    has_c = np.bincount(S_c.row_ids(), weights=cf_c[S_c.indices] > 0,
                        minlength=m)[at_local] > 0
    p1 = (cf <= 0) & has_c
    with silent():
        Pd = direct_interpolation(A_c, S_c, cf_c, rows=at_local[p1])
    with phase("Interp"):
        comm.record_on_ranks(RecordTable.per_rank(
            "interp.direct", comm.nranks, **_direct_fields(
                np.diff(off), np.diff(A_c.indptr[off]),
                np.diff(Pd.indptr[off]))))
    gid = np.full(m, -1, dtype=np.int64)
    gid[at_local] = np.arange(n)
    p_rows = gid[Pd.row_ids()]
    keep = p_rows >= 0
    P = ParCSRMatrix.from_triplets(
        p_rows[keep], cg_c[np.flatnonzero(cf_c > 0)[Pd.indices[keep]]],
        Pd.data[keep], part, coarse_part)
    del A_c, S_c, Pd, p_rows, keep
    done = (cf > 0) | p1

    # Per-row normalization data: the off-diagonal row sums, the diag
    # block's then the offd block's.
    d_rid = rows[:d_n]
    row_sum = segment_sum(np.where(cols[:d_n] != d_rid, vals[:d_n], 0.0),
                          d_rid, n)
    row_sum += segment_sum(vals[d_n:], rows[d_n:], n)
    diag = A.diag.diagonal()
    diag = np.where(np.abs(diag) > 1e-300, diag, 1.0)

    halo_A = build_halo(comm, A, persistent=False)
    npass = 1
    while npass < max_passes:
        remaining = comm.allreduce(
            np.bincount(rank[~done], minlength=comm.nranks).astype(np.float64),
            kind="mp.remaining")
        if remaining == 0:
            break
        npass += 1
        done_ext = halo_A.gather(ParVector(done.astype(np.float64), part))

        # W: rows = still-todo rows with a strong *done* neighbour, entries
        # a_ij over those neighbours j (local or external).
        todo = ~done
        sel = strong & np.concatenate([done[cols[:d_n]],
                                       done_ext[A.offd.indices] > 0])
        sel &= todo[rows] & (cols != rows)
        work = todo & (np.bincount(rows[sel], minlength=n) > 0)
        sel &= work[rows]
        if not sel.any():
            break
        wr, wv = rows[sel], vals[sel]
        W = ParCSRMatrix.from_triplets(wr, cols[sel], wv, part, part)
        contrib = dist_spgemm(
            comm, W, P,
            parallel_renumber=parallel_renumber,
            nthreads=nthreads,
            tag="interp.mp",
        )
        # Scale and merge the new rows.
        sum_used = segment_sum(wv, wr, n)
        safe = np.abs(sum_used) > 1e-300
        alpha = np.where(safe, row_sum / np.where(safe, sum_used, 1.0), 0.0)
        scale = -(alpha / diag)
        (pr, pc, pv), (cr, cc, cv) = P.triplets(), contrib.triplets()
        P = ParCSRMatrix.from_triplets(
            np.concatenate([pr, cr]), np.concatenate([pc, cc]),
            np.concatenate([pv, cv * scale[cr]]), part, coarse_part)
        done[work] = True

    return par_truncate(comm, P, trunc_fact, max_elmts,
                        fused=fused_truncation), coarse_part


def dist_two_stage_ei(
    comm: SimComm,
    A: ParCSRMatrix,
    S: ParCSRMatrix,
    cf_final: list[np.ndarray],
    cf_stage1: list[np.ndarray],
    *,
    theta: float = 0.25,
    max_row_sum: float = 1.0,
    trunc_fact: float = 0.1,
    max_elmts: int = 4,
    filter_comm: bool = True,
    parallel_renumber: bool = True,
    nthreads: int = 14,
    reordered: bool = True,
    fused_truncation: bool = True,
) -> tuple[ParCSRMatrix, RowPartition]:
    """Distributed 2-stage extended+i; returns ``(P, coarse_part)``."""
    from .strength import dist_strength

    ei = dict(trunc_fact=trunc_fact, max_elmts=max_elmts,
              filter_comm=filter_comm, parallel_renumber=parallel_renumber,
              nthreads=nthreads, reordered=reordered,
              fused_truncation=fused_truncation)
    P1, _ = dist_extended_i(comm, A, S, cf_stage1, **ei)
    A1, _ = dist_rap(
        comm, A, P1,
        parallel_renumber=parallel_renumber, nthreads=nthreads,
    )
    S1 = dist_strength(comm, A1, theta, max_row_sum)
    cf2 = [
        np.where(cf_final[p][cf_stage1[p] > 0] > 0, 1, -1).astype(np.int64)
        for p in range(comm.nranks)
    ]
    P2, cp2 = dist_extended_i(comm, A1, S1, cf2, **ei)
    P = dist_spgemm(
        comm, P1, P2,
        parallel_renumber=parallel_renumber, nthreads=nthreads,
        tag="interp.2s",
    )
    return par_truncate(comm, P, trunc_fact, max_elmts,
                        fused=fused_truncation), cp2


def par_truncate(
    comm: SimComm, P: ParCSRMatrix, trunc_fact: float, max_elmts: int,
    *, fused: bool = True,
) -> ParCSRMatrix:
    """Row-wise interpolation truncation: rows are local, so one call over
    all rows truncates each rank's rows as the rank's own call would; each
    rank is charged that call's record (none for a rank without entries)."""
    G = P.to_global()
    with silent():
        T = truncate_interpolation(G, trunc_fact, max_elmts, fused=fused)
    if trunc_fact > 0.0 or max_elmts > 0:
        rb = P.row_part.bounds
        p_nnz = np.diff(G.indptr[rb])
        kernel, fields = _truncation_record(
            np.diff(rb), p_nnz, np.diff(T.indptr[rb]), fused)
        with phase("Interp"):
            comm.record_on_ranks(RecordTable.per_rank(
                kernel, comm.nranks, present=p_nnz > 0, **fields))
    return ParCSRMatrix.from_triplets(T.row_ids(), T.indices, T.data,
                                      P.row_part, P.col_part)

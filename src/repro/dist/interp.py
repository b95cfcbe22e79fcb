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
:data:`CHUNK_RANKS` ranks over the block-diagonal stack of their compact
blocks, each rank charged the records its own call would count.

Multipass interpolation gathers *interpolation* rows instead (one
distributed SpGEMM per pass); the 2-stage extended+i composes two
distributed extended+i applications around a distributed RAP.
"""

from __future__ import annotations

import numpy as np

from ..amg.interp_direct import direct_interpolation
from ..amg.interp_extended import extended_i_blocks
from ..amg.truncation import truncate_interpolation
from ..amg.interp_common import entries_in_pattern
from ..perf.counters import RecordTable, phase
from ..sparse.csr import CSRMatrix
from ..sparse.ops import gather_range_indices, indptr_from_counts, segment_sum
from .comm import SimComm
from .halo import build_halo
from .parcsr import ParCSRMatrix, ParVector, row_block, stack_rows
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

#: Ranks per node-level extended+i call.  The kernel's time is flat from a
#: few ranks per call up, while its transients grow with the chunk (~0.9 MB
#: per rank on the benchmark's shape; all 32 ranks in one call hold 29 MB):
#: four keep them under 4 MB (EXPERIMENTS.md, "Distributed set-up over the
#: rank stack").
CHUNK_RANKS = 4


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
    per chunk of :data:`CHUNK_RANKS` ranks over their compact blocks,
    charging each rank its own records.
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
        for a in range(0, comm.nranks, CHUNK_RANKS):
            b = min(a + CHUNK_RANKS, comm.nranks)
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
    """Distributed multipass interpolation; returns ``(P, coarse_part)``."""
    part = A.row_part
    nranks = comm.nranks
    coarse_part, cgid_parts = coarse_numbering(comm, cf_parts)
    cf_ext_A, cg_ext_A = (
        np.split(ext, A.ext_ptr[1:-1]) for ext in _exchange_point_info(
            comm, A, np.concatenate(cf_parts), np.concatenate(cgid_parts)))
    # Per-rank strong flags of A's entries, in ``row_arrays_global`` order.
    S_glob = S.to_global()
    strong = []
    for p in range(nranks):
        r, c, _ = A.blocks[p].row_arrays_global(A.col_part.lo(p))
        strong.append(entries_in_pattern(r + part.lo(p), c, S_glob))

    # ---- pass 1 per rank: direct interpolation (no row gathering) ----
    triplets = []
    done_parts = []
    for p in range(nranks):
        blk = A.blocks[p]
        sblk = S.blocks[p]
        nloc = blk.nrows
        ncol = len(blk.colmap)
        m = nloc + ncol
        with comm.on_rank(p), phase("Interp"):
            ra = np.concatenate([blk.diag.row_ids(), blk.offd.row_ids()])
            ca = np.concatenate([blk.diag.indices, nloc + blk.offd.indices])
            va = np.concatenate([blk.diag.data, blk.offd.data])
            A_c = CSRMatrix.from_coo((m, m), ra, ca, va)
            s_pos = np.searchsorted(blk.colmap, sblk.colmap)
            rs = np.concatenate([sblk.diag.row_ids(), sblk.offd.row_ids()])
            cs = np.concatenate([sblk.diag.indices, nloc + s_pos[sblk.offd.indices]])
            S_c = CSRMatrix.from_coo((m, m), rs, cs, np.ones(len(rs)))
            cf_c = np.concatenate([cf_parts[p], cf_ext_A[p]])
            cg_c = np.concatenate([cgid_parts[p], cg_ext_A[p]])

            # Local F rows with a strong C neighbour.
            has_c = segment_sum(
                (cf_c[cs] > 0).astype(np.float64), rs, nloc
            ) > 0
            p1_rows = np.flatnonzero((cf_parts[p] <= 0) & has_c)
            Pd = direct_interpolation(A_c, S_c, cf_c, rows=p1_rows)
            c_compact = np.flatnonzero(cf_c > 0)
            rows_P = Pd.row_ids()
            keep = rows_P < nloc
            gcols_P = cg_c[c_compact[Pd.indices[keep]]]
        triplets.append((rows_P[keep], gcols_P, Pd.data[keep]))
        done = (cf_parts[p] > 0).copy()
        done[p1_rows] = True
        done_parts.append(done)

    P = ParCSRMatrix.from_rank_triplets(triplets, part, coarse_part)

    # Per-row normalization data (local).
    sum_all_parts = []
    for p in range(nranks):
        blk = A.blocks[p]
        nloc = blk.nrows
        d_rid = blk.diag.row_ids()
        od = blk.diag.indices != d_rid
        s = segment_sum(np.where(od, blk.diag.data, 0.0), d_rid, nloc)
        if blk.offd.nnz:
            s += segment_sum(blk.offd.data, blk.offd.row_ids(), nloc)
        sum_all_parts.append(s)

    halo_A = build_halo(comm, A, persistent=False)
    npass = 1
    while npass < max_passes:
        remaining = comm.allreduce(
            [float((~d).sum()) for d in done_parts], kind="mp.remaining"
        )
        if remaining == 0:
            break
        npass += 1
        done_ext = halo_A(ParVector([d.astype(np.float64) for d in done_parts], part))

        # Build W: rows = still-todo local rows, entries a_ij over strong
        # *done* neighbours j (local or external).
        w_triplets = []
        work_rows = []
        for p in range(nranks):
            blk = A.blocks[p]
            sblk = S.blocks[p]
            nloc = blk.nrows
            with comm.on_rank(p), phase("Interp"):
                lo = part.lo(p)
                # strong mask aligned with row_arrays_global order
                st = strong[p]
                r, c, v = blk.row_arrays_global(A.col_part.lo(p))
                col_owned = (c >= lo) & (c < part.hi(p))
                col_done = np.zeros(len(c), dtype=bool)
                col_done[col_owned] = done_parts[p][c[col_owned] - lo]
                if (~col_owned).any():
                    pos = np.searchsorted(blk.colmap, c[~col_owned])
                    col_done[~col_owned] = done_ext[p][pos] > 0
                todo = ~done_parts[p]
                sel = st & col_done & todo[r] & (c != r + lo)
                rows_ready = segment_sum(sel.astype(np.float64), r, nloc) > 0
                work = todo & rows_ready
                sel &= work[r]
                w_triplets.append((r[sel], c[sel], v[sel]))
                work_rows.append(np.flatnonzero(work))
        if not any(len(w[0]) for w in w_triplets):
            break
        W = ParCSRMatrix.from_rank_triplets(w_triplets, part, part)
        contrib = dist_spgemm(
            comm, W, P,
            parallel_renumber=parallel_renumber,
            nthreads=nthreads,
            tag="interp.mp",
        )
        # Scale and merge the new rows.
        new_triplets = []
        for p in range(nranks):
            blk = A.blocks[p]
            nloc = blk.nrows
            with comm.on_rank(p), phase("Interp"):
                wr, wc, wv = w_triplets[p]
                sum_used = segment_sum(wv, wr, nloc)
                diag = blk.diag.diagonal()
                safe = np.abs(sum_used) > 1e-300
                alpha = np.where(
                    safe, sum_all_parts[p] / np.where(safe, sum_used, 1.0), 0.0
                )
                scale = -(alpha / np.where(np.abs(diag) > 1e-300, diag, 1.0))
                cb = contrib.blocks[p]
                rr, cc2, vv = cb.row_arrays_global(contrib.col_part.lo(p))
                vv = vv * scale[rr]
                pb = P.blocks[p]
                pr, pc, pv = pb.row_arrays_global(P.col_part.lo(p))
                new_triplets.append(
                    (
                        np.concatenate([pr, rr]),
                        np.concatenate([pc, cc2]),
                        np.concatenate([pv, vv]),
                    )
                )
            done_parts[p][work_rows[p]] = True
        P = ParCSRMatrix.from_rank_triplets(new_triplets, part, coarse_part)

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
    """Row-wise interpolation truncation applied per rank (rows are local)."""
    G = P.to_global()
    rb = P.row_part.bounds.tolist()
    with phase("Interp"):
        T = comm.run_on_ranks(lambda p: truncate_interpolation(
            row_block(G, rb[p], rb[p + 1], 0, G.ncols), trunc_fact, max_elmts,
            fused=fused))
    return ParCSRMatrix.from_rank_triplets(
        [(t.row_ids(), t.indices, t.data) for t in T], P.row_part, P.col_part)

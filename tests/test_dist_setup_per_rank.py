"""The last per-rank set-up kernels against the rank loops they replaced.

The local product of ``dist_spgemm``, ``par_truncate``,
``dist_aggressive_pmis`` and ``dist_multipass`` used to run rank by rank:
the node-level kernel per rank under ``run_on_ranks`` / ``on_rank``, the
result assembled from per-rank triplets.  Now each runs over the rank stack
and charges every rank from a table of its sizes.  The oracle here is those
loops, kept literally (the ``ref_*`` functions, over the test-local
:func:`run_on_ranks` and :func:`from_rank_triplets`).  Both run on
partitions the set-up golden lacks — uneven sizes, one rank, ranks that
own no rows — and compare by sha256: every matrix (per rank ``diag``,
``offd``, ``colmap``), the message log, the collectives and every rank's
record stream.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import on_rank
from dist_setup_cases import _matrix, _sha
from test_dist_setup_stacked import row_arrays_global
from repro.amg.interp_direct import direct_interpolation
from repro.amg.interp_common import entries_in_pattern
from repro.amg.truncation import truncate_interpolation
from repro.dist import ParCSRMatrix, ParVector, RowPartition, SimComm
from repro.dist.halo import build_halo
from repro.dist.interp import (
    _exchange_point_info,
    coarse_numbering,
    dist_extended_i,
    dist_multipass,
    par_truncate,
)
from repro.dist.parcsr import row_block, stack_rows
from repro.dist.pmis import C_PT, F_PT, dist_aggressive_pmis, dist_pmis
from repro.dist.rowgather import gather_rows
from repro.dist.spgemm import _stack_operand, dist_spgemm
from repro.dist.strength import dist_strength
from repro.perf.counters import phase
from repro.problems import laplace_3d_27pt, rotated_anisotropy_2d
from repro.sparse import CSRMatrix
from repro.sparse.ops import segment_sum
from repro.sparse.spgemm import spgemm

# ---------------------------------------------------------------------------
# The per-rank reference: the loops the rank stack replaced
# ---------------------------------------------------------------------------


def run_on_ranks(comm, kernel) -> list:
    """``kernel(p)`` for every rank *p*, its records counted into rank
    *p*'s log."""
    out = []
    for p in range(comm.nranks):
        with on_rank(comm, p):
            out.append(kernel(p))
    return out


def from_rank_triplets(triplets, row_part, col_part) -> ParCSRMatrix:
    """Assemble from per-rank ``(local_row, global_col, value)`` arrays."""
    rows, cols, vals = (np.concatenate(x) for x in zip(*triplets))
    lo = np.repeat(row_part.bounds[:-1], [len(t[0]) for t in triplets])
    return ParCSRMatrix.from_triplets(rows + lo, cols, vals, row_part, col_part)


def ref_dist_spgemm(comm, A, B, *, spgemm_method="one_pass", tag="spgemm"):
    Bstack, gid = _stack_operand(
        comm, B, gather_rows(comm, B, A.ext_ranks(), A.colmap, tag=tag),
        True, 14)
    Astack = stack_rows(A, A.diag.indices, B.row_part.n + A.offd.indices,
                        Bstack.nrows)
    rb = A.row_part.bounds.tolist()
    C = run_on_ranks(comm, lambda p: spgemm(
        row_block(Astack, rb[p], rb[p + 1], 0, Bstack.nrows), Bstack,
        method=spgemm_method, kernel=f"{tag}.local"))
    return ParCSRMatrix.from_triplets(
        np.concatenate([Cp.row_ids() + lo for Cp, lo in zip(C, rb)]),
        gid[np.concatenate([Cp.indices for Cp in C])],
        np.concatenate([Cp.data for Cp in C]), A.row_part, B.col_part)


def ref_par_truncate(comm, P, trunc_fact, max_elmts, *, fused=True):
    G = P.to_global()
    rb = P.row_part.bounds.tolist()
    with phase("Interp"):
        T = run_on_ranks(comm, lambda p: truncate_interpolation(
            row_block(G, rb[p], rb[p + 1], 0, G.ncols), trunc_fact, max_elmts,
            fused=fused))
    return from_rank_triplets(
        [(t.row_ids(), t.indices, t.data) for t in T], P.row_part, P.col_part)


def ref_aggressive_pmis(comm, S, *, seed=0):
    cf1 = dist_pmis(comm, S, seed=seed)
    S2 = ref_dist_spgemm(comm, S, S, tag="pmis.dist2")
    cf_vec = ParVector([c.astype(np.float64) for c in cf1], S.row_part)
    triplets = []
    for p in range(comm.nranks):
        pieces_r, pieces_c = [], []
        for M in (S.blocks[p], S2.blocks[p]):
            r, c, _ = row_arrays_global(M, S.col_part.lo(p))
            pieces_r.append(r)
            pieces_c.append(c)
        rows = np.concatenate(pieces_r)
        cols = np.concatenate(pieces_c)
        grows = rows + S.row_part.lo(p)
        keep = (cf1[p][rows] == C_PT) & (grows != cols)
        triplets.append((rows[keep], cols[keep], np.ones(int(keep.sum()))))
    Sc_all = from_rank_triplets(triplets, S.row_part, S.col_part)
    halo = build_halo(comm, Sc_all, persistent=False)
    cf_ext = halo(cf_vec)
    triplets2 = []
    for p in range(comm.nranks):
        blk = Sc_all.blocks[p]
        lo = S.col_part.lo(p)
        d_keep = cf1[p][blk.diag.indices] == C_PT
        o_keep = (cf_ext[p][blk.offd.indices] == C_PT if blk.offd.nnz
                  else np.zeros(0, dtype=bool))
        rows = np.concatenate([blk.diag.row_ids()[d_keep],
                               blk.offd.row_ids()[o_keep]])
        cols = np.concatenate([blk.diag.indices[d_keep] + lo,
                               blk.colmap[blk.offd.indices[o_keep]]])
        triplets2.append((rows, cols, np.ones(len(rows))))
    Sc = from_rank_triplets(triplets2, S.row_part, S.col_part)
    cand = [c == C_PT for c in cf1]
    cf2 = dist_pmis(comm, Sc, seed=seed + 1, candidates=cand)
    cf_final = [
        np.where((cf1[p] == C_PT) & (cf2[p] == C_PT), C_PT, F_PT).astype(np.int64)
        for p in range(comm.nranks)]
    return cf_final, cf1


def ref_multipass(comm, A, S, cf_parts, *, trunc_fact=0.1, max_elmts=4,
                  fused_truncation=True, max_passes=10):
    part = A.row_part
    nranks = comm.nranks
    coarse_part, cgid_parts = coarse_numbering(comm, cf_parts)
    cf_ext_A, cg_ext_A = (
        np.split(ext, A.ext_ptr[1:-1]) for ext in _exchange_point_info(
            comm, A, np.concatenate(cf_parts), np.concatenate(cgid_parts)))
    S_glob = S.to_global()
    strong = []
    for p in range(nranks):
        r, c, _ = row_arrays_global(A.blocks[p], A.col_part.lo(p))
        strong.append(entries_in_pattern(r + part.lo(p), c, S_glob))

    triplets = []
    done_parts = []
    for p in range(nranks):
        blk = A.blocks[p]
        sblk = S.blocks[p]
        nloc = blk.nrows
        ncol = len(blk.colmap)
        m = nloc + ncol
        with on_rank(comm, p), phase("Interp"):
            ra = np.concatenate([blk.diag.row_ids(), blk.offd.row_ids()])
            ca = np.concatenate([blk.diag.indices, nloc + blk.offd.indices])
            va = np.concatenate([blk.diag.data, blk.offd.data])
            A_c = CSRMatrix.from_coo((m, m), ra, ca, va)
            s_pos = np.searchsorted(blk.colmap, sblk.colmap)
            rs = np.concatenate([sblk.diag.row_ids(), sblk.offd.row_ids()])
            cs = np.concatenate([sblk.diag.indices,
                                 nloc + s_pos[sblk.offd.indices]])
            S_c = CSRMatrix.from_coo((m, m), rs, cs, np.ones(len(rs)))
            cf_c = np.concatenate([cf_parts[p], cf_ext_A[p]])
            cg_c = np.concatenate([cgid_parts[p], cg_ext_A[p]])
            has_c = segment_sum(
                (cf_c[cs] > 0).astype(np.float64), rs, nloc) > 0
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
    P = from_rank_triplets(triplets, part, coarse_part)

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
            [float((~d).sum()) for d in done_parts], kind="mp.remaining")
        if remaining == 0:
            break
        npass += 1
        done_ext = halo_A(ParVector([d.astype(np.float64) for d in done_parts],
                                    part))
        w_triplets = []
        work_rows = []
        for p in range(nranks):
            blk = A.blocks[p]
            nloc = blk.nrows
            lo = part.lo(p)
            st = strong[p]
            r, c, v = row_arrays_global(blk, A.col_part.lo(p))
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
        W = from_rank_triplets(w_triplets, part, part)
        contrib = ref_dist_spgemm(comm, W, P, tag="interp.mp")
        new_triplets = []
        for p in range(nranks):
            blk = A.blocks[p]
            nloc = blk.nrows
            wr, wc, wv = w_triplets[p]
            sum_used = segment_sum(wv, wr, nloc)
            diag = blk.diag.diagonal()
            safe = np.abs(sum_used) > 1e-300
            alpha = np.where(
                safe, sum_all_parts[p] / np.where(safe, sum_used, 1.0), 0.0)
            scale = -(alpha / np.where(np.abs(diag) > 1e-300, diag, 1.0))
            rr, cc2, vv = row_arrays_global(contrib.blocks[p],
                                            contrib.col_part.lo(p))
            vv = vv * scale[rr]
            pr, pc, pv = row_arrays_global(P.blocks[p], P.col_part.lo(p))
            new_triplets.append((np.concatenate([pr, rr]),
                                 np.concatenate([pc, cc2]),
                                 np.concatenate([pv, vv])))
            done_parts[p][work_rows[p]] = True
        P = from_rank_triplets(new_triplets, part, coarse_part)
    return ref_par_truncate(comm, P, trunc_fact, max_elmts,
                            fused=fused_truncation), coarse_part


# ---------------------------------------------------------------------------
# Cases: partitions the golden lacks
# ---------------------------------------------------------------------------

#: Operators: an M-matrix, and one with positive off-diagonal entries.
OPERATORS = {"lap27": lambda: laplace_3d_27pt(6),
             "rotaniso": lambda: rotated_anisotropy_2d(14)}
#: Row sizes per rank of an *n*-row operator: uneven, one rank, ranks that
#: own no rows (first, middle and last).
PARTITIONS = {
    "uneven": lambda n: [17, 60, 31, 48, n - 156],
    "one-rank": lambda n: [n],
    "empty-ranks": lambda n: [0, 70, 0, 0, 56, n - 126, 0],
    "empty-last": lambda n: [100, 1, n - 101, 0],
}


def problem(op: str, sizes: str) -> ParCSRMatrix:
    A = OPERATORS[op]()
    return ParCSRMatrix.from_global(
        A, RowPartition.from_sizes(PARTITIONS[sizes](A.nrows)))


def fingerprint(comm: SimComm, *results) -> dict:
    """sha256 of every result (matrices per rank, arrays) and of the logs."""
    out = {}
    for i, res in enumerate(results):
        if isinstance(res, ParCSRMatrix):
            out[i] = _matrix(res)
        elif isinstance(res, RowPartition):
            out[i] = res.bounds.tolist()
        else:
            out[i] = _sha(np.asarray(a).tobytes() for a in res)
    out["messages"] = _sha((m.event, m.phase) for m in comm.messages)
    out["collectives"] = _sha(comm.collectives)
    out["records"] = [_sha(log.records) for log in comm.rank_logs]
    out["counts"] = [len(log.records) for log in comm.rank_logs]
    out["kernels"] = sorted({r.kernel for log in comm.rank_logs
                             for r in log.records})
    return out


def twin(A: ParCSRMatrix, run) -> tuple[dict, dict]:
    """``run(comm, stacked)`` on the kernels and on the per-rank loops."""
    got, want = SimComm(A.nranks), SimComm(A.nranks)
    return (fingerprint(got, *run(got, True)),
            fingerprint(want, *run(want, False)))


CASES = [(op, sizes) for op in OPERATORS for sizes in PARTITIONS]


def strength_and_split(comm, A):
    with phase("Strength+Coarsen"):
        S = dist_strength(comm, A, 0.25, 0.9)
        return S, dist_pmis(comm, S, seed=5)


@pytest.mark.parametrize("op, sizes", CASES)
@pytest.mark.parametrize("method", ["one_pass", "two_pass"])
def test_dist_spgemm(op, sizes, method):
    A = problem(op, sizes)

    def run(comm, stacked):
        S, cf = strength_and_split(comm, A)
        with phase("Interp"):
            P, _ = dist_extended_i(comm, A, S, cf)
        spgemm_ = dist_spgemm if stacked else ref_dist_spgemm
        with phase("RAP"):
            AP = spgemm_(comm, A, P, spgemm_method=method, tag="rap.AP")
            SS = spgemm_(comm, S, S, spgemm_method=method)
        return AP, SS

    got, want = twin(A, run)
    assert got == want


@pytest.mark.parametrize("op, sizes", CASES)
@pytest.mark.parametrize("trunc", [(0.1, 4, True), (0.3, 2, False),
                                   (0.0, 0, True)])
def test_par_truncate(op, sizes, trunc):
    A = problem(op, sizes)
    trunc_fact, max_elmts, fused = trunc

    def run(comm, stacked):
        S, cf = strength_and_split(comm, A)
        with phase("Interp"):
            P, _ = dist_extended_i(comm, A, S, cf, trunc_fact=0.0, max_elmts=0)
        truncate = par_truncate if stacked else ref_par_truncate
        return P, truncate(comm, P, trunc_fact, max_elmts, fused=fused)

    got, want = twin(A, run)
    assert got == want


@pytest.mark.parametrize("op, sizes", CASES)
def test_dist_aggressive_pmis(op, sizes):
    A = problem(op, sizes)

    def run(comm, stacked):
        with phase("Strength+Coarsen"):
            S = dist_strength(comm, A, 0.25, 0.9)
            coarsen = dist_aggressive_pmis if stacked else ref_aggressive_pmis
            return coarsen(comm, S, seed=3)

    got, want = twin(A, run)
    assert got == want


@pytest.mark.parametrize("op, sizes", CASES)
@pytest.mark.parametrize("trunc", [(0.1, 4, True), (0.2, 3, False)])
def test_dist_multipass(op, sizes, trunc):
    A = problem(op, sizes)
    trunc_fact, max_elmts, fused = trunc

    def run(comm, stacked):
        with phase("Strength+Coarsen"):
            S = dist_strength(comm, A, 0.25, 0.9)
            cf, _ = dist_aggressive_pmis(comm, S, seed=3)
        build = dist_multipass if stacked else ref_multipass
        with phase("Interp"):
            P, cpart = build(comm, A, S, cf, trunc_fact=trunc_fact,
                             max_elmts=max_elmts, fused_truncation=fused)
        return P, cpart

    got, want = twin(A, run)
    assert got == want
    # A pass past the first ran: W, its product with P and the merge.
    assert "interp.mp.local.one_pass" in want["kernels"]

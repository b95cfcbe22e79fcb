"""Distributed PMIS coarsening (§2, §4).

The same round structure as the node-level kernel
(:func:`repro.amg.pmis.pmis`), with halo exchanges of the boundary measures
and states each round — the communication pattern the real BoomerAMG PMIS
performs.  The ranks advance through a round together: one pass over the
stacked adjacency, each rank charged its ``pmis.round`` record.  Given the same measure vector, the distributed
result equals the sequential result point for point (asserted in the tests).

Aggressive coarsening runs a second PMIS over the distance-<=2 strong graph
restricted to first-pass C points, with the candidate mask freezing
everything else.
"""

from __future__ import annotations

import numpy as np

from ..perf.counters import IDX_BYTES, PTR_BYTES, RecordTable
from ..sparse.csr import CSRMatrix
from ..sparse.ops import indptr_from_counts, sorted_unique
from .comm import SimComm
from .halo import build_halo
from .parcsr import ParCSRMatrix, ParVector
from .spgemm import dist_spgemm
from .transpose import dist_transpose

__all__ = ["dist_pmis", "dist_aggressive_pmis", "dist_random_measures"]

C_PT = 1
F_PT = -1


def dist_random_measures(comm: SimComm, part, seed: int) -> list[np.ndarray]:
    """Per-rank random measure fractions (independent spawned streams —
    the parallel-RNG behaviour of the optimized code, §3.3)."""
    children = np.random.SeedSequence(seed).spawn(comm.nranks)
    return [
        np.random.default_rng(children[p]).random(part.size(p))
        for p in range(comm.nranks)
    ]


def _union_adjacency(comm: SimComm, S: ParCSRMatrix) -> ParCSRMatrix:
    """Pattern of ``S + S^T`` as a ParCSR matrix (unit values, no
    diagonal: a point is not its own neighbour)."""
    St = dist_transpose(comm, S, tag="pmis.transpose")
    n, m = S.shape
    keys = sorted_unique(np.concatenate(
        [M.row_ids() * m + cols for P in (S, St)
         for M, cols in ((P.diag, P.diag.indices),
                         (P.offd, P.colmap[P.offd.indices]))]))
    rows = keys // max(m, 1)
    off = keys - rows * m != rows
    keys, rows = keys[off], rows[off]
    return ParCSRMatrix.from_sorted(
        CSRMatrix((n, m), indptr_from_counts(np.bincount(rows, minlength=n)),
                  keys - rows * m, np.ones(len(keys))),
        S.row_part, S.col_part)


def _rank_counts(part, mask: np.ndarray) -> np.ndarray:
    """Per-rank number of set entries of a row mask."""
    return np.diff(np.concatenate([[0], np.cumsum(mask)])[part.bounds])


def dist_pmis(
    comm: SimComm,
    S: ParCSRMatrix,
    *,
    seed: int = 0,
    measures: list[np.ndarray] | None = None,
    candidates: list[np.ndarray] | None = None,
) -> list[np.ndarray]:
    """PMIS CF splitting; returns per-rank cf-marker arrays.

    ``measures`` overrides the random fractions (used by tests for
    dist-vs-sequential equality); ``candidates`` (bool per rank) freezes
    non-candidate points as F immediately (aggressive second pass).

    All ranks advance through a round together: the measure / state
    vectors are whole distributed vectors, the neighbour maxima one pass
    over the stacked adjacency.
    """
    part = S.row_part
    St = dist_transpose(comm, S, tag="pmis.transpose")
    adj = _union_adjacency(comm, S)
    halo = build_halo(comm, adj, persistent=True)
    diag, offd = adj.stacked()
    d_rid, o_rid = diag.row_ids(), offd.row_ids()
    n = part.n

    frac = measures if measures is not None else dist_random_measures(comm, part, seed)
    infl = St.diag.row_nnz() + St.offd.row_nnz()
    measure = infl.astype(np.float64) + np.concatenate(frac)
    state = np.zeros(n, dtype=np.float64)
    state[infl < 1] = F_PT
    if candidates is not None:
        state[~np.concatenate(candidates)] = F_PT
    round_read = (sum(adj.rank_nnz()) * IDX_BYTES
                  + np.diff(part.bounds) * (IDX_BYTES + PTR_BYTES))

    while True:
        und = state == 0
        undecided = _rank_counts(part, und)
        if comm.allreduce(undecided.astype(np.float64), kind="pmis.count") == 0:
            break
        # Exchange the "undecided measure" boundary values.
        u = np.where(und, measure, -np.inf)
        u_ext = halo.gather(ParVector(u, part))
        nbr_max = np.full(n, -np.inf)
        np.maximum.at(nbr_max, d_rid, u[diag.indices])
        np.maximum.at(nbr_max, o_rid, u_ext[offd.indices])
        new_c = und & (measure > nbr_max)
        if not new_c.any():
            # Tied measures (given ones can tie): the node kernel's progress
            # guarantee, the undecided point of largest measure (lowest
            # global index among equals).  A round without progress shows
            # in the next undecided count; picking the point is one maxloc.
            cand = np.flatnonzero(und)
            new_c[cand[np.argmax(measure[cand])]] = True
            comm.allreduce(np.zeros(comm.nranks), kind="pmis.maxloc")
        state[new_c] = C_PT
        comm.record_on_ranks(RecordTable.per_rank(
            "pmis.round", comm.nranks, bytes_read=round_read,
            branches=undecided))

        # Exchange updated states; undecided neighbours of C points in the
        # symmetrized strong graph become F (independence even under
        # asymmetric strength).
        st_ext = halo.gather(ParVector(state.copy(), part))
        adj_c = np.bincount(d_rid, weights=state[diag.indices] == C_PT,
                            minlength=n) > 0
        adj_c |= np.bincount(o_rid, weights=st_ext[offd.indices] == C_PT,
                             minlength=n) > 0
        state[(state == 0) & adj_c] = F_PT

    cf = state.astype(np.int64)
    return [cf[a:b] for a, b in zip(part.bounds[:-1], part.bounds[1:])]


def dist_aggressive_pmis(
    comm: SimComm,
    S: ParCSRMatrix,
    *,
    seed: int = 0,
    measures: list[np.ndarray] | None = None,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Two-pass aggressive coarsening; returns ``(cf_final, cf_stage1)``."""
    cf1 = dist_pmis(comm, S, seed=seed, measures=measures)

    # Distance-<=2 strong graph restricted to stage-1 C points.
    S2 = dist_spgemm(comm, S, S, tag="pmis.dist2")
    cf = np.concatenate(cf1)
    rows, cols, _ = (np.concatenate(x) for x in zip(S.triplets(), S2.triplets()))
    keep = (cf[rows] == C_PT) & (rows != cols)
    Sc_all = ParCSRMatrix.from_triplets(rows[keep], cols[keep],
                                        np.ones(int(keep.sum())),
                                        S.row_part, S.col_part)
    # Drop columns that are not C points: exchange cf and filter.
    halo = build_halo(comm, Sc_all, persistent=False)
    cf_ext = halo.gather(ParVector(cf.astype(np.float64), S.row_part))
    rows, cols, _ = Sc_all.triplets()
    keep = np.concatenate([cf[Sc_all.diag.indices],
                           cf_ext[Sc_all.offd.indices]]) == C_PT
    Sc = ParCSRMatrix.from_triplets(rows[keep], cols[keep],
                                    np.ones(int(keep.sum())),
                                    S.row_part, S.col_part)

    cf2 = dist_pmis(comm, Sc, seed=seed + 1, measures=measures,
                    candidates=[c == C_PT for c in cf1])
    cf_final = np.where((cf == C_PT) & (np.concatenate(cf2) == C_PT),
                        C_PT, F_PT).astype(np.int64)
    return np.split(cf_final, S.row_part.bounds[1:-1]), cf1

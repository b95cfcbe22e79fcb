"""PMIS coarsening and aggressive (two-pass) coarsening (§2, Table 3/4).

PMIS (parallel modified independent set, De Sterck/Yang) selects coarse
points as a maximal independent set of the strong-connection graph weighted
by ``measure(i) = |{j : i strongly influences j}| + rand_i``:

1. points that influence nobody are made F immediately;
2. repeatedly, every undecided point whose measure beats all its undecided
   neighbours' becomes C, and undecided points that strongly depend on a new
   C point become F.

The random tie-break stream mirrors the paper's §3.3 note: the baseline
HYPRE uses a serial RNG; the optimized implementation uses a parallel
(per-thread-chunk) generator, so base and opt coarsenings differ slightly
and iteration counts differ by ~2% on average (§5.2).  Pass
``parallel_rng=False`` to reproduce the baseline stream bit-for-bit.

Aggressive coarsening (Table 4, top level of ``2s-ei(444)``/``mp``): a
second PMIS pass over the C points of the first pass, connected by strong
paths of length <= 2, keeping only the surviving points as coarse.
"""

from __future__ import annotations

import numpy as np

from ..perf.counters import IDX_BYTES, PTR_BYTES, count
from ..sparse.csr import CSRMatrix
from ..sparse.ops import segment_sum
from ..sparse.spgemm import spgemm
from ..sparse.transpose import transpose

__all__ = ["pmis", "aggressive_pmis", "random_measures", "C_PT", "F_PT"]

C_PT = 1
F_PT = -1


def random_measures(n: int, seed: int, nthreads: int, parallel: bool) -> np.ndarray:
    """The fractional part of the PMIS measure.

    ``parallel=True`` models MKL's parallel RNG: the index range is split
    into ``nthreads`` chunks, each drawn from an independent spawned stream.
    ``parallel=False`` draws the whole vector from one serial stream (the
    baseline HYPRE generator).  Values are in ``[0, 1)``.
    """
    if not parallel or nthreads <= 1:
        return np.random.default_rng(seed).random(n)
    out = np.empty(n, dtype=np.float64)
    children = np.random.SeedSequence(seed).spawn(nthreads)
    bounds = np.linspace(0, n, nthreads + 1).astype(np.int64)
    for t in range(nthreads):
        lo, hi = bounds[t], bounds[t + 1]
        out[lo:hi] = np.random.default_rng(children[t]).random(hi - lo)
    return out


def _sym_pattern(S: CSRMatrix) -> CSRMatrix:
    """Union pattern of ``S`` and ``S^T`` (unit values, no diagonal)."""
    St = transpose(S, kernel="pmis.transpose")
    rows = np.concatenate([S.row_ids(), St.row_ids()])
    cols = np.concatenate([S.indices, St.indices])
    off = rows != cols
    rows, cols = rows[off], cols[off]
    adj = CSRMatrix.from_coo(S.shape, rows, cols, np.ones(len(rows)))
    return adj


def pmis(
    S: CSRMatrix,
    *,
    seed: int = 0,
    nthreads: int = 14,
    parallel_rng: bool = True,
    measures: np.ndarray | None = None,
    parallel: bool = True,
) -> np.ndarray:
    """PMIS CF splitting on strength matrix *S*.

    Returns ``cf_marker`` with ``C_PT`` (= 1) for coarse and ``F_PT`` (= -1)
    for fine points.  Points with no strong connections in either direction
    become F points with empty interpolation rows.
    """
    n = S.nrows
    St = transpose(S, kernel="pmis.transpose")
    influence = St.row_nnz().astype(np.float64)
    if measures is None:
        measures = random_measures(n, seed, nthreads, parallel_rng)
    measure = influence + measures

    adj = _sym_pattern(S)
    arid = adj.row_ids()

    state = np.zeros(n, dtype=np.int8)  # 0 undecided
    # Points that influence nobody cannot serve as coarse points.
    state[influence < 1] = F_PT

    rounds = 0
    while True:
        undecided = state == 0
        if not undecided.any():
            break
        rounds += 1
        # Max measure among undecided neighbours of each point.
        nbr_vals = np.where(undecided[adj.indices], measure[adj.indices], -np.inf)
        nbr_max = np.full(n, -np.inf)
        np.maximum.at(nbr_max, arid, nbr_vals)
        new_c = undecided & (measure > nbr_max)
        if not new_c.any():
            # Numerically tied measures (vanishingly unlikely with random
            # fractions): break ties by index to guarantee progress.
            cand = np.flatnonzero(undecided)
            new_c = np.zeros(n, dtype=bool)
            new_c[cand[np.argmax(measure[cand])]] = True
        state[new_c] = C_PT
        # Undecided neighbours of new C points (in the symmetrized strong
        # graph) become F — this is what makes C an independent set even
        # when the strength relation is asymmetric.
        adj_c = segment_sum(
            new_c[adj.indices].astype(np.float64), arid, n
        ) > 0
        state[(state == 0) & adj_c] = F_PT

        count(
            "pmis.round",
            bytes_read=adj.nnz * IDX_BYTES + n * (IDX_BYTES + PTR_BYTES),
            branches=float(undecided.sum()),
            parallel=parallel,
        )

    count("pmis.finalize", bytes_written=n * IDX_BYTES)
    return state.astype(np.int64)


def aggressive_pmis(
    S: CSRMatrix,
    *,
    seed: int = 0,
    nthreads: int = 14,
    parallel_rng: bool = True,
    parallel: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Two-pass aggressive coarsening.

    Returns ``(cf_final, cf_stage1)``.  ``cf_stage1`` is the ordinary PMIS
    splitting; ``cf_final`` keeps only the C points that survive a second
    PMIS over the distance-<=2 strong graph restricted to stage-1 C points.
    """
    cf1 = pmis(S, seed=seed, nthreads=nthreads, parallel_rng=parallel_rng,
               parallel=parallel)
    c1 = np.flatnonzero(cf1 == C_PT)
    nc1 = len(c1)
    if nc1 <= 1:
        return cf1.copy(), cf1

    # Distance-2 strength among stage-1 C points: pattern of (S + S @ S)
    # restricted to C1 x C1, diagonal removed.
    S2 = spgemm(S, S, kernel="pmis.dist2")
    rows = np.concatenate([S.row_ids(), S2.row_ids()])
    cols = np.concatenate([S.indices, S2.indices])
    keep = (cf1[rows] == C_PT) & (cf1[cols] == C_PT) & (rows != cols)
    c_index = np.cumsum(cf1 == C_PT) - 1
    Sc = CSRMatrix.from_coo(
        (nc1, nc1), c_index[rows[keep]], c_index[cols[keep]], np.ones(int(keep.sum()))
    )
    Sc = CSRMatrix(Sc.shape, Sc.indptr, Sc.indices, np.ones(Sc.nnz))

    cf2 = pmis(Sc, seed=seed + 1, nthreads=nthreads, parallel_rng=parallel_rng,
               parallel=parallel)
    cf_final = np.full(S.nrows, F_PT, dtype=np.int64)
    cf_final[c1[cf2 == C_PT]] = C_PT
    return cf_final, cf1

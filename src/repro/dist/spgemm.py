"""Distributed SpGEMM (§4.1 Fig. 3c, §4.2).

``C = A B`` with matching inner partitions: rank *p* gathers the external
rows of ``B`` listed in its ``colmap`` (Fig. 3c), **renumbers** the received
global column indices into its extended compressed column space (§4.2 — the
multi-node setup bottleneck this paper parallelizes), stacks the received
rows under its local ``B`` rows, and runs the node-level SpGEMM kernel on
the stacked operand.

The renumbering really feeds the computation: the stacked multiply runs in
the compact column space produced by :mod:`repro.dist.renumber`, and the
result's columns are mapped back through the extended colmap.

The vehicle gathers, renumbers and stacks for all ranks at once: ``B``'s own
rows over every rank's gathered rows form one right operand whose columns
are the ranks' compact spaces back to back, and ``A``'s columns are
re-pointed at its rows.  The node-level product then runs per rank, on the
rank's rows of ``A`` — small sorts, and the kernel charges its own rank.
"""

from __future__ import annotations

import numpy as np

from ..sparse.spgemm import spgemm
from .comm import SimComm
from .parcsr import ParCSRMatrix, row_block, stack_rows
from .renumber import renumber_ranks
from .rowgather import gather_rows

__all__ = ["dist_spgemm", "dist_rap"]


def _stack_operand(comm, B, g, parallel_renumber, nthreads):
    """``B``'s own rows over the gathered rows *g* (consumed), as one right
    operand whose columns are the ranks' compact spaces back to back — rank
    *p*'s owned range, its old colmap, its appended columns — plus the map
    from those columns back to global ids."""
    cb = B.col_part.bounds
    # ---- §4.2 renumbering of received column indices ----
    ext = (g.gcols < g.spread(cb[:-1][g.req])) | (g.gcols >= g.spread(cb[1:][g.req]))
    q_key = g.spread(g.req * cb[-1])[ext]
    q_key += g.gcols[ext]
    ren = renumber_ranks(comm, B.colmap, B.ext_ptr, q_key, int(cb[-1]),
                         parallel=parallel_renumber, nthreads=nthreads)
    del q_key
    # Offsets of the three column pieces of every rank:
    own_at = B.ext_ptr[:-1] + ren.app_ptr[:-1]          # + global column
    old_at = cb[1:] + ren.app_ptr[:-1]                  # + stacked colmap slot
    app_at = cb[1:] + B.ext_ptr[1:]                     # + stacked appended slot
    ncols = int(cb[-1] + B.ext_ptr[-1] + ren.app_ptr[-1])
    gid = np.empty(ncols, dtype=np.int64)
    owned = np.arange(cb[-1])
    gid[owned + own_at[B.col_part.ranks()]] = owned
    gid[np.arange(len(B.colmap)) + old_at[B.ext_ranks()]] = B.colmap
    gid[np.arange(len(ren.appended))
        + np.repeat(app_at, np.diff(ren.app_ptr))] = ren.appended

    g_cols = g.gcols  # re-pointed in place
    g_cols += g.spread(own_at[g.req])
    g_cols[ext] = ren.compressed + g.spread((old_at + B.ext_ptr[:-1])[g.req])[ext]
    del ren, ext
    b_rank = B.row_part.ranks()
    # (a product does not need its right operand's rows sorted)
    return stack_rows(
        B, B.diag.indices + own_at[b_rank][B.diag.row_ids()],
        B.offd.indices + old_at[b_rank][B.offd.row_ids()], ncols,
        below=(g.indptr, g_cols, g.vals)), gid


def dist_spgemm(
    comm: SimComm,
    A: ParCSRMatrix,
    B: ParCSRMatrix,
    *,
    parallel_renumber: bool = True,
    spgemm_method: str = "one_pass",
    nthreads: int = 14,
    tag: str = "spgemm",
) -> ParCSRMatrix:
    if A.col_part.bounds.tolist() != B.row_part.bounds.tolist():
        raise ValueError("inner partitions must match")
    # Rank p gathers the B rows its colmap lists (already sorted, distinct).
    Bstack, gid = _stack_operand(
        comm, B, gather_rows(comm, B, A.ext_ranks(), A.colmap, tag=tag),
        parallel_renumber, nthreads)
    # A's columns as stacked-B row indices: diag col j -> B row j; offd col
    # c -> gathered row c.
    Astack = stack_rows(A, A.diag.indices, B.row_part.n + A.offd.indices,
                        Bstack.nrows)
    # The node-level product, per rank on its rows of the stack.
    rb = A.row_part.bounds.tolist()
    C = comm.run_on_ranks(lambda p: spgemm(
        row_block(Astack, rb[p], rb[p + 1], 0, Bstack.nrows), Bstack,
        method=spgemm_method, kernel=f"{tag}.local"))
    del Astack, Bstack
    # Compact columns back to global ids.
    return ParCSRMatrix.from_triplets(
        np.concatenate([Cp.row_ids() + lo for Cp, lo in zip(C, rb)]),
        gid[np.concatenate([Cp.indices for Cp in C])],
        np.concatenate([Cp.data for Cp in C]), A.row_part, B.col_part)


def dist_rap(
    comm: SimComm,
    A: ParCSRMatrix,
    P: ParCSRMatrix,
    *,
    parallel_renumber: bool = True,
    spgemm_method: str = "one_pass",
    nthreads: int = 14,
    R: ParCSRMatrix | None = None,
) -> tuple[ParCSRMatrix, ParCSRMatrix]:
    """Distributed Galerkin product; returns ``(A_coarse, R)``.

    ``R = P^T`` is computed with the distributed transpose (and returned so
    the solve phase can keep it, §3.2).
    """
    from .transpose import dist_transpose

    if R is None:
        R = dist_transpose(comm, P, tag="rap.transpose")
    RA = dist_spgemm(
        comm, R, A,
        parallel_renumber=parallel_renumber,
        spgemm_method=spgemm_method,
        nthreads=nthreads,
        tag="rap.RA",
    )
    Ac = dist_spgemm(
        comm, RA, P,
        parallel_renumber=parallel_renumber,
        spgemm_method=spgemm_method,
        nthreads=nthreads,
        tag="rap.BP",
    )
    return Ac, R

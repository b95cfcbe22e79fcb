"""Column-index renumbering for gathered matrix rows (§4.2, Fig. 4).

When rank *p* gathers external matrix rows (for SpGEMM-like operations),
the received rows contain global column indices that may not yet exist in
``B_p``'s ``colmap`` and must be assigned new compressed local indices — a
sort-with-duplicate-elimination problem that the paper identifies as a
major multi-node setup bottleneck.

Two implementations, identical results:

* :func:`renumber_baseline` — the serial ordered-set insertion of the
  baseline HYPRE: every new column probes and possibly rebalances an
  ordered set.  Counted as serial work with one data-dependent branch per
  probed index and ``O(log)`` compare chains.
* :func:`renumber_parallel` — Fig. 4: each thread filters its chunk of the
  index stream through a thread-private hash table (duplicates collapse
  without synchronization thanks to the locality of adjacent rows), the
  per-thread survivor sets are merged by a duplicate-eliminating parallel
  merge sort, and lookups go through a range-partitioned reverse hash map
  (``O(log t)`` per lookup instead of ``O(log n)``).

The vehicle renumbers all ranks in one pass (:func:`renumber_ranks`): old
colmaps and queries are keyed ``rank * ncols + column``, and Fig. 4's hash
table becomes one dense map over that key space
(:func:`repro.sparse.ops.unique_inverse`; a sort where the space is too
sparse for it), which numbers every distinct key of every rank at once.
Each rank's record follows from its own counts.  The two algorithms differ
only in that counted work.

Both return the extended colmap and the compressed indices of the queried
columns in the extended local space: owned columns map to
``[0, nloc)``-style diag indices separately (callers handle the diag/offd
split); here *every* queried global column gets an index into
``old_colmap ++ appended``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..perf.counters import (
    IDX_BYTES,
    KernelRecord,
    RecordTable,
    count_record,
    make_records,
)
from ..sparse.ops import indptr_from_counts, unique_inverse

__all__ = ["renumber_baseline", "renumber_parallel", "renumber_ranks",
           "RenumberResult", "RenumberStack"]


@dataclass
class RenumberResult:
    """Extended colmap and per-query compressed indices.

    ``compressed[t]`` indexes ``colmap_new`` for query *t* (queries that hit
    owned columns are the caller's business and must be excluded upfront).
    """

    colmap_new: np.ndarray
    compressed: np.ndarray
    n_appended: int


@dataclass
class RenumberStack:
    """Every rank's renumbering.  Rank *p* appends the sorted new columns
    ``appended[app_ptr[p]:app_ptr[p + 1]]`` after its old colmap (Fig. 3c
    appends and assigns the next local indices); ``compressed[t]`` indexes
    the extended colmap of the rank query *t* belongs to."""

    appended: np.ndarray
    app_ptr: np.ndarray
    compressed: np.ndarray


def renumber_ranks(comm, colmap: np.ndarray, ext_ptr: np.ndarray,
                   q_key: np.ndarray, ncols: int, *,
                   parallel: bool = True, nthreads: int = 14) -> RenumberStack:
    """Renumber the received columns ``q_key[t] = rank * ncols + column``
    against each rank's slice ``ext_ptr[p]:ext_ptr[p + 1]`` of the stacked
    sorted ``colmap``, for all ranks of *comm* at once, charging each rank
    its record.

    ``parallel`` selects the counted algorithm: Fig. 4 (thread-parallel,
    ``O(1)`` hash probes, one streaming pass plus the merge traffic over
    the distinct columns, ``O(log t)`` range search per lookup) or the
    serial ordered-set baseline (an ``O(log n)`` probe chain per index).
    """
    ren, records = _renumber(colmap, ext_ptr, q_key, ncols,
                             parallel=parallel, nthreads=nthreads)
    comm.record_on_ranks(RecordTable([r] for r in records))
    return ren


def _renumber(
    colmap: np.ndarray,
    ext_ptr: np.ndarray,
    q_key: np.ndarray,
    ncols: int,
    *,
    parallel: bool = True,
    nthreads: int = 14,
) -> tuple[RenumberStack, list[KernelRecord]]:
    """The renumbering of all ranks and each rank's record of it."""
    nranks = len(ext_ptr) - 1
    n_old = np.diff(ext_ptr)
    old_key = np.repeat(np.arange(nranks, dtype=np.int64), n_old) * ncols + colmap
    n = np.bincount(q_key // ncols, minlength=nranks)
    # One map over the (rank, column) keys of the old colmaps and the
    # queries numbers every distinct key; classify the queried ones.
    n_o = len(old_key)
    ukey, inv = unique_inverse(np.concatenate([old_key, q_key]), nranks * ncols)
    u_rank = ukey // ncols
    u_comp = np.full(len(ukey), -1, dtype=np.int64)
    u_comp[inv[:n_o]] = np.arange(n_o) - ext_ptr[u_rank[inv[:n_o]]]
    queried = np.zeros(len(ukey), dtype=bool)
    queried[inv[n_o:]] = True
    new = queried & (u_comp < 0)
    n_app = np.bincount(u_rank[new], minlength=nranks)
    app_ptr = indptr_from_counts(n_app)
    u_comp[new] = np.arange(app_ptr[-1]) + (n_old - app_ptr[:-1])[u_rank[new]]
    compressed = u_comp[inv[n_o:]]

    if parallel:
        merged = np.bincount(u_rank[queried], minlength=nranks)  # distinct columns
        records = make_records(
            "renumber.parallel", nranks,
            bytes_read=n * IDX_BYTES  # one streaming pass through the indices
            + merged * IDX_BYTES * 2,  # merge traffic
            bytes_written=n_app * IDX_BYTES,
            branches=n + n * math.log2(max(nthreads, 2)) / 8,
            parallel=True)
    else:
        logn = np.array([math.log2(max(m, 2)) for m in (n_old + n_app).tolist()])
        records = make_records(
            "renumber.baseline", nranks,
            bytes_read=n * IDX_BYTES * logn,  # ordered-set probe chain
            bytes_written=n_app * IDX_BYTES * logn,
            branches=n * logn,
            parallel=False)
    return RenumberStack(ukey[new] % ncols, app_ptr, compressed), records


def _one_rank(old_colmap, queries, **kw) -> RenumberResult:
    old_colmap = np.asarray(old_colmap, dtype=np.int64)
    queries = np.asarray(queries, dtype=np.int64)
    ren, records = _renumber(
        old_colmap, np.array([0, len(old_colmap)]), queries,
        int(max(old_colmap.max(initial=0), queries.max(initial=0))) + 1, **kw)
    count_record(records[0])
    return RenumberResult(np.concatenate([old_colmap, ren.appended]),
                          ren.compressed, len(ren.appended))


def renumber_baseline(
    old_colmap: np.ndarray, queries: np.ndarray, *, owned_mask: np.ndarray | None = None
) -> RenumberResult:
    """Serial ordered-set renumbering (baseline HYPRE accounting)."""
    return _one_rank(old_colmap, queries, parallel=False)


def renumber_parallel(
    old_colmap: np.ndarray,
    queries: np.ndarray,
    *,
    nthreads: int = 14,
) -> RenumberResult:
    """Fig. 4 parallel renumbering of one rank's queries."""
    return _one_rank(old_colmap, queries, parallel=True, nthreads=nthreads)

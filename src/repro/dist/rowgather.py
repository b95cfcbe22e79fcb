"""Gathering external matrix rows (§4.1 Fig. 3c, §4.3).

SpGEMM-like operations (coarse-operator construction, interpolation,
transpose) exchange matrix *rows* rather than vector elements.  Rank *p*
requests the rows listed in its ``colmap`` from their owners; the owner
extracts each row, converts its column indices to *global* ids, and ships
``(row sizes, global columns, values)``.

§4.3: for interpolation construction most of a shipped row is never used —
only entries whose column is a C point (candidate ``Chat_i`` member), the
diagonal, and entries pointing back into the requester's row range whose
sign differs from the diagonal's can contribute to Eq. (1).  The *filtered*
gather drops everything else at the sender, cutting the communication
volume by >3x on the paper's inputs; results are bit-identical because the
dropped entries are exactly the ones the receiving kernel would zero or
never read.

The vehicle gathers for all requesters at once: the owners' rows come out of
one globally row-sorted store (:meth:`ParCSRMatrix.to_global`) by range
gathers, the filter sees every (requester, owner) pair's entries in one
call, and the request / data messages and the ``rowgather.pack`` /
``rowgather.assemble`` records of each pair are rebuilt from per-pair counts
in the order the per-pair exchanges would log them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..perf.counters import IDX_BYTES, VAL_BYTES, RecordTable, make_records
from ..sparse.ops import gather_range_indices, indptr_from_counts, run_starts
from .comm import MessageBatch, SimComm
from .parcsr import ParCSRMatrix

__all__ = ["GatheredRows", "GatheredStack", "gather_matrix_rows",
           "gather_rows", "GLOBAL_IDX_BYTES"]

#: Global column ids travel as 64-bit ints (HYPRE_BigInt).
GLOBAL_IDX_BYTES = 8


@dataclass
class GatheredRows:
    """External rows received by one rank, in CSR-with-global-columns form.

    ``row_gids`` are the gathered rows' global ids (ascending); ``indptr``
    delimits rows within ``gcols``/``vals``.  ``extra`` carries any
    per-entry side payloads shipped along (e.g. strong-connection flags).
    """

    row_gids: np.ndarray
    indptr: np.ndarray
    gcols: np.ndarray
    vals: np.ndarray
    extra: dict[str, np.ndarray]

    @property
    def nnz(self) -> int:
        return len(self.gcols)


@dataclass
class GatheredStack:
    """The rows every rank received, back to back in rank order.

    Row *k* was gathered by rank ``req[k]`` (non-decreasing), has global id
    ``row_gids[k]`` (ascending per rank) and owns entries
    ``indptr[k]:indptr[k + 1]`` of ``gcols`` / ``vals`` / ``extra``;
    ``stack[p]`` is rank *p*'s share as a :class:`GatheredRows`.
    """

    req: np.ndarray
    row_gids: np.ndarray
    indptr: np.ndarray
    gcols: np.ndarray
    vals: np.ndarray
    extra: dict[str, np.ndarray]
    nranks: int

    def spread(self, per_row: np.ndarray) -> np.ndarray:
        """``per_row[k]`` for every entry of row *k*."""
        return np.repeat(per_row, np.diff(self.indptr))

    def __len__(self) -> int:
        return self.nranks

    def __getitem__(self, p: int) -> GatheredRows:
        if not 0 <= p < self.nranks:
            raise IndexError(p)
        a, b = np.searchsorted(self.req, [p, p + 1])
        s, e = self.indptr[a], self.indptr[b]
        return GatheredRows(
            self.row_gids[a:b], self.indptr[a: b + 1] - s, self.gcols[s:e],
            self.vals[s:e], {n: v[s:e] for n, v in self.extra.items()})


def gather_matrix_rows(
    comm: SimComm,
    B: ParCSRMatrix,
    needed: list[np.ndarray],
    *,
    tag: str = "rowgather",
    entry_filter=None,
    extra_payloads: dict[str, list[np.ndarray]] | None = None,
    extra_bytes_per_entry: float = 0.0,
) -> GatheredStack:
    """Gather the global rows in ``needed[p]`` for every rank *p*.

    ``entry_filter(req_ranks, row_gids, gcols, vals) -> keep mask``
    implements §4.3 sender-side filtering; it is called once with every
    candidate entry (``req_ranks[t]`` is the rank entry *t* would be sent
    to, ``row_gids[t]`` its row).  ``extra_payloads[name][q]`` is a
    per-owner-rank array aligned with rank *q*'s stored entries (diag then
    offd, in ``row_arrays_global`` order) to ship alongside the values;
    ``extra_bytes_per_entry`` is their counted wire size.
    """
    n = max(B.row_part.n, 1)
    req = np.repeat(np.arange(comm.nranks, dtype=np.int64),
                    [len(w) for w in needed])
    rows = np.concatenate([np.asarray(w, dtype=np.int64) for w in needed])
    key = np.unique(req * n + rows)
    return gather_rows(
        comm, B, key // n, key % n, tag=tag, entry_filter=entry_filter,
        extra_payloads=extra_payloads,
        extra_bytes_per_entry=extra_bytes_per_entry)


def gather_rows(
    comm: SimComm,
    B: ParCSRMatrix,
    req: np.ndarray,
    rows: np.ndarray,
    *,
    tag: str = "rowgather",
    entry_filter=None,
    extra_payloads: dict[str, list[np.ndarray]] | None = None,
    extra_bytes_per_entry: float = 0.0,
) -> GatheredStack:
    """:func:`gather_matrix_rows` for requests already in stacked form: rank
    ``req[k]`` wants global row ``rows[k]``, pairs sorted and distinct."""
    nranks = comm.nranks
    store = B.to_global()
    counts = store.indptr[rows + 1] - store.indptr[rows]
    idx = gather_range_indices(store.indptr[rows], counts)
    gcols, vals = store.indices[idx], store.data[idx]
    extra = {}
    if extra_payloads:
        _, diag_slot, offd_slot = B.merge_slots()
        d_nnz, o_nnz = B.rank_nnz()
        # Rank-major (diag then offd) position of every stacked entry.
        d_at = np.arange(B.diag.nnz) + np.repeat(
            B.offd.indptr[B.row_part.bounds[:-1]], d_nnz)
        o_at = np.arange(B.offd.nnz) + np.repeat(
            B.diag.indptr[B.row_part.bounds[1:]], o_nnz)
        for name, per_rank in extra_payloads.items():
            flat = np.concatenate(per_rank)
            merged = np.empty(len(flat), dtype=flat.dtype)
            merged[diag_slot], merged[offd_slot] = flat[d_at], flat[o_at]
            extra[name] = merged[idx]
    del store, idx  # (big, and the filter's temporaries come next)
    if entry_filter is not None:
        of_row = np.repeat(np.arange(len(rows)), counts)
        keep = entry_filter(req[of_row], rows[of_row], gcols, vals)
        gcols, vals = gcols[keep], vals[keep]
        extra = {name: arr[keep] for name, arr in extra.items()}
        counts = np.bincount(of_row[keep], minlength=len(rows))
    indptr = indptr_from_counts(counts)

    # One (requester, owner) pair per run of the sorted requests: a request
    # message p -> q and, from what survived the filter, the data message
    # q -> p packed by q; the requester then assembles what it received.
    owner = B.row_part.owner_of(rows)
    pair = req * nranks + owner
    first = run_starts(pair)
    p_req, p_own = req[first], owner[first]
    remote = p_req != p_own
    n_rows = np.diff(np.r_[first, len(pair)])[remote]
    n_ent = (np.add.reduceat(counts, first) if len(first) else first)[remote]
    src, dst = p_req[remote], p_own[remote]
    comm.log_batch(MessageBatch(
        np.stack([src, dst], 1).ravel(), np.stack([dst, src], 1).ravel(),
        np.stack([
            n_rows * float(GLOBAL_IDX_BYTES),
            n_ent * (VAL_BYTES + GLOBAL_IDX_BYTES + extra_bytes_per_entry)
            + n_rows * IDX_BYTES], 1).ravel(),
        [tag + ".req", tag] * len(src)))

    pack = make_records(
        "rowgather.pack", len(src),
        bytes_read=n_ent * (VAL_BYTES + IDX_BYTES),
        bytes_written=n_ent * (VAL_BYTES + GLOBAL_IDX_BYTES))
    received = np.diff(indptr[np.searchsorted(req, np.arange(nranks + 1))])
    assemble = make_records(
        "rowgather.assemble", nranks,
        bytes_read=received * (VAL_BYTES + GLOBAL_IDX_BYTES),
        bytes_written=received * (VAL_BYTES + GLOBAL_IDX_BYTES),
        branches=received)
    # Rank r's stream: the packs for requesters below r, its own assemble,
    # the packs for requesters above r — requester-major, as exchanged.
    table: list[list] = [[] for _ in range(nranks)]
    ends = np.searchsorted(src, np.arange(nranks), side="right").tolist()
    owners, at = dst.tolist(), 0
    for p in range(nranks):
        for k in range(at, ends[p]):
            table[owners[k]].append(pack[k])
        table[p].append(assemble[p])
        at = ends[p]
    comm.record_on_ranks(RecordTable(table))
    return GatheredStack(req, rows, indptr, gcols, vals, extra, nranks)

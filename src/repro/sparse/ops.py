"""Low-level vectorized helpers shared by the sparse kernels.

These are the numpy building blocks that stand in for the tight C loops of
the paper's kernels: segment gathers/reductions over CSR structure with no
Python-level per-row loops.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "row_ids_from_indptr",
    "indptr_from_counts",
    "counts_from_indptr",
    "gather_range_indices",
    "stable_order",
    "rowcol_order",
    "group_rowcol",
    "unique_inverse",
    "segment_sum",
    "run_starts",
    "sorted_unique",
    "prefix_sum_partition",
]


def row_ids_from_indptr(indptr: np.ndarray) -> np.ndarray:
    """Expand a CSR row pointer into one row id per stored entry.

    ``indptr`` of length ``n+1`` yields an ``int64`` array of length
    ``indptr[-1]`` whose *k*-th element is the row that entry *k* belongs to.
    """
    n = len(indptr) - 1
    return np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))


def counts_from_indptr(indptr: np.ndarray) -> np.ndarray:
    return np.diff(indptr)


def indptr_from_counts(counts: np.ndarray) -> np.ndarray:
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr


def gather_range_indices(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate the ranges ``[starts[i], starts[i]+counts[i])`` vectorized.

    Equivalent to ``np.concatenate([np.arange(s, s+c) for s, c in ...])``
    without a Python loop.  Returns an empty int64 array for empty input.
    """
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # Offset of each segment within the output.
    seg_offsets = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=seg_offsets[1:])
    out = np.arange(total, dtype=np.int64)
    out += np.repeat(starts - seg_offsets, counts)
    return out


def stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """Stable argsort of integer *keys* in ``[0, bound)``; bounds that fit
    16 bits sort a ``uint16`` cast, which numpy radix-sorts (6x faster)."""
    return np.argsort(keys.astype(np.uint16) if bound <= 1 << 16 else keys, kind="stable")


def rowcol_order(rows: np.ndarray, cols: np.ndarray, ncols: int) -> np.ndarray:
    """The stable ``(row, col)`` ordering, ``== np.lexsort((cols, rows))``.

    The one place the library orders coordinates: a stable sort of the
    64-bit composite key ``rows * ncols + cols``.  Its set-up callers hand
    in row-sorted coordinates (CSR entries), on which numpy's timsort runs
    in near-linear time.  Grouping needs no order: see :func:`group_rowcol`.
    """
    return np.argsort(rows * np.int64(ncols) + cols, kind="stable")


#: :func:`unique_inverse` (and through it :func:`group_rowcol`) marks keys
#: in a dense array over the key space when that array holds at most this
#: many keys per input entry, and sorts them otherwise.  Measured over every
#: grouping call of the four benchmark set-ups (EXPERIMENTS.md "Set-up
#: groups with a marker array", crossover table): marking takes 0.1-0.3x
#: the sort's time up to 16 keys per entry, 0.6x up to 32, 0.9x up to 64,
#: and loses from there.  A threshold of 32 groups 3-15 % faster than 16,
#: but whole set-ups tie; 16 caps the transient mark and rank arrays at
#: 80 B per entry and keeps the ``node-lap27`` set-up's max RSS ~5 MB lower.
GROUP_MARKER_DENSITY = 16


def unique_inverse(keys: np.ndarray, space: int, dtype=np.int64):
    """``np.unique(keys, return_inverse=True)`` of integer *keys* in ``[0,
    space)``: the distinct keys, ascending, and each key's index among them
    (as *dtype*).

    A dense key space uses the marker array of the paper's kernels (§3.1.1)
    as a perfect hash: mark every key, read the distinct keys off the marks
    — already in order — and rank them; the Fig. 4 renumbering's hash
    table is this map over ``(rank, column)`` keys.  A sparse one takes
    one stable sort.
    """
    if space <= GROUP_MARKER_DENSITY * len(keys):
        mark = np.zeros(space, dtype=bool)
        mark[keys] = True
        ukey = np.flatnonzero(mark)
        rank = np.empty(space, dtype=dtype)
        rank[ukey] = np.arange(len(ukey), dtype=dtype)
        return ukey, rank.take(keys)
    order = np.argsort(keys, kind="stable")
    skey = keys[order]
    first = np.empty(len(skey), dtype=bool)
    first[:1] = True
    first[1:] = skey[1:] != skey[:-1]
    inverse = np.empty(len(keys), dtype=dtype)
    inverse[order] = np.cumsum(first) - 1
    return skey[first], inverse


def group_rowcol(rows: np.ndarray, cols: np.ndarray, nrows: int, ncols: int):
    """Group entries by ``(row, col)``: COO to CSR slots.

    Returns ``(slot, indptr, indices)``: ``slot[t]`` is the output slot of
    input entry *t* (int32 when the entries fit), and ``indptr`` /
    ``indices`` the CSR structure of the distinct coordinates in ``(row,
    col)`` order.  ``np.bincount(slot, weights=vals)`` sums each slot's
    duplicates in input order.  The distinct keys come from
    :func:`unique_inverse` (a marker array where the key space is dense).
    """
    key = rows * np.int64(ncols) + cols
    ukey, slot = unique_inverse(key, nrows * ncols,
                                np.int32 if len(key) < 2**31 else np.int64)
    # Row r's keys are [r * ncols, (r + 1) * ncols): its slots start at the
    # first distinct key at or past r * ncols.
    indptr = np.searchsorted(ukey, np.arange(nrows + 1, dtype=np.int64) * ncols)
    return slot, indptr, ukey % ncols


def segment_sum(values: np.ndarray, seg_ids: np.ndarray, nseg: int) -> np.ndarray:
    """Sum *values* into ``nseg`` buckets keyed by *seg_ids*."""
    if len(values) == 0:
        return np.zeros(nseg, dtype=np.float64)
    return np.bincount(seg_ids, weights=values, minlength=nseg)[:nseg]


def run_starts(keys: np.ndarray) -> np.ndarray:
    """Start index of every run of equal neighbours in *keys*."""
    return np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]][: len(keys)])


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """The distinct values of an integer array, ascending (``np.unique``'s
    result, by a value sort and a neighbour compare)."""
    keys = np.sort(keys)
    return keys[run_starts(keys)]


def prefix_sum_partition(counts: np.ndarray) -> tuple[np.ndarray, int]:
    """The parallel prefix-sum idiom used to assemble variable-size rows.

    The paper parallelizes final-matrix creation (strength matrix, §3.3)
    with a prefix sum over per-row output counts: each thread then knows
    where to write.  Returns ``(indptr, total)``.
    """
    indptr = indptr_from_counts(np.asarray(counts, dtype=np.int64))
    return indptr, int(indptr[-1])

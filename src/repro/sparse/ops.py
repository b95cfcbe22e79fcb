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
    "rowcol_order",
    "group_rowcol",
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


def rowcol_order(
    rows: np.ndarray, cols: np.ndarray, nrows: int, ncols: int, key: np.ndarray | None = None
) -> np.ndarray:
    """The stable ``(row, col)`` ordering, ``== np.lexsort((cols, rows))``.

    The one place the library orders coordinates.  Bounds that fit 16 bits
    take two least-significant-first stable argsorts on ``uint16`` casts
    (numpy radix-sorts 16-bit keys); larger operators sort the 64-bit
    composite *key* ``rows * ncols + cols`` (computed unless handed in).
    A stable sort's result is unique, so both arms agree.
    """
    if max(nrows, ncols) <= 1 << 16:
        order = np.argsort(cols.astype(np.uint16), kind="stable")
        return order[np.argsort(rows.astype(np.uint16)[order], kind="stable")]
    return np.argsort(rows * np.int64(ncols) + cols if key is None else key, kind="stable")


def group_rowcol(rows: np.ndarray, cols: np.ndarray, nrows: int, ncols: int):
    """Sort entries by ``(row, col)`` and group the duplicates.

    Returns ``(order, group, indptr, indices)``: :func:`rowcol_order`, the
    output slot of each *sorted* entry — ``np.bincount(group,
    weights=vals[order])`` sums a slot's duplicates in input order — and
    the CSR structure of the slots.
    """
    key = rows * np.int64(ncols) + cols
    order = rowcol_order(rows, cols, nrows, ncols, key)
    skey = key[order]
    first = np.empty(len(skey), dtype=bool)
    first[:1] = True
    first[1:] = skey[1:] != skey[:-1]
    ukey = skey[first]
    indptr = indptr_from_counts(np.bincount(ukey // ncols, minlength=nrows))
    return order, np.cumsum(first) - 1, indptr, ukey % ncols


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

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
    "Lockstep",
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


#: Which segment structures get a :class:`Lockstep` layout — decided from
#: the structure alone, once per matrix and direction.  A lockstep step
#: holds ``nnz / longest segment`` segments on average and costs one to
#: three ufunc dispatches whatever it holds, so it needs enough of them to
#: beat ``bincount``'s 3-4 ns per entry.  Measured over all 52 level
#: operators of the four benchmark hierarchies (EXPERIMENTS.md "Lockstep
#: SpMV", crossover table): a single right-hand side wins from ~650
#: segments per step (0.4-0.7x), breaks even at 400-500, loses below
#: (1.1-1.25x at ~200); eight right-hand sides win from ~100 (0.3-0.5x).
#: Operators under 2^14 entries lose at k = 1 whatever their shape (fixed
#: per-call cost) — that is all of ``serve-mixed``, which therefore runs
#: the bincount arm only.  Width does not enter: the rule is per matrix,
#: not per call.
LOCKSTEP_MIN_NNZ = 1 << 14
LOCKSTEP_MIN_SEGMENTS_PER_STEP = 256
#: Elements of the gather/multiply buffer (64 KiB: stays in L1/L2).
LOCKSTEP_BUFFER = 1 << 13


class Lockstep:
    """Frozen layout computing ``out[s] = sum_e vals[e] * x[src[e]]`` over
    the entries *e* of every segment *s*, in entry order.

    Segments are ranked by length, longest first (stable); step *p* holds
    the *p*-th entry of every segment that has one — a prefix of the
    ranking — stored contiguously.  :meth:`dot` then advances all segments
    together: gather, multiply, add into the prefix of a ``+0.0``
    accumulator — contiguous SIMD ufunc calls instead of ``bincount``'s
    scalar loop, and an ``(n, k)`` operand rides along as the trailing
    axis.  Per segment that is ``((0.0 + t0) + t1) + ...``:
    ``np.bincount(seg, weights=vals * x[src])``'s summation order, bit for
    bit (signed zeros, infinities, NaN placement and empty segments
    included; the *sign* of a NaN that met a NaN of the other sign is an
    instruction's operand order and not pinned).

    Pattern half (shared by :meth:`with_values`): ``slot`` (segment ->
    rank), ``bounds`` (step *p* is positions ``bounds[p]:bounds[p+1]``),
    ``starts`` (first entry of each ranked segment), ``entry`` (position
    in segment-sorted order -> stored entry; ``None`` when entries are
    stored segment by segment, i.e. CSR rows) and ``src``.  Value half:
    ``vals``.  16 B per entry plus the shared ``entry``.
    """

    __slots__ = ("slot", "bounds", "starts", "entry", "src", "vals")

    def __init__(self, slot, bounds, starts, entry, src, vals) -> None:
        self.slot, self.bounds, self.starts = slot, bounds, starts
        self.entry, self.src, self.vals = entry, src, vals

    @staticmethod
    def admits(nnz: int, longest: int = 0) -> bool:
        """The coverage rule (constants above); ``longest=0`` asks about
        the entry floor alone."""
        return nnz >= max(LOCKSTEP_MIN_NNZ, LOCKSTEP_MIN_SEGMENTS_PER_STEP * longest)

    @classmethod
    def build(cls, counts: np.ndarray, entry: np.ndarray | None,
              src: np.ndarray, vals: np.ndarray) -> "Lockstep":
        """Layout of segments with *counts* entries each, stored back to
        back in the order *entry* lists them (``None`` = storage order);
        *src* / *vals* are per stored entry.  *src* must be in range:
        :meth:`dot` gathers with ``mode="clip"``."""
        longest = int(counts.max(initial=0))
        order = stable_order(longest - counts, longest + 1)
        slot = np.empty_like(order)
        slot[order] = np.arange(len(order))
        # Segments longer than p, for every step p.
        active = len(counts) - np.cumsum(np.bincount(counts))[:-1]
        bounds = [0, *np.cumsum(active).tolist()]
        starts = (np.cumsum(counts) - counts)[order]
        self = cls(slot, bounds, starts, entry, None, None)
        perm = self.perm()
        self.src, self.vals = src.take(perm), vals.take(perm)
        return self

    def perm(self) -> np.ndarray:
        """The stored entry at every lockstep position.  Recomputed (one
        small add per step), not retained: it would be 8 B per entry."""
        bounds, starts = self.bounds, self.starts
        perm = np.empty(bounds[-1], dtype=np.int64)
        for p in range(len(bounds) - 1):
            a, b = bounds[p], bounds[p + 1]
            np.add(starts[:b - a], p, out=perm[a:b])
        return perm if self.entry is None else self.entry.take(perm)

    def with_values(self, vals: np.ndarray) -> "Lockstep":
        """The layout of the same pattern holding *vals* (per stored
        entry): shares every pattern array, sorts nothing."""
        return Lockstep(self.slot, self.bounds, self.starts, self.entry,
                        self.src, vals.take(self.perm()))

    def dot(self, x: np.ndarray) -> np.ndarray:
        """Segment sums against a ``float64`` *x* of shape ``(n,)`` or ``(n, k)``."""
        x = np.ascontiguousarray(x)  # take() would copy a strided x per call
        bounds, src, tail = self.bounds, self.src, x.shape[1:]
        vals = self.vals[:, None] if tail else self.vals
        acc = np.zeros((len(self.slot),) + tail)
        nsteps = len(bounds) - 1
        # Consecutive steps share one gather and one multiply while their
        # entries fit the cache-sized buffer (steps shrink, so the first
        # one bounds them all): a long tail of short steps then costs one
        # ufunc call per step, not three.
        room = max(LOCKSTEP_BUFFER // max(x[:1].size, 1), bounds[1]) if nsteps else 0
        buf = np.empty((room,) + tail)
        p = 0
        while p < nsteps:
            a, q = bounds[p], p + 1
            while q < nsteps and bounds[q + 1] - a <= room:
                q += 1
            b = bounds[q]
            t = buf[:b - a]
            x.take(src[a:b], axis=0, out=t, mode="clip")
            np.multiply(vals[a:b], t, out=t)
            for lo, hi in zip(bounds[p:q], bounds[p + 1:q + 1]):
                s = acc[:hi - lo]
                np.add(s, t[lo - a:hi - a], out=s)
            p = q
        return acc.take(self.slot, axis=0)


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

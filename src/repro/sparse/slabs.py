"""Padded ELL slabs: the one execution layout of the solve phase's sparse
products.

Rows are laid out once, at set-up, then swept without branches (§3.2,
Fig. 2b).  :class:`Slabs` is that layout.  The GS sweeps
(:mod:`repro.amg.solveplan`) run its levels as wavefront levels or
colours over a workspace; the SpMV family (:class:`SpMVLayout`, run by
:meth:`repro.sparse.csr.CSRMatrix._dot`) as slices of rows, or columns,
over ``[x | +0.0]``.  Both sum down a slab's rows from ``+0.0`` in slot
order, ``np.bincount``'s order bit for bit (a running sum from ``+0.0``
is never ``-0.0``, so the pads' ``+0.0 * 0.0`` terms change nothing).
numpy reduces a ``(w, 1)`` slab pairwise, so a one-row level sums with
``np.bincount`` over tiled ids (:func:`slab_sum`).

An ``(n, k)`` block takes a different axis in each: a sweep's workspace
carries it as the trailing axis, an SpMV gathers its columns first, as
``(k, w, m)`` slabs (:meth:`SpMVLayout.dot`).  A product's slices are few
and large, so the leading layout's long inner loops pay (0.54-0.93x per
product at k = 2 and 8, EXPERIMENTS.md "Blocked slab products lead with
the block's columns"); a sweep's levels are many and small, where they
do not (see :mod:`repro.amg.solveplan`).
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .ops import gather_range_indices, stable_order

__all__ = ["SLAB_SLOTS", "SlabLevel", "Slabs", "SpMVLayout", "slab_sum"]

#: Slots per slice of an SpMV layout.  A product whose segments fit one
#: ``nseg x longest`` slab of this many slots runs it in storage order;
#: a larger one ranks its segments longest-first and cuts slices of at
#: most this many slots (a gathered slab of 128 KiB per right-hand
#: side).  Measured on the benchmark hierarchies' largest products, a
#: vector's and a columns-first block's (EXPERIMENTS.md "Blocked slab
#: products lead with the block's columns"): half the budget reads slower
#: for a vector on most of them (up to 1.27x), twice it slower at eight
#: right-hand sides (up to 1.68x), so neither wins at one width without
#: losing at the other.
SLAB_SLOTS = 1 << 14


class SlabLevel(NamedTuple):
    """One level of :class:`Slabs` bound to values.

    It writes the rows ``r0:r1``; ``src`` and ``vals`` ``(w, m)`` are its
    slab, ``diag`` ``(m,)`` its rows' diagonal (a sweep's; ``None`` for a
    product).  A ``one_row`` level sums with ``np.bincount``: numpy would
    sum its reduction pairwise.
    """

    r0: int
    r1: int
    src: np.ndarray
    vals: np.ndarray
    diag: np.ndarray | None
    one_row: bool


class Slabs:
    """Padded ELL slabs of consecutive row ranges, pattern only.

    Level *l* writes the rows ``row_ptr[l]:row_ptr[l + 1]``; its slab is
    ``(w_l, m_l)``, slot ``(p, i)`` holding the *p*-th entry (in entry
    order) of the level's *i*-th row.  ``src`` is the row of the operand
    each slot reads — *pad*, a row kept at ``+0.0``, past a row's last
    entry — and ``emap`` (int32) its value as an index into ``[values |
    0.0]``.  Built in one vectorised pass; :meth:`bind` attaches values.
    """

    def __init__(self, row_ptr: np.ndarray, e_row: np.ndarray, e_src: np.ndarray,
                 e_id: np.ndarray, nvals: int, pad: int) -> None:
        """*e_row* is the row each entry sums into (non-decreasing: a row's
        entries are contiguous, in entry order), *e_src* the row it reads,
        *e_id* its position in a value array of length *nvals*.  Every
        level holds at least one row."""
        row_ptr = np.asarray(row_ptr, dtype=np.int64)
        m = np.diff(row_ptr)
        nrows = int(row_ptr[-1])
        # Row r's entries are first[r]:first[r + 1] (e_row is sorted).
        first = np.searchsorted(e_row, np.arange(nrows + 1))
        cnt = np.diff(first)
        w = np.maximum.reduceat(cnt, row_ptr[:-1]) if len(m) else m
        off = np.zeros(len(m) + 1, dtype=np.int64)
        np.cumsum(w * m, out=off[1:])
        # Entry e, the p-th of row r (the i-th row of level l), goes to slot
        # off[l] + p * m[l] + i = base[r] + e * m[l]: per-row arithmetic,
        # then two repeats over the entries.
        lvl = np.repeat(np.arange(len(m)), m)
        stride = m[lvl]
        base = off[lvl] - row_ptr[lvl] + np.arange(nrows) - first[:-1] * stride
        slot = np.arange(len(e_row))
        slot *= np.repeat(stride, cnt)
        slot += np.repeat(base, cnt)
        self.src = np.full(int(off[-1]), pad, dtype=np.intp)
        self.src[slot] = e_src
        self.emap = np.full(int(off[-1]), nvals,
                            dtype=np.int32 if nvals < 2**31 else np.intp)
        self.emap[slot] = e_id
        # Per level: its rows, slab view, and where its values sit in the
        # gathered array.
        src = self.src
        self.levels = [(r0, r1, src[a:b].reshape(wl, r1 - r0), a, b,
                        (wl, r1 - r0), r1 - r0 == 1)
                       for r0, r1, a, b, wl in zip(
                           row_ptr[:-1].tolist(), row_ptr[1:].tolist(),
                           off[:-1].tolist(), off[1:].tolist(), w.tolist())]

    def bind(self, padded_vals: np.ndarray, diag: np.ndarray) -> list[SlabLevel]:
        """The levels over *padded_vals* (the values, indexed by the entries'
        ids, then one ``0.0``) and the per-row *diag*: one ``take`` gathers
        every slab value."""
        return self.split(padded_vals.take(self.emap), diag)

    def split(self, v: np.ndarray, diag: np.ndarray | None = None) -> list[SlabLevel]:
        """The levels over the gathered slab values *v* (``bind``'s
        ``take``)."""
        return [SlabLevel(r0, r1, src, v[a:b].reshape(shape),
                          None if diag is None else diag[r0:r1], one_row)
                for r0, r1, src, a, b, shape, one_row in self.levels]


@functools.lru_cache(maxsize=256)
def _tiled_ids(w: int, size: int) -> np.ndarray:
    """``bincount`` bins that sum a C-ordered ``(w, size)`` slab down its
    columns (slot order within each bin)."""
    ids = np.tile(np.arange(size, dtype=np.intp), w)
    ids.setflags(write=False)
    return ids


def slab_sum(t: np.ndarray, out: np.ndarray, one_row: bool) -> None:
    """``out = t.sum(axis=0)`` in slot order from ``+0.0``, for a gathered
    slab *t* ``(w, m)`` or ``(w, m, k)`` and its level's rows *out*."""
    if one_row:
        out[...] = np.bincount(_tiled_ids(len(t), out.size), weights=t.ravel(),
                               minlength=out.size).reshape(out.shape)
    else:
        np.add.reduce(t, axis=0, out=out, initial=0.0)


def _slot_values(slabs: Slabs, data: np.ndarray) -> np.ndarray:
    """*data* (per stored entry) at every slot of *slabs*; pads read 0.0."""
    return np.append(data, 0.0).take(slabs.emap)


class SpMVLayout:
    """``out[s] = sum_e vals[e] * x[src[e]]`` over the entries *e* of every
    segment *s*, in entry order, as slices of one :class:`Slabs`.

    A product whose ``nseg x longest`` slab holds at most
    :data:`SLAB_SLOTS` slots is one slice in storage order (``slot`` is
    ``None``).  A larger one ranks its segments longest-first (stable),
    cuts the ranking into slices of at most that many slots — a segment
    longer than that is a slice of its own, a one-row level — and
    un-ranks the result with one ``take`` (``slot``: segment -> rank).
    An ``(n, k)`` operand's columns lead: each slice gathers a ``(k, w,
    m)`` slab and reduces it over ``axis=1``.

    Pattern half (shared by :meth:`with_values`): ``slabs`` and ``slot``.
    Value half: ``vals``, the gathered slab values, and the ``levels``
    bound to it.  Nothing is written by :meth:`dot`: a cached hierarchy's
    layouts are read by many threads at once.
    """

    __slots__ = ("slabs", "slot", "nseg", "vals", "levels")

    def __init__(self, slabs: Slabs, slot: np.ndarray | None, nseg: int,
                 vals: np.ndarray) -> None:
        self.slabs, self.slot, self.nseg, self.vals = slabs, slot, nseg, vals
        self.levels = slabs.split(vals)

    @classmethod
    def build(cls, counts: np.ndarray, entry: np.ndarray | None,
              src: np.ndarray, data: np.ndarray, n: int) -> "SpMVLayout":
        """Layout of segments with *counts* entries each, stored back to
        back in the order *entry* lists them (``None`` = storage order);
        *src* (in ``[0, n)``) and *data* are per stored entry, *n* the
        operand's length."""
        nseg = len(counts)
        longest = int(counts.max(initial=0))
        if nseg * longest <= SLAB_SLOTS:
            slot, ranked, ids = None, counts, entry
            row_ptr = [0, nseg] if nseg else [0]
        else:
            order = stable_order(longest - counts, longest + 1)
            slot = np.empty_like(order)
            slot[order] = np.arange(nseg)
            ranked = counts[order]
            row_ptr, i = [0], 0
            while i < nseg:
                w = int(ranked[i])
                i = nseg if w == 0 else min(nseg, i + max(1, SLAB_SLOTS // w))
                row_ptr.append(i)
            ids = gather_range_indices((np.cumsum(counts) - counts)[order], ranked)
            if entry is not None:
                ids = entry.take(ids)
        if ids is None:
            ids = np.arange(len(src))
        slabs = Slabs(row_ptr, np.repeat(np.arange(nseg), ranked), src.take(ids),
                      ids, len(src), n)
        return cls(slabs, slot, nseg, _slot_values(slabs, data))

    def with_values(self, data: np.ndarray) -> "SpMVLayout":
        """The layout of the same pattern holding *data* (per stored
        entry): shares ``slabs`` and ``slot``, one ``take``."""
        return SpMVLayout(self.slabs, self.slot, self.nseg,
                          _slot_values(self.slabs, data))

    def holds(self, data: np.ndarray) -> bool:
        """Whether the bound values are *data*'s: a layout snapshots them,
        so one whose matrix was written since is stale."""
        return self.vals.tobytes() == _slot_values(self.slabs, data).tobytes()

    def dot(self, x: np.ndarray) -> np.ndarray:
        """Segment sums against a ``float64`` *x* of shape ``(n,)`` or
        ``(n, k)``; a block's result is a C-contiguous ``(nseg, k)``."""
        if x.ndim == 2:
            return self._dot_block(x)
        xp = np.empty(len(x) + 1)   # [x | +0.0]: the pad row
        xp[:-1] = x
        xp[-1] = 0.0
        out = np.empty(self.nseg)
        for r0, r1, src, vals, _, one_row in self.levels:
            t = xp.take(src)
            np.multiply(vals, t, out=t)
            slab_sum(t, out[r0:r1], one_row)
        return out if self.slot is None else out.take(self.slot)

    def _dot_block(self, x: np.ndarray) -> np.ndarray:
        """:meth:`dot` of an ``(n, k)`` block, its columns leading: each
        slice gathers a ``(k, w, m)`` slab from ``[xᵀ | +0.0]``, so the
        multiply and the reduction over ``axis=1`` run along the slab's
        long rows, never over an inner axis of length *k*.  The reduced
        axis is not the innermost one, so numpy adds along it in slot
        order (not pairwise): each column sums as the vector does."""
        k = x.shape[1]
        xp = np.empty((k, len(x) + 1))   # [xᵀ | +0.0]: the pad column
        xp[:, :-1] = x.T
        xp[:, -1] = 0.0
        out = np.empty((k, self.nseg))
        for r0, r1, src, vals, _, one_row in self.levels:
            t = xp.take(src, axis=1)
            np.multiply(vals, t, out=t)
            if one_row:
                slab_sum(np.moveaxis(t, 0, -1), out[:, r0:r1].T, True)
            else:
                np.add.reduce(t, axis=1, out=out[:, r0:r1], initial=0.0)
            del t   # one slab at a time: the next is gathered after
        del xp
        # Back to (nseg, k) in C order: one copy, or the un-ranking take.
        return (np.ascontiguousarray(out.T) if self.slot is None
                else out.T.take(self.slot, axis=0))

"""The ParCSR distributed matrix format (§4.1, Fig. 3a) and ParVector.

Rank *p* owns a row range and sees it as two local CSR matrices: the
block-diagonal part ``diag`` (columns inside the rank's *column* range,
locally indexed) and the off-diagonal part ``offd`` whose column indices are
*compressed*: ``colmap[c]`` maps compressed column *c* back to its global
index, so gathered external vector entries land in a contiguous buffer that
``offd`` indexes directly (Fig. 3b).

Rectangular operators (interpolation!) carry separate row and column
partitions.

Rank stacking: the ranks live in one process, so a :class:`ParCSRMatrix`
*stores* them row-concatenated — ``diag`` with global column ids, ``offd``
with offsets into the rank-concatenated halo buffer, the ranks' colmaps
back to back with ``ext_ptr`` delimiting them — and every distributed kernel
runs once over all ranks.  ``y = A x`` is two SpMVs; a set-up kernel is one
vectorized pass whose per-rank records are segment sums over the rank
boundaries.  Every row keeps its entries and their order, hence its
floating-point sums, bit for bit.  The per-rank view of Fig. 3a
(:attr:`ParCSRMatrix.blocks`) is materialised on first access, for the
analyzers; no set-up or solve kernel reads it.  A
:class:`ParVector` likewise owns one contiguous array; its per-rank views
(``parts``) are built on first access, which no solve-phase kernel makes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sparse.csr import CSRMatrix
from ..sparse.ops import indptr_from_counts, unique_inverse
from .partition import RowPartition

__all__ = ["RankBlock", "ParCSRMatrix", "ParVector", "rank_chunks"]

#: Ranks per node-level call of a set-up kernel that runs over the rank
#: stack a chunk at a time (extended+i, the local SpGEMM product).  The
#: kernels' time is flat from a few ranks per call up, while their
#: transients grow with the chunk (~0.9 MB per rank for extended+i on the
#: benchmark's shape; all 32 ranks in one call hold 29 MB): four keep them
#: under 4 MB (EXPERIMENTS.md, "Distributed set-up over the rank stack").
CHUNK_RANKS = 4


def rank_chunks(nranks: int):
    """``(a, b)`` per chunk of at most :data:`CHUNK_RANKS` consecutive
    ranks ``a .. b - 1``."""
    for a in range(0, nranks, CHUNK_RANKS):
        yield a, min(a + CHUNK_RANKS, nranks)


@dataclass
class RankBlock:
    """One rank's portion of a ParCSR matrix."""

    diag: CSRMatrix
    offd: CSRMatrix
    colmap: np.ndarray  # global column ids of compressed offd columns (sorted)

    @property
    def nrows(self) -> int:
        return self.diag.nrows

    @property
    def nnz(self) -> int:
        return self.diag.nnz + self.offd.nnz


def row_block(M: CSRMatrix, lo: int, hi: int, col_lo: int, ncols: int) -> CSRMatrix:
    """Rows ``[lo, hi)`` of *M* as their own matrix, columns re-based to
    ``col_lo`` (index copies; the values are a view)."""
    a, b = M.indptr[lo], M.indptr[hi]
    return CSRMatrix((hi - lo, ncols), M.indptr[lo: hi + 1] - a,
                     M.indices[a:b] - col_lo, M.data[a:b])


def keep_entries(M: CSRMatrix, keep: np.ndarray, ncols: int | None = None,
                 indices: np.ndarray | None = None,
                 data: np.ndarray | None = None) -> CSRMatrix:
    """The entries of *M* under the mask *keep* (rows stay sorted), with
    optional replacement column ids / values for the kept entries."""
    return CSRMatrix(
        (M.nrows, M.ncols if ncols is None else ncols),
        indptr_from_counts(np.bincount(M.row_ids()[keep], minlength=M.nrows)),
        M.indices[keep] if indices is None else indices,
        M.data[keep] if data is None else data)


def stack_rows(M: "ParCSRMatrix", diag_cols: np.ndarray, offd_cols: np.ndarray,
               ncols: int, below: tuple | None = None) -> CSRMatrix:
    """One local matrix of all of *M*'s rows: each row its ``diag`` entries
    then its ``offd`` entries, under the given replacement column ids —
    over the rows ``below = (indptr, indices, data)``, if given."""
    d, o = M.diag, M.offd
    b_ptr, b_indices, b_data = below or (np.zeros(1, dtype=np.int64), (), ())
    indices = np.empty(M.nnz + len(b_indices), dtype=np.int64)
    data = np.empty(len(indices), dtype=np.float64)
    d_slot = np.arange(d.nnz) + o.indptr[d.row_ids()]
    indices[d_slot], data[d_slot] = diag_cols, d.data
    o_slot = np.arange(o.nnz) + d.indptr[o.row_ids() + 1]
    indices[o_slot], data[o_slot] = offd_cols, o.data
    indices[M.nnz:], data[M.nnz:] = b_indices, b_data
    return CSRMatrix(
        (d.nrows + len(b_ptr) - 1, ncols),
        np.concatenate([d.indptr + o.indptr, M.nnz + b_ptr[1:]]), indices, data)


class ParCSRMatrix:
    """A distributed CSR matrix over a :class:`SimComm`'s rank count, stored
    rank-stacked.

    ``diag`` holds every rank's block-diagonal entries with *global* column
    ids; ``offd`` the off-diagonal entries, rank *p*'s compressed column *c*
    stored as ``ext_ptr[p] + c`` — an offset into ``colmap``, the ranks'
    sorted colmaps back to back, and into the buffer
    :meth:`repro.dist.halo.HaloExchange.gather` returns.  Rows are sorted by
    column in both.
    """

    def __init__(
        self,
        diag: CSRMatrix,
        offd: CSRMatrix,
        colmap: np.ndarray,
        ext_ptr: np.ndarray,
        row_part: RowPartition,
        col_part: RowPartition | None = None,
    ) -> None:
        self.diag = diag
        self.offd = offd
        self.colmap = colmap
        self.ext_ptr = ext_ptr
        self.row_part = row_part
        self.col_part = col_part if col_part is not None else row_part
        self._blocks: list[RankBlock] | None = None
        #: Frozen per-rank record tables of products with this matrix.
        self.tables: dict = {}
        if (diag.shape != self.shape or offd.shape != (row_part.n, len(colmap))
                or len(ext_ptr) != self.nranks + 1 or ext_ptr[-1] != len(colmap)):
            raise ValueError("stacked blocks do not match the partitions")

    # -- properties -------------------------------------------------------
    @property
    def nranks(self) -> int:
        return self.row_part.nranks

    @property
    def shape(self) -> tuple[int, int]:
        return (self.row_part.n, self.col_part.n)

    @property
    def nnz(self) -> int:
        return self.diag.nnz + self.offd.nnz

    @property
    def blocks(self) -> list[RankBlock]:
        """The ranks' local ``(diag, offd, colmap)`` views of Fig. 3a,
        materialised on first access (local column indices are copies).
        For the analyzers: no set-up or solve kernel reads them."""
        if self._blocks is None:
            rb, cb, ext = (self.row_part.bounds.tolist(),
                           self.col_part.bounds.tolist(), self.ext_ptr.tolist())
            self._blocks = [
                RankBlock(
                    row_block(self.diag, rb[p], rb[p + 1], cb[p], cb[p + 1] - cb[p]),
                    row_block(self.offd, rb[p], rb[p + 1], ext[p], ext[p + 1] - ext[p]),
                    self.colmap[ext[p]: ext[p + 1]])
                for p in range(self.nranks)]
        return self._blocks

    def ext_ranks(self) -> np.ndarray:
        """Rank whose colmap each entry of ``colmap`` belongs to."""
        return np.repeat(np.arange(self.nranks, dtype=np.int64),
                         np.diff(self.ext_ptr))

    def rank_nnz(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-rank entry counts of ``diag`` and of ``offd``."""
        rb = self.row_part.bounds
        return np.diff(self.diag.indptr[rb]), np.diff(self.offd.indptr[rb])

    # -- constructors -------------------------------------------------------
    @classmethod
    def from_sorted(cls, G: CSRMatrix, row_part: RowPartition,
                    col_part: RowPartition) -> "ParCSRMatrix":
        """Partition a global matrix whose rows are sorted and duplicate-free:
        one diag/offd classification, every rank's colmap from one map over
        the ``(rank, column)`` keys (:func:`~repro.sparse.ops.unique_inverse`)."""
        m = max(col_part.n, 1)
        rank = row_part.ranks()[G.row_ids()]
        cb = col_part.bounds
        ext = (G.indices < cb[rank]) | (G.indices >= cb[rank + 1])
        ukey, inv = unique_inverse(rank[ext] * m + G.indices[ext],
                                   row_part.nranks * m)
        offd = keep_entries(G, ext, len(ukey), inv)
        ext_ptr = indptr_from_counts(
            np.bincount(ukey // m, minlength=row_part.nranks))
        return cls(keep_entries(G, ~ext), offd, ukey % m, ext_ptr,
                   row_part, col_part)

    @classmethod
    def from_triplets(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        row_part: RowPartition,
        col_part: RowPartition,
    ) -> "ParCSRMatrix":
        """Assemble from global ``(row, col, value)`` triplets (duplicates
        summed in input order): one sort, then :meth:`from_sorted`."""
        return cls.from_sorted(
            CSRMatrix.from_coo((row_part.n, col_part.n), rows, cols, vals),
            row_part, col_part)

    @classmethod
    def from_global(
        cls,
        A: CSRMatrix,
        row_part: RowPartition,
        col_part: RowPartition | None = None,
    ) -> "ParCSRMatrix":
        col_part = col_part if col_part is not None else row_part
        if A.nrows != row_part.n or A.ncols != col_part.n:
            raise ValueError("partition does not match matrix shape")
        if A.has_sorted_indices():  # (strictly: no duplicates either)
            return cls.from_sorted(A, row_part, col_part)
        return cls.from_triplets(A.row_ids(), A.indices, A.data,
                                 row_part, col_part)

    def recompressed(self, diag: CSRMatrix, keep: np.ndarray, used: np.ndarray,
                     data: np.ndarray | None = None) -> "ParCSRMatrix":
        """These partitions over *diag* and the off-diagonal entries under
        *keep* (their values replaced by *data* if given), the colmaps
        re-compressed to the columns marked *used*."""
        at = np.concatenate([[0], np.cumsum(used)])
        offd = keep_entries(self.offd, keep, int(at[-1]),
                            at[self.offd.indices[keep]], data)
        return ParCSRMatrix(diag, offd, self.colmap[used], at[self.ext_ptr],
                            self.row_part, self.col_part)

    # -- rank stacking ------------------------------------------------------
    def stacked(self) -> tuple[CSRMatrix, CSRMatrix]:
        """``(diag, offd)`` of all ranks stacked row-wise — the storage.

        ``diag`` takes the whole distributed vector (global column ids);
        ``offd`` takes the rank-concatenated halo buffer of
        :meth:`repro.dist.halo.HaloExchange.gather`.
        """
        return self.diag, self.offd

    # -- conversion ---------------------------------------------------------
    def triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All entries as global ``(row, column, value)`` arrays: every
        ``diag`` entry, then every ``offd`` entry (each row's entries in
        stored order within both)."""
        d, o = self.diag, self.offd
        return (np.concatenate([d.row_ids(), o.row_ids()]),
                np.concatenate([d.indices, self.colmap[o.indices]]),
                np.concatenate([d.data, o.data]))

    def merge_slots(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Where each stored entry goes when every row's ``diag`` and
        ``offd`` entries are merged in ascending global-column order:
        ``(indptr, diag_slot, offd_slot)``.  Both parts are sorted and the
        off-diagonal columns lie outside the rank's own range, so a merged
        row is its low off-diagonal entries, its diagonal block, its high
        off-diagonal entries — placed by arithmetic, nothing is sorted."""
        d, o = self.diag, self.offd
        o_rid = o.row_ids()
        low = self.colmap[o.indices] < self.col_part.bounds[self.row_part.ranks()][o_rid]
        n_low = np.bincount(o_rid[low], minlength=d.nrows)
        indptr = d.indptr + o.indptr
        d_rid = d.row_ids()
        diag_slot = np.arange(d.nnz) + (o.indptr[:-1] + n_low)[d_rid]
        offd_slot = np.arange(o.nnz) + d.indptr[o_rid]
        offd_slot[~low] += d.row_nnz()[o_rid[~low]]
        return indptr, diag_slot, offd_slot

    def to_global(self) -> CSRMatrix:
        """The full matrix, rows sorted by global column."""
        indptr, diag_slot, offd_slot = self.merge_slots()
        indices = np.empty(self.nnz, dtype=np.int64)
        data = np.empty(self.nnz, dtype=np.float64)
        indices[diag_slot], data[diag_slot] = self.diag.indices, self.diag.data
        indices[offd_slot] = self.colmap[self.offd.indices]
        data[offd_slot] = self.offd.data
        return CSRMatrix(self.shape, indptr, indices, data)

    def __repr__(self) -> str:
        return (
            f"ParCSRMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"nranks={self.nranks})"
        )


class ParVector:
    """A distributed vector partitioned like the rows of a ParCSR matrix.

    ``array`` is the one contiguous backing array — ``(n,)`` or, for a
    multi-RHS block, ``(n, k)`` — and ``parts[p]`` is always the view of
    rank *p*'s rows, built on the first read of ``parts``: a list of
    per-rank arrays (at construction, or assigned to ``parts`` later) is
    copied into a fresh backing array; an ``ndarray`` is adopted as the
    backing array itself.
    """

    _parts: list[np.ndarray] | None

    def __init__(self, parts: list[np.ndarray] | np.ndarray,
                 part: RowPartition) -> None:
        self.part = part
        if isinstance(parts, np.ndarray):
            self._adopt(np.ascontiguousarray(parts, dtype=np.float64))
        else:
            self.parts = [np.asarray(p, dtype=np.float64) for p in parts]

    @property
    def parts(self) -> list[np.ndarray]:
        if self._parts is None:
            b = self.part.bounds.tolist()
            self._parts = [self.array[lo:hi] for lo, hi in zip(b, b[1:])]
        return self._parts

    @parts.setter
    def parts(self, parts: list[np.ndarray]) -> None:
        for p, arr in enumerate(parts):
            if len(arr) != self.part.size(p):
                raise ValueError("vector part size mismatch")
        self._adopt(np.concatenate(parts))

    def _adopt(self, array: np.ndarray) -> None:
        if len(array) != self.part.n:
            raise ValueError("vector part size mismatch")
        self.array = array
        self._parts = None

    @classmethod
    def from_global(cls, x: np.ndarray, part: RowPartition) -> "ParVector":
        return cls(np.array(x, dtype=np.float64), part)

    @classmethod
    def zeros(cls, part: RowPartition, ncols: int | None = None) -> "ParVector":
        """All-zero vector; ``ncols`` makes each part an ``(n_p, ncols)``
        multi-column block (the distributed multi-RHS payload)."""
        return cls(np.zeros(part.n if ncols is None else (part.n, ncols)), part)

    def to_global(self) -> np.ndarray:
        return self.array.copy()

    def copy(self) -> "ParVector":
        return ParVector(self.array.copy(), self.part)

    def __len__(self) -> int:
        return self.part.n

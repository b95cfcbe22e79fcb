"""The ParCSR distributed matrix format (§4.1, Fig. 3a) and ParVector.

Rank *p* stores its row range as two local CSR matrices: the block-diagonal
part ``diag`` (columns inside the rank's *column* range, locally indexed)
and the off-diagonal part ``offd`` whose column indices are *compressed*:
``colmap[c]`` maps compressed column *c* back to its global index, so
gathered external vector entries land in a contiguous buffer that ``offd``
indexes directly (Fig. 3b).

Rectangular operators (interpolation!) carry separate row and column
partitions.

Rank stacking: the ranks live in one process, so the solve phase runs each
distributed kernel once over all of them.  A :class:`ParVector` owns one
contiguous array (``parts`` are per-rank views of it) and
:meth:`ParCSRMatrix.stacked` concatenates the ranks' ``diag`` / ``offd``
blocks row-wise — ``diag`` columns re-based to global indices, ``offd``
columns to offsets into the rank-concatenated halo buffer — so ``y = A x``
is two SpMVs.  Every row keeps its entries and their order, hence its
floating-point sum, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sparse.csr import CSRMatrix
from .partition import RowPartition

__all__ = ["RankBlock", "ParCSRMatrix", "ParVector"]


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

    def row_arrays_global(self, col_lo: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All entries as ``(local_row, global_col, value)`` triplets."""
        rows = np.concatenate([self.diag.row_ids(), self.offd.row_ids()])
        cols = np.concatenate(
            [self.diag.indices + col_lo, self.colmap[self.offd.indices]]
        )
        vals = np.concatenate([self.diag.data, self.offd.data])
        return rows, cols, vals


def _split_rows(
    local_rows: np.ndarray,
    global_cols: np.ndarray,
    vals: np.ndarray,
    nrows: int,
    col_part: RowPartition,
    rank: int,
) -> RankBlock:
    """Build a RankBlock from (local row, global col, value) triplets."""
    lo, hi = col_part.lo(rank), col_part.hi(rank)
    nloc = hi - lo
    in_diag = (global_cols >= lo) & (global_cols < hi)

    diag = CSRMatrix.from_coo(
        (nrows, nloc), local_rows[in_diag], global_cols[in_diag] - lo, vals[in_diag]
    )
    ext_cols = global_cols[~in_diag]
    colmap = np.unique(ext_cols)
    comp = np.searchsorted(colmap, ext_cols)
    offd = CSRMatrix.from_coo(
        (nrows, len(colmap)), local_rows[~in_diag], comp, vals[~in_diag]
    )
    return RankBlock(diag=diag, offd=offd, colmap=colmap)


def _stack_rows(mats: list[CSRMatrix], col_offsets, ncols: int) -> CSRMatrix:
    """*mats* concatenated row-wise, block *p*'s columns shifted by
    ``col_offsets[p]``; rows keep their entries in order."""
    indptr = np.concatenate([[0]] + [m.row_nnz() for m in mats]).cumsum()
    return CSRMatrix(
        (len(indptr) - 1, ncols), indptr,
        np.concatenate([m.indices + o for m, o in zip(mats, col_offsets)]),
        np.concatenate([m.data for m in mats]))


class ParCSRMatrix:
    """A distributed CSR matrix over a :class:`SimComm`'s rank count."""

    def __init__(
        self,
        blocks: list[RankBlock],
        row_part: RowPartition,
        col_part: RowPartition | None = None,
    ) -> None:
        self.blocks = blocks
        self.row_part = row_part
        self.col_part = col_part if col_part is not None else row_part
        self._stacked: tuple[CSRMatrix, CSRMatrix] | None = None
        #: Frozen per-rank record tables of products with this matrix.
        self.tables: dict = {}
        for p, blk in enumerate(blocks):
            if blk.nrows != row_part.size(p):
                raise ValueError(f"rank {p}: block has {blk.nrows} rows, "
                                 f"partition says {row_part.size(p)}")

    # -- properties -------------------------------------------------------
    @property
    def nranks(self) -> int:
        return self.row_part.nranks

    @property
    def shape(self) -> tuple[int, int]:
        return (self.row_part.n, self.col_part.n)

    @property
    def nnz(self) -> int:
        return sum(b.nnz for b in self.blocks)

    # -- constructors -------------------------------------------------------
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
        blocks = []
        for p in range(row_part.nranks):
            rows = row_part.range(p)
            local, cols, vals = A.row_slice_arrays(rows)
            blocks.append(
                _split_rows(local, cols, vals, len(rows), col_part, p)
            )
        return cls(blocks, row_part, col_part)

    @classmethod
    def from_rank_triplets(
        cls,
        triplets: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
        row_part: RowPartition,
        col_part: RowPartition,
    ) -> "ParCSRMatrix":
        """Assemble from per-rank ``(local_row, global_col, value)`` arrays."""
        blocks = [
            _split_rows(r, c, v, row_part.size(p), col_part, p)
            for p, (r, c, v) in enumerate(triplets)
        ]
        return cls(blocks, row_part, col_part)

    # -- rank stacking ------------------------------------------------------
    def stacked(self) -> tuple[CSRMatrix, CSRMatrix]:
        """``(diag, offd)`` of all ranks stacked row-wise (built once; the
        blocks are frozen from then on).

        ``diag`` takes the whole distributed vector (global column ids);
        ``offd`` takes the rank-concatenated halo buffer of
        :meth:`repro.dist.halo.HaloExchange.gather`.
        """
        if self._stacked is None:
            ext = np.cumsum([0] + [len(b.colmap) for b in self.blocks])
            self._stacked = (
                _stack_rows([b.diag for b in self.blocks],
                            self.col_part.bounds, self.col_part.n),
                _stack_rows([b.offd for b in self.blocks], ext, int(ext[-1])))
        return self._stacked

    # -- conversion ---------------------------------------------------------
    def to_global(self) -> CSRMatrix:
        """Reassemble the full matrix (tests / small problems only)."""
        rows, cols, vals = [], [], []
        for p, blk in enumerate(self.blocks):
            r, c, v = blk.row_arrays_global(self.col_part.lo(p))
            rows.append(r + self.row_part.lo(p))
            cols.append(c)
            vals.append(v)
        return CSRMatrix.from_coo(
            self.shape,
            np.concatenate(rows),
            np.concatenate(cols),
            np.concatenate(vals),
        )

    def __repr__(self) -> str:
        return (
            f"ParCSRMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"nranks={self.nranks})"
        )


class ParVector:
    """A distributed vector partitioned like the rows of a ParCSR matrix.

    ``array`` is the one contiguous backing array — ``(n,)`` or, for a
    multi-RHS block, ``(n, k)`` — and ``parts[p]`` is always the view of
    rank *p*'s rows: a list of per-rank arrays (at construction, or
    assigned to ``parts`` later) is copied into a fresh backing array; an
    ``ndarray`` is adopted as the backing array itself.
    """

    def __init__(self, parts: list[np.ndarray] | np.ndarray,
                 part: RowPartition) -> None:
        self.part = part
        if isinstance(parts, np.ndarray):
            self._adopt(np.ascontiguousarray(parts, dtype=np.float64))
        else:
            self.parts = [np.asarray(p, dtype=np.float64) for p in parts]

    @property
    def parts(self) -> list[np.ndarray]:
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
        b = self.part.bounds
        self._parts = [array[b[p]: b[p + 1]] for p in range(self.part.nranks)]

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

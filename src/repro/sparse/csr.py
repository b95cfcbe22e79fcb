"""Compressed sparse row matrix, implemented from scratch on numpy arrays.

This is the library's own CSR type — the substrate every AMG kernel operates
on.  It deliberately mirrors the layout HYPRE uses (``rowptr`` /
``colidx`` / ``values`` in the paper's pseudo code): three flat arrays, rows
sorted by column index unless a kernel says otherwise.

scipy.sparse is *not* used anywhere in the library; tests convert through
:meth:`CSRMatrix.to_scipy` purely to cross-check results against an
independent implementation.
"""

from __future__ import annotations

import numpy as np

from .ops import gather_range_indices, indptr_from_counts, row_ids_from_indptr, segment_sum
from .ops import Lockstep, group_rowcol, rowcol_order, stable_order

__all__ = ["CSRMatrix"]


class CSRMatrix:
    """A CSR sparse matrix over ``float64`` values and ``int64`` indices.

    Parameters
    ----------
    shape:
        ``(nrows, ncols)``.
    indptr, indices, data:
        Standard CSR arrays.  ``indptr`` has length ``nrows + 1``.

    Notes
    -----
    The class memoizes two things derived from its arrays: the expanded
    per-entry row-id array (:meth:`row_ids`, pattern only) and, for
    operators large enough to profit, the :class:`~repro.sparse.ops.Lockstep`
    layouts the SpMV family runs on (:meth:`lockstep`), which **snapshot
    the values**.  Matrices are treated as frozen once built; code that
    writes ``A.data`` (or the structure) after the first product must call
    :meth:`invalidate_cache`.  ``REPRO_CHECK=full`` reports a layout that
    no longer matches ``A.data`` as ``csr.stale_layout``.
    """

    __slots__ = ("shape", "indptr", "indices", "data", "_row_ids", "_lockstep")

    def __init__(
        self,
        shape: tuple[int, int],
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
    ) -> None:
        nrows, ncols = int(shape[0]), int(shape[1])
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        data = np.asarray(data, dtype=np.float64)
        if indptr.shape != (nrows + 1,):
            raise ValueError(f"indptr has shape {indptr.shape}, expected ({nrows + 1},)")
        if indptr[0] != 0:
            raise ValueError("indptr must start at 0")
        if len(indices) != len(data) or len(indices) != indptr[-1]:
            raise ValueError("indices/data length must equal indptr[-1]")
        self.shape = (nrows, ncols)
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self._row_ids: np.ndarray | None = None
        #: Per direction (rows, columns): ``None`` = undecided, ``False`` =
        #: below the coverage rule, else the layout.
        self._lockstep: list = [None, None]

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_coo(
        cls,
        shape: tuple[int, int],
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        *,
        sum_duplicates: bool = True,
    ) -> "CSRMatrix":
        """Build from coordinate triplets; duplicates are summed by default."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        nrows, ncols = shape
        if len(rows) and (rows.min() < 0 or rows.max() >= nrows):
            raise ValueError("row index out of range")
        if len(cols) and (cols.min() < 0 or cols.max() >= ncols):
            raise ValueError("column index out of range")
        if sum_duplicates:
            slot, indptr, indices = group_rowcol(rows, cols, nrows, ncols)
            vals = np.bincount(slot, weights=vals, minlength=len(indices))
            return cls((nrows, ncols), indptr, indices, vals)
        order = rowcol_order(rows, cols, ncols)
        indptr = indptr_from_counts(np.bincount(rows, minlength=nrows))
        return cls((nrows, ncols), indptr, cols[order], vals[order])

    @classmethod
    def from_dense(cls, dense: np.ndarray, *, tol: float = 0.0) -> "CSRMatrix":
        dense = np.asarray(dense, dtype=np.float64)
        rows, cols = np.nonzero(np.abs(dense) > tol)
        return cls.from_coo(dense.shape, rows, cols, dense[rows, cols])

    @classmethod
    def identity(cls, n: int) -> "CSRMatrix":
        idx = np.arange(n, dtype=np.int64)
        return cls((n, n), np.arange(n + 1, dtype=np.int64), idx, np.ones(n))

    @classmethod
    def zeros(cls, shape: tuple[int, int]) -> "CSRMatrix":
        return cls(
            shape,
            np.zeros(shape[0] + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def row_nnz(self) -> np.ndarray:
        return np.diff(self.indptr)

    def row_ids(self) -> np.ndarray:
        """Per-entry row ids, memoized for the life of the (frozen) matrix."""
        if self._row_ids is None:
            self._row_ids = row_ids_from_indptr(self.indptr)
        return self._row_ids

    def invalidate_cache(self) -> None:
        """Drop everything memoized from the arrays (row ids, lockstep
        layouts).  Nothing in the library mutates a built matrix; a caller
        that does — the layouts snapshot ``data`` — calls this afterwards."""
        self._row_ids = None
        self._lockstep = [None, None]

    # ------------------------------------------------------------------
    # Uncounted products (the SpMV family's execution core)
    # ------------------------------------------------------------------
    def lockstep(self, transposed: bool = False) -> Lockstep | None:
        """The layout :meth:`_dot` runs on, or ``None`` for an operator the
        coverage rule (:meth:`Lockstep.admits`) leaves on ``bincount``.
        Decided — and built — once per matrix and direction; set-up code
        calls this so that no solve pays for the build."""
        memo = self._lockstep[transposed]
        if memo is None:
            memo = self._build_lockstep(transposed)
            self._set_lockstep(transposed, memo)
        return memo or None

    def _set_lockstep(self, transposed: bool, memo: Lockstep | bool) -> None:
        self._lockstep[transposed] = memo
        if self._lockstep[0]:
            # Row-covered: no product reads the row-id expansion again.
            # Releasing its 8 B per entry pays for half of the layout;
            # row_ids() recomputes it for whoever still asks.
            self._row_ids = None

    def _build_lockstep(self, transposed: bool) -> Lockstep | bool:
        nnz, indices = self.nnz, self.indices
        if not Lockstep.admits(nnz):
            return False
        if nnz and (indices.min() < 0 or indices.max() >= self.ncols):
            # The layout gathers with mode="clip", which would clamp what
            # the bincount arm's fancy index rejects.
            raise IndexError(f"column index out of range in {self!r}")
        counts = (np.bincount(indices, minlength=self.ncols) if transposed
                  else np.diff(self.indptr))
        if not Lockstep.admits(nnz, int(counts.max(initial=0))):
            return False
        if transposed:
            return Lockstep.build(counts, stable_order(indices, self.ncols),
                                  self.row_ids(), self.data)
        return Lockstep.build(counts, None, indices, self.data)

    def share_lockstep(self, donor: "CSRMatrix", transposed: bool = False) -> None:
        """Take over *donor*'s coverage decision and layout pattern for
        this matrix's values: no sort, one gather.  The caller guarantees
        equal sparsity patterns (numeric resetup does)."""
        lay = donor._lockstep[transposed]
        self._set_lockstep(transposed, lay.with_values(self.data) if lay else lay)

    def _dot(self, x: np.ndarray, transposed: bool = False) -> np.ndarray:
        """``sum_e data[e] * x[src[e]]`` per row — per column when
        *transposed* — in entry order, for a ``float64`` *x* of shape
        ``(n,)`` or ``(n, k)``.  Uncounted: the kernel that calls it
        records.  Both arms round identically (see :class:`Lockstep`)."""
        if x.shape[0] != self.shape[not transposed]:
            raise ValueError(f"dimension mismatch: {self!r} against {x.shape}"
                             f"{' (transposed)' if transposed else ''}")
        lay = self.lockstep(transposed)
        if lay is not None:
            return lay.dot(x)
        if transposed:
            src, seg, nseg = self.row_ids(), self.indices, self.ncols
        else:
            src, seg, nseg = self.indices, self.row_ids(), self.nrows
        if x.ndim == 1:
            t = x[src]
            np.multiply(self.data, t, out=t)  # reuse the gather's buffer
            return segment_sum(t, seg, nseg)
        out = np.empty((nseg, x.shape[1]))
        for j in range(x.shape[1]):
            out[:, j] = segment_sum(self.data * x[src, j], seg, nseg)
        return out

    # ------------------------------------------------------------------
    # Structure utilities
    # ------------------------------------------------------------------
    def has_sorted_indices(self) -> bool:
        if self.nnz <= 1:
            return True
        d = np.diff(self.indices)
        boundaries = self.indptr[1:-1]
        mask = np.ones(self.nnz - 1, dtype=bool)
        mask[boundaries[(boundaries > 0) & (boundaries < self.nnz)] - 1] = False
        return bool(np.all(d[mask] > 0))

    def sort_indices(self) -> "CSRMatrix":
        """Return a copy with column indices sorted within each row."""
        order = rowcol_order(self.row_ids(), self.indices, self.ncols)
        return CSRMatrix(self.shape, self.indptr.copy(), self.indices[order], self.data[order])

    def diagonal(self) -> np.ndarray:
        """Main-diagonal values (zeros where absent)."""
        diag = np.zeros(min(self.shape), dtype=np.float64)
        rid = self.row_ids()
        mask = self.indices == rid
        diag_rows = rid[mask]
        diag[diag_rows] = self.data[mask]
        return diag

    def row_slice_arrays(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gather the entries of *rows*: ``(local_row_ids, cols, vals)``.

        ``local_row_ids[k]`` indexes into *rows*, not the original matrix.
        """
        rows = np.asarray(rows, dtype=np.int64)
        counts = self.indptr[rows + 1] - self.indptr[rows]
        idx = gather_range_indices(self.indptr[rows], counts)
        local = np.repeat(np.arange(len(rows), dtype=np.int64), counts)
        return local, self.indices[idx], self.data[idx]

    def extract_rows(self, rows: np.ndarray) -> "CSRMatrix":
        """Submatrix of the given rows (all columns), preserving row order."""
        local, cols, vals = self.row_slice_arrays(rows)
        counts = self.indptr[np.asarray(rows, dtype=np.int64) + 1] - self.indptr[rows]
        return CSRMatrix((len(rows), self.ncols), indptr_from_counts(counts), cols, vals)

    def extract_columns(self, col_mask: np.ndarray, new_index: np.ndarray) -> "CSRMatrix":
        """Keep entries whose column satisfies *col_mask*, renumbering columns
        through *new_index* (old global column -> new column id)."""
        keep = col_mask[self.indices]
        counts = segment_sum(keep.astype(np.float64), self.row_ids(), self.nrows).astype(np.int64)
        ncols_new = int(new_index.max()) + 1 if np.any(col_mask) else 0
        return CSRMatrix(
            (self.nrows, ncols_new),
            indptr_from_counts(counts),
            new_index[self.indices[keep]],
            self.data[keep],
        )

    def eliminate_zeros(self, tol: float = 0.0) -> "CSRMatrix":
        keep = np.abs(self.data) > tol
        counts = segment_sum(keep.astype(np.float64), self.row_ids(), self.nrows).astype(np.int64)
        return CSRMatrix(
            self.shape, indptr_from_counts(counts), self.indices[keep], self.data[keep]
        )

    def scale_rows(self, s: np.ndarray) -> "CSRMatrix":
        return CSRMatrix(self.shape, self.indptr.copy(), self.indices.copy(),
                         self.data * np.asarray(s, dtype=np.float64)[self.row_ids()])

    def copy(self) -> "CSRMatrix":
        return CSRMatrix(self.shape, self.indptr.copy(), self.indices.copy(), self.data.copy())

    def check(self) -> None:
        """Validate CSR invariants; raises ``AssertionError`` on violation."""
        assert self.indptr[0] == 0
        assert np.all(np.diff(self.indptr) >= 0), "indptr must be non-decreasing"
        assert self.indptr[-1] == len(self.indices) == len(self.data)
        if self.nnz:
            assert self.indices.min() >= 0 and self.indices.max() < self.ncols, \
                "column index out of range"
        for lay in self._lockstep:
            assert not lay or lay.vals.tobytes() == self.data.take(lay.perm()).tobytes(), \
                "stale lockstep layout: data changed without invalidate_cache()"

    # ------------------------------------------------------------------
    # Conversion / comparison
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.float64)
        # Accumulate to tolerate duplicate entries.
        np.add.at(out, (self.row_ids(), self.indices), self.data)
        return out

    def to_scipy(self):
        """Convert to ``scipy.sparse.csr_matrix`` (test oracle only)."""
        import scipy.sparse as sp

        return sp.csr_matrix(
            (self.data.copy(), self.indices.copy(), self.indptr.copy()), shape=self.shape
        )

    @classmethod
    def from_scipy(cls, m) -> "CSRMatrix":
        m = m.tocsr()
        return cls(m.shape, m.indptr.astype(np.int64), m.indices.astype(np.int64),
                   m.data.astype(np.float64))

    def allclose(self, other: "CSRMatrix", rtol: float = 1e-10, atol: float = 1e-12) -> bool:
        if self.shape != other.shape:
            return False
        return np.allclose(self.to_dense(), other.to_dense(), rtol=rtol, atol=atol)

    # ------------------------------------------------------------------
    # Operators (thin wrappers over the instrumented kernels)
    # ------------------------------------------------------------------
    def __matmul__(self, other):
        import numpy as _np

        if isinstance(other, CSRMatrix):
            from .spgemm import spgemm

            return spgemm(self, other)
        other = _np.asarray(other)
        from .spmv import spmv

        return spmv(self, other)

    def transpose(self) -> "CSRMatrix":
        from .transpose import transpose

        return transpose(self)

    @property
    def T(self) -> "CSRMatrix":
        return self.transpose()

    def __repr__(self) -> str:
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz})"

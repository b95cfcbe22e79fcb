"""Row-range partitioning of distributed matrices/vectors (§4.1).

HYPRE partitions a distributed matrix by contiguous row ranges; rank *p*
owns global rows ``[bounds[p], bounds[p+1])``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..perf.counters import VAL_BYTES, RecordTable
from ..sparse.ops import run_starts

__all__ = ["RowPartition"]


@dataclass(frozen=True)
class RowPartition:
    """Contiguous row-range partition over ``nranks`` ranks."""

    bounds: np.ndarray  # int64, length nranks + 1, bounds[0]=0

    def __post_init__(self):
        b = np.asarray(self.bounds, dtype=np.int64)
        object.__setattr__(self, "bounds", b)
        if b[0] != 0 or np.any(np.diff(b) < 0):
            raise ValueError("invalid partition bounds")
        object.__setattr__(self, "_tables", {})
        object.__setattr__(self, "_n", int(b[-1]))
        # (first row, rank count, size) of every run of equal-size ranks
        sizes = np.diff(b)
        first = run_starts(sizes)
        object.__setattr__(self, "_runs", list(zip(
            b[first].tolist(), np.diff(np.r_[first, len(sizes)]).tolist(),
            sizes[first].tolist())))

    @classmethod
    def uniform(cls, n: int, nranks: int) -> "RowPartition":
        return cls(np.linspace(0, n, nranks + 1).astype(np.int64))

    @classmethod
    def from_sizes(cls, sizes) -> "RowPartition":
        sizes = np.asarray(sizes, dtype=np.int64)
        bounds = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=bounds[1:])
        return cls(bounds)

    @property
    def nranks(self) -> int:
        return len(self.bounds) - 1

    @property
    def n(self) -> int:
        return self._n

    def size(self, rank: int) -> int:
        return int(self.bounds[rank + 1] - self.bounds[rank])

    def lo(self, rank: int) -> int:
        return int(self.bounds[rank])

    def hi(self, rank: int) -> int:
        return int(self.bounds[rank + 1])

    def range(self, rank: int) -> np.ndarray:
        return np.arange(self.lo(rank), self.hi(rank), dtype=np.int64)

    def vector_records(self, kernel: str, flops: int, reads: int,
                       writes: int = 0) -> RecordTable:
        """Per-rank records of a streaming vector kernel that spends, per
        owned row, *flops* flops and *reads* / *writes* values of traffic.
        A pure function of the partition: frozen on first use."""
        key = (kernel, flops, reads, writes)
        table = self._tables.get(key)
        if table is None:
            n = np.diff(self.bounds)
            table = self._tables[key] = RecordTable.later(
                np.ones(self.nranks), lambda: RecordTable.per_rank(
                    kernel, self.nranks, flops=flops * n,
                    bytes_read=reads * n * VAL_BYTES,
                    bytes_written=writes * n * VAL_BYTES))
        return table

    def dots(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Every rank's local dot product of two vectors over this
        partition: ``[x[lo:hi] @ y[lo:hi]]`` per rank, bit for bit.

        One ``np.vecdot`` per run of consecutive equal-size ranks, over the
        run's rows reshaped to one row per rank: ``vecdot`` takes each row
        through the BLAS ``ddot`` that ``@`` calls on a 1-D pair, so every
        partial keeps its summation order.
        """
        out = [np.vecdot(x[lo: lo + c * s].reshape(c, s),
                         y[lo: lo + c * s].reshape(c, s))
               for lo, c, s in self._runs]
        return out[0] if len(out) == 1 else np.concatenate(out)

    def ranks(self) -> np.ndarray:
        """Owning rank of every index ``0..n-1``."""
        return np.repeat(np.arange(self.nranks, dtype=np.int64),
                         np.diff(self.bounds))

    def owner_of(self, global_ids: np.ndarray) -> np.ndarray:
        """Owning rank of each global index (vectorized)."""
        return (
            np.searchsorted(self.bounds, np.asarray(global_ids, dtype=np.int64),
                            side="right")
            - 1
        ).astype(np.int64)

    def to_local(self, global_ids: np.ndarray, rank: int) -> np.ndarray:
        return np.asarray(global_ids, dtype=np.int64) - self.lo(rank)

    def owns(self, global_ids: np.ndarray, rank: int) -> np.ndarray:
        g = np.asarray(global_ids, dtype=np.int64)
        return (g >= self.lo(rank)) & (g < self.hi(rank))

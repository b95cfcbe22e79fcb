"""Shared helpers for interpolation construction."""

from __future__ import annotations

import numpy as np

from ..sparse.csr import CSRMatrix

__all__ = [
    "entries_in_pattern",
    "coarse_index",
    "identity_rows",
]


def entries_in_pattern(
    rows: np.ndarray, cols: np.ndarray, pattern: CSRMatrix
) -> np.ndarray:
    """Boolean mask: is ``(rows[t], cols[t])`` a stored entry of *pattern*?

    Vectorized membership test through a binary search on the pattern's
    sorted ``row * ncols + col`` entry keys — the bulk equivalent of the
    marker-array test in the paper's sparse-accumulator idiom.  Requires
    sorted, duplicate-free column indices in *pattern* (guaranteed for
    matrices produced by this library's kernels).
    """
    keys = pattern.row_ids() * np.int64(pattern.ncols) + pattern.indices
    q = np.asarray(rows, dtype=np.int64) * np.int64(pattern.ncols) + np.asarray(
        cols, dtype=np.int64
    )
    if len(keys) == 0:
        return np.zeros(len(q), dtype=bool)
    pos = np.minimum(np.searchsorted(keys, q), len(keys) - 1)
    return keys[pos] == q


def coarse_index(cf_marker: np.ndarray) -> tuple[np.ndarray, int]:
    """Map each point to its coarse id (valid only where ``cf > 0``)."""
    is_c = np.asarray(cf_marker) > 0
    idx = np.cumsum(is_c) - 1
    return idx.astype(np.int64), int(is_c.sum())


def identity_rows(cf_marker: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """COO triplets of the identity interpolation rows for the C points."""
    c_rows = np.flatnonzero(np.asarray(cf_marker) > 0).astype(np.int64)
    c_idx = np.arange(len(c_rows), dtype=np.int64)
    return c_rows, c_idx, np.ones(len(c_rows))

"""Unit tests for the vectorized low-level helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse.ops import (
    counts_from_indptr,
    gather_range_indices,
    group_rowcol,
    indptr_from_counts,
    prefix_sum_partition,
    row_ids_from_indptr,
    rowcol_order,
    segment_sum,
)


class TestRowIds:
    def test_basic(self):
        indptr = np.array([0, 2, 2, 5])
        np.testing.assert_array_equal(row_ids_from_indptr(indptr), [0, 0, 2, 2, 2])

    def test_empty(self):
        np.testing.assert_array_equal(row_ids_from_indptr(np.array([0])), [])

    def test_all_empty_rows(self):
        np.testing.assert_array_equal(
            row_ids_from_indptr(np.array([0, 0, 0])), []
        )


class TestIndptrCounts:
    def test_roundtrip(self):
        counts = np.array([3, 0, 2, 1])
        indptr = indptr_from_counts(counts)
        np.testing.assert_array_equal(indptr, [0, 3, 3, 5, 6])
        np.testing.assert_array_equal(counts_from_indptr(indptr), counts)

    def test_prefix_sum_partition(self):
        indptr, total = prefix_sum_partition([2, 5, 0])
        assert total == 7
        np.testing.assert_array_equal(indptr, [0, 2, 7, 7])


class TestGatherRanges:
    def test_basic(self):
        out = gather_range_indices(np.array([5, 0, 10]), np.array([2, 3, 1]))
        np.testing.assert_array_equal(out, [5, 6, 0, 1, 2, 10])

    def test_empty_segments(self):
        out = gather_range_indices(np.array([3, 7]), np.array([0, 2]))
        np.testing.assert_array_equal(out, [7, 8])

    def test_all_empty(self):
        assert len(gather_range_indices(np.array([1, 2]), np.array([0, 0]))) == 0

    def test_no_segments(self):
        assert len(gather_range_indices(np.array([]), np.array([]))) == 0

    def test_matches_naive(self, rng):
        starts = rng.integers(0, 100, 50)
        counts = rng.integers(0, 10, 50)
        expect = np.concatenate(
            [np.arange(s, s + c) for s, c in zip(starts, counts)]
        ) if counts.sum() else np.empty(0)
        np.testing.assert_array_equal(gather_range_indices(starts, counts), expect)


class TestSegmentSum:
    def test_basic(self):
        out = segment_sum(np.array([1.0, 2.0, 3.0]), np.array([0, 0, 2]), 3)
        np.testing.assert_allclose(out, [3, 0, 3])

    def test_empty(self):
        np.testing.assert_allclose(segment_sum(np.array([]), np.array([], dtype=int), 4),
                                   np.zeros(4))

    def test_truncates_to_nseg(self):
        out = segment_sum(np.array([1.0]), np.array([1]), 2)
        assert len(out) == 2


# Bounds on both sides of the uint16 / composite-key boundary of
# ``rowcol_order`` (indices up to 65535 fit 16 bits; 65536 do not).
BOUNDS = st.sampled_from([1, 2, 7, 300, 65535, 65536, 65537, 200_000])


@st.composite
def coordinates(draw):
    """Sparse (row, col) samples with duplicates, the extreme indices
    included, for independent row and column bounds."""
    nrows, ncols = draw(BOUNDS), draw(BOUNDS)
    n = draw(st.integers(0, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    # Few distinct values -> many duplicate coordinates; corners pinned.
    rpool = np.concatenate([[0, nrows - 1], rng.integers(0, nrows, 4)])
    cpool = np.concatenate([[0, ncols - 1], rng.integers(0, ncols, 4)])
    return rng.choice(rpool, n), rng.choice(cpool, n), nrows, ncols


class TestRowColOrder:
    @given(coordinates())
    @settings(deadline=None, max_examples=200)
    def test_is_the_stable_lexsort(self, rc):
        rows, cols, nrows, ncols = rc
        order = rowcol_order(rows, cols, nrows, ncols)
        np.testing.assert_array_equal(order, np.lexsort((cols, rows)))

    @pytest.mark.parametrize("bound", [65535, 65536, 65537])
    def test_dtype_boundary(self, bound):
        """Both arms, extreme indices, all duplicates of one coordinate."""
        rows = np.array([bound - 1, 0, bound - 1, 0, bound - 1], dtype=np.int64)
        cols = np.array([0, bound - 1, 0, bound - 1, bound - 1], dtype=np.int64)
        np.testing.assert_array_equal(
            rowcol_order(rows, cols, bound, bound), [1, 3, 0, 2, 4])

    def test_empty_and_single(self):
        empty = np.empty(0, dtype=np.int64)
        assert rowcol_order(empty, empty, 5, 5).tolist() == []
        assert rowcol_order(empty, empty, 0, 0).tolist() == []
        one = np.array([3], dtype=np.int64)
        assert rowcol_order(one, one, 4, 4).tolist() == [0]

    @given(coordinates())
    @settings(deadline=None, max_examples=100)
    def test_group_rowcol_is_a_coo_to_csr(self, rc):
        """Slots are the distinct coordinates in (row, col) order; summing
        by ``group`` adds each slot's duplicates in input order."""
        rows, cols, nrows, ncols = rc
        order, group, indptr, indices = group_rowcol(rows, cols, nrows, ncols)
        np.testing.assert_array_equal(order, np.lexsort((cols, rows)))
        uniq = sorted(set(zip(rows.tolist(), cols.tolist())))
        assert indices.tolist() == [c for _, c in uniq]
        assert row_ids_from_indptr(indptr).tolist() == [r for r, _ in uniq]
        assert len(indptr) == nrows + 1
        slot_of = {rc_: k for k, rc_ in enumerate(uniq)}
        assert group.tolist() == [slot_of[(rows[t], cols[t])] for t in order]

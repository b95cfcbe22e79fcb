"""Unit tests for the vectorized low-level helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lexsort_group

from repro.sparse.ops import (
    counts_from_indptr,
    gather_range_indices,
    GROUP_MARKER_DENSITY,
    group_rowcol,
    indptr_from_counts,
    prefix_sum_partition,
    row_ids_from_indptr,
    rowcol_order,
    segment_sum,
    unique_inverse,
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


# Bounds on both sides of the old uint16 boundary of ``rowcol_order``
# (indices up to 65535 fit 16 bits; 65536 do not); 200_000 squared makes
# composite keys past 2^32.
BOUNDS = st.sampled_from([1, 2, 7, 300, 65535, 65536, 65537, 200_000])
C = GROUP_MARKER_DENSITY


@st.composite
def coordinates(draw):
    """(row, col) samples with duplicates, the extreme indices included.

    A density axis: half the draws take independent row and column bounds
    (sparse key spaces), half size the key space ``nrows * ncols`` around
    ``k`` keys per entry, ``k`` up to twice :data:`GROUP_MARKER_DENSITY`,
    on 1xN, Nx1 and short-and-wide shapes — both arms of
    :func:`group_rowcol` and its threshold."""
    n = draw(st.integers(0, 60))
    if draw(st.booleans()):
        nrows, ncols = draw(BOUNDS), draw(BOUNDS)
    else:
        short = draw(st.sampled_from([1, 2, 3, 16]))
        per_entry = draw(st.sampled_from([1, 2, C // 2, C - 1, C, C + 1, 2 * C]))
        long = max(1, per_entry * n // short + draw(st.integers(-1, 1)))
        nrows, ncols = (short, long) if draw(st.booleans()) else (long, short)
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    # Few distinct values -> many duplicate coordinates; corners pinned.
    rpool = np.concatenate([[0, nrows - 1], rng.integers(0, nrows, 4)])
    cpool = np.concatenate([[0, ncols - 1], rng.integers(0, ncols, 4)])
    return rng.choice(rpool, n), rng.choice(cpool, n), nrows, ncols


def assert_groups_like_the_oracle(rows, cols, nrows, ncols):
    """Check :func:`group_rowcol` against the oracle; returns its result."""
    got = slot, indptr, indices = group_rowcol(rows, cols, nrows, ncols)
    for a, b in zip(got, lexsort_group(rows, cols, nrows, ncols)):
        np.testing.assert_array_equal(a, b)
    assert slot.dtype == np.int32 and len(slot) == len(rows)
    assert indptr.dtype == indices.dtype == np.int64
    return got


class TestRowColOrder:
    @given(coordinates())
    @settings(deadline=None, max_examples=200)
    def test_is_the_stable_lexsort(self, rc):
        rows, cols, _, ncols = rc
        order = rowcol_order(rows, cols, ncols)
        np.testing.assert_array_equal(order, np.lexsort((cols, rows)))

    @pytest.mark.parametrize("bound", [65535, 65536, 65537])
    def test_dtype_boundary(self, bound):
        """Extreme indices, all duplicates of one coordinate."""
        rows = np.array([bound - 1, 0, bound - 1, 0, bound - 1], dtype=np.int64)
        cols = np.array([0, bound - 1, 0, bound - 1, bound - 1], dtype=np.int64)
        np.testing.assert_array_equal(
            rowcol_order(rows, cols, bound), [1, 3, 0, 2, 4])

    def test_empty_and_single(self):
        empty = np.empty(0, dtype=np.int64)
        assert rowcol_order(empty, empty, 5).tolist() == []
        assert rowcol_order(empty, empty, 0).tolist() == []
        one = np.array([3], dtype=np.int64)
        assert rowcol_order(one, one, 4).tolist() == [0]

    @given(coordinates())
    @settings(deadline=None, max_examples=300)
    def test_group_rowcol_is_a_coo_to_csr(self, rc):
        """Slots are the distinct coordinates in (row, col) order, handed
        back per input entry; summing by ``slot`` adds each slot's
        duplicates in input order."""
        slot, _, indices = assert_groups_like_the_oracle(*rc)
        # Input order within a slot: the sums agree bit for bit.
        vals = np.random.default_rng(len(slot)).standard_normal(len(slot))
        got = np.bincount(slot, weights=vals, minlength=len(indices))
        want = np.zeros(len(indices))
        for t, s in enumerate(slot.tolist()):
            want[s] += vals[t]
        assert got.tobytes() == want.tobytes()


class TestGroupRowCol:
    @pytest.mark.parametrize("shape", [(0, 0), (0, 5), (5, 0), (1, 1), (4, 4)])
    def test_empty_input(self, shape):
        empty = np.empty(0, dtype=np.int64)
        assert_groups_like_the_oracle(empty, empty, *shape)

    @pytest.mark.parametrize("shape", [(1, 9), (9, 1), (1, 1)])
    def test_vector_shapes(self, shape):
        nrows, ncols = shape
        rng = np.random.default_rng(7)
        rows = rng.integers(0, nrows, 40)
        cols = rng.integers(0, ncols, 40)
        assert_groups_like_the_oracle(rows, cols, nrows, ncols)

    def test_composite_keys_past_2_32(self):
        big = 200_000
        rows = np.array([big - 1, 0, big - 1, 5, big - 1], dtype=np.int64)
        cols = np.array([big - 1, big - 1, big - 1, 0, 0], dtype=np.int64)
        assert (big - 1) * big + big - 1 >= 2**32
        assert_groups_like_the_oracle(rows, cols, big, big)

    @pytest.mark.parametrize("extra, sorts", [(0, 0), (1, 1)])
    def test_arm_is_chosen_by_key_density(self, monkeypatch, extra, sorts):
        """A key space of ``GROUP_MARKER_DENSITY`` keys per entry is marked
        without a sort; one key more is sorted."""
        from repro.sparse import ops

        calls = []
        argsort = np.argsort
        monkeypatch.setattr(np, "argsort",
                            lambda *a, **k: calls.append(1) or argsort(*a, **k))
        n = 10
        rng = np.random.default_rng(3)
        rows = np.zeros(n, dtype=np.int64)
        cols = rng.integers(0, C * n, n)
        ops.group_rowcol(rows, cols, 1, C * n + extra)
        assert len(calls) == sorts
        monkeypatch.undo()
        assert_groups_like_the_oracle(rows, cols, 1, C * n + extra)


class TestUniqueInverse:
    """The dense map of the (rank, column) renumbering against
    ``np.unique(return_inverse=True)``, on both arms."""

    @staticmethod
    def check(keys, space, dtype=np.int64):
        ukey, inv = unique_inverse(keys, space, dtype)
        want_u, want_inv = np.unique(keys, return_inverse=True)
        np.testing.assert_array_equal(ukey, want_u)
        np.testing.assert_array_equal(inv, want_inv.ravel())
        assert ukey.dtype == np.int64 and inv.dtype == dtype
        return ukey, inv

    @given(st.integers(0, 80), st.sampled_from([1, 2, C - 1, C, C + 1, 4 * C]),
           st.integers(0, 2**31 - 1))
    @settings(deadline=None, max_examples=200)
    def test_is_np_unique(self, n, per_entry, seed):
        space = max(1, per_entry * n)
        rng = np.random.default_rng(seed)
        pool = np.concatenate([[0, space - 1], rng.integers(0, space, 5)])
        self.check(rng.choice(pool, n).astype(np.int64), space)

    @pytest.mark.parametrize("extra, sorts", [(0, 0), (1, 1)])
    def test_arm_at_the_density_threshold(self, monkeypatch, extra, sorts):
        """``GROUP_MARKER_DENSITY`` keys per entry are marked; one more key
        is sorted.  Both give ``np.unique``'s answer."""
        calls = []
        argsort = np.argsort
        monkeypatch.setattr(np, "argsort",
                            lambda *a, **k: calls.append(1) or argsort(*a, **k))
        n = 12
        keys = np.random.default_rng(5).integers(0, C * n, n)
        ukey, inv = unique_inverse(keys, C * n + extra)
        assert len(calls) == sorts
        monkeypatch.undo()
        self.check(keys, C * n + extra)

    @pytest.mark.parametrize("space", [0, 1, 100])
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_empty_input(self, space, dtype):
        ukey, inv = self.check(np.empty(0, dtype=np.int64), space, dtype)
        assert len(ukey) == len(inv) == 0

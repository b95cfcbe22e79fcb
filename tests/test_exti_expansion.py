"""The extended+i symbolic pass visits only C columns; truncation sorts nothing.

``_freeze_plan`` (extended+i and classical, sequential and per rank) used to
expand every entry of a strong-F neighbour's row and keep the ~13 % that
Eq. (1) can use; it now generates only the C columns of that row plus one
probe for the diagonal-return entry ``(k, i)``.  ``truncate_interpolation``
used to rank each row's weights with a global ``np.lexsort``; it now takes
``max_elmts`` rounds of segmented max.  The oracles below are the previous
bodies, verbatim, and every property compares bytes:

* every :class:`ExtIPlan` field (dtype and bytes) for extended+i and
  classical on random patterns — nonsymmetric with ``(k, i)`` missing,
  weak C entries, empty rows, all-C / all-F splits, C-leading (CF-reordered)
  and interleaved numbering, ``active_rows`` — and on real operators;
* truncated ``P`` (bytes) and its cost record on ties, NaN, ``+-inf``,
  ``+-0.0`` and rows shorter than ``max_elmts``;
* the traced peak of the symbolic pass stays near the candidate terms, not
  the full expansion; unsorted rows are refused under ``REPRO_CHECK``.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.amg import interp_classical, interp_extended
from repro.amg.interp_classical import _classical_symbolic
from repro.amg.interp_common import coarse_index, entries_in_pattern
from repro.amg.interp_extended import ExtIPlan, extended_i_symbolic
from repro.amg.pmis import pmis
from repro.amg.strength import strength_matrix
from repro.amg.truncation import truncate_interpolation
from repro.analysis import InvariantViolation, check_scope
from repro.config import AMGConfig
from repro.perf.counters import IDX_BYTES, PTR_BYTES, VAL_BYTES, collect, count
from repro.serve.workload import PROBLEM_BUILDERS
from repro.sparse import CSRMatrix
from repro.sparse.ops import (
    gather_range_indices,
    group_rowcol,
    indptr_from_counts,
    row_ids_from_indptr,
    rowcol_order,
    segment_sum,
)
from repro.sparse.reorder import cf_permutation, permute_matrix

COMMON = dict(deadline=None, max_examples=80,
              suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# Oracles: the full-expansion _freeze_plan and the sorting truncation
# ---------------------------------------------------------------------------

def _freeze_plan_full(
    A: CSRMatrix,
    cf_marker: np.ndarray,
    chat: CSRMatrix,
    *,
    pairs: np.ndarray,
    direct: np.ndarray,
    weak: np.ndarray,
    identity_rows: np.ndarray,
    weak_first: bool,
    kernel: str,
) -> ExtIPlan:
    n = A.nrows
    rid = A.row_ids()
    cols = A.indices
    c_idx, nc = coarse_index(cf_marker)

    # Pairs in (row, col) order — the order a CSR pair matrix would hold.
    pair_entry = np.flatnonzero(pairs)
    pair_entry = pair_entry[rowcol_order(rid[pair_entry], cols[pair_entry], n, n)]
    pair_row = rid[pair_entry]
    pair_k = cols[pair_entry]

    # Expansion over (i, k) through row k; keep the contributing terms.
    kcounts = A.indptr[pair_k + 1] - A.indptr[pair_k]
    eidx = gather_range_indices(A.indptr[pair_k], kcounts)
    p_pair = np.repeat(np.arange(len(pair_entry), dtype=np.int64), kcounts)
    p_i = pair_row[p_pair]
    p_l = cols[eidx]
    # Chat holds C columns only: search it for those terms alone.
    cand = np.flatnonzero(cf_marker[p_l] > 0)
    in_chat = np.zeros(len(p_l), dtype=bool)
    in_chat[cand] = entries_in_pattern(p_i[cand], p_l[cand], chat)
    contributes = in_chat if weak_first else in_chat | (p_l == p_i)
    terms = np.flatnonzero(contributes)
    term_pair = p_pair[terms]
    term_entry = eidx[terms]
    term_l = p_l[terms]
    weight_terms = np.flatnonzero(in_chat[terms])
    diag_terms = np.empty(0, dtype=np.int64) if weak_first \
        else np.flatnonzero(term_l == pair_row[term_pair])

    direct_entry = np.flatnonzero(direct)
    weak_entry = np.flatnonzero(weak)
    num_row = np.concatenate([rid[direct_entry], pair_row[term_pair[weight_terms]]])
    num_col = np.concatenate([cols[direct_entry], term_l[weight_terms]])

    # Final COO -> CSR assembly: CSRMatrix.from_coo's (row, col) sort and
    # duplicate grouping, inverted into one output slot per term.  The sort
    # is stable, so summing the unsorted terms by slot adds each slot's
    # duplicates in the order from_coo would.
    order, group, out_indptr, out_col = group_rowcol(
        np.concatenate([identity_rows, num_row]),
        np.concatenate([c_idx[identity_rows], c_idx[num_col]]), n, nc)
    slot = np.empty(len(order), dtype=np.int64)
    slot[order] = group

    # Held for the hierarchy's lifetime: halve the maps when indices fit.
    dtype = np.int32 if max(A.nnz, n, len(p_l)) < 2**31 else np.int64

    def idx(a: np.ndarray) -> np.ndarray:
        return a.astype(dtype, copy=False)

    return ExtIPlan(
        shape=(n, nc), a_nnz=A.nnz,
        pair_row=idx(pair_row), pair_entry=idx(pair_entry),
        term_pair=idx(term_pair), term_entry=idx(term_entry),
        diag_terms=idx(diag_terms), weight_terms=idx(weight_terms),
        weak_row=idx(rid[weak_entry]), weak_entry=idx(weak_entry),
        direct_entry=idx(direct_entry), num_row=idx(num_row),
        n_identity=len(identity_rows),
        slot=idx(slot), out_row=idx(row_ids_from_indptr(out_indptr)), out_col=out_col,
        weak_first=weak_first, expansion=len(p_l), kernel=kernel,
    )


def _truncate_sorting(
    P: CSRMatrix,
    trunc_fact: float = 0.1,
    max_elmts: int = 4,
    *,
    rescale: bool = True,
    fused: bool = True,
) -> CSRMatrix:
    n = P.nrows
    if P.nnz == 0 or (trunc_fact <= 0.0 and max_elmts <= 0):
        return P
    rid = P.row_ids()
    absv = np.abs(P.data)

    row_max = np.zeros(n, dtype=np.float64)
    np.maximum.at(row_max, rid, absv)

    if max_elmts > 0:
        # k-th largest per row: sort entries by (row, -|v|), rank in row.
        order = np.lexsort((-absv, rid))
        rank = np.arange(P.nnz, dtype=np.int64) - P.indptr[rid[order]]
        kth = np.full(n, np.inf)
        sel = rank == (max_elmts - 1)
        kth[rid[order[sel]]] = absv[order[sel]]
    else:
        kth = np.full(n, np.inf)

    rel = trunc_fact * row_max if trunc_fact > 0 else np.zeros(n)
    thresh = np.minimum(rel, kth)
    keep = absv >= thresh[rid]

    counts = segment_sum(keep.astype(np.float64), rid, n).astype(np.int64)
    data = P.data[keep]
    new_rid = rid[keep]
    if rescale:
        old_sum = segment_sum(P.data, rid, n)
        new_sum = segment_sum(data, new_rid, n)
        safe = np.abs(new_sum) > 1e-300
        scale = np.where(safe, old_sum / np.where(safe, new_sum, 1.0), 1.0)
        data = data * scale[new_rid]

    Pt = CSRMatrix((n, P.ncols), indptr_from_counts(counts), P.indices[keep], data)

    full_bytes = P.nnz * (VAL_BYTES + IDX_BYTES) + (n + 1) * PTR_BYTES
    trunc_bytes = Pt.nnz * (VAL_BYTES + IDX_BYTES) + (n + 1) * PTR_BYTES
    if fused:
        # Rows truncated in cache right after construction: only the final
        # matrix is written.
        count("interp.truncate_fused", flops=2 * P.nnz, bytes_written=trunc_bytes,
              branches=float(P.nnz))
    else:
        count(
            "interp.truncate",
            flops=2 * P.nnz,
            bytes_read=full_bytes,
            bytes_written=full_bytes + trunc_bytes,
            branches=float(P.nnz),
        )
    return Pt


def _oracle(A, cf_marker, chat, *, pair_chat=None, **kw) -> ExtIPlan:
    return _freeze_plan_full(A, cf_marker, chat, **kw)


def _full_expansion(build, *args) -> ExtIPlan:
    """*build*'s plan with the full-expansion oracle frozen in."""
    with mock.patch.object(interp_extended, "_freeze_plan", _oracle), \
         mock.patch.object(interp_classical, "_freeze_plan", _oracle):
        return build(*args)


def _assert_same_plan(new: ExtIPlan, old: ExtIPlan) -> None:
    for f in fields(ExtIPlan):
        a, b = getattr(new, f.name), getattr(old, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype, f.name
            assert a.tobytes() == b.tobytes(), f.name
        else:
            assert type(a) is type(b) and a == b, f.name


def _assert_plans_match(A, S, cf, active=None) -> None:
    with collect():
        cases = [
            (extended_i_symbolic, (A, S, cf, active)),
            (_classical_symbolic, (A, S, cf)),
        ]
        for build, args in cases:
            _assert_same_plan(build(*args), _full_expansion(build, *args))


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------

@st.composite
def patterns(draw):
    """``(A, S, cf_marker, active_rows)``: a random operator pattern with a
    strength subset of its off-diagonal entries and a C/F split."""
    n = draw(st.integers(1, 14))
    seed = draw(st.integers(0, 2**32 - 1))
    density = draw(st.sampled_from([0.1, 0.3, 0.6, 1.0]))
    symmetric = draw(st.booleans())
    diag = draw(st.sampled_from(["all", "some", "none"]))
    split = draw(st.sampled_from(["random", "c_lead", "all_c", "all_f"]))
    strong_share = draw(st.sampled_from([0.0, 0.5, 0.8, 1.0]))
    active = draw(st.booleans())

    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < density
    if symmetric:
        mask |= mask.T
    np.fill_diagonal(mask, {"all": True, "none": False}.get(diag, rng.random(n) < 0.5))
    vals = rng.choice([-1.0, -0.5, 0.25, 2.0], size=(n, n)) * mask
    vals[mask & (vals == 0)] = 1.0
    A = CSRMatrix.from_dense(vals)
    rid, cols = A.row_ids(), A.indices
    keep = (cols != rid) & (rng.random(A.nnz) < strong_share)
    S = CSRMatrix.from_coo((n, n), rid[keep], cols[keep], np.ones(int(keep.sum())))

    if split == "all_c":
        cf = np.ones(n, dtype=np.int64)
    elif split == "all_f":
        cf = -np.ones(n, dtype=np.int64)
    else:
        cf = np.where(rng.random(n) < 0.4, 1, -1).astype(np.int64)
        if split == "c_lead":
            cf = np.sort(cf)[::-1].copy()
    active_rows = rng.random(n) < 0.6 if active else None
    return A, S, cf, active_rows


class TestPlanBytes:
    @settings(**COMMON)
    @given(patterns())
    def test_random_patterns(self, case):
        _assert_plans_match(*case)

    def test_missing_return_entry_and_weak_c(self):
        """Nonsymmetric: pair (0, 1) has no stored (1, 0); pair (2, 1)
        reaches row 1's weak C column 3 and its strong C column 4."""
        dense = np.array([
            [4.0, -1.0, 0.0, 0.0, 0.0],
            [0.0, 4.0, -1.0, -1.0, -1.0],
            [0.0, -1.0, 4.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 4.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 4.0],
        ])
        A = CSRMatrix.from_dense(dense)
        S = CSRMatrix.from_coo((5, 5), np.array([0, 1, 1, 2]), np.array([1, 2, 4, 1]),
                               np.ones(4))
        cf = np.array([-1, -1, -1, 1, 1])
        _assert_plans_match(A, S, cf)
        with collect():
            plan = extended_i_symbolic(A, S, cf)
        # Row 1 is expanded once per pair: (0, 1) and (2, 1); (1, 2) expands row 2.
        assert plan.expansion == 4 + 4 + 2
        assert len(plan.diag_terms) == 2  # (2, 1) -> a_12, (1, 2) -> a_21

    @pytest.mark.parametrize("problem,size", [("lap3d27g", 8), ("lap2d", 24),
                                              ("anisotropic", 20)])
    @pytest.mark.parametrize("reorder", [False, True])
    def test_real_operators(self, problem, size, reorder):
        cfg = AMGConfig()
        A = PROBLEM_BUILDERS[problem](size)
        S = strength_matrix(A, cfg.strength_threshold, cfg.max_row_sum)
        cf = pmis(S, seed=cfg.seed)
        if reorder:
            new2old, _ = cf_permutation(cf)
            A, S, cf = permute_matrix(A, new2old), permute_matrix(S, new2old), cf[new2old]
        _assert_plans_match(A, S, cf)
        _assert_plans_match(A, S, cf, np.arange(A.nrows) % 3 != 0)


class TestSymbolicPrecondition:
    def test_unsorted_rows_are_refused_under_check(self):
        A = CSRMatrix((2, 2), np.array([0, 2, 4]), np.array([1, 0, 0, 1]),
                      np.array([-1.0, 4.0, -1.0, 4.0]))
        S = CSRMatrix.from_coo((2, 2), np.array([0, 1]), np.array([1, 0]), np.ones(2))
        with check_scope("cheap"), collect(), pytest.raises(InvariantViolation) as exc:
            extended_i_symbolic(A, S, np.array([-1, 1]))
        assert exc.value.invariant == "csr.indices_sorted"

    def test_symbolic_peak_tracks_the_candidates(self):
        """The pair expansion is charged in full but not materialised: the
        traced peak of level 0's symbolic pass stays below three int64
        arrays of the full expansion (the full-expansion body peaked at
        ~6.4 of them)."""
        cfg = AMGConfig()
        A = PROBLEM_BUILDERS["lap3d27g"](12)
        S = strength_matrix(A, cfg.strength_threshold, cfg.max_row_sum)
        cf = pmis(S, seed=cfg.seed)
        new2old, _ = cf_permutation(cf)
        A, S, cf = permute_matrix(A, new2old), permute_matrix(S, new2old), cf[new2old]
        with collect():
            plan = extended_i_symbolic(A, S, cf)
            tracemalloc.start()
            try:
                extended_i_symbolic(A, S, cf)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert plan.contrib < plan.expansion
        assert peak < 3 * 8 * plan.expansion, peak / (8 * plan.expansion)


# ---------------------------------------------------------------------------
# Truncation
# ---------------------------------------------------------------------------

POOL = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0, 3.0, 1e-300, np.nan, np.inf, -np.inf]


@st.composite
def raw_interpolations(draw):
    n = draw(st.integers(1, 10))
    lengths = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    nnz = sum(lengths)
    values = draw(st.lists(st.one_of(st.sampled_from(POOL),
                                     st.floats(-4.0, 4.0, allow_subnormal=False)),
                           min_size=nnz, max_size=nnz))
    ncols = 12
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    cols = [np.sort(rng.choice(ncols, c, replace=False)) for c in lengths]
    return CSRMatrix((n, ncols), indptr_from_counts(np.array(lengths, dtype=np.int64)),
                     np.concatenate(cols + [np.zeros(0, dtype=np.int64)]).astype(np.int64),
                     np.array(values, dtype=np.float64))


class TestTruncationBytes:
    @settings(**COMMON)
    @given(P=raw_interpolations(),
           trunc_fact=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
           max_elmts=st.integers(0, 6),
           rescale=st.booleans(), fused=st.booleans())
    def test_keep_sets_and_bytes(self, P, trunc_fact, max_elmts, rescale, fused):
        with np.errstate(all="ignore"):
            with collect() as new_log:
                new = truncate_interpolation(P, trunc_fact, max_elmts,
                                             rescale=rescale, fused=fused)
            with collect() as old_log:
                old = _truncate_sorting(P, trunc_fact, max_elmts,
                                        rescale=rescale, fused=fused)
        for name in ("indptr", "indices", "data"):
            assert getattr(new, name).tobytes() == getattr(old, name).tobytes(), name
        assert new_log.records == old_log.records

    def test_ties_and_short_rows(self):
        """Row 0 ties across the 4th place (all five kept); row 1 is
        shorter than ``max_elmts`` (only the relative threshold applies);
        row 2's NaN poisons its row maximum (nothing kept); row 3 is
        empty."""
        P = CSRMatrix((4, 6), np.array([0, 6, 8, 13, 13]),
                      np.array([0, 1, 2, 3, 4, 5, 0, 1, 0, 1, 2, 3, 4]),
                      np.array([1.0, -1.0, 1.0, 1.0, 1.0, 0.5,
                                1.0, 0.01,
                                np.nan, 3.0, -2.0, 1.0, 0.5]))
        with np.errstate(all="ignore"), collect():
            new = truncate_interpolation(P, 1.0, 4)
            old = _truncate_sorting(P, 1.0, 4)
        assert new.indptr.tobytes() == old.indptr.tobytes()
        assert new.indices.tobytes() == old.indices.tobytes()
        assert new.data.tobytes() == old.data.tobytes()
        assert list(np.diff(new.indptr)) == [5, 1, 0, 0]

    def test_nan_ranks_last_in_the_count(self):
        """Without a relative threshold only the ``max_elmts``-th largest
        binds: row 0's 3rd place is a NaN (nothing kept), row 1's 3rd place
        is 1.0 (NaN dropped), row 2 has no 3rd place (all numbers kept)."""
        P = CSRMatrix((3, 4), np.array([0, 3, 7, 9]),
                      np.array([0, 1, 2, 0, 1, 2, 3, 0, 1]),
                      np.array([np.nan, 2.0, np.nan, np.nan, 2.0, 1.0, -3.0,
                                np.nan, 1.0]))
        with np.errstate(all="ignore"), collect():
            new = truncate_interpolation(P, 0.0, 3)
            old = _truncate_sorting(P, 0.0, 3)
        assert new.indptr.tobytes() == old.indptr.tobytes()
        assert new.indices.tobytes() == old.indices.tobytes()
        assert new.data.tobytes() == old.data.tobytes()
        assert list(np.diff(new.indptr)) == [0, 3, 1]

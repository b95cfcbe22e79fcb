"""Extended+i (distance-two) interpolation, Eq. (1) of the paper (§3.1.2).

For an F point *i*::

    w_ij = -(1/a~_ii) * ( a_ij + sum_{k in F_i^s} a_ik * abar_kj / b_ik ),  j in Chat_i

    a~_ii = a_ii + sum_{n in N_i^w \\ Chat_i} a_in + sum_{k in F_i^s} a_ik * abar_ki / b_ik
    b_ik  = sum_{l in Chat_i + {i}} abar_kl
    abar_kl = 0 when sign(a_kk) == sign(a_kl), else a_kl
    Chat_i = C_i^s  union  (union over k in F_i^s of C_k^s)

Two implementations:

* :func:`extended_i_interpolation` — fully vectorized, in two halves.
  :func:`extended_i_symbolic` is pattern-only: the distance-two structure is
  exactly a SpGEMM expansion over the strong-F pairs (the paper makes the
  same observation), so it reuses the expansion machinery of
  :mod:`repro.sparse.spgemm`, the set-membership tests that the native code
  does with a marker array become bulk binary searches, and the outcome is
  frozen into an :class:`ExtIPlan` of entry-id maps.  One numeric kernel
  then evaluates Eq. (1) through those maps; a from-scratch build
  (:func:`plan_interpolation`) and numeric resetup (:func:`plan_numeric`,
  §3.1.1 pattern reuse) run that same kernel, so they cannot disagree.
  Classical interpolation is the distance-one plan through the same two
  bodies.
* :func:`extended_i_reference` — a literal per-row transcription of Eq. (1)
  with marker arrays, used as the oracle in tests.

The model and the vehicle walk the strong-F pair expansion differently.
The model charges all of it (``ExtIPlan.expansion``: every entry of every
strong-F neighbour's row, as the native loop reads them).  The vehicle
visits only the entries that can contribute (§3.1.2's coarse/fine row
split): the C columns of row ``k`` and one probe for the diagonal-return
entry ``(k, i)``.  On level 0 of the n = 8000 27-point Laplacian that is
0.35 M C columns and 0.15 M probes out of a 3.9 M-term expansion.

Degenerate strong-F neighbours with ``b_ik == 0`` are treated as weak
(``a_ik`` lumped into the diagonal), matching BoomerAMG's guard.

The ``reordered`` flag mirrors §3.1.2's branch optimization: with the CF
permutation + 3-way in-row partition (coarse>=0 / coarse<0 / fine) the
kernel's per-entry classification branches disappear; only the irreducible
sparse-accumulation branches remain.  Truncation is fused (§3.1.2) unless
``fused_truncation=False``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from ..analysis import InvariantViolation, checking
from ..perf.counters import IDX_BYTES, PTR_BYTES, VAL_BYTES, collect, count
from ..sparse.csr import CSRMatrix
from ..sparse.ops import gather_range_indices, indptr_from_counts, segment_sum
from ..sparse.ops import group_rowcol, row_ids_from_indptr, rowcol_order
from ..sparse.spgemm import spgemm
from .interp_common import coarse_index, entries_in_pattern
from .truncation import truncate_interpolation

__all__ = ["ExtIPlan", "extended_i_symbolic", "extended_i_interpolation",
           "extended_i_numeric", "extended_i_reference", "plan_interpolation",
           "plan_numeric"]

_TINY = 1e-300


def _strong_mask(A: CSRMatrix, S: CSRMatrix) -> np.ndarray:
    return entries_in_pattern(A.row_ids(), A.indices, S)


@dataclass(frozen=True)
class ExtIPlan:
    """Frozen symbolic half of an Eq. (1) interpolation build.

    Everything :func:`_plan_weights` needs to turn the values of an operator
    with the captured sparsity (and strength pattern, and CF split) into
    ``P`` with gathers and segment sums only: no membership test, no sort,
    no SpGEMM.  All maps index the *stored entries* of ``A``; "terms" are
    the entries ``abar_kl`` of the strong-F pair expansion that contribute
    to a ``b_ik`` sum (``l`` in ``Chat_i``, or ``l == i``) — every other
    expanded term adds ``+0.0`` and is dropped.  Classical interpolation is
    the distance-one case of the same plan (no diagonal-return terms,
    ``weak_first``).  A plan lives as long as the hierarchies built through
    it (every hierarchy of a ``refresh`` chain, hierarchy-cache entries):
    its arrays are read-only, and 32-bit wherever the indices fit.
    """

    #: shape of ``P`` (``n x n_coarse``) and nnz of the operator captured
    shape: tuple[int, int]
    a_nnz: int
    #: strong-F pairs ``(i, k)``: row ``i`` and the entry id of ``a_ik``
    pair_row: np.ndarray
    pair_entry: np.ndarray
    #: contributing terms, in expansion order: owning pair, entry id of
    #: ``abar_kl``
    term_pair: np.ndarray
    term_entry: np.ndarray
    #: positions (into the term list) of the ``l == i`` diagonal-return
    #: terms and of the ``l in Chat_i`` weight terms
    diag_terms: np.ndarray
    weight_terms: np.ndarray
    #: weak neighbours lumped into ``a~_ii``: row and entry id
    weak_row: np.ndarray
    weak_entry: np.ndarray
    #: entry ids of the direct ``a_ij`` numerator terms (``j in Chat_i``)
    direct_entry: np.ndarray
    #: row of every numerator term, ``[direct; weight]`` order
    num_row: np.ndarray
    #: identity (C-point) entries leading the final COO assembly
    n_identity: int
    #: frozen COO -> CSR assembly of ``[identity; direct; weight]``: each
    #: term's output slot and the slots' (sorted) coordinates
    slot: np.ndarray
    out_row: np.ndarray
    out_col: np.ndarray
    #: classical accumulates the weak lump into ``a~_ii`` before the
    #: degenerate-pair lump, extended+i after the diagonal-return terms;
    #: it is the distance-one plan
    weak_first: bool
    #: size of the full pair expansion (both cost records charge it)
    expansion: int
    #: name of the build's cost record (``<kernel>.numeric_only`` on resetup)
    kernel: str

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, np.ndarray):
                v.setflags(write=False)

    @property
    def contrib(self) -> int:
        return len(self.term_pair)

    @property
    def afs_nnz(self) -> int:
        return len(self.pair_row)

    @property
    def distance_two(self) -> bool:
        return not self.weak_first


def _pair_terms(
    A: CSRMatrix,
    cf_marker: np.ndarray,
    chat: CSRMatrix,
    pair_row: np.ndarray,
    pair_k: np.ndarray,
    pair_chat: np.ndarray | None,
    weak_first: bool,
    dtype: type,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The contributing terms of the strong-F pair expansion, in (pair,
    entry) order: ``(term_pair, term_entry, weight_terms, diag_terms)``.

    The pair ``(i, k)`` expands row ``k``, but only its C columns can lie
    in ``Chat_i`` and only ``(k, i)`` returns to the diagonal, so those are
    the only entries visited (§3.1.2's coarse/fine row split).  *pair_chat*,
    if given, masks the entries ``a_kl`` whose column is in ``Chat_i`` for
    every pair through row ``k`` (extended+i: the strong C of ``k``); only
    the others are searched in *chat*.  Needs column-sorted, duplicate-free
    rows (the library's CSR invariant), checked under ``REPRO_CHECK``.
    """
    cols = A.indices
    keys = A.row_ids() * np.int64(A.ncols) + cols
    if checking() and not (np.diff(keys) > 0).all():
        raise InvariantViolation(
            "csr.indices_sorted",
            "interpolation needs column-sorted, duplicate-free rows")
    starts, ends = A.indptr[pair_k], A.indptr[pair_k + 1]

    # Candidates: the C entries of each pair's row k — a row prefix once the
    # C points lead the numbering (CF reorder), a mask otherwise.
    is_c = cf_marker > 0
    c_col = is_c[cols]
    c_before = np.zeros(A.nnz + 1, dtype=np.int64)
    np.cumsum(c_col, out=c_before[1:])
    c_count = c_before[ends] - c_before[starts]
    c_lead = not is_c[np.count_nonzero(is_c):].any()
    cand = gather_range_indices(starts if c_lead else c_before[starts], c_count)
    if not c_lead:
        cand = np.flatnonzero(c_col)[cand]
    cand_pair = np.repeat(np.arange(len(pair_k), dtype=np.int64), c_count)
    if pair_chat is None:
        in_chat = entries_in_pattern(pair_row[cand_pair], cols[cand], chat)
    else:
        in_chat = pair_chat[cand]
        rest = np.flatnonzero(~in_chat)
        in_chat[rest] = entries_in_pattern(pair_row[cand_pair[rest]],
                                           cols[cand[rest]], chat)
    hit = np.flatnonzero(in_chat)

    # Diagonal return: one probe per pair for the stored entry (k, i); the
    # term follows the pair's hits among the C entries left of it.
    if weak_first:
        d_pair = d_entry = np.empty(0, dtype=np.int64)
    else:
        q = pair_k * np.int64(A.ncols) + pair_row
        pos = np.minimum(np.searchsorted(keys, q), A.nnz - 1)
        d_pair = np.flatnonzero(keys[pos] == q)
        d_entry = pos[d_pair]
    hits_before = np.zeros(len(cand) + 1, dtype=np.int64)
    np.cumsum(in_chat, out=hits_before[1:])
    first = np.cumsum(c_count) - c_count
    diag_terms = (hits_before[first[d_pair] + c_before[d_entry] - c_before[starts[d_pair]]]
                  + np.arange(len(d_pair), dtype=np.int64))

    weight = np.ones(len(hit) + len(d_pair), dtype=bool)
    weight[diag_terms] = False
    weight_terms = np.flatnonzero(weight)
    term_pair = np.empty(len(weight), dtype=dtype)
    term_entry = np.empty(len(weight), dtype=dtype)
    term_pair[weight_terms], term_pair[diag_terms] = cand_pair[hit], d_pair
    term_entry[weight_terms], term_entry[diag_terms] = cand[hit], d_entry
    return term_pair, term_entry, weight_terms.astype(dtype), diag_terms.astype(dtype)


def _freeze_plan(
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
    pair_chat: np.ndarray | None = None,
) -> ExtIPlan:
    """Expand the strong-F pairs and freeze every map of an :class:`ExtIPlan`.

    *pairs*, *direct* and *weak* are boolean masks over ``A``'s stored
    entries (the strong-F pair entries ``a_ik``, the direct numerator
    entries, the weak entries lumped into the diagonal); *chat* is the
    interpolation-set pattern ``Chat``; *identity_rows* the C points that
    get an identity row; the distance-one plan (``weak_first``) has no
    ``l == i`` diagonal-return terms; *pair_chat* as in
    :func:`_pair_terms`.  Shared by extended+i and classical.
    """
    n = A.nrows
    rid = A.row_ids()
    cols = A.indices
    c_idx, nc = coarse_index(cf_marker)

    # Pairs in (row, col) order — the order a CSR pair matrix would hold.
    pair_entry = np.flatnonzero(pairs)
    pair_entry = pair_entry[rowcol_order(rid[pair_entry], cols[pair_entry], n, n)]
    pair_row = rid[pair_entry]
    pair_k = cols[pair_entry]
    # The full expansion's size: what the cost records charge.
    expansion = int((A.indptr[pair_k + 1] - A.indptr[pair_k]).sum())
    # Held for the hierarchy's lifetime: halve the maps when indices fit.
    dtype = np.int32 if max(A.nnz, n, expansion) < 2**31 else np.int64

    term_pair, term_entry, weight_terms, diag_terms = _pair_terms(
        A, cf_marker, chat, pair_row, pair_k, pair_chat, weak_first, dtype)
    direct_entry = np.flatnonzero(direct)
    weak_entry = np.flatnonzero(weak)
    num_row = np.concatenate([rid[direct_entry], pair_row[term_pair[weight_terms]]])
    num_col = np.concatenate([cols[direct_entry], cols[term_entry[weight_terms]]])

    # Final COO -> CSR assembly: CSRMatrix.from_coo's (row, col) sort and
    # duplicate grouping, inverted into one output slot per term.  The sort
    # is stable, so summing the unsorted terms by slot adds each slot's
    # duplicates in the order from_coo would.
    order, group, out_indptr, out_col = group_rowcol(
        np.concatenate([identity_rows, num_row]),
        np.concatenate([c_idx[identity_rows], c_idx[num_col]]), n, nc)
    slot = np.empty(len(order), dtype=np.int64)
    slot[order] = group

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
        weak_first=weak_first, expansion=expansion, kernel=kernel,
    )


def _plan_weights(plan: ExtIPlan, A: CSRMatrix) -> CSRMatrix:
    """Evaluate Eq. (1) on *A*'s values through a frozen plan (uncounted).

    The one arithmetic path of extended+i and classical interpolation, used
    by a from-scratch build and by numeric resetup alike.  Every
    value-dependent decision is taken on the values at hand: the ``abar``
    sign filter, the ``|b_ik| > tiny`` degenerate-pair lumping, the
    ``|a~_ii| > tiny`` guard, and the elimination of exactly-zero weights
    (so the returned pattern may be a strict subset of the frozen slots).
    Returns the untruncated ``P``.
    """
    n, nc = plan.shape
    if A.nrows != n or A.nnz != plan.a_nnz:
        raise ValueError("interpolation plan was frozen for a different "
                         "operator pattern")
    vals = A.data
    diag = A.diagonal()
    # abar: sign-filtered matrix values on A's pattern.
    abar = np.where(np.sign(diag)[A.row_ids()] == np.sign(vals), 0.0, vals)

    aik = vals[plan.pair_entry]
    t_abar = abar[plan.term_entry]
    b = segment_sum(t_abar, plan.term_pair, plan.afs_nnz)
    b_ok = np.abs(b) > _TINY
    b_safe = np.where(b_ok, b, 1.0)
    t_ok = b_ok[plan.term_pair]
    t_val = aik[plan.term_pair] * t_abar / b_safe[plan.term_pair]

    # a~_ii: diagonal + degenerate pairs (b_ik == 0, treated as weak) +
    # diagonal-return terms + weak neighbours outside Chat.
    weak_sum = segment_sum(vals[plan.weak_entry], plan.weak_row, n)
    atil = diag.copy()
    if plan.weak_first:
        atil += weak_sum
    np.add.at(atil, plan.pair_row[~b_ok], aik[~b_ok])
    dsel = plan.diag_terms[t_ok[plan.diag_terms]]
    np.add.at(atil, plan.pair_row[plan.term_pair[dsel]], t_val[dsel])
    if not plan.weak_first:
        atil += weak_sum
    atil_safe = np.where(np.abs(atil) > _TINY, atil, 1.0)

    # Numerators a_ij + sum_k a_ik abar_kj / b_ik, scaled by -1/a~_ii.
    wt = plan.weight_terms
    num = np.concatenate([vals[plan.direct_entry],
                          np.where(t_ok[wt], t_val[wt], 0.0)])
    num = -num / atil_safe[plan.num_row]

    coo = np.concatenate([np.ones(plan.n_identity), num])
    out = np.bincount(plan.slot, weights=coo, minlength=len(plan.out_row))
    keep = np.abs(out) > 0.0
    counts = segment_sum(keep.astype(np.float64), plan.out_row, n).astype(np.int64)
    return CSRMatrix((n, nc), indptr_from_counts(counts), plan.out_col[keep],
                     out[keep])


def extended_i_symbolic(
    A: CSRMatrix,
    S: CSRMatrix,
    cf_marker: np.ndarray,
    active_rows: np.ndarray | None = None,
) -> ExtIPlan:
    """Pattern-only half of extended+i: ``Chat``, the strong-F pair
    expansion and the final assembly, frozen into an :class:`ExtIPlan`.

    Depends on ``A``'s sparsity, ``S``'s pattern and the CF split only, so
    the plan stays valid for every operator that shares them.  The
    distance-two structure is a SpGEMM over the strong-F pairs and is
    counted as one (``interp.exti_dist2``).
    """
    n = A.nrows
    cf_marker = np.asarray(cf_marker)
    rid = A.row_ids()
    cols = A.indices
    offdiag = cols != rid
    f_row = cf_marker[rid] <= 0
    identity_rows = np.flatnonzero(cf_marker > 0)
    if active_rows is not None:
        active_rows = np.asarray(active_rows, dtype=bool)
        f_row &= active_rows[rid]
        identity_rows = identity_rows[active_rows[identity_rows]]

    strong = _strong_mask(A, S)
    is_c_col = cf_marker[cols] > 0

    # Strong-C adjacency (all rows) and strong-F pairs (F rows only).
    sc = strong & is_c_col
    SC = CSRMatrix.from_coo((n, n), rid[sc], cols[sc], np.ones(int(sc.sum())))
    fs = strong & ~is_c_col & f_row & offdiag
    AFS = CSRMatrix.from_coo((n, n), rid[fs], cols[fs], np.ones(int(fs.sum())))

    # Chat pattern: strong C of i plus strong C of i's strong F neighbours.
    D2 = spgemm(AFS, SC, kernel="interp.exti_dist2")
    sc_f = sc & f_row
    chat_rows = np.concatenate([rid[sc_f], D2.row_ids()])
    chat_cols = np.concatenate([cols[sc_f], D2.indices])
    Chat = CSRMatrix.from_coo((n, n), chat_rows, chat_cols, np.ones(len(chat_rows)))

    in_chat_A = entries_in_pattern(rid, cols, Chat)
    return _freeze_plan(
        A, cf_marker, Chat,
        pairs=fs,
        direct=f_row & in_chat_A,
        weak=f_row & offdiag & ~strong & ~in_chat_A,
        identity_rows=identity_rows,
        weak_first=False, kernel="interp.extended_i", pair_chat=sc,
    )


def plan_interpolation(
    plan: ExtIPlan,
    A: CSRMatrix,
    *,
    trunc_fact: float = 0.1,
    max_elmts: int = 4,
    reordered: bool = True,
    fused_truncation: bool = True,
    truncate: bool = True,
) -> CSRMatrix:
    """``P`` through a freshly frozen *plan*, charged as ``plan.kernel``:
    the one build body of extended+i and classical (distance one)."""
    n = A.nrows
    d2 = int(plan.distance_two)
    P = _plan_weights(plan, A)
    a_bytes = A.nnz * (VAL_BYTES + IDX_BYTES) + (n + 1) * PTR_BYTES
    gathered = (plan.expansion * (VAL_BYTES + IDX_BYTES)
                + d2 * plan.afs_nnz * 2 * PTR_BYTES)
    # Branch model: the irreducible sparse-accumulator branch per expanded
    # term, plus a per-entry C/F/sign classification branch — and, at
    # distance two, a per-term one — that only extended+i's 3-way partial
    # sort removes.
    branches = plan.expansion
    if not (reordered and d2):
        branches += d2 * plan.expansion + A.nnz
    count(
        plan.kernel,
        flops=(4 + d2) * plan.expansion + (3 + d2) * A.nnz,
        bytes_read=a_bytes + gathered,
        bytes_written=P.nnz * (VAL_BYTES + IDX_BYTES) + (n + 1) * PTR_BYTES,
        branches=float(branches),
    )
    if truncate:
        P = truncate_interpolation(
            P, trunc_fact, max_elmts, fused=fused_truncation
        )
    return P


def _same_pattern(P: CSRMatrix, pattern: CSRMatrix) -> bool:
    """Whether *P* has exactly the sparsity of the frozen *pattern*."""
    return (P.shape == pattern.shape
            and np.array_equal(P.indptr, pattern.indptr)
            and np.array_equal(P.indices, pattern.indices))


def plan_numeric(
    plan: ExtIPlan,
    A: CSRMatrix,
    pattern: CSRMatrix,
    *,
    trunc_fact: float = 0.1,
    max_elmts: int = 4,
    fused_truncation: bool = True,
) -> CSRMatrix | None:
    """Numeric-only recomputation through the build's *plan* (§3.1.1
    pattern reuse): :func:`_plan_weights` and the truncation on the new
    values, nothing else.  ``None`` when the result's pattern deviates
    from *pattern* (a weight cancelled, a truncation keep-set flipped) —
    the caller must rebuild.  The ``<plan.kernel>.numeric_only`` record
    charges only the irreducible work, with **zero** branches.
    """
    with collect():
        P = truncate_interpolation(
            _plan_weights(plan, A), trunc_fact, max_elmts, fused=fused_truncation
        )
    if not _same_pattern(P, pattern):
        return None
    n = A.nrows
    d2 = int(plan.distance_two)
    # Irreducible numeric work on a frozen pattern: abar sign filter and
    # diagonal accumulations over A's entries, one multiply-divide-
    # accumulate per contributing term, the row scaling, and the (frozen
    # keep-set) truncation rescale; distance two adds the pair-row walk.
    flops = ((2 + d2) * plan.contrib + (3 + d2) * A.nnz + 2 * P.nnz
             + d2 * 2 * plan.afs_nnz)
    a_bytes = A.nnz * (VAL_BYTES + IDX_BYTES) + (n + 1) * PTR_BYTES
    gathered = plan.expansion * VAL_BYTES + d2 * plan.afs_nnz * 2 * PTR_BYTES
    count(
        f"{plan.kernel}.numeric_only",
        flops=flops,
        bytes_read=a_bytes + gathered + P.nnz * IDX_BYTES,
        bytes_written=P.nnz * VAL_BYTES,
        branches=0.0,
    )
    return P


def extended_i_interpolation(
    A: CSRMatrix,
    S: CSRMatrix,
    cf_marker: np.ndarray,
    *,
    trunc_fact: float = 0.1,
    max_elmts: int = 4,
    reordered: bool = True,
    fused_truncation: bool = True,
    truncate: bool = True,
    active_rows: np.ndarray | None = None,
    return_plan: bool = False,
) -> CSRMatrix | tuple[CSRMatrix, ExtIPlan]:
    """Extended+i interpolation ``P`` (``n x n_coarse``): Eq. (1) evaluated
    through :func:`extended_i_symbolic`'s frozen maps.

    ``active_rows`` (bool mask) restricts which rows get interpolation
    entries: inactive rows still serve as distance-two neighbours (their
    strong-C sets feed ``Chat``) but receive no P rows.  The distributed
    construction uses this to interpolate only locally owned rows while
    gathered ghost rows provide the distance-two information (§4.3).

    With ``return_plan`` the pair ``(P, plan)``: a capturing hierarchy
    build keeps the symbolic half for numeric resetup.
    """
    plan = extended_i_symbolic(A, S, cf_marker, active_rows)
    P = plan_interpolation(
        plan, A, trunc_fact=trunc_fact, max_elmts=max_elmts,
        reordered=reordered, fused_truncation=fused_truncation,
        truncate=truncate,
    )
    return (P, plan) if return_plan else P


def extended_i_numeric(
    A: CSRMatrix,
    S: CSRMatrix,
    cf_marker: np.ndarray,
    pattern: CSRMatrix,
    *,
    trunc_fact: float = 0.1,
    max_elmts: int = 4,
    reordered: bool = True,
    fused_truncation: bool = True,
    plan: ExtIPlan | None = None,
) -> CSRMatrix | None:
    """:func:`plan_numeric` for extended+i; without the build's *plan*
    the symbolic half is derived first, silently.  ``reordered`` is
    accepted for symmetry with the build."""
    if plan is None:
        with collect():
            plan = extended_i_symbolic(A, S, cf_marker)
    return plan_numeric(plan, A, pattern, trunc_fact=trunc_fact,
                        max_elmts=max_elmts, fused_truncation=fused_truncation)


def extended_i_reference(
    A: CSRMatrix,
    S: CSRMatrix,
    cf_marker: np.ndarray,
) -> CSRMatrix:
    """Literal per-row Eq. (1) with marker arrays (test oracle, untruncated)."""
    n = A.nrows
    cf_marker = np.asarray(cf_marker)
    c_idx, nc = coarse_index(cf_marker)
    diag = A.diagonal()
    strong = _strong_mask(A, S)

    def row(i):
        lo, hi = A.indptr[i], A.indptr[i + 1]
        return A.indices[lo:hi], A.data[lo:hi], strong[lo:hi]

    out_r, out_c, out_v = [], [], []
    for i in range(n):
        if cf_marker[i] > 0:
            out_r.append(i)
            out_c.append(int(c_idx[i]))
            out_v.append(1.0)
            continue
        cols_i, vals_i, strong_i = row(i)
        od = cols_i != i
        cs = cols_i[strong_i & od & (cf_marker[cols_i] > 0)]
        fs = cols_i[strong_i & od & (cf_marker[cols_i] <= 0)]
        a_ik_map = dict(zip(cols_i.tolist(), vals_i.tolist()))

        chat = set(cs.tolist())
        for k in fs:
            ck, vk, sk = row(int(k))
            chat.update(ck[sk & (ck != k) & (cf_marker[ck] > 0)].tolist())
        chat_list = sorted(chat)
        pos = {j: t for t, j in enumerate(chat_list)}

        w = np.zeros(len(chat_list))
        atil = diag[i]
        # a_ij term for j in Chat.
        for j, v in zip(cols_i, vals_i):
            if j in pos:
                w[pos[j]] += v
        # weak neighbours outside Chat.
        for j, v, s in zip(cols_i, vals_i, strong_i):
            if j != i and not s and j not in pos:
                atil += v
        for k in fs:
            ck, vk, _ = row(int(k))
            abar_k = np.where(np.sign(diag[k]) == np.sign(vk), 0.0, vk)
            mask = np.array([(c in pos) or (c == i) for c in ck])
            b_ik = float(abar_k[mask].sum()) if mask.any() else 0.0
            a_ik = a_ik_map[int(k)]
            if abs(b_ik) <= _TINY:
                atil += a_ik
                continue
            for c, ab in zip(ck, abar_k):
                if c == i:
                    atil += a_ik * ab / b_ik
                elif c in pos:
                    w[pos[c]] += a_ik * ab / b_ik
        if abs(atil) <= _TINY:
            continue
        for j, t in pos.items():
            if w[t] != 0.0:
                out_r.append(i)
                out_c.append(int(c_idx[j]))
                out_v.append(-w[t] / atil)
    return CSRMatrix.from_coo(
        (n, nc),
        np.array(out_r, dtype=np.int64),
        np.array(out_c, dtype=np.int64),
        np.array(out_v),
    )

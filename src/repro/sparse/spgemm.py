"""Sparse matrix–matrix multiplication (SpGEMM) kernels (§3.1.1).

Three faithful code paths:

* :func:`spgemm` — the production kernel.  Numerically it is a vectorized
  Gustavson expansion (one product term per ``(a_ij, b_jk)`` pair) followed
  by a duplicate-eliminating compression,
  :func:`~repro.sparse.ops.group_rowcol`: the accumulator's marker array,
  spread over the output's whole ``(row, col)`` key space as a perfect
  hash, when that space is dense; one stable sort of the keys when it is
  not.  Its *instrumentation* switches
  between the two implementations the paper contrasts:

  - ``method="two_pass"`` — the traditional implementation: a symbolic pass
    counts each output row's non-zeros (reading both inputs), memory is
    allocated, then a numeric pass reads the inputs *again*.
  - ``method="one_pass"`` — the paper's optimization: each thread writes
    into a pre-allocated chunk during a single read of the inputs, and the
    chunks are copied (contiguously) into the final matrix.  This trades a
    streaming copy of the (smaller) output for a second irregular read of
    the inputs.

* :class:`SpGEMMPlan` / :func:`spgemm_numeric` — "pattern reuse": when
  ``rowptr``/``colidx`` of the output are already populated, the numeric
  product runs with no sparse-accumulator branches.  The paper uses this to
  bound the branching overhead (2.1x speedup, §3.1.1).  A plan freezes the
  ``B`` entry and the output slot of every product term, in expansion
  order, and the term count of every ``A`` entry; it comes
  from :func:`spgemm_symbolic` (pattern only) or, as a by-product of the
  grouping a product does anyway, from ``spgemm(..., return_plan=True)``
  — there is no separate capture pass (same for :func:`sp_add`).

* :func:`spgemm_gustavson` (in :mod:`repro.sparse.accumulator`) — the
  literal marker-array row loop, kept as the reference implementation and
  used by the tests as a second, independently-written oracle.

Branch accounting: the marker-array sparse accumulator executes one
data-dependent branch per expanded product term (``marker[k] <
C.rowptr[i]``, the Fig. in §3.1.1); a symbolic pass executes the same
branch again.  Pattern-reuse numeric products execute none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..perf.counters import IDX_BYTES, PTR_BYTES, VAL_BYTES, count
from .csr import CSRMatrix
from .ops import gather_range_indices, group_rowcol

__all__ = [
    "spgemm",
    "spgemm_symbolic",
    "spgemm_numeric",
    "SpGEMMPlan",
    "sp_add",
    "sp_add_numeric",
    "SpAddPlan",
    "expansion_size",
    "spgemm_traffic",
]


# ---------------------------------------------------------------------------
# Expansion machinery (shared by all variants)
# ---------------------------------------------------------------------------

def _expand(A: CSRMatrix, B: CSRMatrix):
    """All product terms of ``C = A B``, in expansion order (pattern only).

    Returns ``(erows, ecols, bcounts, eb)``: term *t* lands in
    ``C[erows[t], ecols[t]]`` and reads ``B.data[eb[t]]``; stored entry *e*
    of ``A`` owns ``bcounts[e]`` consecutive terms.
    """
    if A.ncols != B.nrows:
        raise ValueError(f"dimension mismatch: {A.shape} @ {B.shape}")
    bcounts = B.indptr[A.indices + 1] - B.indptr[A.indices]
    eb = gather_range_indices(B.indptr[A.indices], bcounts)
    return np.repeat(A.row_ids(), bcounts), B.indices[eb], bcounts, eb


def _index_dtype(bound: int) -> type:
    # Plans live as long as a hierarchy: 32-bit maps when the indices fit.
    return np.int32 if bound < 2**31 else np.int64


def _pattern(M: CSRMatrix) -> tuple:
    return M.shape, M.indptr, M.indices


def _check_pattern(M: CSRMatrix, frozen: tuple) -> None:
    """Raise unless *M* has exactly the :func:`_pattern` a plan froze."""
    shape, indptr, indices = frozen
    if M.shape != shape or M.nnz != len(indices) or not all(
        a is b or np.array_equal(a, b)
        for a, b in ((M.indptr, indptr), (M.indices, indices))
    ):
        raise ValueError(
            f"plan was frozen for a different operator pattern: operand "
            f"{M.shape} with {M.nnz} entries vs {shape} with {len(indices)}")


def expansion_size(A: CSRMatrix, B: CSRMatrix) -> int:
    """Number of product terms in ``A B`` (= flops/2 of the Gustavson kernel)."""
    bcounts = B.indptr[A.indices + 1] - B.indptr[A.indices]
    return int(bcounts.sum())


# ---------------------------------------------------------------------------
# Traffic model
# ---------------------------------------------------------------------------

def _matrix_bytes(M: CSRMatrix) -> float:
    return float(M.nnz * (VAL_BYTES + IDX_BYTES) + (M.nrows + 1) * PTR_BYTES)


def spgemm_traffic(a_nnz, a_nrows, expansion, c_nnz, method: str) -> dict:
    """The record fields (flops, bytes read and written, branches) of one
    SpGEMM ``C = A B`` from its sizes: counts, or arrays of per-block
    counts (``C`` has ``A``'s rows).

    ``B`` is accessed row-by-gathered-row: each product term reads one
    ``(value, index)`` pair of ``B`` non-contiguously; every distinct
    ``a_ij`` also reads two ``B`` row-pointer entries.
    """
    if method not in ("one_pass", "two_pass", "numeric_only"):
        raise ValueError(f"unknown SpGEMM method {method!r}")
    read_A = a_nnz * (VAL_BYTES + IDX_BYTES) + (a_nrows + 1) * PTR_BYTES
    read_B = expansion * (VAL_BYTES + IDX_BYTES) + a_nnz * 2 * PTR_BYTES
    write_C = c_nnz * (VAL_BYTES + IDX_BYTES) + (a_nrows + 1) * PTR_BYTES
    if method == "one_pass":
        # Single read of the inputs; thread chunks copied into the final
        # contiguous allocation (streaming read + write of C).
        traffic = (read_A + read_B + write_C, 2 * write_C, expansion)
    elif method == "two_pass":
        # Symbolic pass reads the index structure of both inputs, numeric
        # pass reads everything again.
        sym_read = (a_nnz * IDX_BYTES + (a_nrows + 1) * PTR_BYTES
                    + expansion * IDX_BYTES + a_nnz * 2 * PTR_BYTES)
        traffic = (sym_read + read_A + read_B, write_C, 2 * expansion)
    else:
        # Pattern reuse: read inputs once, write values only, no branches.
        traffic = (read_A + read_B + c_nnz * IDX_BYTES, c_nnz * VAL_BYTES, 0)
    return dict(zip(("bytes_read", "bytes_written", "branches"), traffic),
                flops=2 * expansion)


# ---------------------------------------------------------------------------
# Public kernels
# ---------------------------------------------------------------------------

def spgemm(
    A: CSRMatrix,
    B: CSRMatrix,
    *,
    method: str = "one_pass",
    kernel: str = "spgemm",
    parallel: bool = True,
    return_plan: bool = False,
) -> CSRMatrix | tuple[CSRMatrix, SpGEMMPlan]:
    """``C = A @ B`` with the traffic/branch profile of *method*.

    With ``return_plan`` the pair ``(C, plan)``: the :class:`SpGEMMPlan` is
    the term grouping the product does anyway, ``C``'s values come out of
    the numeric kernel a later :func:`spgemm_numeric` runs, and the emitted
    record is the plain call's.
    """
    if return_plan:
        plan = _symbolic(A, B)
        C = CSRMatrix(plan.shape, plan.indptr, plan.indices, _plan_values(plan, A, B))
        expansion = plan.expansion
    else:  # no term operands to materialise: ~1/7 cheaper on large products
        plan = None
        erows, ecols, bcounts, eb = _expand(A, B)
        slot, indptr, indices = group_rowcol(erows, ecols, A.nrows, B.ncols)
        evals = np.repeat(A.data, bcounts) * B.data[eb]
        C = CSRMatrix((A.nrows, B.ncols), indptr, indices,
                      np.bincount(slot, weights=evals, minlength=len(indices)))
        expansion = len(slot)
    count(f"{kernel}.{method}", parallel=parallel,
          **spgemm_traffic(A.nnz, A.nrows, expansion, C.nnz, method))
    return (C, plan) if return_plan else C


@dataclass(frozen=True)
class SpGEMMPlan:
    """Symbolic SpGEMM result: the output pattern plus every product term's
    ``B`` operand and output slot, frozen in Gustavson expansion order.

    Stored entry *e* of ``A`` owns ``a_counts[e]`` consecutive terms; term
    *t* adds ``a * B.data[term_b[t]]`` (``a`` its ``A`` entry's value) to
    output slot ``term_slot[t]``.  A numeric pass is one repeat, one
    gather, one multiply and one ``bincount`` — no expansion, grouping or
    sparse-accumulator branch — and it is bit-identical to the fresh
    kernel, which sums the same slots with the same ``bincount`` over the
    terms in expansion order.  ``a``/``b`` are the operand patterns
    ``(shape, indptr, indices)`` the plan is valid for.

    The term arrays and counts are the plan's own: read-only, 32-bit when
    the indices fit.  ``indptr``/``indices`` and the operand patterns are
    *shared* with the matrices of the planning call, not copied — CSR
    structure is immutable once built (lint rule ``no-borrowed-mutation``)
    — and :func:`spgemm_numeric` hands out copies.
    """

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    term_b: np.ndarray
    term_slot: np.ndarray
    a_counts: np.ndarray
    a: tuple
    b: tuple

    def __post_init__(self) -> None:
        for arr in (self.term_b, self.term_slot, self.a_counts):
            arr.setflags(write=False)

    @property
    def expansion(self) -> int:
        return len(self.term_b)


def _symbolic(A: CSRMatrix, B: CSRMatrix) -> SpGEMMPlan:
    """Expand and group the terms of ``A B`` into a plan (uncounted)."""
    erows, ecols, bcounts, eb = _expand(A, B)
    slot, indptr, indices = group_rowcol(erows, ecols, A.nrows, B.ncols)
    dtype = _index_dtype(max(A.nnz, B.nnz, len(slot)))
    return SpGEMMPlan(
        (A.nrows, B.ncols), indptr, indices,
        eb.astype(dtype), slot.astype(dtype, copy=False), bcounts.astype(dtype),
        _pattern(A), _pattern(B),
    )


def _plan_values(plan: SpGEMMPlan, A: CSRMatrix, B: CSRMatrix) -> np.ndarray:
    """Values of ``A B`` on the frozen pattern (the one numeric kernel)."""
    _check_pattern(A, plan.a)
    _check_pattern(B, plan.b)
    terms = np.repeat(A.data, plan.a_counts)
    # take() == fancy indexing, without the latter's 32-bit index penalty.
    terms *= B.data.take(plan.term_b)
    return np.bincount(plan.term_slot, weights=terms, minlength=len(plan.indices))


def spgemm_symbolic(A: CSRMatrix, B: CSRMatrix, *, kernel: str = "spgemm") -> SpGEMMPlan:
    """Symbolic phase: compute the pattern of ``A B`` and the term mapping."""
    plan = _symbolic(A, B)
    sym_read = (
        A.nnz * IDX_BYTES
        + (A.nrows + 1) * PTR_BYTES
        + plan.expansion * IDX_BYTES
        + A.nnz * 2 * PTR_BYTES
    )
    count(
        f"{kernel}.symbolic",
        bytes_read=sym_read,
        bytes_written=len(plan.indices) * IDX_BYTES + (A.nrows + 1) * PTR_BYTES,
        branches=float(plan.expansion),
    )
    return plan


def spgemm_numeric(
    plan: SpGEMMPlan, A: CSRMatrix, B: CSRMatrix, *, kernel: str = "spgemm"
) -> CSRMatrix:
    """Numeric phase with a pre-populated pattern (no accumulator branches).

    This is the §3.1.1 experiment: repeated products with an unchanged
    pattern run ~2.1x faster because the hit/miss branch of the marker array
    disappears.  Raises ``ValueError`` when an operand's sparsity is not
    the one the plan was frozen for.
    """
    C = CSRMatrix(plan.shape, plan.indptr.copy(), plan.indices.copy(),
                  _plan_values(plan, A, B))
    count(f"{kernel}.numeric_only",
          **spgemm_traffic(A.nnz, A.nrows, plan.expansion, C.nnz, "numeric_only"))
    return C


def _union(A: CSRMatrix, B: CSRMatrix):
    """:func:`group_rowcol` of the stacked entries of two same-shape matrices."""
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")
    return group_rowcol(np.concatenate([A.row_ids(), B.row_ids()]),
                        np.concatenate([A.indices, B.indices]), *A.shape)


def sp_add(
    A: CSRMatrix, B: CSRMatrix, alpha: float = 1.0, beta: float = 1.0, *,
    kernel: str = "sp_add", return_plan: bool = False,
) -> CSRMatrix | tuple[CSRMatrix, SpAddPlan]:
    """``alpha*A + beta*B`` with union sparsity (explicit zeros kept).

    With ``return_plan`` the pair ``(C, plan)``, the :class:`SpAddPlan` read
    off the grouping the addition does anyway; same record as the plain call.
    """
    union = slot, indptr, indices = _union(A, B)
    evals = np.concatenate([alpha * A.data, beta * B.data])
    C = CSRMatrix(A.shape, indptr, indices,
                  np.bincount(slot, weights=evals, minlength=len(indices)))
    count(
        kernel,
        flops=2 * (A.nnz + B.nnz),
        bytes_read=_matrix_bytes(A) + _matrix_bytes(B),
        bytes_written=_matrix_bytes(C),
        branches=float(A.nnz + B.nnz),
    )
    return (C, SpAddPlan._freeze(A, B, union)) if return_plan else C


@dataclass(frozen=True)
class SpAddPlan:
    """Pattern-reuse plan for :func:`sp_add`: union pattern + scatter slots.

    ``slot_a[t]``/``slot_b[t]`` give the output position of the *t*-th
    stored entry of ``A``/``B``, so a numeric re-add is two branch-free
    scatter-accumulates.  Entries are summed A-before-B per output slot —
    the order of :func:`sp_add`'s ``bincount`` over the stacked entries —
    so :func:`sp_add_numeric` is bit-identical to a fresh :func:`sp_add`.
    Array ownership as in :class:`SpGEMMPlan`: the slots are the plan's own
    (read-only, 32-bit when they fit), the patterns are shared.
    """

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    slot_a: np.ndarray
    slot_b: np.ndarray
    a: tuple
    b: tuple

    @classmethod
    def capture(cls, A: CSRMatrix, B: CSRMatrix) -> "SpAddPlan":
        """Symbolic union of two patterns (uncounted capture helper)."""
        return cls._freeze(A, B, _union(A, B))

    @classmethod
    def _freeze(cls, A: CSRMatrix, B: CSRMatrix, union: tuple) -> "SpAddPlan":
        slot, indptr, indices = union
        slot = slot.astype(_index_dtype(len(slot)), copy=False)
        slot.setflags(write=False)
        return cls(A.shape, indptr, indices, slot[: A.nnz], slot[A.nnz:],
                   _pattern(A), _pattern(B))


def sp_add_numeric(
    plan: SpAddPlan, A: CSRMatrix, B: CSRMatrix,
    alpha: float = 1.0, beta: float = 1.0, *, kernel: str = "sp_add"
) -> CSRMatrix:
    """``alpha*A + beta*B`` through a pre-captured union pattern.

    Pattern reuse (§3.1.1 applied to the Galerkin additions): the output
    structure and both scatter maps are frozen, so the numeric pass is a
    pair of gathered accumulations with **no** merge branches.  Bit-identical
    to :func:`sp_add` on the same inputs (same per-slot summation order).
    Raises ``ValueError`` for operands of another shape or sparsity.
    """
    if A.shape != plan.shape or B.shape != plan.shape:
        raise ValueError(f"shape mismatch: {A.shape} / {B.shape} vs plan {plan.shape}")
    _check_pattern(A, plan.a)
    _check_pattern(B, plan.b)
    vals = np.zeros(len(plan.indices))
    # Unique slots per operand (each input is duplicate-free), summed
    # A-then-B exactly as the fresh kernel's bincount does.
    vals[plan.slot_a] += alpha * A.data
    vals[plan.slot_b] += beta * B.data
    C = CSRMatrix(plan.shape, plan.indptr.copy(), plan.indices.copy(), vals)
    mul_a = 2 if alpha != 1.0 else 1
    mul_b = 2 if beta != 1.0 else 1
    count(
        f"{kernel}.numeric_only",
        flops=mul_a * A.nnz + mul_b * B.nnz,
        bytes_read=(A.nnz + B.nnz) * (VAL_BYTES + IDX_BYTES),
        bytes_written=C.nnz * VAL_BYTES,
        branches=0.0,
    )
    return C

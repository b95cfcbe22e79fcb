"""The Galerkin triple product ``RAP`` and its optimization variants (§3.1.1).

Variants (all numerically equivalent; instrumentation differs):

* :func:`rap_unfused` — straightforward ``B = R A`` then ``C = B P``; the
  temporary ``B`` is streamed to memory and read back.
* :func:`rap_fused` — the paper's fusion (Fig. 1a): row ``B_i`` is consumed
  by the second product straight out of cache, so ``B`` never hits memory.
  Flops: ``2*N2 + 2*M2`` where ``N2`` is the number of ``(r_ij, a_jk)``
  product terms and ``M2`` the number of ``(b_ij, p_jk)`` terms.
* :func:`rap_hypre_fusion` — the baseline HYPRE fusion (Fig. 1b): the
  scalar ``temp = r_ij * a_jk`` is pushed through row ``P_k`` immediately,
  which avoids storing ``B`` entirely but redundantly re-multiplies ``P``
  rows: flops ``N2 + 2*N3`` with ``N3 >= M2`` (``N3`` counts *duplicated*
  ``(i, j, k)`` triples).  The paper measures ``(N2 + 2*N3)/(2*N2 + 2*M2)``
  ≈ 1.73 on its suite; :func:`fusion_flop_counts` reports both numbers.
* :func:`rap_cf_block` — with the CF permutation, ``P = [I; P_F]`` and
  ``RAP = A_CC + P_F^T A_FC + (A_CF + P_F^T A_FF) P_F``: the triple product
  shrinks to the ``A_FF`` block.

``rap_fused`` and ``rap_cf_block`` are the ``[0]`` of their ``_plan`` forms:
every product and addition hands out its reuse plan from the grouping it
does anyway, so there is no capture work to skip, and the ``_numeric`` forms
replay those plans on new values (§3.1.1 pattern reuse).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..perf.counters import IDX_BYTES, PTR_BYTES, VAL_BYTES, collect, count
from .csr import CSRMatrix
from .ops import segment_sum
from .reorder import extract_cf_blocks
from .spgemm import (
    SpAddPlan,
    SpGEMMPlan,
    _index_dtype,
    expansion_size,
    sp_add,
    sp_add_numeric,
    spgemm,
    spgemm_numeric,
)
from .transpose import transpose

__all__ = [
    "rap_unfused",
    "rap_fused",
    "rap_fused_plan",
    "rap_fused_numeric",
    "RAPFusedPlan",
    "rap_hypre_fusion",
    "rap_cf_block",
    "rap_cf_block_plan",
    "rap_cf_block_numeric",
    "RAPCFBlockPlan",
    "fusion_flop_counts",
]


def _check_dims(R: CSRMatrix, A: CSRMatrix, P: CSRMatrix) -> None:
    if R.ncols != A.nrows or A.ncols != P.nrows:
        raise ValueError(f"RAP dimension mismatch: {R.shape} {A.shape} {P.shape}")


def fusion_flop_counts(R: CSRMatrix, A: CSRMatrix, P: CSRMatrix) -> dict[str, float]:
    """Exact flop counts of the Fig. 1a and Fig. 1b fusion strategies.

    Returns ``{"fused_a": 2*N2 + 2*M2, "hypre_b": N2 + 2*N3, "ratio": b/a}``.
    """
    _check_dims(R, A, P)
    N2 = expansion_size(R, A)
    B = spgemm(R, A, kernel="rap.flop_probe")
    M2 = expansion_size(B, P)
    # N3 = sum over (i,j) in R, (j,k) in A of nnz(P_k)
    p_rownnz = P.row_nnz().astype(np.float64)
    w = segment_sum(p_rownnz[A.indices], A.row_ids(), A.nrows)
    N3 = float(np.sum(w[R.indices]))
    fused_a = 2.0 * N2 + 2.0 * M2
    hypre_b = float(N2) + 2.0 * N3
    return {
        "N2": float(N2),
        "M2": float(M2),
        "N3": N3,
        "fused_a": fused_a,
        "hypre_b": hypre_b,
        "ratio": hypre_b / fused_a if fused_a else 0.0,
    }


def rap_unfused(R: CSRMatrix, A: CSRMatrix, P: CSRMatrix, *, method: str = "one_pass") -> CSRMatrix:
    """``(R A) P`` with the temporary product streamed through memory."""
    _check_dims(R, A, P)
    B = spgemm(R, A, method=method, kernel="rap.RA")
    return spgemm(B, P, method=method, kernel="rap.BP")


def _matrix_bytes(M: CSRMatrix) -> float:
    return float(M.nnz * (VAL_BYTES + IDX_BYTES) + (M.nrows + 1) * PTR_BYTES)


def rap_fused(R: CSRMatrix, A: CSRMatrix, P: CSRMatrix) -> CSRMatrix:
    """Fig. 1a fusion: rows of ``B = R A`` consumed from cache.

    The numerical path is the same expansion/compression as the unfused
    product; the counted traffic omits the memory round-trip of ``B`` and
    adds the one-pass output copy (§3.1.1's pre-allocation scheme).
    """
    return rap_fused_plan(R, A, P)[0]


def _entry_id_matrix(M: CSRMatrix) -> CSRMatrix:
    """Same pattern as *M*, data = stored-entry indices (capture trick).

    Pushing entry ids through a pattern-only transformation (transpose,
    block extraction) yields the entry permutation of that transformation:
    the output's ``data`` array *is* the gather map.
    """
    return CSRMatrix(M.shape, M.indptr, M.indices,
                     np.arange(M.nnz, dtype=np.float64))


@dataclass
class RAPFusedPlan:
    """Reuse plan for :func:`rap_fused`: frozen ``R = P^T`` structure plus
    the two :class:`~repro.sparse.spgemm.SpGEMMPlan` term mappings.

    ``r_perm`` rebuilds the restriction values from fresh ``P`` values
    (``R.data = P.data[r_perm]``) without re-running the transpose.
    """

    r_shape: tuple[int, int]
    r_indptr: np.ndarray
    r_indices: np.ndarray
    r_perm: np.ndarray
    ra: SpGEMMPlan
    bp: SpGEMMPlan


def rap_fused_plan(
    R: CSRMatrix, A: CSRMatrix, P: CSRMatrix
) -> tuple[CSRMatrix, RAPFusedPlan]:
    """:func:`rap_fused` plus its :class:`RAPFusedPlan`.

    The plan is a by-product: each product hands out the term mapping of
    the grouping it does anyway, so there is no capture work, the records are
    the fresh kernel's and the coarse operator is the fresh kernel's.
    """
    _check_dims(R, A, P)
    B, ra = spgemm(R, A, kernel="rap.fused_internal", return_plan=True)
    C, bp = spgemm(B, P, kernel="rap.fused_internal", return_plan=True)
    N2, M2 = ra.expansion, bp.expansion
    # Discard the two internal records; emit the fused kernel's accounting.
    from ..perf.counters import active_log

    log = active_log()
    if log is not None:
        log.records = [r for r in log.records if r.kernel != "rap.fused_internal.one_pass"]
    bytes_read = (
        _matrix_bytes(R)
        + N2 * (VAL_BYTES + IDX_BYTES)  # gathered rows of A
        + R.nnz * 2 * PTR_BYTES
        + M2 * (VAL_BYTES + IDX_BYTES)  # gathered rows of P
        + B.nnz * 2 * PTR_BYTES
        + _matrix_bytes(C)  # one-pass chunk copy (read side)
    )
    bytes_written = 2 * _matrix_bytes(C)  # chunk write + contiguous copy
    count(
        "rap.fused",
        flops=2 * N2 + 2 * M2,
        bytes_read=bytes_read,
        bytes_written=bytes_written,
        branches=float(N2 + M2),
    )
    # R arrives transposed: recover its entry permutation (silently).
    with collect():
        rid = transpose(_entry_id_matrix(P))
    plan = RAPFusedPlan(
        r_shape=R.shape,
        r_indptr=R.indptr,
        r_indices=R.indices,
        r_perm=rid.data.astype(_index_dtype(P.nnz)),
        ra=ra,
        bp=bp,
    )
    return C, plan


def rap_fused_numeric(plan: RAPFusedPlan, A: CSRMatrix, P: CSRMatrix) -> CSRMatrix:
    """Numeric-only fused RAP through a captured plan (branch-free).

    Rebuilds ``R`` by gathering fresh ``P`` values through the frozen
    transpose permutation, then runs both products as pattern-reuse
    numeric passes.  Bit-identical to :func:`rap_fused` on the same
    values; the counted record keeps the fusion's traffic shape (``B``
    never round-trips through memory) but drops every symbolic byte and
    every sparse-accumulator branch.
    """
    R = CSRMatrix(plan.r_shape, plan.r_indptr, plan.r_indices,
                  P.data.take(plan.r_perm))
    with collect():
        B = spgemm_numeric(plan.ra, R, A)
        C = spgemm_numeric(plan.bp, B, P)
    N2, M2 = plan.ra.expansion, plan.bp.expansion
    bytes_read = (
        P.nnz * (VAL_BYTES + IDX_BYTES)  # transpose gather of P values
        + _matrix_bytes(R)
        + N2 * (VAL_BYTES + IDX_BYTES)  # gathered rows of A
        + R.nnz * 2 * PTR_BYTES
        + M2 * (VAL_BYTES + IDX_BYTES)  # gathered rows of P
        + B.nnz * 2 * PTR_BYTES
        + C.nnz * IDX_BYTES
    )
    count(
        "rap.fused.numeric_only",
        flops=2 * N2 + 2 * M2,
        bytes_read=bytes_read,
        bytes_written=(R.nnz + C.nnz) * VAL_BYTES,
        branches=0.0,
    )
    return C


def rap_hypre_fusion(
    R: CSRMatrix, A: CSRMatrix, P: CSRMatrix, *, two_pass: bool = True
) -> CSRMatrix:
    """Fig. 1b fusion (the baseline HYPRE scheme).

    Saves all storage for ``B`` but recomputes ``temp * P_k`` per duplicated
    ``(i, j, k)`` triple: ``N2 + 2*N3`` flops and ``N3`` accumulator
    branches.  ``two_pass`` adds the symbolic pass of the traditional
    size-discovery implementation.
    """
    _check_dims(R, A, P)
    N2 = expansion_size(R, A)
    B = spgemm(R, A, kernel="rap.hypre_internal")
    C = spgemm(B, P, kernel="rap.hypre_internal")
    from ..perf.counters import active_log

    log = active_log()
    if log is not None:
        log.records = [r for r in log.records if r.kernel != "rap.hypre_internal.one_pass"]
    p_rownnz = P.row_nnz().astype(np.float64)
    w = segment_sum(p_rownnz[A.indices], A.row_ids(), A.nrows)
    N3 = float(np.sum(w[R.indices]))
    read_inputs = (
        _matrix_bytes(R)
        + N2 * (VAL_BYTES + IDX_BYTES)
        + R.nnz * 2 * PTR_BYTES
        + N3 * (VAL_BYTES + IDX_BYTES)  # P rows re-read per duplicated triple
        + N2 * 2 * PTR_BYTES
    )
    bytes_read = read_inputs
    branches = N3
    if two_pass:
        # Symbolic pass re-reads the index structure.
        bytes_read += (
            R.nnz * IDX_BYTES
            + N2 * IDX_BYTES
            + N3 * IDX_BYTES
            + (R.nrows + 1) * PTR_BYTES
        )
        branches += N3
    count(
        "rap.hypre_fusion",
        flops=N2 + 2 * N3,
        bytes_read=bytes_read,
        bytes_written=_matrix_bytes(C),
        branches=branches,
    )
    return C


def rap_cf_block(
    A: CSRMatrix,
    P_F: CSRMatrix,
    cf_marker: np.ndarray,
    *,
    method: str = "one_pass",
    already_partitioned: bool = False,
) -> CSRMatrix:
    """CF-block Galerkin product: ``A_CC + P_F^T A_FC + (A_CF + P_F^T A_FF) P_F``.

    *A* is in its original ordering; *cf_marker* (>0 = C) selects the blocks.
    ``P_F`` is the fine-point block of the interpolation matrix: rows are F
    points (in compact F ordering), columns are coarse points.  Returns the
    coarse operator in coarse-point ordering.

    This is the §3.1.1 "Reordering of the Interpolation Matrix" optimization:
    only the ``(n_l - n_{l+1})^2`` block ``A_FF`` enters a triple product.
    """
    return rap_cf_block_plan(
        A, P_F, cf_marker, method=method, already_partitioned=already_partitioned
    )[0]


@dataclass
class RAPCFBlockPlan:
    """Reuse plan for :func:`rap_cf_block`.

    Freezes every symbolic artifact of the CF-block Galerkin product: the
    four block patterns with their entry gather maps into ``A.data``, the
    ``P_F^T`` structure with its transpose permutation, the three
    :class:`~repro.sparse.spgemm.SpGEMMPlan` term mappings, and the three
    :class:`~repro.sparse.spgemm.SpAddPlan` union patterns.
    """

    #: (shape, indptr, indices, entry map into A.data) per block
    blocks: dict[str, tuple[tuple[int, int], np.ndarray, np.ndarray, np.ndarray]]
    pft_shape: tuple[int, int]
    pft_indptr: np.ndarray
    pft_indices: np.ndarray
    pft_perm: np.ndarray
    p_fc: SpGEMMPlan
    p_ff: SpGEMMPlan
    p_inner: SpGEMMPlan
    a_inner: SpAddPlan
    a1: SpAddPlan
    a2: SpAddPlan
    a_nnz: int
    pf_nnz: int


_BLOCKS = ("cc", "cf", "fc", "ff")


def _frozen(ids: CSRMatrix, nnz: int) -> tuple:
    """``(shape, indptr, indices, entry map)`` of a transformed
    :func:`_entry_id_matrix` of a matrix with *nnz* entries (the map is
    32-bit when they fit)."""
    return ids.shape, ids.indptr, ids.indices, ids.data.astype(_index_dtype(nnz))


def _gathered(frozen: tuple, data: np.ndarray) -> CSRMatrix:
    """The matrix a :func:`_frozen` pattern holds for source values *data*."""
    shape, indptr, indices, emap = frozen
    return CSRMatrix(shape, indptr, indices, data.take(emap))


def rap_cf_block_plan(
    A: CSRMatrix,
    P_F: CSRMatrix,
    cf_marker: np.ndarray,
    *,
    method: str = "one_pass",
    already_partitioned: bool = False,
) -> tuple[CSRMatrix, RAPCFBlockPlan]:
    """:func:`rap_cf_block` plus its :class:`RAPCFBlockPlan`.

    There is no capture work: the block extraction and the transpose run
    once, over entry ids, and give the gather maps the values then follow
    (as they do in :func:`rap_cf_block_numeric`); every product and
    addition hands out the plan of the grouping it does anyway.  Records and
    coarse operator are the fresh kernel's.
    """
    blocks = {name: _frozen(ids, A.nnz) for name, ids in zip(_BLOCKS, extract_cf_blocks(
        _entry_id_matrix(A), cf_marker, already_partitioned=already_partitioned))}
    (nc, _), (nf, _) = blocks["cc"][0], blocks["ff"][0]
    if P_F.shape != (nf, nc):
        raise ValueError(
            f"P_F shape {P_F.shape} inconsistent with CF split "
            f"({nf} F pts, {nc} C pts)"
        )
    pft = _frozen(transpose(_entry_id_matrix(P_F), kernel="rap.pf_transpose"),
                  P_F.nnz)
    A_CC, A_CF, A_FC, A_FF = (_gathered(blocks[n], A.data) for n in _BLOCKS)
    PFt = _gathered(pft, P_F.data)
    t_fc, p_fc = spgemm(PFt, A_FC, method=method, kernel="rap.pft_afc", return_plan=True)
    t_aff, p_ff = spgemm(PFt, A_FF, method=method, kernel="rap.pft_aff", return_plan=True)
    inner, a_inner = sp_add(A_CF, t_aff, kernel="rap.add_inner", return_plan=True)
    t_ff, p_inner = spgemm(inner, P_F, method=method, kernel="rap.inner_pf", return_plan=True)
    s1, a1 = sp_add(A_CC, t_fc, kernel="rap.add1", return_plan=True)
    C, a2 = sp_add(s1, t_ff, kernel="rap.add2", return_plan=True)
    return C, RAPCFBlockPlan(
        blocks, *pft, p_fc=p_fc, p_ff=p_ff, p_inner=p_inner,
        a_inner=a_inner, a1=a1, a2=a2, a_nnz=A.nnz, pf_nnz=P_F.nnz,
    )


def rap_cf_block_numeric(
    plan: RAPCFBlockPlan, A: CSRMatrix, P_F: CSRMatrix
) -> CSRMatrix:
    """Numeric-only CF-block RAP through a captured plan (branch-free).

    The four blocks are value gathers through frozen entry maps, ``P_F^T``
    is a gather through the frozen transpose permutation, each product is
    a pattern-reuse :func:`~repro.sparse.spgemm.spgemm_numeric`, and each
    addition a :func:`~repro.sparse.spgemm.sp_add_numeric` — no symbolic
    pass and no data-dependent branch anywhere.  Bit-identical to
    :func:`rap_cf_block` on the same values.
    """
    if A.nnz != plan.a_nnz or P_F.nnz != plan.pf_nnz:
        raise ValueError("operator layout differs from the captured plan")
    A_CC, A_CF, A_FC, A_FF = (_gathered(plan.blocks[n], A.data) for n in _BLOCKS)
    PFt = _gathered((plan.pft_shape, plan.pft_indptr, plan.pft_indices,
                     plan.pft_perm), P_F.data)
    # One streaming sweep re-materializes block + transposed values.
    count(
        "rap.block_gather.numeric_only",
        bytes_read=(A.nnz + P_F.nnz) * (VAL_BYTES + IDX_BYTES),
        bytes_written=(A.nnz + P_F.nnz) * VAL_BYTES,
        branches=0.0,
    )
    t_fc = spgemm_numeric(plan.p_fc, PFt, A_FC, kernel="rap.pft_afc")
    t_aff = spgemm_numeric(plan.p_ff, PFt, A_FF, kernel="rap.pft_aff")
    inner = sp_add_numeric(plan.a_inner, A_CF, t_aff, kernel="rap.add_inner")
    t_ff = spgemm_numeric(plan.p_inner, inner, P_F, kernel="rap.inner_pf")
    s1 = sp_add_numeric(plan.a1, A_CC, t_fc, kernel="rap.add1")
    return sp_add_numeric(plan.a2, s1, t_ff, kernel="rap.add2")

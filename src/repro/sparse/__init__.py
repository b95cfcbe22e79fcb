"""From-scratch sparse-matrix substrate: CSR storage and the paper's kernels.

Everything AMG needs lives here — SpMV, SpGEMM (several instrumented
variants), transpose, CF reordering, the Galerkin triple product — built on
numpy arrays only.  scipy.sparse appears solely in test oracles.
"""

from .accumulator import SparseAccumulator, spgemm_gustavson
from .blas1 import axpy, dot, norm2, waxpby
from .csr import CSRMatrix
from .io import load_matrix_market, load_npz, save_matrix_market, save_npz
from .ops import (
    counts_from_indptr,
    gather_range_indices,
    indptr_from_counts,
    prefix_sum_partition,
    row_ids_from_indptr,
    segment_sum,
)
from .reorder import (
    cf_permutation,
    compose_cf_interpolation,
    extract_cf_blocks,
    partition_rows_by_category,
    permute_matrix,
    permute_rows,
)
from .spgemm import (
    SpAddPlan,
    SpGEMMPlan,
    expansion_size,
    sp_add,
    sp_add_numeric,
    spgemm,
    spgemm_numeric,
    spgemm_symbolic,
)
from .spmv import (
    residual,
    rhs_width,
    spmv,
    spmv_dot_fused,
    spmv_identity_block,
    spmv_identity_block_transposed,
    spmv_transposed,
)
from .transpose import balanced_nnz_partition, transpose
from .triple_product import (
    RAPCFBlockPlan,
    RAPFusedPlan,
    fusion_flop_counts,
    rap_cf_block,
    rap_cf_block_numeric,
    rap_cf_block_plan,
    rap_fused,
    rap_fused_numeric,
    rap_fused_plan,
    rap_hypre_fusion,
    rap_unfused,
)

#: Pinned by the perf harness's ``sparse.spmv_multi8_s`` rung.
spmv_multi = spmv

__all__ = [
    "CSRMatrix",
    "load_matrix_market",
    "load_npz",
    "save_matrix_market",
    "save_npz",
    "SparseAccumulator",
    "spgemm_gustavson",
    "axpy",
    "dot",
    "norm2",
    "waxpby",
    "counts_from_indptr",
    "gather_range_indices",
    "indptr_from_counts",
    "prefix_sum_partition",
    "row_ids_from_indptr",
    "segment_sum",
    "cf_permutation",
    "compose_cf_interpolation",
    "extract_cf_blocks",
    "partition_rows_by_category",
    "permute_matrix",
    "permute_rows",
    "SpGEMMPlan",
    "expansion_size",
    "sp_add",
    "SpAddPlan",
    "sp_add_numeric",
    "spgemm",
    "spgemm_numeric",
    "spgemm_symbolic",
    "residual",
    "rhs_width",
    "spmv",
    "spmv_dot_fused",
    "spmv_identity_block",
    "spmv_identity_block_transposed",
    "spmv_multi",
    "spmv_transposed",
    "balanced_nnz_partition",
    "transpose",
    "fusion_flop_counts",
    "RAPCFBlockPlan",
    "RAPFusedPlan",
    "rap_cf_block",
    "rap_cf_block_numeric",
    "rap_cf_block_plan",
    "rap_fused",
    "rap_fused_numeric",
    "rap_fused_plan",
    "rap_hypre_fusion",
    "rap_unfused",
]

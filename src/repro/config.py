"""Solver configuration: AMG parameters (Tables 3/4) and optimization flags.

:class:`OptimizationFlags` switches every individual optimization the paper
describes, so ``HYPRE_base`` / ``HYPRE_opt`` are just two presets of the
same library — mirroring how the paper's optimized code is a modified
HYPRE.  The AmgX comparison point is a third preset: the same classical-AMG
algorithms, smoothing with a massive hybrid-block count (GPU-style
parallel smoothing, which is what degrades its convergence §5.2), evaluated
under the K40c machine model.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = [
    "OptimizationFlags",
    "AMGConfig",
    "HYPRE_BASE_FLAGS",
    "HYPRE_OPT_FLAGS",
    "single_node_config",
    "multi_node_config",
    "amgx_config",
]


@dataclass(frozen=True)
class OptimizationFlags:
    """Per-optimization switches.  Defaults are the optimized settings."""

    #: §3.3 — strength creation / transpose / PMIS threaded (prefix-sum
    #: assembly, parallel counting sort).  Off = those kernels run serially.
    parallel_setup_kernels: bool = True
    #: §3.3 — MKL-style parallel random streams in PMIS.
    parallel_rng: bool = True
    #: §3.1.1 — one-pass SpGEMM with pre-allocated per-thread chunks
    #: (off = traditional symbolic+numeric two-pass).
    spgemm_one_pass: bool = True
    #: §3.1.1 — Galerkin product scheme: "cf_block" (reordered, Fig.1a fused
    #: kernels on the A_FF block), "fused" (Fig. 1a), "hypre" (Fig. 1b
    #: baseline), "unfused".
    rap_scheme: str = "cf_block"
    #: §3.1.2/§3.2 — CF permutation of level operators; implies the
    #: identity-block interpolation/restriction SpMVs.
    cf_reorder: bool = True
    #: §3.1.2/§3.2 — in-row 3-way partial sorts (removes classification
    #: branches in interpolation construction and hybrid GS).
    three_way_partition: bool = True
    #: §3.2 — keep R = P^T from setup instead of transposing per restriction.
    keep_transpose: bool = True
    #: §3.3 — fuse SpMV with the inner product of the residual norm.
    fuse_spmv_dot: bool = True
    #: §3.1.2 — truncate interpolation rows as they are built.
    fused_truncation: bool = True
    #: §3.1.1 — software prefetch + 8x unrolling; modeled as the irregular-
    #: access bandwidth efficiency the machine model grants gather kernels.
    software_prefetch: bool = True
    # ---- multi-node (§4) ----
    #: §4.4 — persistent communication requests for halo exchanges.
    persistent_comm: bool = True
    #: §4.2 — parallel column-index renumbering (thread-private hash tables
    #: + merge) vs the serial ordered-set baseline.
    parallel_renumber: bool = True
    #: §4.3 — filter interpolation-construction row transfers.
    filter_interp_comm: bool = True

    def __post_init__(self) -> None:
        # The CF-block Galerkin product takes P's F rows as the rows after
        # the C points: without the C-first ordering it builds a wrong
        # coarse operator.
        if self.rap_scheme == "cf_block" and not self.cf_reorder:
            raise ValueError(
                "rap_scheme='cf_block' needs cf_reorder=True; with "
                "cf_reorder=False use rap_scheme 'fused', 'hypre' or 'unfused'")


HYPRE_OPT_FLAGS = OptimizationFlags()
HYPRE_BASE_FLAGS = OptimizationFlags(
    parallel_setup_kernels=False,
    parallel_rng=False,
    spgemm_one_pass=False,
    rap_scheme="hypre",
    cf_reorder=False,
    three_way_partition=False,
    keep_transpose=False,
    fuse_spmv_dot=False,
    fused_truncation=False,
    software_prefetch=False,
    persistent_comm=False,
    parallel_renumber=False,
    filter_interp_comm=False,
)


@dataclass(frozen=True)
class AMGConfig:
    """Classical-AMG parameters (defaults = Table 3 single-node settings)."""

    strength_threshold: float = 0.25
    max_row_sum: float = 0.8
    #: "pmis" (the paper's choice) or "rs" (serial Ruge-Stueben, the
    #: classical comparator of §2).
    coarsening: str = "pmis"
    #: "extended+i", "classical", "direct", "2s-ei" or "multipass" (others
    #: raise ValueError); the distributed build runs "extended+i", "2s-ei"
    #: and "multipass".  Read only by :func:`repro.amg.interp.interp_scheme`.
    interp: str = "extended+i"
    #: "2s-ei"/"multipass" coarsen aggressively with their interpolation on
    #: the top ``aggressive_levels`` levels (Table 4 uses 1) and use
    #: extended+i below; the other families ignore it.
    aggressive_levels: int = 0
    trunc_fact: float = 0.1
    max_elmts: int = 4
    max_levels: int = 7
    #: Stop coarsening below this size.
    coarse_size: int = 64
    #: Use a dense direct solve on the coarsest level up to this size;
    #: fall back to smoothing sweeps above it.
    dense_coarse_threshold: int = 500
    #: "V" (Tables 3/4), "W", or "F".
    cycle_type: str = "V"
    #: "hybrid_gs", "lex", "multicolor", "jacobi", "l1_jacobi" or
    #: "chebyshev" (others raise ValueError); the distributed build runs
    #: the first four.  Read through
    #: :func:`repro.amg.smoothers.smoother_variant`.
    smoother: str = "hybrid_gs"
    #: Hybrid-GS block count = modeled thread count.
    nthreads: int = 14
    #: GPU-style smoothing: the hybrid-GS block count scales with the level
    #: size (one block per ~``gpu_rows_per_block`` rows) instead of being
    #: fixed — how a massively threaded GPU smoother behaves.  0 disables.
    gpu_rows_per_block: int = 0
    #: Galerkin-product sparsification (arXiv:1512.04629): on coarse levels
    #: drop offd entries with ``|a_ij| < sparsify_tol * max_k |a_ik|``,
    #: lumping the dropped mass into the diagonal.  0.0 disables.  Setup
    #: keeps the full operator, and the solve's guardrail reverts to it
    #: (``DistHierarchy.desparsify``) when convergence suffers.
    sparsify_tol: float = 0.0
    #: Iteration budget of a sparsified hierarchy: a solve still
    #: unconverged after this many iterations (or one that trips the
    #: residual guard) reverts to the unsparsified operators and continues.
    sparsify_fallback_iters: int = 25
    seed: int = 42
    flags: OptimizationFlags = field(default_factory=OptimizationFlags)

    def with_flags(self, flags: OptimizationFlags) -> "AMGConfig":
        return replace(self, flags=flags)


def single_node_config(
    optimized: bool = True, *, strength_threshold: float = 0.25, nthreads: int = 14
) -> AMGConfig:
    """Table 3: standalone AMG, V-cycle, max_levels=7, PMIS + ext+i(0.1, 4)."""
    return AMGConfig(
        strength_threshold=strength_threshold,
        max_row_sum=0.8,
        interp="extended+i",
        max_levels=7,
        nthreads=nthreads,
        flags=HYPRE_OPT_FLAGS if optimized else HYPRE_BASE_FLAGS,
    )


def multi_node_config(scheme: str = "ei", *, optimized: bool = True,
                      nthreads: int = 14) -> AMGConfig:
    """Table 4 presets: ``"ei"`` = ei(4), ``"2s-ei"`` = 2s-ei(444),
    ``"mp"`` = aggressive + multipass."""
    base = AMGConfig(
        strength_threshold=0.25,
        max_row_sum=0.8,
        max_levels=16,
        nthreads=nthreads,
        flags=HYPRE_OPT_FLAGS if optimized else HYPRE_BASE_FLAGS,
    )
    if scheme == "ei":
        return replace(base, interp="extended+i", aggressive_levels=0)
    if scheme == "2s-ei":
        return replace(base, interp="2s-ei", aggressive_levels=1)
    if scheme == "mp":
        return replace(base, interp="multipass", aggressive_levels=1)
    raise ValueError(f"unknown multi-node scheme {scheme!r}")


def amgx_config(rows_per_block: int = 16) -> AMGConfig:
    """AmgX comparison point: classical AMG, GS smoothing with GPU-scale
    hybrid-block parallelism — one block per ~``rows_per_block`` rows, the
    CTA-granularity smoothing that costs AmgX its convergence (§5.2) —
    evaluated under the K40c machine model."""
    return AMGConfig(
        interp="extended+i",
        max_levels=7,
        nthreads=2880,
        gpu_rows_per_block=rows_per_block,
        flags=HYPRE_OPT_FLAGS,
    )

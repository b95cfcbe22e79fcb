"""Integration tests: AMG hierarchy construction and the standalone solver."""

from dataclasses import replace

import numpy as np
import pytest

from repro.amg import AMGSolver, build_hierarchy, vcycle
from repro.config import (
    AMGConfig,
    HYPRE_BASE_FLAGS,
    HYPRE_OPT_FLAGS,
    multi_node_config,
    single_node_config,
)
from repro.perf import collect
from repro.problems import (
    generate,
    laplace_2d_5pt,
    laplace_3d_7pt,
    laplace_3d_27pt,
    reservoir_problem,
)
from repro.sparse.spmv import spmv


def solve(A, cfg, b=None, tol=1e-7):
    b = b if b is not None else np.random.default_rng(0).standard_normal(A.nrows)
    s = AMGSolver(cfg)
    s.setup(A)
    res = s.solve(b, tol=tol)
    return s, res, b


class TestHierarchy:
    def test_level_count_and_shrinkage(self):
        A = laplace_2d_5pt(32)
        h = build_hierarchy(A, single_node_config(nthreads=4))
        assert h.num_levels >= 3
        sizes = [l.A.nrows for l in h.levels]
        assert all(a > b for a, b in zip(sizes, sizes[1:]))

    def test_operator_complexity_range(self):
        A = laplace_2d_5pt(24)
        h = build_hierarchy(A, single_node_config(nthreads=4))
        assert 1.0 < h.operator_complexity() < 6.0
        assert 1.0 < h.grid_complexity() < 2.5

    def test_rejects_nonsquare(self):
        from repro.sparse import CSRMatrix

        with pytest.raises(ValueError):
            build_hierarchy(CSRMatrix.zeros((3, 4)))

    def test_coarse_levels_consistent_with_galerkin(self):
        """A_{l+1} must equal P^T A_l P for every level (any flag set)."""
        A = laplace_2d_5pt(16)
        for flags in (HYPRE_OPT_FLAGS, HYPRE_BASE_FLAGS):
            h = build_hierarchy(A, single_node_config(nthreads=2).with_flags(flags))
            for l in range(h.num_levels - 1):
                lvl = h.levels[l]
                # After setup, P's columns are expressed in the child
                # level's (possibly CF-permuted) ordering, so the stored
                # child operator equals P^T A P directly.
                ref = (
                    lvl.P.to_scipy().T @ lvl.A.to_scipy() @ lvl.P.to_scipy()
                ).toarray()
                np.testing.assert_allclose(
                    h.levels[l + 1].A.to_dense(), ref, atol=1e-10
                )

    @pytest.mark.parametrize("three_way", [True, False])
    @pytest.mark.parametrize("cf_reorder", [True, False])
    @pytest.mark.parametrize("rap_scheme",
                             ["cf_block", "fused", "hypre", "unfused"])
    def test_every_accepted_flag_combination_is_galerkin(
            self, rap_scheme, cf_reorder, three_way):
        """Each level's stored ``A`` is ``P^T A P`` (scipy) to 1e-12
        relative under every accepted ``rap_scheme`` x ``cf_reorder`` x
        ``three_way_partition``; the CF-block product without the C-first
        ordering is refused (it built a wrong operator)."""
        flags = dict(rap_scheme=rap_scheme, cf_reorder=cf_reorder,
                     three_way_partition=three_way)
        base = replace(single_node_config(True, nthreads=4), coarse_size=10)
        if rap_scheme == "cf_block" and not cf_reorder:
            with pytest.raises(ValueError, match="cf_block.*cf_reorder"):
                replace(base.flags, **flags)
            return
        h = build_hierarchy(laplace_3d_27pt(7),
                            base.with_flags(replace(base.flags, **flags)))
        assert len(h.levels) > 2
        for fine, coarse in zip(h.levels, h.levels[1:]):
            P = fine.P.to_scipy()
            ref = (P.T @ fine.A.to_scipy() @ P).toarray()
            err = np.abs(coarse.A.to_dense() - ref).max() / np.abs(ref).max()
            assert err <= 1e-12, err

    def test_cf_reorder_identity_block(self):
        A = laplace_2d_5pt(16)
        h = build_hierarchy(A, single_node_config(nthreads=2))
        lvl = h.levels[0]
        assert lvl.P_F is not None
        assert lvl.P_F.nrows == lvl.A.nrows - lvl.n_coarse

    def test_aggressive_reduces_complexity(self):
        A = laplace_3d_27pt(10)
        h_ei = build_hierarchy(A, multi_node_config("ei", nthreads=4))
        h_mp = build_hierarchy(A, multi_node_config("mp", nthreads=4))
        assert h_mp.operator_complexity() < h_ei.operator_complexity()


class TestSolver:
    @pytest.mark.parametrize(
        "gen,tol", [
            (lambda: laplace_2d_5pt(32), 1e-7),
            (lambda: laplace_3d_7pt(10), 1e-7),
            (lambda: laplace_3d_27pt(10), 1e-7),
        ],
    )
    def test_converges_to_true_solution(self, gen, tol):
        A = gen()
        s, res, b = solve(A, single_node_config(nthreads=4), tol=tol)
        assert res.converged
        err = np.linalg.norm(b - spmv(A, res.x)) / np.linalg.norm(b)
        assert err < 10 * tol

    def test_o1_iterations_across_sizes(self):
        """The headline AMG property: iterations stay ~constant as the
        problem grows (footnote 1 of the paper)."""
        iters = []
        for nx in (16, 32, 48):
            A = laplace_2d_5pt(nx)
            _, res, _ = solve(A, single_node_config(nthreads=4))
            iters.append(res.iterations)
        assert max(iters) <= min(iters) + 4

    def test_base_and_opt_same_iterations_serial_rng(self):
        """§5.2: with the baseline RNG the optimized code produces the
        identical iteration count and final residual."""
        from dataclasses import replace

        A = laplace_2d_5pt(24)
        b = np.random.default_rng(3).standard_normal(A.nrows)
        base = single_node_config(optimized=False, nthreads=1)
        opt_flags = replace(HYPRE_OPT_FLAGS, parallel_rng=False)
        opt = single_node_config(optimized=True, nthreads=1).with_flags(opt_flags)
        _, res_b, _ = solve(A, base, b)
        _, res_o, _ = solve(A, opt, b)
        assert res_b.iterations == res_o.iterations
        assert res_b.residuals[-1] == pytest.approx(res_o.residuals[-1], rel=1e-8)

    def test_parallel_rng_changes_iterations_slightly(self):
        A = laplace_3d_7pt(9)
        _, res_p, _ = solve(A, single_node_config(optimized=True, nthreads=8))
        _, res_s, _ = solve(A, single_node_config(optimized=False, nthreads=8))
        assert abs(res_p.iterations - res_s.iterations) <= 4

    def test_solution_matches_direct(self):
        A = laplace_2d_5pt(16)
        b = np.random.default_rng(1).standard_normal(A.nrows)
        _, res, _ = solve(A, single_node_config(nthreads=4), b, tol=1e-10)
        x_direct = np.linalg.solve(A.to_dense(), b)
        np.testing.assert_allclose(res.x, x_direct, atol=1e-6)

    def test_precondition_interface(self):
        A = laplace_2d_5pt(16)
        s = AMGSolver(single_node_config(nthreads=4))
        s.setup(A)
        r = np.random.default_rng(2).standard_normal(A.nrows)
        z = s.precondition(r)
        # One V-cycle must reduce the error of the associated system.
        assert np.linalg.norm(r - spmv(A, z)) < np.linalg.norm(r)

    def test_zero_rhs(self):
        A = laplace_2d_5pt(10)
        s = AMGSolver(single_node_config(nthreads=2))
        s.setup(A)
        res = s.solve(np.zeros(A.nrows))
        assert res.converged and res.iterations == 0

    def test_solve_requires_setup(self):
        s = AMGSolver()
        with pytest.raises(RuntimeError):
            s.solve(np.ones(4))

    def test_reservoir_with_contrast(self):
        A, b, kappa = reservoir_problem(12, 12, 6, seed=1)
        assert kappa.max() / kappa.min() > 1e4
        s, res, _ = solve(A, single_node_config(nthreads=4), b, tol=1e-5)
        assert res.converged

    @pytest.mark.parametrize("scheme", ["ei", "2s-ei", "mp"])
    def test_multi_node_schemes_converge(self, scheme):
        A = laplace_3d_27pt(9)
        s, res, b = solve(A, multi_node_config(scheme, nthreads=4))
        assert res.converged
        if scheme != "ei":
            assert s.operator_complexity < 1.6  # aggressive coarsening

    def test_smoother_variants_converge(self):
        A = laplace_2d_5pt(20)
        from dataclasses import replace

        for sm in ("hybrid_gs", "lex", "multicolor", "jacobi"):
            cfg = replace(single_node_config(nthreads=4), smoother=sm)
            _, res, _ = solve(A, cfg)
            assert res.converged, sm


class TestPhaseAttribution:
    def test_setup_and_solve_phases_present(self):
        A = laplace_2d_5pt(20)
        with collect() as log:
            s = AMGSolver(single_node_config(nthreads=4))
            s.setup(A)
            s.solve(np.ones(A.nrows))
        phases = {r.phase for r in log.records}
        for ph in ("Strength+Coarsen", "Interp", "RAP", "Setup_etc", "GS",
                   "SpMV", "BLAS1"):
            assert ph in phases, ph

    def test_base_pays_transpose_in_solve(self):
        A = laplace_2d_5pt(20)
        b = np.ones(A.nrows)

        def spmv_phase_bytes(cfg):
            with collect() as log:
                s = AMGSolver(cfg)
                s.setup(A)
                s.solve(b, maxiter=10, tol=1e-12)
            return log.phase_total("SpMV", "bytes_read")

        base = spmv_phase_bytes(single_node_config(optimized=False, nthreads=4))
        opt = spmv_phase_bytes(single_node_config(optimized=True, nthreads=4))
        assert base > 1.1 * opt

    def test_only_base_transposes_in_solve(self):
        A = laplace_2d_5pt(20)
        b = np.ones(A.nrows)
        for optimized, expect in ((False, True), (True, False)):
            with collect() as log:
                s = AMGSolver(single_node_config(optimized=optimized, nthreads=4))
                s.setup(A)
                s.solve(b, maxiter=5, tol=1e-12)
            has_t = any(r.kernel == "transpose.per_restriction" for r in log.records)
            assert has_t == expect

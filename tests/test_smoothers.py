"""Unit tests for the smoothers (§3.2, Fig. 2)."""

from dataclasses import replace

import numpy as np
import pytest
from conftest import convection_diffusion

import repro
from repro import dist

from repro.amg import (
    HybridGSSmoother,
    block_of_rows,
    build_gs_schedule,
    greedy_coloring,
    gs_sweep,
    gs_sweep_reference,
    jacobi_sweep,
    multicolor_gs_sweep,
    pmis,
    strength_matrix,
)
from repro.perf import collect
from repro.problems import laplace_2d_5pt, laplace_3d_7pt
from repro.sparse import CSRMatrix
from repro.sparse.spmv import spmv


class TestScheduleCorrectness:
    @pytest.mark.parametrize("nblocks", [1, 2, 5, 16])
    @pytest.mark.parametrize("forward", [True, False])
    def test_matches_sequential_reference(self, nblocks, forward, rng):
        A = laplace_2d_5pt(9)
        b = rng.standard_normal(A.nrows)
        blk = block_of_rows(A.nrows, nblocks, A)
        x1 = rng.standard_normal(A.nrows)
        x2 = x1.copy()
        sched = build_gs_schedule(A, blk, forward=forward)
        gs_sweep(A, x1, b, sched)
        gs_sweep_reference(A, x2, b, blk, forward=forward)
        np.testing.assert_allclose(x1, x2, atol=1e-12)

    def test_subset_sweep(self, rng):
        A = laplace_2d_5pt(8)
        cf = np.where(rng.random(A.nrows) < 0.4, 1, -1)
        rows = np.flatnonzero(cf > 0)
        blk = block_of_rows(A.nrows, 3, A, rows)
        b = rng.standard_normal(A.nrows)
        x1 = rng.standard_normal(A.nrows)
        x2 = x1.copy()
        gs_sweep(A, x1, b, build_gs_schedule(A, blk, forward=True))
        gs_sweep_reference(A, x2, b, blk, forward=True)
        np.testing.assert_allclose(x1, x2, atol=1e-12)

    @pytest.mark.parametrize("nblocks", [1, 3, 16])
    @pytest.mark.parametrize("forward", [True, False])
    @pytest.mark.parametrize("problem", ["convection", "random"])
    def test_nonsymmetric_matches_sequential_reference(self, nblocks, forward,
                                                       problem, rng):
        """Couplings stored in one triangle only order their rows too."""
        if problem == "convection":
            A = convection_diffusion(9)
        else:
            dense = (rng.random((40, 40)) < 0.15) * rng.standard_normal((40, 40))
            np.fill_diagonal(dense, 8.0)
            A = CSRMatrix.from_dense(dense)
            assert (A.to_dense() != 0).tolist() != (A.to_dense().T != 0).tolist()
        cf = np.where(rng.random(A.nrows) < 0.4, 1, -1)
        for rows in (None, np.flatnonzero(cf > 0)):
            blk = block_of_rows(A.nrows, nblocks, A, rows)
            b = rng.standard_normal(A.nrows)
            x1 = rng.standard_normal(A.nrows)
            x2 = x1.copy()
            gs_sweep(A, x1, b, build_gs_schedule(A, blk, forward=forward))
            gs_sweep_reference(A, x2, b, blk, forward=forward)
            np.testing.assert_allclose(x1, x2, rtol=1e-13, atol=1e-13)

    def test_wavefront_count_one_block_2d(self):
        """Lexicographic wavefronts of the 2-D 5-point grid: one level per
        anti-diagonal, 2*nx - 1 levels."""
        nx = 7
        A = laplace_2d_5pt(nx)
        sched = build_gs_schedule(A, block_of_rows(A.nrows, 1, A))
        assert sched.nlevels == 2 * nx - 1

    def test_more_blocks_fewer_levels(self):
        A = laplace_2d_5pt(12)
        l1 = build_gs_schedule(A, block_of_rows(A.nrows, 1, A)).nlevels
        l8 = build_gs_schedule(A, block_of_rows(A.nrows, 8, A)).nlevels
        assert l8 < l1

    def test_empty_selection(self):
        A = laplace_2d_5pt(4)
        sched = build_gs_schedule(A, np.full(A.nrows, -1, dtype=np.int64))
        assert sched.nrows == 0
        x = np.ones(A.nrows)
        gs_sweep(A, x, np.ones(A.nrows), sched)
        np.testing.assert_allclose(x, 1.0)


class TestSweeps:
    def test_zero_guess_numerics_identical(self, rng):
        A = laplace_2d_5pt(8)
        b = rng.standard_normal(A.nrows)
        blk = block_of_rows(A.nrows, 4, A)
        sched = build_gs_schedule(A, blk)
        x1 = np.zeros(A.nrows)
        x2 = np.zeros(A.nrows)
        gs_sweep(A, x1, b, sched, zero_guess=True)
        gs_sweep(A, x2, b, sched, zero_guess=False)
        np.testing.assert_allclose(x1, x2)

    def test_zero_guess_counts_less(self, rng):
        A = laplace_2d_5pt(8)
        b = rng.standard_normal(A.nrows)
        sched = build_gs_schedule(A, block_of_rows(A.nrows, 4, A))
        with collect() as lz:
            gs_sweep(A, np.zeros(A.nrows), b, sched, zero_guess=True)
        with collect() as ln:
            gs_sweep(A, np.zeros(A.nrows), b, sched, zero_guess=False)
        assert lz.total("bytes_total") < ln.total("bytes_total")

    def test_baseline_counts_branches(self, rng):
        A = laplace_2d_5pt(8)
        b = rng.standard_normal(A.nrows)
        sched = build_gs_schedule(A, block_of_rows(A.nrows, 4, A))
        with collect() as opt:
            gs_sweep(A, np.zeros(A.nrows), b, sched, optimized=True)
        with collect() as base:
            gs_sweep(A, np.zeros(A.nrows), b, sched, optimized=False)
        assert opt.total("branches") == 0
        assert base.total("branches") > 0

    def test_jacobi_reduces_residual(self, rng):
        A = laplace_2d_5pt(10)
        b = rng.standard_normal(A.nrows)
        x = np.zeros(A.nrows)
        d = A.diagonal()
        r0 = np.linalg.norm(b)
        for _ in range(30):
            x = jacobi_sweep(A, x, b, d, weight=0.8)
        assert np.linalg.norm(b - spmv(A, x)) < 0.7 * r0


class TestColoring:
    def test_proper_coloring(self):
        A = laplace_3d_7pt(5)
        color = greedy_coloring(A)
        rid = A.row_ids()
        off = A.indices != rid
        assert not np.any(color[rid[off]] == color[A.indices[off]])

    def test_few_colors_on_grid(self):
        A = laplace_2d_5pt(10)
        assert greedy_coloring(A).max() + 1 <= 6  # 2 would be optimal

    def test_multicolor_sweep_converges(self, rng):
        A = laplace_2d_5pt(10)
        b = rng.standard_normal(A.nrows)
        color = greedy_coloring(A)
        d = A.diagonal()
        x = np.zeros(A.nrows)
        for _ in range(30):
            multicolor_gs_sweep(A, x, b, color, d)
        assert np.linalg.norm(b - spmv(A, x)) < 0.2 * np.linalg.norm(b)


class TestSmootherObject:
    @pytest.mark.parametrize("variant", ["hybrid", "lex", "multicolor", "jacobi"])
    def test_symmetric_sweeps_converge(self, variant, rng):
        A = laplace_2d_5pt(10)
        cf = pmis(strength_matrix(A, 0.25), seed=0)
        sm = HybridGSSmoother(A, nthreads=4,
                              cf_marker=cf if variant in ("hybrid", "lex") else None,
                              variant=variant)
        b = rng.standard_normal(A.nrows)
        x = np.zeros(A.nrows)
        for _ in range(40):
            sm.presmooth(x, b)
            sm.postsmooth(x, b)
        assert np.linalg.norm(b - spmv(A, x)) < 0.3 * np.linalg.norm(b)

    def test_lex_converges_faster_than_many_blocks(self, rng):
        """§5.2: lexicographic GS converges faster than hybrid GS with high
        block counts (the AmgX effect)."""
        A = laplace_3d_7pt(8)
        b = rng.standard_normal(A.nrows)

        def resid_after(variant, nthreads, sweeps=10):
            sm = HybridGSSmoother(A, nthreads=nthreads, variant=variant)
            x = np.zeros(A.nrows)
            for _ in range(sweeps):
                sm.presmooth(x, b)
                sm.postsmooth(x, b)
            return np.linalg.norm(b - spmv(A, x))

        assert resid_after("lex", 1) < resid_after("hybrid", 128)

    def test_cf_ordering_groups(self):
        A = laplace_2d_5pt(8)
        cf = pmis(strength_matrix(A, 0.25), seed=0)
        sm = HybridGSSmoother(A, nthreads=2, cf_marker=cf)
        assert len(sm.groups) == 2
        np.testing.assert_array_equal(sm.groups[0], np.flatnonzero(cf > 0))


class TestNonsymmetricOperator:
    """A structurally nonsymmetric operator — the case FGMRES is for —
    converges through the facade and the distributed solver."""

    def test_facade_fgmres(self):
        A = convection_diffusion(40)
        res = repro.solve(A, np.ones(A.nrows), method="fgmres", tol=1e-8)
        assert res.converged
        assert np.linalg.norm(np.ones(A.nrows) - spmv(A, res.x)) < 1e-6 * np.sqrt(A.nrows)

    def test_distributed_fgmres(self):
        from repro.bench.runner import run_distributed

        run = run_distributed(convection_diffusion(48), repro.multi_node_config("ei"),
                              2, label="convection")
        assert run.converged


@pytest.mark.parametrize("where, name", [
    ("facade", "bogus"),
    ("distributed", "bogus"),
    ("distributed", "l1_jacobi"),
    ("distributed", "chebyshev"),
    ("constructor", "bogus"),
])
def test_unknown_smoother_names_raise_value_error(where, name):
    A = laplace_2d_5pt(12)
    if where == "constructor":
        with pytest.raises(ValueError, match="known: 'hybrid', 'lex'"):
            HybridGSSmoother(A, variant=name)
        return
    if where == "facade":
        with pytest.raises(ValueError, match="known: 'hybrid_gs', 'lex'.*'chebyshev'"):
            repro.solve(A, np.ones(A.nrows),
                        config=replace(repro.single_node_config(), smoother=name))
        return
    part = dist.RowPartition.uniform(A.nrows, 2)
    config = replace(repro.multi_node_config("ei"), smoother=name)
    with pytest.raises(ValueError, match="known: 'hybrid_gs', 'lex', 'multicolor', 'jacobi'$"):
        dist.dist_build_hierarchy(dist.SimComm(2), dist.ParCSRMatrix.from_global(A, part),
                                  config)

"""Failure injection / degenerate inputs through the full stack.

A production solver must not crash on weird-but-legal operators: diagonal
matrices, disconnected domains, dense rows, near-singular systems, tiny
problems below the coarsening threshold.
"""

import numpy as np
import pytest

from repro import AMGSolver, fgmres, single_node_config
from repro.amg import build_hierarchy, pmis, strength_matrix
from repro.problems import laplace_2d_5pt
from repro.sparse import CSRMatrix
from repro.sparse.spmv import spmv

from conftest import random_csr


def solve_ok(A, tol=1e-8, maxiter=200):
    b = np.random.default_rng(0).standard_normal(A.nrows)
    s = AMGSolver(single_node_config(nthreads=2))
    s.setup(A)
    res = s.solve(b, tol=tol, maxiter=maxiter)
    err = np.linalg.norm(b - spmv(A, res.x)) / np.linalg.norm(b)
    return res, err


class TestDegenerateOperators:
    def test_diagonal_matrix(self):
        A = CSRMatrix.from_dense(np.diag(np.arange(1.0, 41.0)))
        res, err = solve_ok(A)
        assert res.converged and err < 1e-7

    def test_tiny_matrix_below_coarse_size(self):
        A = CSRMatrix.from_dense(np.diag([2.0, 3.0, 4.0]) - 0.1)
        res, err = solve_ok(A)
        assert res.converged

    def test_disconnected_domains(self):
        """Two independent grids in one matrix."""
        L = laplace_2d_5pt(8)
        n = L.nrows
        dense = np.zeros((2 * n, 2 * n))
        dense[:n, :n] = L.to_dense()
        dense[n:, n:] = L.to_dense() * 2.0
        A = CSRMatrix.from_dense(dense)
        res, err = solve_ok(A)
        assert res.converged and err < 1e-7

    def test_matrix_with_dense_row(self):
        L = laplace_2d_5pt(8).to_dense()
        L[0, :] = -0.01
        L[:, 0] = -0.01
        L[0, 0] = 1.0 + 0.01 * len(L)
        np.fill_diagonal(L, np.abs(L).sum(axis=1) + 1.0)
        A = CSRMatrix.from_dense(L)
        res, err = solve_ok(A)
        assert res.converged

    def test_wide_value_range(self):
        """Coefficients spanning 12 orders of magnitude."""
        rng = np.random.default_rng(1)
        scale = 10.0 ** rng.uniform(-6, 6, 64)
        L = laplace_2d_5pt(8).to_dense()
        D = np.diag(np.sqrt(scale))
        A = CSRMatrix.from_dense(D @ L @ D)
        res, err = solve_ok(A, tol=1e-6)
        assert res.converged

    def test_near_singular_regularized(self):
        """Neumann-like operator with a tiny shift still converges under
        FGMRES+AMG."""
        L = laplace_2d_5pt(10).to_dense()
        # Make rows sum to zero (pure Neumann), then shift slightly.
        np.fill_diagonal(L, 0.0)
        np.fill_diagonal(L, -L.sum(axis=1) + 1e-6)
        A = CSRMatrix.from_dense(L)
        b = np.random.default_rng(0).standard_normal(A.nrows)
        b -= b.mean()
        s = AMGSolver(single_node_config(nthreads=2))
        s.setup(A)
        res = fgmres(A, b, precondition=s.precondition, tol=1e-6, maxiter=300)
        assert res.converged

    def test_single_row(self):
        A = CSRMatrix.from_dense(np.array([[5.0]]))
        res, err = solve_ok(A)
        assert res.converged and err < 1e-12

    def test_already_coarse_hierarchy_is_single_level(self):
        A = CSRMatrix.from_dense(np.diag(np.ones(10)) * 3)
        h = build_hierarchy(A, single_node_config(nthreads=2))
        assert h.num_levels == 1


class TestStrengthAndCoarseningEdgeCases:
    def test_strength_of_diagonal_matrix_is_empty(self):
        A = CSRMatrix.from_dense(np.diag([1.0, 2.0, 3.0]))
        S = strength_matrix(A, 0.25)
        assert S.nnz == 0

    def test_pmis_on_empty_strength(self):
        from repro.amg import F_PT

        S = CSRMatrix.zeros((5, 5))
        cf = pmis(S, seed=0)
        assert np.all(cf == F_PT)

    def test_hierarchy_stops_when_all_fine(self):
        # Diagonal-dominant => everything weak => no C points => 1 level.
        A = CSRMatrix.from_dense(np.eye(80) * 10 + np.eye(80, k=1) * 1e-6)
        h = build_hierarchy(A, single_node_config(nthreads=2))
        assert h.num_levels == 1

    def test_interp_empty_coarse_grid(self):
        from repro.amg import extended_i_interpolation

        A = CSRMatrix.from_dense(np.eye(4) * 2)
        S = strength_matrix(A, 0.25)
        cf = np.full(4, -1)
        P = extended_i_interpolation(A, S, cf, truncate=False)
        assert P.shape == (4, 0)


class TestSolverRobustness:
    def test_max_iter_respected(self):
        A = laplace_2d_5pt(16)
        s = AMGSolver(single_node_config(nthreads=2))
        s.setup(A)
        res = s.solve(np.ones(A.nrows), tol=1e-30, maxiter=3)
        assert not res.converged
        assert res.iterations == 3

    def test_x0_used(self):
        A = laplace_2d_5pt(12)
        b = np.ones(A.nrows)
        s = AMGSolver(single_node_config(nthreads=2))
        s.setup(A)
        exact = s.solve(b, tol=1e-12).x
        res = s.solve(b, tol=1e-8, x0=exact)
        assert res.iterations <= 1

    def test_solve_twice_same_result(self):
        A = laplace_2d_5pt(12)
        b = np.ones(A.nrows)
        s = AMGSolver(single_node_config(nthreads=2))
        s.setup(A)
        x1 = s.solve(b, tol=1e-9).x
        x2 = s.solve(b, tol=1e-9).x
        np.testing.assert_array_equal(x1, x2)

    def test_nonfinite_rhs_raises_or_flags(self):
        A = laplace_2d_5pt(8)
        s = AMGSolver(single_node_config(nthreads=2))
        s.setup(A)
        res = s.solve(np.full(A.nrows, np.nan), maxiter=2)
        # Must terminate (not hang/crash); convergence is impossible.
        assert not res.converged or np.isnan(res.residuals[-1])
        assert res.degraded
        assert any(e.kind == "nonfinite" for e in res.fault_events)


class TestOperandShapes:
    """``solve`` / ``solve_many`` check their operands against the level-0
    operator before the CF permutation ``v[new2old]``, which would cut
    longer input down to *n* rows without a word."""

    @pytest.fixture(scope="class")
    def solver(self):
        from repro.serve.workload import PROBLEM_BUILDERS

        s = AMGSolver(single_node_config())
        s.setup(PROBLEM_BUILDERS["lap3d27g"](8))
        assert s.hierarchy.levels[0].new2old is not None
        return s

    def test_overlong_rhs_raises(self, solver):
        with pytest.raises(ValueError, match=r"shape \(512,\)"):
            solver.solve(np.ones(515))

    def test_overlong_x0_raises(self, solver):
        with pytest.raises(ValueError, match="x0"):
            solver.solve(np.ones(512), x0=np.zeros(519))

    def test_overlong_block_x0_raises(self, solver):
        with pytest.raises(ValueError, match="x0"):
            solver.solve_many(np.ones((512, 2)), x0=np.zeros((519, 2)))


class TestFacadeValidation:
    """repro.api rejects garbage inputs with precise ValueErrors."""

    def test_nan_in_matrix_rejected(self):
        import repro

        A = laplace_2d_5pt(6)
        A.data[0] = np.nan  # poison one stored entry
        with pytest.raises(ValueError, match="non-finite"):
            repro.setup(A, cache=None)

    def test_empty_matrix_rejected(self):
        import repro

        with pytest.raises(ValueError, match="empty"):
            repro.setup(np.zeros((0, 0)), cache=None)

    def test_non_square_matrix_rejected(self):
        import repro

        with pytest.raises(ValueError, match="square"):
            repro.setup(np.ones((4, 3)), cache=None)

    def test_nan_rhs_rejected(self):
        import repro

        A = laplace_2d_5pt(6)
        b = np.ones(A.nrows)
        b[0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            repro.solve(A, b)

    def test_rhs_length_mismatch(self):
        import repro

        A = laplace_2d_5pt(6)
        with pytest.raises(ValueError, match="length"):
            repro.solve(A, np.ones(A.nrows + 1))

    def test_block_shape_mismatch(self):
        import repro

        A = laplace_2d_5pt(6)
        with pytest.raises(ValueError, match="rows"):
            repro.solve_many(A, np.ones((A.nrows + 2, 2)))


class TestResidualGuard:
    def test_clean_history_passes(self):
        from repro.faults import ResidualGuard

        g = ResidualGuard(1.0)
        assert all(g.check(1.0 * 0.5 ** i) is None for i in range(1, 20))

    def test_nonfinite_detected(self):
        from repro.faults import ResidualGuard

        g = ResidualGuard(1.0)
        assert g.check(np.nan) == "nonfinite"
        assert ResidualGuard(1.0).check(np.inf) == "nonfinite"

    def test_divergence_detected(self):
        from repro.faults import ResidualGuard

        g = ResidualGuard(1.0)
        assert g.check(2.0) is None
        assert g.check(1e9) == "diverged"

    def test_stagnation_detected_only_when_enabled(self):
        from repro.faults import GuardLimits, ResidualGuard

        limits = GuardLimits(stagnation_window=5)
        g = ResidualGuard(1.0, limits=limits)
        verdicts = [g.check(1.0) for _ in range(10)]
        assert "stagnated" in verdicts
        g2 = ResidualGuard(1.0, limits=limits, stagnation=False)
        assert all(g2.check(1.0) is None for _ in range(10))


class TestDegradationLadder:
    def test_fallback_recovers_from_broken_primary(self):
        import repro
        from repro.faults import FaultEvent
        from repro.results import SolveResult

        A = laplace_2d_5pt(10)
        b = np.ones(A.nrows)
        handle = repro.setup(A, cache=None)
        primary = SolveResult(np.zeros(A.nrows), 5, [1.0], False,
                              degraded=True,
                              degraded_reason="diverged at cycle 5",
                              fault_events=[FaultEvent("diverged")])
        rec = handle._fallback(b, primary, tol=1e-8, maxiter=None)
        assert rec.converged and rec.degraded
        assert "recovered by diagonal-CG fallback" in rec.degraded_reason
        kinds = [e.kind for e in rec.fault_events]
        assert kinds[:2] == ["diverged", "degraded_fallback"]
        err = np.linalg.norm(b - spmv(A, rec.x)) / np.linalg.norm(b)
        assert err < 1e-6

    def test_both_rungs_break_stays_degraded(self):
        import repro
        from repro.sparse import CSRMatrix as CSR

        # Indefinite: AMG-preconditioned CG and diagonal CG both break down.
        A = CSR.from_dense(np.diag([1.0, -2.0, 3.0, -4.0]))
        b = np.array([0.0, 1.0, 0.0, 0.0])
        res = repro.solve(A, b, method="cg")
        assert not res.converged and res.degraded
        kinds = [e.kind for e in res.fault_events]
        assert "degraded_fallback" in kinds
        assert kinds.count("breakdown") == 2

    def test_fallback_off_returns_raw_result(self):
        import repro
        from repro.sparse import CSRMatrix as CSR

        A = CSR.from_dense(np.diag([1.0, -2.0, 3.0, -4.0]))
        b = np.array([0.0, 1.0, 0.0, 0.0])
        res = repro.setup(A, cache=None).solve(b, method="cg", fallback=False)
        assert res.degraded
        assert all(e.kind != "degraded_fallback" for e in res.fault_events)


class TestHierarchyCacheBound:
    def test_max_entries_enforced_and_counted(self):
        from repro.amg.cache import HierarchyCache

        cache = HierarchyCache(max_entries=2)
        cfg = single_node_config(nthreads=2)
        mats = [laplace_2d_5pt(sz) for sz in (6, 7, 8)]
        for A in mats:
            cache.get_or_build(A, cfg)
        assert len(cache) == 2
        assert cache.evictions == 1
        # The oldest entry (size 6) was evicted; rebuilding it misses.
        assert cache.get(mats[0], cfg) is None
        assert cache.get(mats[2], cfg) is not None

    def test_eviction_logged(self, caplog):
        import logging

        from repro.amg.cache import HierarchyCache

        cache = HierarchyCache(max_entries=1)
        cfg = single_node_config(nthreads=2)
        with caplog.at_level(logging.INFO, logger="repro.amg.cache"):
            cache.get_or_build(laplace_2d_5pt(6), cfg)
            cache.get_or_build(laplace_2d_5pt(7), cfg)
        assert any("evicted hierarchy" in r.message for r in caplog.records)

    def test_max_entries_is_the_one_spelling(self):
        from repro.amg.cache import HierarchyCache

        assert HierarchyCache(3).max_entries == 3
        with pytest.raises(ValueError):
            HierarchyCache(max_entries=0)
        with pytest.raises(TypeError):
            HierarchyCache(maxsize=3)

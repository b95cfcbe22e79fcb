"""Tests for the extension features: W/F cycles, RS coarsening, classical
interpolation, l1-Jacobi / Chebyshev smoothers, BiCGStab, CLI."""

from dataclasses import replace

import numpy as np
import pytest

from repro import AMGSolver, single_node_config
from repro.amg import (
    C_PT,
    F_PT,
    build_hierarchy,
    chebyshev_sweep,
    classical_interpolation,
    cycle,
    estimate_lambda_max,
    fcycle,
    l1_diagonal,
    l1_jacobi_sweep,
    pmis,
    rs_coarsening,
    strength_matrix,
    vcycle,
    wcycle,
)
from repro.krylov import bicgstab
from repro.problems import laplace_2d_5pt, laplace_3d_7pt
from repro.sparse import CSRMatrix, transpose
from repro.sparse.spmv import spmv

from conftest import random_csr


class TestCycles:
    @pytest.fixture
    def hierarchy(self):
        return build_hierarchy(laplace_2d_5pt(24), single_node_config(nthreads=4))

    @pytest.mark.parametrize("fn", [vcycle, wcycle, fcycle])
    def test_cycle_reduces_residual(self, fn, hierarchy, rng):
        b = rng.standard_normal(hierarchy.levels[0].n)
        x = fn(hierarchy, b)
        r = np.linalg.norm(b - spmv(hierarchy.levels[0].A, x))
        assert r < 0.3 * np.linalg.norm(b)

    def test_w_at_least_as_good_as_v(self, hierarchy, rng):
        b = rng.standard_normal(hierarchy.levels[0].n)
        A = hierarchy.levels[0].A
        rv = np.linalg.norm(b - spmv(A, vcycle(hierarchy, b)))
        rw = np.linalg.norm(b - spmv(A, wcycle(hierarchy, b)))
        assert rw <= rv * 1.05

    def test_cycle_dispatch(self, hierarchy, rng):
        b = rng.standard_normal(hierarchy.levels[0].n)
        np.testing.assert_allclose(cycle(hierarchy, b, "V"), vcycle(hierarchy, b))
        with pytest.raises(ValueError):
            cycle(hierarchy, b, "Z")

    @pytest.mark.parametrize("ct", ["V", "W", "F"])
    def test_solver_with_cycle_type(self, ct):
        A = laplace_2d_5pt(20)
        cfg = replace(single_node_config(nthreads=4), cycle_type=ct)
        s = AMGSolver(cfg)
        s.setup(A)
        res = s.solve(np.ones(A.nrows), tol=1e-8)
        assert res.converged


class TestRSCoarsening:
    @pytest.fixture
    def S(self):
        return strength_matrix(laplace_2d_5pt(14), 0.25, 0.8)

    def test_everyone_assigned(self, S):
        cf = rs_coarsening(S)
        assert np.all((cf == C_PT) | (cf == F_PT))

    def test_f_points_covered(self, S):
        """RS guarantee: every F point strongly depends on a C point."""
        cf = rs_coarsening(S)
        for i in np.flatnonzero(cf == F_PT):
            deps = S.indices[S.indptr[i]: S.indptr[i + 1]]
            if len(deps):
                assert np.any(cf[deps] == C_PT), i

    def test_isolated_points_are_f(self):
        S = CSRMatrix.zeros((4, 4))
        np.testing.assert_array_equal(rs_coarsening(S), [F_PT] * 4)

    def test_coarser_grid_than_trivial(self, S):
        cf = rs_coarsening(S)
        frac = (cf == C_PT).sum() / len(cf)
        assert 0.15 < frac < 0.75

    def test_hierarchy_with_rs(self):
        A = laplace_3d_7pt(8)
        cfg = replace(single_node_config(nthreads=4), coarsening="rs")
        s = AMGSolver(cfg)
        s.setup(A)
        res = s.solve(np.ones(A.nrows), tol=1e-7)
        assert res.converged

    def test_rs_denser_coarse_grid_than_pmis_3d(self):
        """§2: classical coarsening yields higher complexity in 3-D —
        the motivation for PMIS."""
        A = laplace_3d_7pt(9)
        S = strength_matrix(A, 0.25, 0.8)
        cf_rs = rs_coarsening(S)
        cf_pmis = pmis(S, seed=0)
        assert (cf_rs == C_PT).sum() > (cf_pmis == C_PT).sum() * 0.8


class TestClassicalInterpolation:
    def test_c_rows_identity(self):
        A = laplace_2d_5pt(10)
        S = strength_matrix(A, 0.25, 0.8)
        cf = rs_coarsening(S)
        P = classical_interpolation(A, S, cf)
        c_idx = np.cumsum(cf > 0) - 1
        dense = P.to_dense()
        for i in np.flatnonzero(cf > 0):
            assert dense[i, c_idx[i]] == 1.0

    def test_interior_row_sums_with_rs(self):
        A = laplace_2d_5pt(12)
        S = strength_matrix(A, 0.25, 0.8)
        cf = rs_coarsening(S)
        P = classical_interpolation(A, S, cf)
        rs = P.to_dense().sum(axis=1)
        interior = np.abs(A.to_dense().sum(axis=1)) < 1e-12
        sel = interior & (cf <= 0)
        if sel.any():
            np.testing.assert_allclose(rs[sel], 1.0, atol=1e-10)

    def test_distance_one_pattern(self):
        """Classical interpolation only uses strong C neighbours."""
        A = laplace_2d_5pt(10)
        S = strength_matrix(A, 0.25, 0.8)
        cf = rs_coarsening(S)
        P = classical_interpolation(A, S, cf)
        c_idx = np.cumsum(cf > 0) - 1
        dense = A.to_dense()
        for i in np.flatnonzero(cf <= 0)[:20]:
            used = np.flatnonzero(P.to_dense()[i])
            for cj in used:
                j = np.flatnonzero((cf > 0) & (c_idx == cj))[0]
                assert dense[i, j] != 0, "distance-one violation"

    def test_worse_than_extended_under_pmis(self):
        """§2: classical interpolation degrades under PMIS coarsening,
        distance-two (extended+i) repairs it."""
        A = laplace_3d_7pt(9)
        b = np.ones(A.nrows)
        its = {}
        for interp in ("classical", "extended+i"):
            cfg = replace(single_node_config(nthreads=4), interp=interp)
            s = AMGSolver(cfg)
            s.setup(A)
            its[interp] = s.solve(b, tol=1e-7, maxiter=200).iterations
        assert its["classical"] > its["extended+i"]


class TestNewSmoothers:
    def test_l1_diagonal_values(self):
        A = CSRMatrix.from_dense(np.array([[4.0, -1.0], [-2.0, 5.0]]))
        np.testing.assert_allclose(l1_diagonal(A), [5.0, 7.0])

    def test_l1_jacobi_always_reduces_spd(self, rng):
        A = random_csr(30, 30, seed=3, spd=True)
        b = rng.standard_normal(30)
        l1d = l1_diagonal(A)
        x = np.zeros(30)
        r_prev = np.linalg.norm(b)
        for _ in range(25):
            x = l1_jacobi_sweep(A, x, b, l1d)
        assert np.linalg.norm(b - spmv(A, x)) < r_prev

    def test_lambda_max_estimate(self):
        A = laplace_2d_5pt(10)
        lam = estimate_lambda_max(A, A.diagonal(), iters=30)
        # D^{-1}A of the 5-pt Laplacian has lambda_max < 2 (times the 1.1
        # safety factor).
        assert 1.5 < lam < 2.3

    def test_chebyshev_smooths(self, rng):
        A = laplace_2d_5pt(12)
        b = rng.standard_normal(A.nrows)
        lam = estimate_lambda_max(A, A.diagonal())
        x = np.zeros(A.nrows)
        for _ in range(10):
            chebyshev_sweep(A, x, b, A.diagonal(), lam)
        assert np.linalg.norm(b - spmv(A, x)) < 0.5 * np.linalg.norm(b)

    @pytest.mark.parametrize("sm", ["l1_jacobi", "chebyshev"])
    def test_solver_with_smoother(self, sm):
        A = laplace_3d_7pt(8)
        cfg = replace(single_node_config(nthreads=4), smoother=sm)
        s = AMGSolver(cfg)
        s.setup(A)
        res = s.solve(np.ones(A.nrows), tol=1e-7, maxiter=100)
        assert res.converged, sm


class TestBiCGStab:
    def test_solves_spd(self, rng):
        A = random_csr(30, 30, seed=5, spd=True)
        b = rng.standard_normal(30)
        res = bicgstab(A, b, tol=1e-10)
        assert res.converged
        np.testing.assert_allclose(res.x, np.linalg.solve(A.to_dense(), b),
                                   atol=1e-6)

    def test_solves_nonsymmetric(self, rng):
        dense = np.eye(25) * 8 + rng.standard_normal((25, 25))
        A = CSRMatrix.from_dense(dense)
        b = rng.standard_normal(25)
        res = bicgstab(A, b, tol=1e-10)
        assert res.converged
        np.testing.assert_allclose(res.x, np.linalg.solve(dense, b), atol=1e-5)

    def test_amg_preconditioned_beats_plain(self):
        A = laplace_2d_5pt(24)
        b = np.ones(A.nrows)
        s = AMGSolver(single_node_config(nthreads=4))
        s.setup(A)
        pre = bicgstab(A, b, precondition=s.precondition, tol=1e-8)
        plain = bicgstab(A, b, tol=1e-8)
        assert pre.converged
        assert pre.iterations < plain.iterations

    def test_zero_rhs(self):
        A = random_csr(10, 10, seed=6, spd=True)
        res = bicgstab(A, np.zeros(10))
        assert res.converged and res.iterations == 0


class TestCLI:
    def test_solve_command(self, capsys):
        from repro.__main__ import main

        rc = main(["solve", "--problem", "lap2d", "--size", "20",
                   "--threads", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "converged=True" in out

    def test_info_command(self, capsys):
        from repro.__main__ import main

        rc = main(["info", "--problem", "lap3d7", "--size", "8",
                   "--threads", "4"])
        assert rc == 0
        assert "operator complexity" in capsys.readouterr().out

    def test_suite_command(self, capsys):
        from repro.__main__ import main

        assert main(["suite"]) == 0
        assert "lap3d_128" in capsys.readouterr().out

    def test_unknown_problem(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["solve", "--problem", "nope"])

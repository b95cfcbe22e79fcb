"""Unit tests for the Krylov solvers."""

import hashlib

import numpy as np
import pytest

from repro.amg import AMGSolver
from repro.config import single_node_config
from repro.krylov import bicgstab, fgmres, gmres, pcg
from repro.perf import collect
from repro.problems import laplace_2d_5pt
from repro.sparse import CSRMatrix
from repro.sparse.spmv import spmv

from conftest import random_csr


class TestGMRES:
    def test_solves_spd(self, rng):
        A = random_csr(30, 30, seed=1, spd=True)
        b = rng.standard_normal(30)
        res = gmres(A, b, tol=1e-10, maxiter=100)
        assert res.converged
        np.testing.assert_allclose(
            res.x, np.linalg.solve(A.to_dense(), b), atol=1e-6
        )

    def test_solves_nonsymmetric(self, rng):
        dense = np.eye(25) * 10 + rng.standard_normal((25, 25)) * 0.5
        from repro.sparse import CSRMatrix

        A = CSRMatrix.from_dense(dense)
        b = rng.standard_normal(25)
        res = gmres(A, b, tol=1e-10)
        np.testing.assert_allclose(res.x, np.linalg.solve(dense, b), atol=1e-6)

    def test_restart_path(self, rng):
        A = random_csr(40, 40, seed=2, spd=True)
        b = rng.standard_normal(40)
        res = gmres(A, b, tol=1e-8, maxiter=150, restart=5)
        assert res.converged

    def test_zero_rhs(self):
        A = random_csr(10, 10, seed=3, spd=True)
        res = gmres(A, np.zeros(10))
        assert res.converged and res.iterations == 0

    def test_residual_history_decreases(self, rng):
        A = random_csr(30, 30, seed=4, spd=True)
        res = gmres(A, rng.standard_normal(30), tol=1e-10)
        r = np.array(res.residuals)
        assert np.all(np.diff(r) <= 1e-12)

    def test_iteration_growth_with_size(self):
        """The §1 motivation: Krylov iterations grow with problem size."""
        iters = []
        for nx in (8, 16, 24):
            A = laplace_2d_5pt(nx)
            b = np.ones(A.nrows)
            res = gmres(A, b, tol=1e-6, maxiter=500, restart=500)
            iters.append(res.iterations)
        assert iters[0] < iters[1] < iters[2]


class TestFGMRESWithAMG:
    def test_o1_iterations(self):
        A = laplace_2d_5pt(32)
        b = np.ones(A.nrows)
        s = AMGSolver(single_node_config(nthreads=4))
        s.setup(A)
        res = fgmres(A, b, precondition=s.precondition, tol=1e-8)
        assert res.converged and res.iterations < 15
        err = np.linalg.norm(b - spmv(A, res.x)) / np.linalg.norm(b)
        assert err < 1e-7

    def test_beats_unpreconditioned(self):
        A = laplace_2d_5pt(24)
        b = np.ones(A.nrows)
        s = AMGSolver(single_node_config(nthreads=4))
        s.setup(A)
        pre = fgmres(A, b, precondition=s.precondition, tol=1e-7)
        plain = gmres(A, b, tol=1e-7, maxiter=500, restart=500)
        assert pre.iterations < plain.iterations / 3


class TestPCG:
    def test_solves_spd(self, rng):
        A = random_csr(35, 35, seed=5, spd=True)
        b = rng.standard_normal(35)
        res = pcg(A, b, tol=1e-10)
        assert res.converged
        np.testing.assert_allclose(res.x, np.linalg.solve(A.to_dense(), b), atol=1e-6)

    def test_amg_preconditioned(self):
        A = laplace_2d_5pt(24)
        b = np.ones(A.nrows)
        s = AMGSolver(single_node_config(nthreads=4))
        s.setup(A)
        pre = pcg(A, b, precondition=s.precondition, tol=1e-8)
        plain = pcg(A, b, tol=1e-8)
        assert pre.converged and pre.iterations < plain.iterations / 3

    def test_zero_rhs(self):
        A = random_csr(10, 10, seed=6, spd=True)
        res = pcg(A, np.zeros(10))
        assert res.converged and res.iterations == 0

    def test_final_relres_property(self, rng):
        A = random_csr(20, 20, seed=7, spd=True)
        res = pcg(A, rng.standard_normal(20), tol=1e-9)
        assert res.final_relres <= 1e-9


#: A clean unpreconditioned ``bicgstab`` solve (see ``_bicgstab_case``)
#: before it was guarded: iterations and sha256 prefixes of ``x``, the
#: residual history and the PerfLog record stream.
BICGSTAB_AT_PARENT = (32, "1c7b686d83a82e4f", "47c2e34e12bef2c2",
                      "91c553978ea49f38")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _bicgstab_case():
    A = laplace_2d_5pt(12)
    b = np.random.default_rng(0).standard_normal(A.nrows)
    with collect() as log:
        res = bicgstab(A, b, tol=1e-9)
    stream = [(r.phase, r.kernel, r.flops, r.bytes_read, r.bytes_written,
               r.branches, r.mispredicts, r.parallel, r.level)
              for r in log.records]
    return (res.iterations, _sha(res.x.tobytes()),
            _sha(np.array(res.residuals).tobytes()),
            _sha(repr(stream).encode()))


class TestBiCGStabGuard:
    def test_clean_solve_unchanged_by_the_guard(self):
        assert _bicgstab_case() == BICGSTAB_AT_PARENT

    def test_nan_rhs_stops_at_once(self):
        A = laplace_2d_5pt(12)
        b = np.ones(A.nrows)
        b[0] = np.nan
        res = bicgstab(A, b)
        assert res.iterations <= 1 and res.degraded and not res.converged
        assert [e.kind for e in res.fault_events] == ["nonfinite"]
        assert res.degraded_reason == "nonfinite initial residual"

    def test_breakdown_is_recorded(self):
        # r0hat'v = 0 on the first step: A rotates r0 onto its orthogonal
        # complement.
        A = CSRMatrix.from_dense(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        res = bicgstab(A, np.array([1.0, 0.0]))
        assert not res.converged and res.degraded
        assert [(e.kind, e.detail) for e in res.fault_events] == [
            ("breakdown", "r0hat'v=0 at iteration 1")]

    def test_takes_maxiter(self):
        A = laplace_2d_5pt(12)
        b = np.ones(A.nrows)
        res = bicgstab(A, b, maxiter=3, tol=1e-12)
        assert res.iterations == 3 and not res.converged
        assert bicgstab(A, b, maxiter=3, tol=1e-12).residuals == res.residuals

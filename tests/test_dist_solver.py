"""Integration tests for the distributed AMG solver and FGMRES (§4, §5)."""

import numpy as np
import pytest

from repro.config import multi_node_config
from repro.dist import (
    DistAMGSolver,
    ParCSRMatrix,
    ParVector,
    RowPartition,
    SimComm,
    dist_build_hierarchy,
    dist_fgmres,
    dist_vcycle,
    par_axpy,
    par_dot,
    par_norm2,
)
from repro.perf import FDRInfinibandModel, HaswellModel
from repro.problems import amg2013_problem, laplace_2d_5pt, laplace_3d_27pt
from repro.sparse.spmv import spmv


def make(A, nranks, sizes=None):
    part = (
        RowPartition.from_sizes(sizes)
        if sizes is not None
        else RowPartition.uniform(A.nrows, nranks)
    )
    comm = SimComm(nranks)
    return comm, ParCSRMatrix.from_global(A, part), part


class TestParBLAS:
    def test_dot_and_norm(self, rng):
        x = rng.standard_normal(20)
        y = rng.standard_normal(20)
        part = RowPartition.uniform(20, 3)
        comm = SimComm(3)
        xp = ParVector.from_global(x, part)
        yp = ParVector.from_global(y, part)
        assert par_dot(comm, xp, yp) == pytest.approx(x @ y)
        assert par_norm2(comm, xp) == pytest.approx(np.linalg.norm(x))
        assert len(comm.collectives) == 2

    def test_axpy(self, rng):
        x = rng.standard_normal(15)
        y = rng.standard_normal(15)
        part = RowPartition.uniform(15, 4)
        comm = SimComm(4)
        yp = ParVector.from_global(y, part)
        par_axpy(comm, 2.5, ParVector.from_global(x, part), yp)
        np.testing.assert_allclose(yp.to_global(), y + 2.5 * x)


class TestDistHierarchy:
    def test_builds_multiple_levels(self):
        A = laplace_2d_5pt(20)
        comm, Ap, _ = make(A, 4)
        h = dist_build_hierarchy(Ap, None) if False else None
        h = dist_build_hierarchy(comm, Ap, multi_node_config("ei", nthreads=4))
        assert h.num_levels >= 2
        assert 1.0 < h.operator_complexity() < 6.0

    def test_galerkin_consistency(self):
        A = laplace_2d_5pt(16)
        comm, Ap, _ = make(A, 3)
        h = dist_build_hierarchy(comm, Ap, multi_node_config("ei", nthreads=2))
        for l in range(h.num_levels - 1):
            P = h.levels[l].P.to_global().to_scipy()
            Al = h.levels[l].A.to_global().to_scipy()
            ref = (P.T @ Al @ P).toarray()
            np.testing.assert_allclose(
                h.levels[l + 1].A.to_global().to_dense(), ref, atol=1e-10
            )

    def test_vcycle_reduces_residual(self, rng):
        A = laplace_2d_5pt(16)
        comm, Ap, part = make(A, 3)
        h = dist_build_hierarchy(comm, Ap, multi_node_config("ei", nthreads=2))
        b = rng.standard_normal(A.nrows)
        x = dist_vcycle(h, ParVector.from_global(b, part))
        assert (
            np.linalg.norm(b - spmv(A, x.to_global())) < 0.5 * np.linalg.norm(b)
        )


class TestDistSolve:
    @pytest.mark.parametrize("scheme", ["ei", "2s-ei", "mp"])
    def test_standalone_converges(self, scheme):
        A = laplace_3d_27pt(8)
        comm, Ap, part = make(A, 4)
        s = DistAMGSolver(comm, multi_node_config(scheme, nthreads=4))
        s.setup(Ap)
        b = np.random.default_rng(0).standard_normal(A.nrows)
        res = s.solve(ParVector.from_global(b, part), tol=1e-7)
        assert res.converged
        err = np.linalg.norm(b - spmv(A, res.x.to_global())) / np.linalg.norm(b)
        assert err < 1e-6

    def test_fgmres_preconditioned(self):
        A = laplace_2d_5pt(18)
        comm, Ap, part = make(A, 4)
        s = DistAMGSolver(comm, multi_node_config("ei", nthreads=4))
        s.setup(Ap)
        b = np.ones(A.nrows)
        res = dist_fgmres(
            comm, Ap, ParVector.from_global(b, part),
            precondition=s.precondition, tol=1e-7,
        )
        assert res.converged and res.iterations < 15
        err = np.linalg.norm(b - spmv(A, res.x.to_global())) / np.linalg.norm(b)
        assert err < 1e-6

    def test_amg2013_input(self):
        A, sizes = amg2013_problem(8, r=4, seed=1)
        comm, Ap, part = make(A, 8, sizes)
        s = DistAMGSolver(comm, multi_node_config("ei", nthreads=4))
        s.setup(Ap)
        b = np.random.default_rng(1).standard_normal(A.nrows)
        res = dist_fgmres(comm, Ap, ParVector.from_global(b, part),
                          precondition=s.precondition, tol=1e-7)
        assert res.converged

    def test_iterations_match_sequential_flavor(self):
        """Distributed and sequential solvers on the same problem should
        need similar iteration counts (same algorithms)."""
        from repro.amg import AMGSolver
        from repro.config import single_node_config

        A = laplace_2d_5pt(20)
        b = np.ones(A.nrows)
        seq = AMGSolver(single_node_config(nthreads=4))
        seq.setup(A)
        r_seq = seq.solve(b, tol=1e-7)
        comm, Ap, part = make(A, 4)
        dis = DistAMGSolver(comm, multi_node_config("ei", nthreads=4))
        dis.setup(Ap)
        r_dis = dis.solve(ParVector.from_global(b, part), tol=1e-7)
        assert abs(r_seq.iterations - r_dis.iterations) <= 4


class TestDistSolveStart:
    """``DistAMGSolver.solve`` judges its initial residual as
    ``AMGSolver.solve`` does, before any V-cycle."""

    @staticmethod
    def build(b):
        from repro.amg import AMGSolver
        from repro.config import single_node_config

        A = laplace_2d_5pt(16)
        comm, Ap, part = make(A, 4)
        dis = DistAMGSolver(comm, multi_node_config("ei", nthreads=4))
        dis.setup(Ap)
        seq = AMGSolver(single_node_config(nthreads=4))
        seq.setup(A)
        marks = [len(log.records) for log in comm.rank_logs]
        return comm, dis, seq, ParVector.from_global(b, part), marks

    @staticmethod
    def cycled(comm, marks) -> bool:
        return any(r.phase == "GS" or r.kernel.startswith("spmv.restrict")
                   for log, m in zip(comm.rank_logs, marks)
                   for r in log.records[m:])

    def test_nonfinite_rhs_stops_before_cycling(self):
        b = np.ones(256)
        b[0] = np.nan
        comm, dis, seq, bp, marks = self.build(b)
        got, want = dis.solve(bp, tol=1e-7), seq.solve(b, tol=1e-7)
        for res in (got, want):
            assert (res.iterations, res.converged, res.degraded,
                    res.degraded_reason) == (
                0, False, True, "nonfinite initial residual")
            assert [(e.kind, e.detail) for e in res.fault_events] == [
                ("nonfinite", "initial residual")]
        assert len(got.residuals) == 1 and np.isnan(got.residuals[0])
        assert not self.cycled(comm, marks)

    def test_converges_at_start_within_tol(self):
        comm, dis, seq, bp, marks = self.build(np.ones(256))
        got, want = dis.solve(bp, tol=1.0), seq.solve(np.ones(256), tol=1.0)
        for res in (got, want):
            assert (res.iterations, res.converged, res.degraded) == (
                0, True, False)
        assert got.residuals == [16.0]
        assert not self.cycled(comm, marks)


class TestModeledTimes:
    def test_phase_breakdown_available(self):
        A = laplace_2d_5pt(16)
        comm, Ap, part = make(A, 4)
        s = DistAMGSolver(comm, multi_node_config("ei", nthreads=4))
        s.setup(Ap)
        s.solve(ParVector.from_global(np.ones(A.nrows), part), tol=1e-7)
        machine = HaswellModel()
        phases = comm.compute_phase_makespan(machine)
        for ph in ("Strength+Coarsen", "Interp", "RAP", "GS", "SpMV"):
            assert ph in phases and phases[ph] > 0, ph
        net = FDRInfinibandModel()
        assert comm.comm_time(net) > 0

    def test_more_ranks_more_comm_volume(self):
        A = laplace_2d_5pt(24)
        vols = []
        for nranks in (2, 8):
            comm, Ap, part = make(A, nranks)
            s = DistAMGSolver(comm, multi_node_config("ei", nthreads=2))
            s.setup(Ap)
            s.solve(ParVector.from_global(np.ones(A.nrows), part), tol=1e-7)
            vols.append(comm.comm_volume())
        assert vols[1] > vols[0]

"""Integration tests for the distributed AMG solver and FGMRES (§4, §5)."""

import dataclasses
import hashlib
import re
from dataclasses import replace

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
from repro.faults import FaultPlan, RetryPolicy
from repro.faults.comm import FaultyComm
from repro.perf import FDRInfinibandModel, HaswellModel
from repro.problems import amg2013_problem, laplace_2d_5pt, laplace_3d_27pt
from repro.sparse.spmv import spmv
from repro.topo import NodeTopology


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


    def test_block_rhs_rejected_before_any_traffic(self):
        A = laplace_3d_27pt(8)
        comm, Ap, part = make(A, 4)
        s = DistAMGSolver(comm, multi_node_config("ei", nthreads=4))
        s.setup(Ap)
        comm.clear_logs()
        with pytest.raises(ValueError, match=r"block of shape \(512, 3\)"):
            s.solve(ParVector.zeros(part, 3), tol=1e-7)
        assert len(comm.messages) == 0 and not comm.collectives
        assert all(len(log.records) == 0 for log in comm.rank_logs)


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

    def test_cli_solve_time_includes_compute(self, capsys):
        from repro.__main__ import main

        assert main(["solve", "--problem", "lap3d27", "--size", "8",
                     "--ranks", "4", "--topology", "ppn=2"]) == 0
        line = next(l for l in capsys.readouterr().out.splitlines()
                    if l.startswith("modeled time"))
        m = re.search(r"solve ([0-9.]+) ms \(comm ([0-9.]+) ms\)", line)
        assert float(m[1]) > float(m[2]) > 0.0


# ---------------------------------------------------------------------------
# The stationary driver's oracle: captured before it moved onto Columns
# ---------------------------------------------------------------------------


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _bytes_sha(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64)
                          .tobytes()).hexdigest()[:16]


#: ``stationary_case(name)`` before ``DistAMGSolver.solve`` ran the node
#: iteration's driver: iterations, ``converged``, ``degraded_reason``, the
#: residual history's bytes, ``fault_events`` (count, sha of their tuples),
#: the solve's message stream (count, sha), each rank's records (count, sha)
#: and the iterate's bytes.
STATIONARY_AT_PARENT = {
    "flat": {
        "iterations": 11, "converged": True,
        "degraded_reason": None,
        "residuals": (12, "a80cb08943c16497"),
        "events": (0, "4f53cda18c2baa0c"),
        "messages": (930, "dda7c90a1d794a90"),
        "records": [
            (467, "766262d481eef39b"),
            (456, "961ef6d9560803da"),
            (456, "c444f3118985843b"),
            (456, "9cd3b870e14a9ba0"),
        ],
        "x": "3cec48521c727ae8",
    },
    "ppn2": {
        "iterations": 11, "converged": True,
        "degraded_reason": None,
        "residuals": (12, "a80cb08943c16497"),
        "events": (0, "4f53cda18c2baa0c"),
        "messages": (842, "222520dc9317f4ac"),
        "records": [
            (511, "8846d5d34a37c04a"),
            (456, "961ef6d9560803da"),
            (500, "39fa55658a6e3944"),
            (456, "9cd3b870e14a9ba0"),
        ],
        "x": "3cec48521c727ae8",
    },
    "unfused": {
        "iterations": 11, "converged": True,
        "degraded_reason": None,
        "residuals": (12, "a80cb08943c16497"),
        "events": (0, "4f53cda18c2baa0c"),
        "messages": (930, "dda7c90a1d794a90"),
        "records": [
            (479, "82aeb260bd179a00"),
            (468, "a908089fd1b3bd50"),
            (468, "18e7b4beec9f38b7"),
            (468, "70561f2c5b2e5da1"),
        ],
        "x": "3cec48521c727ae8",
    },
    "zero_b": {
        "iterations": 0, "converged": True,
        "degraded_reason": None,
        "residuals": (1, "af5570f5a1810b7a"),
        "events": (0, "4f53cda18c2baa0c"),
        "messages": (6, "82794ba6eac5ff4e"),
        "records": [
            (5, "aa20214b20347a3e"),
            (5, "1de86cd66692c0e2"),
            (5, "1de86cd66692c0e2"),
            (5, "aa20214b20347a3e"),
        ],
        "x": "668946bab9868b28",
    },
    "nonfinite_b": {
        "iterations": 0, "converged": False,
        "degraded_reason": 'nonfinite initial residual',
        "residuals": (1, "9402bb655bc3b733"),
        "events": (1, "51ed7b0a2e65fa9c"),
        "messages": (6, "82794ba6eac5ff4e"),
        "records": [
            (5, "aa20214b20347a3e"),
            (5, "1de86cd66692c0e2"),
            (5, "1de86cd66692c0e2"),
            (5, "aa20214b20347a3e"),
        ],
        "x": "668946bab9868b28",
    },
    "maxiter2": {
        "iterations": 2, "converged": False,
        "degraded_reason": None,
        "residuals": (3, "8d62c5149b34e70d"),
        "events": (0, "4f53cda18c2baa0c"),
        "messages": (174, "d88553b73df9755b"),
        "records": [
            (89, "d8e4a7cd35655be8"),
            (87, "9719e90cf53b29ec"),
            (87, "32373552e9bfa091"),
            (87, "81c09a1507da3799"),
        ],
        "x": "8b3bd1c44ead1cdc",
    },
    "prestart_retry": {
        "iterations": 11, "converged": True,
        "degraded_reason": None,
        "residuals": (12, "a80cb08943c16497"),
        "events": (10, "49154a7e9852c61b"),
        "messages": (1794, "b33508e753eab00b"),
        "records": [
            (468, "67d6db5cca99c3b2"),
            (457, "a77b92fc53173b32"),
            (457, "d6835e5f0f57382d"),
            (457, "cdf8a1dafd55abe7"),
        ],
        "x": "3cec48521c727ae8",
    },
    "persisted": {
        "iterations": 5, "converged": False,
        "degraded_reason": 'comm fault persisted: rank 2 is down',
        "residuals": (6, "75c4ee86e8e98c6c"),
        "events": (55, "6fe833bfb4f85c31"),
        "messages": (1301, "6dade66396f314ca"),
        "records": [
            (318, "8ab76dd3ff90dea6"),
            (310, "ee277669d5f57a00"),
            (310, "4dd4f0b10382ae40"),
            (310, "e347042a13145e08"),
        ],
        "x": "54f02dd47e631385",
    },
}


#: Rank 1 is down for the first 9 ticks of the solve's attempt clock: the
#: start's first allreduce burns its 7 attempts (``collective_down``) and
#: raises, and the re-run start finds rank 1 back.
PRESTART_FAILURE = FaultPlan(seed=5, rank_failures=((1, 0, 10),))
#: Rank 2 dies for good in the solve's seventh iteration: every rollback to
#: the checkpoint of iteration 5 fails again, until the restart budget (3)
#: runs out.
PERSISTENT_FAILURE = FaultPlan(seed=1, rank_failures=((2, 600, 10 ** 9),),
                               retry=RetryPolicy(max_retries=2))


def stationary_case(name: str):
    """One ``DistAMGSolver.solve`` on lap27(10) over 4 ranks, tol 1e-8; the
    logs are cleared after the set-up (and a ``FaultyComm``'s plan swapped
    in and its clock reset), so only the solve's traffic is pinned."""
    A = laplace_3d_27pt(10)
    part = RowPartition.uniform(A.nrows, 4)
    cfg = multi_node_config("ei", nthreads=4)
    if name == "unfused":
        cfg = replace(cfg, flags=replace(cfg.flags, fuse_spmv_dot=False))
    faulty = name in ("prestart_retry", "persisted")
    comm = FaultyComm(4, FaultPlan()) if faulty else SimComm(4)
    topo = NodeTopology(4, 2) if name == "ppn2" else None
    s = DistAMGSolver(comm, cfg, topology=topo,
                      net=topo.network() if topo else None)
    s.setup(ParCSRMatrix.from_global(A, part))
    comm.clear_logs()
    if faulty:
        comm.plan = (PRESTART_FAILURE if name == "prestart_retry"
                     else PERSISTENT_FAILURE)
        comm.clock = 0
    b = np.random.default_rng(3).standard_normal(A.nrows)
    if name == "zero_b":
        b[:] = 0.0
    elif name == "nonfinite_b":
        b[7] = np.inf
    kw = {"maxiter": 2} if name == "maxiter2" else {}
    if name == "persisted":
        kw = {"max_restarts": 3}
    res = s.solve(ParVector.from_global(b, part), tol=1e-8, **kw)
    streams = [[(r.phase, r.kernel, r.flops, r.bytes_read, r.bytes_written,
                 r.branches, r.mispredicts, r.parallel, r.level)
                for r in log.records] for log in comm.rank_logs]
    return {
        "iterations": res.iterations,
        "converged": res.converged,
        "degraded_reason": res.degraded_reason,
        "residuals": (len(res.residuals), _bytes_sha(res.residuals)),
        "events": (len(res.fault_events),
                    _sha([dataclasses.astuple(e) for e in res.fault_events])),
        "messages": (len(comm.messages),
                     _sha([(m.event, m.phase) for m in comm.messages])),
        "records": [(len(st), _sha(st)) for st in streams],
        "x": _bytes_sha(res.x.to_global()),
    }


STATIONARY_CASES = ["flat", "ppn2", "unfused", "zero_b", "nonfinite_b",
                    "maxiter2", "prestart_retry", "persisted"]


class TestStationaryOracle:
    @pytest.mark.parametrize("name", STATIONARY_CASES)
    def test_solve_is_what_it_was(self, name):
        assert stationary_case(name) == STATIONARY_AT_PARENT[name]

"""Additional distributed-layer tests: comm accounting, row gathering
payloads, distributed smoothing semantics, collectives."""

import numpy as np
import pytest

from repro.amg import HybridGSSmoother, block_of_rows, gs_sweep_reference
from repro.dist import (
    ParCSRMatrix,
    ParVector,
    PersistentExchange,
    RowPartition,
    SimComm,
    build_halo,
    dist_spmv,
    gather_matrix_rows,
)
from repro.dist.comm import MessageBatch
from repro.dist.smoothers import DistSmoother
from repro.perf import FDRInfinibandModel, HaswellModel, collect
from repro.problems import laplace_2d_5pt

from conftest import on_rank, random_csr


class TestCommAccounting:
    def test_message_log_fields(self):
        comm = SimComm(3)
        comm.log_message(0, 2, 123, persistent=True, tag="x")
        m = comm.messages[0].event
        assert (m.src, m.dst, m.nbytes, m.persistent, m.tag) == (0, 2, 123, True, "x")

    def test_exchange_skips_self_messages(self):
        comm = SimComm(2)
        comm.log_batch(MessageBatch([0, 0], [0, 1], [40.0, 24.0], "x"))
        assert comm.message_count() == 1
        assert comm.messages[0].event.nbytes == 24

    def test_allreduce_value_and_log(self):
        comm = SimComm(4)
        total = comm.allreduce([1.0, 2.0, 3.0, 4.0])
        assert total == 10.0
        assert comm.collectives[0].nranks == 4

    def test_scan_offsets(self):
        comm = SimComm(3)
        np.testing.assert_array_equal(
            comm.scan_offsets(np.array([5, 2, 7])), [0, 5, 7]
        )

    def test_comm_volume_by_tag(self):
        comm = SimComm(2)
        comm.log_message(0, 1, 100, tag="a")
        comm.log_message(1, 0, 50, tag="b")
        assert comm.comm_volume(tag="a") == 100
        assert comm.comm_volume() == 150

    def test_comm_volume_by_phase(self):
        from repro.perf import phase

        comm = SimComm(2)
        with phase("Interp"):
            comm.log_message(0, 1, 10)
        comm.log_message(0, 1, 5)
        assert comm.comm_volume(phase="Interp") == 10

    def test_persistent_exchange_object(self):
        comm = SimComm(2)
        pe = PersistentExchange(comm, {(0, 1): 4}, tag="t")
        pe.start()
        pe.start()
        assert comm.message_count(tag="t") == 2
        assert all(m.event.persistent for m in comm.messages)

    def test_compute_makespan_is_max(self):
        comm = SimComm(2)
        from repro.perf import count, phase

        with phase("GS"):
            with on_rank(comm, 0):
                count("k", bytes_read=1e6)
            with on_rank(comm, 1):
                count("k", bytes_read=3e6)
        machine = HaswellModel()
        t = comm.compute_phase_makespan(machine)["GS"]
        with collect() as solo:
            count("k", bytes_read=3e6, phase="GS")
        assert t == pytest.approx(machine.record_time(solo.records[0]))

    def test_clear_logs(self):
        comm = SimComm(2)
        comm.log_message(0, 1, 10)
        with on_rank(comm, 0):
            from repro.perf import count

            count("k", flops=1)
        comm.clear_logs()
        assert comm.message_count() == 0
        assert len(comm.rank_logs[0]) == 0

    def test_invalid_rank_count(self):
        with pytest.raises(ValueError):
            SimComm(0)


class TestRowGather:
    @pytest.fixture
    def setup(self):
        A = laplace_2d_5pt(8)
        part = RowPartition.uniform(A.nrows, 4)
        comm = SimComm(4)
        Ap = ParCSRMatrix.from_global(A, part)
        return A, Ap, comm, part

    def test_gathered_rows_match_source(self, setup):
        A, Ap, comm, part = setup
        needed = [np.array([60, 61]), np.array([0]), np.empty(0, np.int64),
                  np.array([5, 20])]
        out = gather_matrix_rows(comm, Ap, needed)
        dense = A.to_dense()
        for p, g in enumerate(out):
            for t, gid in enumerate(g.row_gids):
                lo, hi = g.indptr[t], g.indptr[t + 1]
                row = np.zeros(A.ncols)
                row[g.gcols[lo:hi]] = g.vals[lo:hi]
                np.testing.assert_allclose(row, dense[gid])

    def test_request_and_data_messages_logged(self, setup):
        A, Ap, comm, part = setup
        gather_matrix_rows(comm, Ap, [np.array([60])] + [np.empty(0, np.int64)] * 3,
                           tag="rg")
        assert comm.message_count(tag="rg.req") == 1
        assert comm.message_count(tag="rg") == 1

    def test_extra_payloads_travel_with_entries(self, setup):
        A, Ap, comm, part = setup
        # Tag every stored entry of every rank with its owner rank id.
        payload = []
        for q, blk in enumerate(Ap.blocks):
            payload.append(np.full(blk.nnz, float(q)))
        needed = [np.array([60]), np.empty(0, np.int64),
                  np.empty(0, np.int64), np.empty(0, np.int64)]
        out = gather_matrix_rows(comm, Ap, needed,
                                 extra_payloads={"owner": payload})
        owner_of_60 = part.owner_of(np.array([60]))[0]
        got = out[0].extra["owner"]
        assert np.all(got == owner_of_60)

    def test_entry_filter_applied(self, setup):
        A, Ap, comm, part = setup
        needed = [np.array([60, 61])] + [np.empty(0, np.int64)] * 3

        def keep_diag_only(req, rows, cols, vals):
            return rows == cols

        out = gather_matrix_rows(comm, Ap, needed, entry_filter=keep_diag_only)
        g = out[0]
        assert np.all(g.gcols == np.repeat(g.row_gids, np.diff(g.indptr)))

    def test_local_rows_not_sent(self, setup):
        A, Ap, comm, part = setup
        # Rank 0 asks for a row it owns: no messages at all.
        needed = [np.array([0])] + [np.empty(0, np.int64)] * 3
        gather_matrix_rows(comm, Ap, needed, tag="self")
        assert comm.message_count(tag="self") == 0


class TestDistSmoother:
    def test_matches_sequential_hybrid_with_rank_blocks(self, rng):
        """Hybrid GS across ranks (with nthreads=1 inside) must equal the
        sequential hybrid GS whose blocks are the rank ranges."""
        A = laplace_2d_5pt(8)
        n = A.nrows
        nranks = 4
        part = RowPartition.uniform(n, nranks)
        comm = SimComm(nranks)
        Ap = ParCSRMatrix.from_global(A, part)
        sm = DistSmoother(comm, Ap, None, nthreads=1)
        b = rng.standard_normal(n)
        x = rng.standard_normal(n)
        xp = ParVector.from_global(x, part)
        sm.presmooth(xp, ParVector.from_global(b, part))

        blocks = part.owner_of(np.arange(n))
        x_ref = x.copy()
        gs_sweep_reference(A, x_ref, b, blocks, forward=True)
        np.testing.assert_allclose(xp.to_global(), x_ref, atol=1e-12)

    def test_zero_guess_skips_halo(self, rng):
        A = laplace_2d_5pt(8)
        part = RowPartition.uniform(A.nrows, 3)
        comm = SimComm(3)
        Ap = ParCSRMatrix.from_global(A, part)
        sm = DistSmoother(comm, Ap, None, nthreads=2)
        b = ParVector.from_global(rng.standard_normal(A.nrows), part)
        before = comm.message_count(tag="halo")
        x = ParVector.zeros(part)
        sm.presmooth(x, b, zero_guess=True)
        assert comm.message_count(tag="halo") == before
        sm.presmooth(x, b, zero_guess=False)
        assert comm.message_count(tag="halo") > before

    def test_symmetric_sweeps_converge(self, rng):
        A = laplace_2d_5pt(10)
        part = RowPartition.uniform(A.nrows, 3)
        comm = SimComm(3)
        Ap = ParCSRMatrix.from_global(A, part)
        halo = build_halo(comm, Ap, persistent=True)
        sm = DistSmoother(comm, Ap, None, nthreads=4)
        b = ParVector.from_global(rng.standard_normal(A.nrows), part)
        x = ParVector.zeros(part)
        for _ in range(30):
            sm.presmooth(x, b)
            sm.postsmooth(x, b)
        Ax = dist_spmv(comm, Ap, x, halo)
        r = b.to_global() - Ax.to_global()
        assert np.linalg.norm(r) < 0.3 * np.linalg.norm(b.to_global())

"""Fault-injection harness: plans, reliable delivery, resilient solves.

Acceptance scenarios for docs/robustness.md: a seeded plan dropping >=5%
of halo messages must not change the *answer* of the distributed solve —
only its modeled time and its ``fault_events`` — and the fault-free path
must be bit-identical to a plain ``SimComm`` run (zero retries, identical
message log, no modeled-time change).
"""

import hashlib

import numpy as np
import pytest

from repro.config import multi_node_config
from repro.dist import (
    DistAMGSolver,
    ParCSRMatrix,
    ParVector,
    RowPartition,
    SimComm,
    dist_fgmres,
    dist_pcg,
)
from repro.dist.comm import MessageBatch
from repro.perf.network import MessageEvent
from repro.faults import FaultEvent, FaultPlan, RetryPolicy
from repro.faults.comm import ACK_BYTES, FaultyComm, RankFailure, RetriesExhausted
from repro.faults.plan import FAULT_KINDS
from repro.analysis import CommTrace, persistent_patterns_of, scan_comm_trace
from repro.perf import FDRInfinibandModel
from repro.perf.report import format_fault_summary
from repro.problems import laplace_3d_27pt
from repro.topo import NodeTopology

pytestmark = pytest.mark.faults

NRANKS = 4


def _dist_problem(size=8, seed=0):
    A = laplace_3d_27pt(size)
    b = np.random.default_rng(seed).standard_normal(A.nrows)
    part = RowPartition.uniform(A.nrows, NRANKS)
    return ParCSRMatrix.from_global(A, part), ParVector.from_global(b, part), part


def _solve(comm, Ad, bd, **kw):
    solver = DistAMGSolver(comm, multi_node_config("ei", nthreads=2))
    solver.setup(Ad)
    comm.clear_logs()
    if isinstance(comm, FaultyComm):
        comm.clock = 0
    return solver.solve(bd, **kw)


class TestFaultPlan:
    def test_json_roundtrip(self):
        plan = FaultPlan(seed=7, drop_prob=0.05, corrupt_prob=0.01,
                         slow_ranks={2: 1.5}, rank_failures=((1, 120, 160),),
                         retry=RetryPolicy(max_retries=4, timeout=1e-4))
        again = FaultPlan.from_json(plan.to_json())
        assert again == plan

    def test_json_file_roundtrip(self, tmp_path):
        plan = FaultPlan(seed=3, drop_prob=0.1)
        path = tmp_path / "plan.json"
        plan.to_json(path)
        assert FaultPlan.from_json_file(path) == plan

    def test_string_keys_coerced(self):
        # JSON object keys are strings; the plan must accept them.
        plan = FaultPlan.from_json('{"slow_ranks": {"2": 1.5}}')
        assert plan.slow_ranks == {2: 1.5}

    @pytest.mark.parametrize("kwargs", [
        {"drop_prob": -0.1},
        {"drop_prob": 1.0},
        {"corrupt_prob": 1.5},
        {"drop_prob": 0.6, "corrupt_prob": 0.5},
        {"rank_failures": ((0, 10, 10),)},
        {"slow_ranks": {0: 0.5}},
    ])
    def test_invalid_plans_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"max_retries": -1}, {"timeout": -1.0}, {"backoff": 0.5},
    ])
    def test_invalid_retry_policy_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_rank_failure_window_dominates_rng(self):
        plan = FaultPlan(seed=0, drop_prob=0.5, rank_failures=((1, 0, 100),))
        rng, ref = np.random.default_rng(0), np.random.default_rng(0)
        got = plan.draw(rng, [0, 2, 1, 2, 3], [1, 3, 2, 0, 1], [5, 5, 6, 7, 100])
        assert [FAULT_KINDS[k] if k >= 0 else None for k in got.tolist()] == [
            "rank_down", None, "rank_down", "drop", "drop"]
        # The dead rank's attempts draw nothing: the other three take the
        # first uniforms in attempt order (0.64, 0.27, 0.04).
        assert rng.random() == ref.random(4)[3]


def send_one(comm, src, dst, nbytes, tag):
    """Deliver a one-message batch, where one attempt round is one attempt;
    return the number of retransmissions it needed."""
    before = len(comm.events)
    comm.log_exchange(MessageBatch([src], [dst], [nbytes], tag))
    return sum(e.kind != "delivered_after_retry" for e in comm.events[before:])


class TestReliableDelivery:
    def test_clean_delivery_logs_ack(self):
        comm = FaultyComm(2, FaultPlan(seed=0))
        retries = send_one(comm, 0, 1, 800.0, "halo")
        assert retries == 0 and comm.events == []
        tags = [m.event.tag for m in comm.messages]
        assert tags == ["halo", "halo.ack"]
        assert comm.messages[1].event.nbytes == int(ACK_BYTES)

    def test_drop_retries_and_records(self):
        # Certain first-attempt drop is impossible (prob < 1), so drive the
        # probability high and check the protocol survives with retries.
        comm = FaultyComm(2, FaultPlan(seed=1, drop_prob=0.5))
        total_retries = sum(send_one(comm, 0, 1, 100.0, "t")
                            for _ in range(20))
        assert total_retries > 0
        kinds = comm.event_counts()
        assert kinds["drop"] >= total_retries
        assert kinds["delivered_after_retry"] >= 1
        retry_msgs = [m for m in comm.messages if m.event.tag == "t.retry"]
        assert len(retry_msgs) == total_retries

    def test_determinism_same_seed(self):
        def run():
            comm = FaultyComm(2, FaultPlan(seed=5, drop_prob=0.3,
                                           corrupt_prob=0.2))
            for _ in range(50):
                send_one(comm, 0, 1, 64.0, "x")
            return [(e.kind, e.seq, e.attempt, e.clock) for e in comm.events]

        assert run() == run()

    def test_rank_window_exhausts_as_rank_failure(self):
        plan = FaultPlan(seed=0, rank_failures=((1, 0, 10 ** 9),),
                         retry=RetryPolicy(max_retries=2))
        comm = FaultyComm(2, plan)
        with pytest.raises(RankFailure) as ei:
            send_one(comm, 0, 1, 10.0, "halo")
        assert ei.value.rank == 1
        assert comm.event_counts() == {"rank_down": 3}

    def test_retries_exhausted_is_comm_fault(self):
        assert issubclass(RetriesExhausted, RuntimeError)
        assert issubclass(RankFailure, RuntimeError)

    def test_collective_gated_by_rank_window(self):
        plan = FaultPlan(seed=0, rank_failures=((0, 0, 2),))
        comm = FaultyComm(2, plan)
        total = comm.allreduce([1.0, 2.0])  # waits out the window
        assert total == 3.0
        # Window covers clocks {0, 1}; the gate ticks to 1 (down) then 2 (up).
        assert comm.event_counts()["collective_down"] == 1

    def test_retry_penalty_grows_with_attempt(self):
        net = FDRInfinibandModel()
        p0 = net.retry_penalty(5e-5, 0, 2.0)
        p3 = net.retry_penalty(5e-5, 3, 2.0)
        assert p3 > p0 > 0.0


class TestFaultFreeBitIdentity:
    def test_empty_plan_matches_simcomm_exactly(self):
        Ad, bd, _ = _dist_problem()
        clean = SimComm(NRANKS)
        faulty = FaultyComm(NRANKS, FaultPlan())
        r_clean = _solve(clean, Ad, bd)
        r_faulty = _solve(faulty, Ad, bd)
        assert faulty.events == []
        np.testing.assert_array_equal(r_clean.x.to_global(),
                                      r_faulty.x.to_global())
        assert r_clean.iterations == r_faulty.iterations
        assert r_clean.residuals == r_faulty.residuals
        assert not r_faulty.degraded and r_faulty.fault_events == []
        # The message logs must only differ by the protocol acks: same
        # payload traffic in the same order, and zero retransmissions.
        payload = [(m.event.src, m.event.dst, m.event.nbytes, m.event.tag)
                   for m in faulty.messages if not m.event.tag.endswith(".ack")]
        ref = [(m.event.src, m.event.dst, m.event.nbytes, m.event.tag)
               for m in clean.messages]
        assert payload == ref
        net = FDRInfinibandModel()
        # No events, no slow ranks => identical retry-free modeled time
        # apart from the ack traffic the reliable protocol adds.
        acks = sum(1 for m in faulty.messages if m.event.tag.endswith(".ack"))
        assert acks > 0
        assert faulty.comm_time(net) > clean.comm_time(net)  # acks only
        assert faulty.event_counts() == {}


def _sha(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


#: A flat-layout set-up, stationary solve and AMG-preconditioned FGMRES on
#: lap27(8) over 4 ranks, on a ``FaultyComm`` whose plan fires no fault,
#: captured under the per-message protocol: message count, sha of the
#: ``(event, phase)`` stream, the attempt clock, and ``comm_time`` (FDR
#: InfiniBand) as ``float.hex`` without and with a slow rank 1 (factor 2).
FLAT_NO_FAULT_AT_PARENT = {
    True: (1355, "8ec059347325df12", 651,
           "0x1.15579b50bc74ep-8", "0x1.0bdab56b05a5fp-7"),
    False: (1457, "ff5ee0e06c4e3cc4", 651,
            "0x1.a648fb258ffd3p-8", "0x1.9c79c3e0bdc41p-7"),
}


def _flat_run(optimized, plan):
    A = laplace_3d_27pt(8)
    part = RowPartition.uniform(A.nrows, NRANKS)
    b = ParVector.from_global(
        np.random.default_rng(0).standard_normal(A.nrows), part)
    comm = FaultyComm(NRANKS, plan)
    s = DistAMGSolver(comm, multi_node_config("ei", optimized=optimized,
                                              nthreads=2))
    Ad = ParCSRMatrix.from_global(A, part)
    s.setup(Ad)
    r1 = s.solve(b, tol=1e-8)
    r2 = dist_fgmres(comm, Ad, b, precondition=s.precondition, tol=1e-8)
    assert (r1.iterations, r2.iterations) == (10, 7)
    return comm, comm.comm_time(FDRInfinibandModel()).hex()


def _node_aware_solve(comm, size=10):
    """Set-up and stationary solve of lap27(*size*) over 8 ranks, 4 per
    node: the coarser levels' halos adopt the 3-step schedule."""
    A = laplace_3d_27pt(size)
    part = RowPartition.uniform(A.nrows, comm.nranks)
    topo = NodeTopology(comm.nranks, 4)
    s = DistAMGSolver(comm, multi_node_config("ei", nthreads=2),
                      topology=topo, net=topo.network())
    s.setup(ParCSRMatrix.from_global(A, part))
    assert sum(lvl.halo.node_aware for lvl in s.hierarchy.levels
               if lvl.halo is not None) == 2
    b = np.random.default_rng(0).standard_normal(A.nrows)
    return s.solve(ParVector.from_global(b, part), tol=1e-8)


class TestFaultsRideTheWire:
    """A ``FaultyComm`` sends the halo's frozen wire batch — flat or
    node-aware — in acknowledged attempt rounds."""

    @pytest.mark.parametrize("optimized", [True, False],
                             ids=["persistent", "nonpersistent"])
    def test_flat_layout_without_faults_is_the_per_message_stream(self,
                                                                  optimized):
        n, stream, clock, t, t_slow = FLAT_NO_FAULT_AT_PARENT[optimized]
        # An empty plan, and one that draws a uniform per attempt but
        # fires nothing.
        for plan in (FaultPlan(), FaultPlan(seed=3, drop_prob=1e-6)):
            comm, got_t = _flat_run(optimized, plan)
            assert comm.events == []
            assert len(comm.messages) == n
            assert _sha([(m.event, m.phase) for m in comm.messages]) == stream
            assert comm.clock == clock and got_t == t
        comm, got_t = _flat_run(optimized, FaultPlan(slow_ranks={1: 2.0}))
        assert got_t == t_slow

    def test_node_aware_empty_plan_is_simcomm_plus_acks(self):
        clean, faulty = SimComm(8), FaultyComm(8, FaultPlan())
        r0, r1 = _node_aware_solve(clean), _node_aware_solve(faulty)
        assert r0.iterations == r1.iterations == 11
        assert r0.x.to_global().tobytes() == r1.x.to_global().tobytes()
        want = []
        for m in clean.messages:
            e = m.event
            want.append((e, m.phase))
            if e.tag.startswith("halo"):  # a frozen wire message
                want.append((MessageEvent(e.dst, e.src, int(ACK_BYTES), False,
                                          e.tag + ".ack"), m.phase))
        assert [(m.event, m.phase) for m in faulty.messages] == want
        assert faulty.events == []

    def test_node_aware_drops_keep_the_iterate(self):
        r0 = _node_aware_solve(SimComm(8))
        faulty = FaultyComm(8, FaultPlan(seed=3, drop_prob=0.05))
        r1 = _node_aware_solve(faulty)
        assert r1.converged and r1.iterations == r0.iterations
        assert r0.x.to_global().tobytes() == r1.x.to_global().tobytes()
        counts = faulty.event_counts()
        assert counts["drop"] > 0 and counts["delivered_after_retry"] > 0
        # Faults hit the 3-step schedule's own links.
        assert any(e.tag in ("halo.gather", "halo.node", "halo.scatter")
                   for e in faulty.events)

    def test_faulty_node_aware_trace_replays_clean(self):
        faulty = FaultyComm(8, FaultPlan(seed=3, drop_prob=0.05))
        _node_aware_solve(faulty)
        assert faulty.events
        findings, skips = scan_comm_trace(
            faulty, persistent_patterns=persistent_patterns_of(faulty),
            with_skips=True)
        assert findings == []
        # No exchange ran out of retries: send/ack matching ran, clean.
        assert faulty.exhausted == 0 and skips == []


class TestSendAckMatching:
    """Under attempt rounds every exchange that delivers acks each of its
    messages once, however many rounds it takes: only a run in which an
    exchange ran out of retries skips send/ack matching."""

    @staticmethod
    def lossy_solve(plan):
        A = laplace_3d_27pt(8)
        part = RowPartition.uniform(A.nrows, NRANKS)
        topo = NodeTopology(NRANKS, 2)
        comm = FaultyComm(NRANKS, plan)
        s = DistAMGSolver(comm, multi_node_config("ei", nthreads=4),
                          topology=topo, net=topo.network())
        s.setup(ParCSRMatrix.from_global(A, part))
        b = np.random.default_rng(3).standard_normal(A.nrows)
        return comm, s.solve(ParVector.from_global(b, part), tol=1e-8)

    @staticmethod
    def scan(trace):
        return scan_comm_trace(
            trace, persistent_patterns=persistent_patterns_of(trace),
            with_skips=True)

    def test_lossy_solve_without_exhaustion_is_matched(self):
        comm, res = self.lossy_solve(FaultPlan(seed=7, drop_prob=0.1))
        assert res.converged and comm.exhausted == 0
        assert comm.event_counts()["drop"] > 0
        assert self.scan(comm) == ([], [])
        # The matching ran: an ack taken out of the trace is flagged.
        trace = CommTrace.from_comm(comm)
        del trace.messages[next(i for i, m in enumerate(trace.messages)
                                if m.tag.endswith(".ack"))]
        findings, skips = scan_comm_trace(trace, with_skips=True)
        assert [f.invariant for f in findings] == ["comm.unreceived_send"]
        assert skips == []

    def test_rollback_run_reports_the_skip(self):
        comm, res = self.lossy_solve(FaultPlan(
            seed=11, drop_prob=0.45, retry=RetryPolicy(max_retries=5)))
        restarts = [e for e in res.fault_events
                    if e.kind == "checkpoint_restart"]
        assert res.converged and comm.exhausted == len(restarts) == 14
        findings, skips = self.scan(comm)
        assert findings == []
        assert [s.check for s in skips] == ["comm.unreceived_send"]
        comm.clear_logs()
        assert comm.exhausted == 0


class TestCliSetupFault:
    def test_setup_fault_is_a_structured_failure(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "plan.json"
        FaultPlan(seed=11, drop_prob=0.45,
                  retry=RetryPolicy(max_retries=4)).to_json(path)
        assert main(["solve", "--problem", "lap3d27", "--size", "8",
                     "--ranks", "4", "--topology", "ppn=2",
                     "--faults", str(path)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("set-up failed: message ")
        assert "lost after 5 attempts" in out and "fault summary" in out


class TestResilientSolve:
    def test_five_percent_drops_same_answer(self):
        """Acceptance: >=5% halo drops, identical solution, events logged."""
        Ad, bd, _ = _dist_problem()
        clean = SimComm(NRANKS)
        r0 = _solve(clean, Ad, bd)
        faulty = FaultyComm(NRANKS, FaultPlan(seed=7, drop_prob=0.05))
        r1 = _solve(faulty, Ad, bd)
        assert r0.converged and r1.converged
        assert r1.iterations == r0.iterations
        np.testing.assert_array_equal(r0.x.to_global(), r1.x.to_global())
        counts = faulty.event_counts()
        assert counts.get("drop", 0) > 0
        assert counts.get("delivered_after_retry", 0) > 0
        # Every injected fault and retry is visible in the result.
        assert len(r1.fault_events) == sum(counts.values())
        net = FDRInfinibandModel()
        assert faulty.comm_time(net) > clean.comm_time(net)

    def test_corruption_same_answer(self):
        Ad, bd, _ = _dist_problem()
        r0 = _solve(SimComm(NRANKS), Ad, bd)
        faulty = FaultyComm(NRANKS, FaultPlan(seed=11, corrupt_prob=0.08))
        r1 = _solve(faulty, Ad, bd)
        assert r1.converged
        np.testing.assert_array_equal(r0.x.to_global(), r1.x.to_global())
        assert faulty.event_counts().get("corrupt", 0) > 0

    def test_transient_rank_failure_checkpoint_restart(self):
        Ad, bd, _ = _dist_problem()
        r0 = _solve(SimComm(NRANKS), Ad, bd)
        plan = FaultPlan(seed=3, rank_failures=((2, 100, 140),))
        faulty = FaultyComm(NRANKS, plan)
        r1 = _solve(faulty, Ad, bd)
        assert r1.converged
        kinds = {e.kind for e in r1.fault_events}
        assert "rank_down" in kinds and "checkpoint_restart" in kinds
        np.testing.assert_array_equal(r0.x.to_global(), r1.x.to_global())

    def test_persistent_rank_failure_gives_up_degraded(self):
        Ad, bd, _ = _dist_problem()
        faulty = FaultyComm(NRANKS, FaultPlan())
        solver = DistAMGSolver(faulty, multi_node_config("ei", nthreads=2))
        solver.setup(Ad)
        # Swap in a permanently-dead rank only for the solve: setup is a
        # one-time cost a real code would not retry through the solver.
        faulty.plan = FaultPlan(seed=3, rank_failures=((1, 0, 10 ** 9),))
        faulty.clear_logs()
        faulty.clock = 0
        res = solver.solve(bd, max_restarts=3)
        assert not res.converged and res.degraded
        assert "comm fault" in res.degraded_reason

    def test_slow_ranks_surcharge_modeled_time(self):
        Ad, bd, _ = _dist_problem()
        net = FDRInfinibandModel()
        fast = FaultyComm(NRANKS, FaultPlan())
        slow = FaultyComm(NRANKS, FaultPlan(slow_ranks={0: 3.0}))
        _solve(fast, Ad, bd)
        _solve(slow, Ad, bd)
        assert slow.event_counts() == {}  # slowdown is not a fault event
        assert slow.comm_time(net) > fast.comm_time(net)

    def test_dist_pcg_survives_drops(self):
        Ad, bd, _ = _dist_problem()
        clean = SimComm(NRANKS)
        r0 = dist_pcg(clean, Ad, bd, tol=1e-8)
        faulty = FaultyComm(NRANKS, FaultPlan(seed=9, drop_prob=0.05))
        r1 = dist_pcg(faulty, Ad, bd, tol=1e-8)
        assert r0.converged and r1.converged
        np.testing.assert_array_equal(r0.x.to_global(), r1.x.to_global())
        assert any(e.kind == "drop" for e in r1.fault_events)


#: Unpreconditioned distributed Krylov solves on a fault-injecting
#: communicator: iterations, ``degraded_reason``, ``(kind, detail)`` of every
#: fault event and the sha256 prefix of the iterate's bytes.  The iterations
#: and iterates are those of the per-message protocol; the events are the
#: attempt rounds' (one message dropped twice, and every message of the
#: aborting exchange that touches rank 2 reported in each of its 3 rounds).
DROPS = [("drop", "")] + [("drop", ""), ("delivered_after_retry", "")] * 5


def abort(downs):
    return ([("rank_down", "")] * downs
            + [("comm_abort", "rank 2 is down")])


DIST_KRYLOV_FAULTS = {
    ("dist_pcg", "drops"): (19, None, DROPS, "49ce1515dad1706f"),
    ("dist_pcg", "abort"): (17, "rank 2 is down", abort(9), "e782f460d44ed5ef"),
    ("dist_fgmres", "drops"): (19, None, DROPS, "119e27e1fe16af7f"),
    ("dist_fgmres", "abort"): (11, "rank 2 is down", abort(3), "ad7facb2586fc6e9"),
}
FAULT_PLANS = {
    "drops": FaultPlan(seed=9, drop_prob=0.05),
    # Rank 2 dies mid-solve for good: the next exchange exhausts its retries.
    "abort": FaultPlan(seed=1, rank_failures=((2, 150, 10 ** 9),),
                       retry=RetryPolicy(max_retries=2)),
}


class TestDistKrylovFaults:
    @pytest.mark.parametrize("solver", [dist_pcg, dist_fgmres],
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("plan", sorted(FAULT_PLANS))
    def test_events_and_iterate_pinned(self, solver, plan):
        Ad, bd, _ = _dist_problem()
        res = solver(FaultyComm(NRANKS, FAULT_PLANS[plan]), Ad, bd, tol=1e-8)
        assert res.converged == (plan == "drops")
        assert res.degraded == (plan == "abort")
        got = (res.iterations, res.degraded_reason,
               [(e.kind, e.detail) for e in res.fault_events],
               hashlib.sha256(res.x.to_global().tobytes()).hexdigest()[:16])
        assert got == DIST_KRYLOV_FAULTS[(solver.__name__, plan)]


class TestFaultSummary:
    def test_format_fault_summary(self):
        events = [FaultEvent("drop"), FaultEvent("drop"),
                  FaultEvent("delivered_after_retry")]
        text = format_fault_summary(events)
        assert "drop" in text and "2" in text
        assert "delivered_after_retry" in text

    def test_format_fault_summary_empty(self):
        assert "no fault events" in format_fault_summary([])

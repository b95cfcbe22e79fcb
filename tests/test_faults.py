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
from repro.faults import FaultEvent, FaultPlan, RetryPolicy
from repro.faults.comm import ACK_BYTES, FaultyComm, RankFailure, RetriesExhausted
from repro.perf import FDRInfinibandModel
from repro.perf.report import format_fault_summary
from repro.problems import laplace_3d_27pt

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
        plan = FaultPlan(seed=0, rank_failures=((1, 0, 100),))
        rng = np.random.default_rng(0)
        assert plan.draw(rng, 0, 1, clock=5) == "rank_down"
        assert plan.draw(rng, 2, 3, clock=5) is None  # other ranks fine


class TestReliableDelivery:
    def test_clean_delivery_logs_ack(self):
        comm = FaultyComm(2, FaultPlan(seed=0))
        retries = comm.reliable_send(0, 1, 800.0, tag="halo")
        assert retries == 0 and comm.events == []
        tags = [m.event.tag for m in comm.messages]
        assert tags == ["halo", "halo.ack"]
        assert comm.messages[1].event.nbytes == int(ACK_BYTES)

    def test_drop_retries_and_records(self):
        # Certain first-attempt drop is impossible (prob < 1), so drive the
        # probability high and check the protocol survives with retries.
        comm = FaultyComm(2, FaultPlan(seed=1, drop_prob=0.5))
        total_retries = sum(comm.reliable_send(0, 1, 100.0, tag="t")
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
                comm.reliable_send(0, 1, 64.0, tag="x")
            return [(e.kind, e.seq, e.attempt, e.clock) for e in comm.events]

        assert run() == run()

    def test_rank_window_exhausts_as_rank_failure(self):
        plan = FaultPlan(seed=0, rank_failures=((1, 0, 10 ** 9),),
                         retry=RetryPolicy(max_retries=2))
        comm = FaultyComm(2, plan)
        with pytest.raises(RankFailure) as ei:
            comm.reliable_send(0, 1, 10.0, tag="halo")
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
#: communicator, taken before the solvers shared one driver per algorithm:
#: iterations, ``degraded_reason``, ``(kind, detail)`` of every fault event
#: and the sha256 prefix of the iterate's bytes.
DROPS = [("drop", ""), ("delivered_after_retry", "")] * 6
ABORT = [("rank_down", "")] * 3 + [("comm_abort", "rank 2 is down")]
DIST_KRYLOV_FAULTS_AT_PARENT = {
    ("dist_pcg", "drops"): (19, None, DROPS, "49ce1515dad1706f"),
    ("dist_pcg", "abort"): (17, "rank 2 is down", ABORT, "e782f460d44ed5ef"),
    ("dist_fgmres", "drops"): (19, None, DROPS, "119e27e1fe16af7f"),
    ("dist_fgmres", "abort"): (11, "rank 2 is down", ABORT, "ad7facb2586fc6e9"),
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
        assert got == DIST_KRYLOV_FAULTS_AT_PARENT[(solver.__name__, plan)]


class TestFaultSummary:
    def test_format_fault_summary(self):
        events = [FaultEvent("drop"), FaultEvent("drop"),
                  FaultEvent("delivered_after_retry")]
        text = format_fault_summary(events)
        assert "drop" in text and "2" in text
        assert "delivered_after_retry" in text

    def test_format_fault_summary_empty(self):
        assert "no fault events" in format_fault_summary([])

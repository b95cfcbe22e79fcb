"""Static comm-schedule verifier and serve-tier event-order checker.

The contract under test (docs/analysis.md):

* :func:`extract_schedule` rebuilds every level's send/recv graphs from a
  built hierarchy without executing a solve and without charging a single
  kernel record, and a stock hierarchy verifies clean;
* each seeded schedule corruption — planted rendezvous deadlock cycle,
  orphan send/recv, pattern drift — is caught by exactly the intended
  ``sched.*`` invariant id;
* the serve tier's ticket-lifecycle event log is empty at ``off``,
  records under ``cheap``, passes the vector-clock checks on clean runs,
  and flags each planted lifecycle violation (``events.*``);
* two runs of the same workload produce byte-identical event logs
  (the run-twice golden contract), and :func:`diff_event_logs` reports
  ``events.order_divergence`` when they would not.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import (
    CommTrace,
    EventLog,
    InvariantViolation,
    Schedule,
    SkippedCheck,
    TraceMessage,
    check_comm_trace,
    check_event_log,
    check_schedule,
    diff_event_logs,
    extract_schedule,
    format_schedule_report,
    get_check_level,
    message_matrix,
    scan_comm_trace,
    scan_event_log,
    scan_schedule,
    schedule_to_json,
    set_check_level,
)
from repro.analysis.events import EVENT_KINDS, EVENTS_SCHEMA
from repro.analysis.sched import CommOp, ExchangeSchedule, compile_programs
from repro.config import multi_node_config
from repro.dist import DistAMGSolver, ParCSRMatrix, RowPartition, SimComm
from repro.perf import collect
from repro.problems import laplace_2d_5pt
from repro.serve import ServiceConfig, SolveService, build, named_workload


@pytest.fixture(autouse=True)
def _restore_check_level():
    prev = get_check_level()
    yield
    set_check_level(prev)


def _dist_hierarchy(n=20, nranks=4):
    A = laplace_2d_5pt(n)
    comm = SimComm(nranks)
    part = RowPartition.uniform(A.nrows, nranks)
    Ad = ParCSRMatrix.from_global(A, part)
    solver = DistAMGSolver(comm, multi_node_config("ei"))
    solver.setup(Ad)
    return solver.hierarchy


def _ids(findings):
    return [f.invariant for f in findings]


# ---------------------------------------------------------------------------
# Schedule extraction: stock hierarchies are clean and extraction is free
# ---------------------------------------------------------------------------

class TestExtraction:
    def test_stock_hierarchy_verifies_clean_and_charges_nothing(self):
        h = _dist_hierarchy()
        with collect() as log:
            sched = extract_schedule(h)
            findings = scan_schedule(sched)
        assert findings == []
        assert log.records == []  # static analysis charges no kernel records
        assert sched.nranks == 4
        assert sched.nlevels >= 2
        # The finest level exchanges A, P and R halos.
        ops0 = {ex.operator for ex in sched.exchanges if ex.level == 0}
        assert ops0 == {"A", "P", "R"}

    def test_four_views_agree_on_stock_hierarchy(self):
        for ex in extract_schedule(_dist_hierarchy()).exchanges:
            assert ex.declared == ex.implied == ex.recvs
            if ex.persistent:
                assert ex.registered == ex.declared

    def test_check_schedule_accepts_hierarchy(self):
        check_schedule(_dist_hierarchy())  # does not raise

    def test_matrix_totals_match_exchange_round_bytes(self):
        sched = extract_schedule(_dist_hierarchy())
        mat = message_matrix(sched)
        total = sum(sum(row) for row in mat["total"]["bytes"])
        assert total == sum(ex.round_bytes for ex in sched.exchanges)
        assert total > 0
        # No rank talks to itself in the matrix.
        for s in range(sched.nranks):
            assert mat["total"]["counts"][s][s] == 0

    def test_report_and_json_are_deterministic(self):
        h = _dist_hierarchy()
        s1, s2 = extract_schedule(h), extract_schedule(h)
        assert schedule_to_json(s1) == schedule_to_json(s2)
        doc = json.loads(schedule_to_json(s1))
        assert doc["schema"] == "repro.sched/1"
        report = format_schedule_report(s1, findings=[])
        assert "verified clean" in report
        assert "message volume matrix" in report


# ---------------------------------------------------------------------------
# Seeded schedule violations: one per sched.* invariant
# ---------------------------------------------------------------------------

def _exchange(declared, *, implied=None, recvs=None, registered=None,
              level=0, operator="A"):
    return ExchangeSchedule(
        level=level, operator=operator, tag="halo", persistent=False,
        bytes_per_elem=8, implied=dict(implied if implied is not None
                                       else declared),
        declared=dict(declared),
        recvs=dict(recvs if recvs is not None else declared),
        registered=registered)


class TestSeededScheduleViolations:
    def test_planted_deadlock_cycle(self):
        # Two ranks, each parked in a rendezvous send to the other with no
        # receive posted anywhere: the canonical head-to-head deadlock.
        sched = Schedule(nranks=2, programs=[
            [CommOp("send", 1, "halo", 4, blocking=True)],
            [CommOp("send", 0, "halo", 4, blocking=True)],
        ])
        findings = scan_schedule(sched)
        assert "sched.deadlock_cycle" in _ids(findings)
        (dead,) = [f for f in findings
                   if f.invariant == "sched.deadlock_cycle"]
        assert "ranks [0, 1]" in dead.detail

    def test_three_rank_cycle_detected_as_one_scc(self):
        # 0 -> 1 -> 2 -> 0 ring of rendezvous sends, no receives.
        sched = Schedule(nranks=3, programs=[
            [CommOp("send", 1, "t", 1, blocking=True)],
            [CommOp("send", 2, "t", 1, blocking=True)],
            [CommOp("send", 0, "t", 1, blocking=True)],
        ])
        assert _ids(scan_schedule(sched)) == ["sched.deadlock_cycle"]

    def test_prepost_then_rendezvous_does_not_deadlock(self):
        # The schedule compile_programs emits — pre-posted non-blocking
        # receives before rendezvous sends — is deadlock-free even for a
        # fully symmetric pattern.
        sched = Schedule(nranks=2, exchanges=[
            _exchange({(0, 1): 4, (1, 0): 4})])
        assert scan_schedule(sched) == []
        progs = compile_programs(sched)
        assert [op.kind for op in progs[0]] == ["recv", "send"]

    def test_unmatched_send_blocks_forever(self):
        # Rank 0 sends but rank 1 never posts the receive.
        sched = Schedule(nranks=2, programs=[
            [CommOp("send", 1, "t", 2, blocking=True)],
            [],
        ])
        assert _ids(scan_schedule(sched)) == ["sched.unmatched_send"]

    def test_unmatched_recv_never_fires(self):
        sched = Schedule(nranks=2, programs=[
            [CommOp("recv", 1, "t", 2, blocking=False)],
            [],
        ])
        assert _ids(scan_schedule(sched)) == ["sched.unmatched_recv"]

    def test_orphan_send_in_declared_pattern(self):
        f = scan_schedule(Schedule(nranks=2, exchanges=[
            _exchange({(0, 1): 4}, recvs={})]))
        assert "sched.unmatched_send" in _ids(f)

    def test_orphan_recv_plan_entry(self):
        f = scan_schedule(Schedule(nranks=2, exchanges=[
            _exchange({}, recvs={(0, 1): 4})]))
        assert "sched.unmatched_recv" in _ids(f)

    def test_pattern_mismatch_against_colmap_implied(self):
        f = scan_schedule(Schedule(nranks=2, exchanges=[
            _exchange({(0, 1): 6}, implied={(0, 1): 5})]))
        assert "sched.pattern_mismatch" in _ids(f)

    def test_persistent_mismatch(self):
        f = scan_schedule(Schedule(nranks=2, exchanges=[
            _exchange({(0, 1): 4}, registered={(0, 1): 3})]))
        assert "sched.persistent_mismatch" in _ids(f)

    def test_self_message_and_rank_range(self):
        f = scan_schedule(Schedule(nranks=2, exchanges=[
            _exchange({(1, 1): 2, (5, 0): 1})]))
        assert "sched.self_message" in _ids(f)
        assert "sched.rank_range" in _ids(f)

    def test_collective_order_divergence(self):
        sched = Schedule(nranks=2, collectives=[
            ["allreduce", "bcast"], ["allreduce", "allgather"]])
        f = scan_schedule(sched)
        assert _ids(f) == ["sched.collective_order"]
        assert "collective #1" in f[0].detail

    def test_corrupted_halo_pattern_on_real_hierarchy(self):
        # End to end: tamper a built hierarchy's frozen halo pattern and
        # the verifier must notice the drift from the colmap-implied graph.
        h = _dist_hierarchy()
        halo = h.levels[0].halo
        (src, dst), n = next(iter(sorted(halo.pattern.items())))
        halo.pattern[(src, dst)] = n + 1
        ids = _ids(scan_schedule(extract_schedule(h)))
        assert "sched.pattern_mismatch" in ids
        with pytest.raises(InvariantViolation):
            check_schedule(h)

    def test_report_lists_violations(self):
        sched = Schedule(nranks=2, exchanges=[
            _exchange({(0, 1): 4}, recvs={})])
        report = format_schedule_report(sched,
                                        findings=scan_schedule(sched))
        assert "violations" in report
        assert "sched.unmatched_send" in report


# ---------------------------------------------------------------------------
# Event log: gating, recording, schema
# ---------------------------------------------------------------------------

class TestEventLog:
    def test_gated_off_by_default(self):
        set_check_level("off")
        log = EventLog()
        log.record("service", "submit", ticket=1)
        assert len(log) == 0
        set_check_level("cheap")
        log.record("service", "submit", ticket=1)
        assert len(log) == 1

    def test_pinned_enabled_overrides_level(self):
        set_check_level("off")
        log = EventLog(enabled=True)
        log.record("service", "submit", ticket=1)
        assert len(log) == 1
        set_check_level("full")
        off = EventLog(enabled=False)
        off.record("service", "submit", ticket=1)
        assert len(off) == 0

    def test_snapshot_schema_is_stable(self):
        log = EventLog(enabled=True)
        log.record("service", "submit", time=0.5, ticket=3, detail="batch")
        doc = json.loads(log.to_json())
        assert doc["schema"] == EVENTS_SCHEMA
        (ev,) = doc["events"]
        assert sorted(ev) == ["actor", "detail", "kind", "rank", "seq",
                              "ticket", "time"]

    def test_service_records_nothing_at_off(self):
        set_check_level("off")
        svc = SolveService(ServiceConfig(max_batch=4))
        svc.run_workload(build(named_workload("tiny")))
        assert len(svc.events) == 0

    def test_vocabulary_covers_recorded_kinds(self):
        set_check_level("cheap")
        svc = SolveService(ServiceConfig(max_batch=4))
        svc.run_workload(build(named_workload("tiny")))
        kinds = {ev.kind for ev in svc.events.events}
        assert kinds  # the log actually recorded
        assert kinds <= EVENT_KINDS


# ---------------------------------------------------------------------------
# Event checker: clean runs pass, planted violations are flagged
# ---------------------------------------------------------------------------

def _run_tiny(**cfg):
    svc = SolveService(ServiceConfig(max_batch=4, **cfg))
    svc.run_workload(build(named_workload("tiny")))
    return svc


class TestEventChecker:
    def test_clean_run_passes_and_is_deterministic(self):
        set_check_level("cheap")
        a, b = _run_tiny(), _run_tiny()
        assert scan_event_log(a.events) == []
        check_event_log(a.events)
        diff_event_logs(a.events, b.events)  # run-twice: no divergence
        assert a.events.to_json() == b.events.to_json()  # golden bytes

    def test_planted_double_completion(self):
        log = EventLog(enabled=True)
        for kind in ("submit", "admit", "batch", "solve", "result",
                     "result"):
            log.record("service", kind, ticket=7)
        ids = _ids(scan_event_log(log))
        assert "events.double_completion" in ids

    def test_retract_resets_the_lifecycle(self):
        # result -> retract -> (failover) -> solve -> result is the legal
        # chaos path: the retract clears the first completion.
        log = EventLog(enabled=True)
        for kind in ("submit", "admit", "batch", "solve", "result",
                     "retract", "failover", "solve", "result"):
            log.record("rank0", kind, ticket=7)
        # Two admits never happened, so ignore the slot imbalance check by
        # balancing: the single admit was released by the first solve.
        ids = _ids(scan_event_log(log))
        assert "events.double_completion" not in ids

    def test_planted_slot_leak(self):
        log = EventLog(enabled=True)
        log.record("service", "submit", ticket=3)
        log.record("service", "admit", ticket=3)
        assert _ids(scan_event_log(log)) == ["events.slot_leak"]

    def test_planted_result_before_solve(self):
        log = EventLog(enabled=True)
        log.record("service", "submit", ticket=2)
        log.record("service", "admit", ticket=2)
        log.record("service", "result", ticket=2)
        ids = _ids(scan_event_log(log))
        assert "events.result_before_solve" in ids

    def test_planted_lost_cancel(self):
        log = EventLog(enabled=True)
        log.record("router", "cancel", ticket=5, rank=2)
        log.record("router", "deliver", ticket=5, rank=2,
                   detail="completed")
        ids = _ids(scan_event_log(log))
        assert "events.lost_cancel" in ids

    def test_cancelled_delivery_is_not_a_lost_cancel(self):
        log = EventLog(enabled=True)
        log.record("router", "cancel", ticket=5, rank=2)
        log.record("router", "deliver", ticket=5, rank=2,
                   detail="cancelled")
        assert "events.lost_cancel" not in _ids(scan_event_log(log))

    def test_unknown_kind_is_schema_drift(self):
        log = EventLog(enabled=True)
        log.record("service", "frobnicate", ticket=1)
        assert _ids(scan_event_log(log)) == ["events.unknown_kind"]

    def test_same_ticket_id_on_different_ranks_not_conflated(self):
        # Local ticket ids restart at 0 on every rank; two rank-local
        # lifecycles under the same id must be checked independently.
        log = EventLog(enabled=True)
        for actor in ("rank0", "rank1"):
            for kind in ("submit", "admit", "batch", "solve", "result"):
                log.record(actor, kind, ticket=0)
        assert scan_event_log(log) == []

    def test_cross_actor_happens_before_links_router_to_rank(self):
        # A result recorded by the rank after the router routed the same
        # (rank, ticket) inherits the router's clock — so a rank-side
        # solve satisfies the router-side delivery ordering.
        log = EventLog(enabled=True)
        log.record("router", "route", ticket=4, rank=1)
        log.record("rank1", "submit", ticket=4)
        log.record("rank1", "admit", ticket=4)
        log.record("rank1", "batch", ticket=4)
        log.record("rank1", "solve", ticket=4)
        log.record("rank1", "result", ticket=4)
        assert scan_event_log(log) == []

    def test_diff_event_logs_flags_divergence(self):
        a, b = EventLog(enabled=True), EventLog(enabled=True)
        a.record("service", "submit", ticket=1)
        b.record("service", "submit", ticket=2)
        with pytest.raises(InvariantViolation) as exc:
            diff_event_logs(a, b)
        assert exc.value.invariant == "events.order_divergence"

    def test_diff_event_logs_flags_length_divergence(self):
        a, b = EventLog(enabled=True), EventLog(enabled=True)
        a.record("service", "submit", ticket=1)
        b.record("service", "submit", ticket=1)
        b.record("service", "admit", ticket=1)
        with pytest.raises(InvariantViolation, match="length"):
            diff_event_logs(a, b)


# ---------------------------------------------------------------------------
# Sharded runs (routing + chaos) pass the checker and stay deterministic
# ---------------------------------------------------------------------------

class TestShardedEvents:
    def _run(self, plan=None):
        from repro.serve import ShardedSolveService

        svc = ShardedSolveService(
            ServiceConfig(ranks=4, replicas=2, max_batch=4),
            fault_plan=plan)
        svc.run_workload(build(named_workload("tiny")))
        return svc

    def test_fleet_log_is_shared_and_clean(self):
        set_check_level("cheap")
        svc = self._run()
        actors = {ev.actor for ev in svc.events.events}
        assert "router" in actors
        assert any(a.startswith("rank") for a in actors)
        assert scan_event_log(svc.events) == []

    def test_chaos_run_is_clean_and_run_twice_identical(self):
        from repro.faults import ShardFaultPlan

        set_check_level("cheap")
        plan = ShardFaultPlan.from_dict(
            {"seed": 7, "crashes": [[1, 0.004, 0.012]]})
        a, b = self._run(plan), self._run(plan)
        assert scan_event_log(a.events) == []
        diff_event_logs(a.events, b.events)
        assert a.events.to_json() == b.events.to_json()


# ---------------------------------------------------------------------------
# Faulty comm traces: structured skips instead of silent clean reports
# ---------------------------------------------------------------------------

class TestSkippedChecks:
    def _trace(self, **kw):
        base = dict(nranks=2,
                    messages=[TraceMessage(0, 1, 64.0, tag="halo")],
                    collectives=[[], []])
        base.update(kw)
        return CommTrace(**base)

    def test_faulty_trace_skips_send_ack_matching(self):
        trace = self._trace(reliable=True, faulty=True)
        findings, skips = scan_comm_trace(trace, with_skips=True)
        assert findings == []
        assert [s.check for s in skips] == ["comm.unreceived_send"]
        assert "faults fired" in skips[0].reason

    def test_faulty_trace_still_judges_persistent_drift(self):
        # Retransmissions are never persistent, so a faulty trace's
        # persistent traffic is whole first rounds: drift is still caught.
        patterns = {"halo": [[(0, 1)]]}
        trace = self._trace(faulty=True, messages=[
            TraceMessage(0, 1, 64.0, "halo", True),
            TraceMessage(0, 1, 64.0, "halo.retry", False),
            TraceMessage(1, 0, 64.0, "halo", True)])
        findings, skips = scan_comm_trace(
            trace, persistent_patterns=patterns, with_skips=True)
        assert skips == []
        assert [f.invariant for f in findings] == ["comm.persistent_drift"]
        assert "1->0" in findings[0].detail
        trace.messages.pop()
        assert scan_comm_trace(trace, persistent_patterns=patterns) == []

    def test_clean_trace_has_no_skips(self):
        _, skips = scan_comm_trace(self._trace(), with_skips=True)
        assert skips == []

    def test_check_warns_and_returns_skips(self):
        trace = self._trace(reliable=True, faulty=True)
        with pytest.warns(RuntimeWarning, match="comm.unreceived_send"):
            skips = check_comm_trace(trace)
        assert [s.check for s in skips] == ["comm.unreceived_send"]
        assert all(isinstance(s, SkippedCheck) for s in skips)

    def test_faulty_trace_still_raises_judgeable_findings(self):
        trace = self._trace(
            reliable=True, faulty=True,
            messages=[TraceMessage(0, 5, 64.0, tag="halo")])
        with pytest.warns(RuntimeWarning):
            with pytest.raises(InvariantViolation) as exc:
                check_comm_trace(trace)
        assert exc.value.invariant == "comm.rank_range"


# ---------------------------------------------------------------------------
# CLI: python -m repro verify-comm
# ---------------------------------------------------------------------------

class TestVerifyCommCLI:
    def test_verify_comm_clean_and_json(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "sched.json"
        rc = main(["verify-comm", "--problem", "lap2d", "--size", "16",
                   "--ranks", "4", "--json", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "verified clean" in text
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro.sched/1"
        assert doc["nranks"] == 4

    def test_serve_bench_runs_event_check_under_cheap(self, capsys):
        from repro.__main__ import main

        rc = main(["serve-bench", "--workload", "tiny",
                   "--check", "cheap"])
        assert rc == 0
        assert "workload" in capsys.readouterr().out

"""Tests for the fault-tolerant sharded serving lifecycle (ISSUE 7).

Covers the tentpole guarantees: ShardFaultPlan JSON round-trip and
validation, deterministic chaos runs (identical result streams and
metrics bytes), the health tracker's breaker walk
(closed -> open -> half_open -> closed), failover with structured
``failed`` results when the retry budget runs out, cancellation through
the failover redirect map, hedged interactive requests (won / lost),
cache re-warm accounting on rejoin, degraded-request isolation across a
failover, and the no-fault bit-identity contracts: no plan vs. an empty
plan, and ranks=1 vs. the plain SolveService.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.faults import RetryPolicy, ShardFaultPlan
from repro.problems import laplace_2d_5pt, laplace_3d_7pt
from repro.serve import (
    SERVICE_STATUSES,
    ServiceConfig,
    ShardedSolveService,
    SolveService,
    build,
    named_workload,
    widened,
)
from repro.sparse import CSRMatrix


def _fleet_config(ranks, **kw):
    base = dict(ranks=ranks, replicas=min(2, ranks), max_batch=4,
                cache_entries=64, max_queue=256)
    base.update(kw)
    return ServiceConfig(**base)


#: One mid-stream kill-and-rejoin of rank 1 (modeled seconds).
KILL_REJOIN = ShardFaultPlan(seed=7, crashes=((1, 0.004, 0.012),))


# ---------------------------------------------------------------------------
# ShardFaultPlan
# ---------------------------------------------------------------------------

def test_plan_json_round_trip():
    plan = ShardFaultPlan(
        seed=11, crashes=((1, 0.01, 0.025),),
        flaps=((2, 0.005, 0.015, 0.004),), slow=((3, 0.0, 0.02, 0.5),),
        retry=RetryPolicy(max_retries=2, timeout=1e-4, backoff=3.0))
    again = ShardFaultPlan.from_json(plan.to_json())
    assert again == plan
    assert again.retry == plan.retry


def test_plan_json_file_round_trip(tmp_path):
    path = tmp_path / "plan.json"
    KILL_REJOIN.to_json(path)
    assert ShardFaultPlan.from_json_file(path) == KILL_REJOIN


def test_plan_validates_windows():
    with pytest.raises(ValueError, match="crash"):
        ShardFaultPlan(crashes=((0, 0.02, 0.01),))
    with pytest.raises(ValueError, match="crash"):
        ShardFaultPlan(crashes=((-1, 0.0, 0.01),))
    with pytest.raises(ValueError, match="flap"):
        ShardFaultPlan(flaps=((0, 0.0, 0.01, 0.0),))
    with pytest.raises(ValueError, match="slow"):
        ShardFaultPlan(slow=((0, 0.0, 0.01, 1.0),))


def test_plan_queries():
    plan = ShardFaultPlan(crashes=((1, 0.01, 0.02), (1, 0.015, 0.03),
                                   (2, 0.0, 0.005)))
    assert not plan.is_empty and ShardFaultPlan().is_empty
    assert plan.ranks() == (1, 2)
    # Overlapping crash windows coalesce.
    assert plan.down_windows(1) == ((0.01, 0.03),)
    assert plan.is_down(1, 0.02) and not plan.is_down(1, 0.03)
    assert plan.end_time() == 0.03
    # Flap down-phases are the first half of each period.
    flappy = ShardFaultPlan(flaps=((0, 0.0, 0.01, 0.004),))
    assert flappy.is_down(0, 0.001) and not flappy.is_down(0, 0.003)


# ---------------------------------------------------------------------------
# Determinism and the no-fault bit-identity contracts
# ---------------------------------------------------------------------------

def _chaos_run(plan):
    spec = widened(named_workload("mixed"), copies=4, requests=48)
    svc = ShardedSolveService(_fleet_config(4), fault_plan=plan)
    results = svc.run_workload(build(spec))
    stream = [(r.status, r.rank, r.home_rank, r.retries, r.failovers,
               r.hedged, r.original_rank, r.net_seconds) for r in results]
    return svc.metrics_json(), stream


def test_chaos_run_is_deterministic():
    assert _chaos_run(KILL_REJOIN) == _chaos_run(KILL_REJOIN)


def test_empty_plan_is_byte_identical_to_no_plan():
    # The acceptance contract: an all-empty plan must leave the scheduler,
    # the metrics, and the JSON bytes exactly as if no plan were passed.
    without, stream_a = _chaos_run(None)
    with_empty, stream_b = _chaos_run(ShardFaultPlan())
    assert without == with_empty
    assert stream_a == stream_b
    assert '"faults"' not in with_empty


def test_single_rank_empty_plan_matches_solve_service():
    spec = named_workload("tiny")
    plain = SolveService(ServiceConfig())
    plain.run_workload(build(spec))
    shard = ShardedSolveService(ServiceConfig(ranks=1),
                                fault_plan=ShardFaultPlan())
    shard.run_workload(build(spec))
    assert plain.metrics_json() == shard.services[0].metrics_json()


def test_crash_shorter_than_detection_costs_nothing():
    # Loss starts at detection (down_after x heartbeat_interval = 3 ms by
    # default): rank 3, dead 1.5-3.5 ms, is only ever suspect, and serves
    # the requests that reach it in the window as if it were up.
    spec = dataclasses.replace(
        widened(named_workload("mixed"), copies=4, requests=96),
        rate=16000.0)
    workload = build(spec)

    def run(plan):
        svc = ShardedSolveService(_fleet_config(4), fault_plan=plan)
        results = svc.run_workload(workload)
        return svc, [(r.status, r.rank, r.wait_seconds, r.solve_seconds,
                      r.net_seconds, r.retries, r.failovers)
                     for r in results]

    _, clean = run(None)
    svc, crashed = run(ShardFaultPlan(crashes=((3, 0.0015, 0.0035),)))
    assert crashed == clean
    in_window = [r for r, item in zip(crashed, workload.items)
                 if r[1] == 3 and 0.0015 <= item.arrival < 0.0035]
    assert len(in_window) == 13
    faults = json.loads(svc.metrics_json())["sharded"]["faults"]
    assert faults["health"]["availability"] == 1.0
    assert faults["failovers"] == 0
    assert [t["state"] for t in faults["health"]["transitions"]] == [
        "suspect", "up"]


def test_faults_section_only_under_chaos():
    spec = named_workload("tiny")
    svc = ShardedSolveService(_fleet_config(4), fault_plan=KILL_REJOIN)
    svc.run_workload(build(spec))
    snap = json.loads(svc.metrics_json())
    faults = snap["sharded"]["faults"]
    for key in ("failovers", "evacuated", "lost_inflight", "failed",
                "hedges", "rewarm", "health", "breaker_transitions"):
        assert key in faults
    assert 0.0 < faults["health"]["availability"] < 1.0


# ---------------------------------------------------------------------------
# The failure lifecycle: health, failover, recovery
# ---------------------------------------------------------------------------

def test_breaker_walks_closed_open_half_open_closed():
    svc = ShardedSolveService(_fleet_config(4), fault_plan=KILL_REJOIN)
    svc.run_workload(build(named_workload("tiny")))
    health = svc.metrics_snapshot()["sharded"]["faults"]["health"]
    walk = [(e["state"], e["breaker"]) for e in health["transitions"]
            if e["rank"] == 1]
    assert walk == [("suspect", "closed"), ("down", "open"),
                    ("rejoining", "half_open"), ("up", "closed")]
    assert health["states"] == ["up"] * 4
    assert health["heartbeats_missed"] > 0


def test_kill_and_rejoin_recovers_with_rewarm_accounting():
    spec = widened(named_workload("mixed"), copies=4, requests=48)
    svc = ShardedSolveService(_fleet_config(4), fault_plan=KILL_REJOIN)
    results = svc.run_workload(build(spec))
    # Every request terminates with a structured status.
    assert all(r is not None and r.status in SERVICE_STATUSES
               for r in results)
    faults = svc.metrics_snapshot()["sharded"]["faults"]
    # The rank rejoined warm: nonzero state-transfer accounting.
    assert faults["rewarm"]["events"] == 1
    assert faults["rewarm"]["entries"] > 0
    assert faults["rewarm"]["bytes"] > 0
    assert faults["rewarm"]["seconds"] > 0.0
    # The dead rank is back in the ring afterwards.
    assert svc.ring.members == (0, 1, 2, 3)
    # Displaced work carries its provenance.
    displaced = [r for r in results if r.failovers > 0]
    if displaced:
        assert all(r.original_rank >= 0 and r.retries >= r.failovers
                   for r in displaced)


def test_displaced_requests_fail_over_and_pay_the_network():
    # A crash mid-burst displaces queued + in-flight work; the failovers
    # are charged backoff and re-forward bytes on the modeled network.
    from dataclasses import asdict

    from repro.serve import WorkloadSpec

    spec = widened(named_workload("mixed"), copies=4, requests=64)
    spec = WorkloadSpec.from_dict({**asdict(spec), "rate": 2000.0})
    plan = ShardFaultPlan(seed=5, crashes=((0, 0.002, 0.010),
                                           (2, 0.003, 0.011)))
    svc = ShardedSolveService(_fleet_config(4), fault_plan=plan)
    results = svc.run_workload(build(spec))
    assert all(r.status in SERVICE_STATUSES for r in results)
    faults = svc.metrics_snapshot()["sharded"]["faults"]
    assert faults["failovers"] > 0
    assert faults["evacuated"] + faults["lost_inflight"] == \
        faults["failovers"] + faults["failed"]
    assert faults["failover_bytes"] > 0
    assert faults["retry_backoff_seconds"] > 0.0
    moved = [r for r in results if r.failovers > 0]
    assert moved
    for r in moved:
        assert r.original_rank in (0, 2)
        assert r.rank != r.original_rank or r.failovers > 1
        assert r.net_seconds > 0.0


def test_exhausted_retries_resolve_to_structured_failed():
    # Every rank down at once with a one-retry budget: requests caught in
    # the blackout resolve to ``failed``, never an exception or a hang.
    plan = ShardFaultPlan(
        seed=2, crashes=tuple((r, 0.001, 0.02) for r in range(4)),
        retry=RetryPolicy(max_retries=1))
    svc = ShardedSolveService(_fleet_config(4), fault_plan=plan)
    results = svc.run_workload(build(named_workload("tiny")))
    assert all(r is not None and r.status in SERVICE_STATUSES
               for r in results)
    failed = [r for r in results if r.status == "failed"]
    assert failed
    for r in failed:
        assert not r.converged and r.x is None
        assert r.degraded_reason.startswith("failed:")
    assert svc.metrics_snapshot()["sharded"]["faults"]["failed"] == \
        len(failed)


def test_cancel_follows_the_failover_redirect():
    # lap2d(10) homes on rank 1 at ranks=2/replicas=1 (pinned by the
    # SHA-256 ring); rank 1 dies at t=0 so the request re-homes to rank 0,
    # where it must still be cancellable -- and free its queue slot.
    A = laplace_2d_5pt(10)
    plan = ShardFaultPlan(seed=3, crashes=((1, 0.0, 0.01),))
    svc = ShardedSolveService(ServiceConfig(ranks=2, replicas=1),
                              fault_plan=plan)
    t = svc.submit(A, np.ones(A.nrows), arrival=0.0)
    assert t.rank == 1
    svc._advance_to(0.0035)  # past detection: down after 3 missed probes
    assert svc._redirects == {(1, 0): (0, 0)}
    assert svc.services[0].queue_depth == 1
    assert svc.cancel(t)
    assert svc.services[0].queue_depth == 0
    svc.run()
    res = svc.result(t)
    assert res.status == "cancelled"
    assert not svc.cancel(t)


def test_degraded_request_stays_isolated_across_failover():
    # The indefinite operator breaks CG wherever it lands.  Its home rank
    # (rank 0) dies mid-flight, so the request fails over to rank 1 and
    # degrades *there* -- while rank 1's own clean traffic stays clean.
    bad = CSRMatrix.from_dense(np.diag([1.0, -2.0, 3.0, -4.0]))
    good = laplace_2d_5pt(8)
    plan = ShardFaultPlan(seed=3, crashes=((0, 0.0, 0.008),))
    svc = ShardedSolveService(ServiceConfig(ranks=2, replicas=1),
                              fault_plan=plan)
    t_bad = svc.submit(bad, np.array([0.0, 1.0, 0.0, 0.0]), method="cg",
                       arrival=0.0)
    assert t_bad.rank == 0
    rng = np.random.default_rng(3)
    t_good = [svc.submit(good, rng.standard_normal(good.nrows), arrival=0.0)
              for _ in range(4)]
    svc.run()
    res_bad = svc.result(t_bad)
    assert res_bad.status == "completed" and res_bad.degraded
    assert res_bad.rank == 1 and res_bad.failovers == 1
    assert res_bad.original_rank == 0
    for t in t_good:
        r = svc.result(t)
        assert r.status == "completed" and r.converged and not r.degraded
        assert r.failovers == 0
    snap = svc.metrics_snapshot()
    assert snap["ranks"][1]["service"]["counters"]["degraded"] == 1


# ---------------------------------------------------------------------------
# Hedged requests
# ---------------------------------------------------------------------------

#: Chaos-activating plan that injects nothing observable (miss_prob 0),
#: used to exercise hedging without any rank ever going down.
_HARMLESS = ShardFaultPlan(seed=1, slow=((0, 0.0, 0.0005, 0.0),))


def test_hedge_wins_against_a_straggling_home_rank():
    # A giant solve occupies rank 1; the interactive request queued behind
    # it is duplicated to idle rank 0 at the first heartbeat past its
    # hedge deadline, and the duplicate finishes first.
    giant = laplace_3d_7pt(12)   # homes on rank 1, like lap2d(10)
    small = laplace_2d_5pt(10)
    svc = ShardedSolveService(
        ServiceConfig(ranks=2, replicas=1, max_batch=1,
                      hedge_delay=1e-4, heartbeat_interval=5e-4),
        fault_plan=_HARMLESS)
    rng = np.random.default_rng(0)
    tg = svc.submit(giant, rng.standard_normal(giant.nrows), arrival=0.0)
    ts = svc.submit(small, rng.standard_normal(small.nrows),
                    priority="interactive", arrival=1e-5)
    svc.run()
    res = svc.result(ts)
    assert res.status == "completed" and res.hedged
    assert res.rank == 0 and res.home_rank == 1
    assert svc.result(tg).status == "completed"
    hedges = svc.metrics_snapshot()["sharded"]["faults"]["hedges"]
    assert hedges == {**hedges, "issued": 1, "won": 1, "lost": 0}
    assert hedges["bytes"] > 0 and hedges["seconds"] > 0.0


def test_hedge_loses_when_the_primary_finishes_first():
    # Every copy of the same fast key hedges, but the home rank's warm
    # cache beats the cold duplicates: all hedges lose, nothing is marked
    # hedged, and every request still completes exactly once.
    A = laplace_2d_5pt(10)
    svc = ShardedSolveService(
        ServiceConfig(ranks=2, replicas=1, max_batch=1,
                      hedge_delay=1e-4, heartbeat_interval=5e-4),
        fault_plan=_HARMLESS)
    rng = np.random.default_rng(0)
    tickets = [svc.submit(A, rng.standard_normal(A.nrows),
                          priority="interactive", arrival=0.0)
               for _ in range(8)]
    svc.run()
    results = [svc.result(t) for t in tickets]
    assert all(r.status == "completed" and not r.hedged for r in results)
    hedges = svc.metrics_snapshot()["sharded"]["faults"]["hedges"]
    assert hedges["issued"] > 0
    assert hedges["won"] == 0
    assert hedges["issued"] == (hedges["won"] + hedges["lost"]
                                + hedges["cancelled"])


def test_batch_requests_are_never_hedged():
    A = laplace_2d_5pt(10)
    svc = ShardedSolveService(
        ServiceConfig(ranks=2, replicas=1, max_batch=1,
                      hedge_delay=1e-4, heartbeat_interval=5e-4),
        fault_plan=_HARMLESS)
    rng = np.random.default_rng(0)
    tickets = [svc.submit(A, rng.standard_normal(A.nrows), arrival=0.0)
               for _ in range(6)]
    svc.run()
    assert all(svc.result(t).status == "completed" for t in tickets)
    assert svc.metrics_snapshot()["sharded"]["faults"]["hedges"]["issued"] \
        == 0


# ---------------------------------------------------------------------------
# Configuration surface
# ---------------------------------------------------------------------------

def test_service_config_validates_fault_fields():
    with pytest.raises(ValueError, match="heartbeat_interval"):
        ServiceConfig(heartbeat_interval=0.0)
    with pytest.raises(ValueError, match="suspect_after"):
        ServiceConfig(suspect_after=0)
    with pytest.raises(ValueError, match="down_after"):
        ServiceConfig(suspect_after=3, down_after=2)
    with pytest.raises(ValueError, match="hedge_delay"):
        ServiceConfig(hedge_delay=0.0)
    with pytest.raises(ValueError, match="rewarm_top_k"):
        ServiceConfig(rewarm_top_k=-1)


def test_autoscale_conflicts_with_a_fault_plan():
    with pytest.raises(ValueError, match="autoscale"):
        ShardedSolveService(
            ServiceConfig(ranks=4, autoscale=True), fault_plan=KILL_REJOIN)
    # An *empty* plan is inert and composes with autoscaling.
    ShardedSolveService(ServiceConfig(ranks=4, autoscale=True),
                        fault_plan=ShardFaultPlan())


def test_hedge_delay_needs_a_fault_plan():
    # Hedges fire at heartbeat ticks, which only a non-empty fault plan
    # drives: a hedge_delay without one would silently never hedge.
    cfg = ServiceConfig(ranks=4, hedge_delay=1e-4)
    for plan in (None, ShardFaultPlan()):
        with pytest.raises(ValueError, match="hedge_delay"):
            ShardedSolveService(cfg, fault_plan=plan)
    ShardedSolveService(cfg, fault_plan=_HARMLESS)


def test_cli_hedge_delay_without_chaos_exits_with_the_message():
    from repro.__main__ import main

    for ranks in ("1", "4"):
        with pytest.raises(SystemExit, match="hedge_delay needs"):
            main(["serve-bench", "--workload", "tiny", "--ranks", ranks,
                  "--hedge-delay", "1e-5"])

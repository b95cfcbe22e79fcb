"""Tests for the sharded multi-rank service tier (repro.serve.shard) and
the consolidated SolveOptions/ServiceConfig API surface.

Covers the tentpole guarantees of the sharded tier: consistent-hash ring
stability (adding a rank moves ~1/N of the key space), deterministic
routing and metrics for a seeded workload, modeled network charges on
forwarded requests, degraded requests staying isolated to their rank,
bit-identity of the ranks=1 path against the plain SolveService, load
shedding, the queue-depth autoscaler, and a byte-identity matrix pinning
results and metrics of the one router across fault-free and fault-plan
runs — plus the API satellites: SolveOptions keyword folding and conflict
detection, ServiceConfig as the one way to configure a service, and the
sorted top-level ``__all__``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields

import numpy as np
import pytest

import repro
from repro.api import SolveOptions, setup, solve, solve_many
from repro.faults import ShardFaultPlan
from repro.problems import laplace_2d_5pt
from repro.serve import (
    HashRing,
    ServiceConfig,
    ShardedSolveService,
    ShardTicket,
    SolveService,
    build,
    named_workload,
    widened,
)
from repro.sparse import CSRMatrix


# ---------------------------------------------------------------------------
# HashRing
# ---------------------------------------------------------------------------

def _keys(n):
    return [f"key:{i}" for i in range(n)]


def test_ring_lookup_is_deterministic_and_member_valid():
    ring = HashRing(range(5))
    for key in _keys(64):
        rank = ring.lookup(key)
        assert 0 <= rank < 5
        assert ring.lookup(key) == rank


def test_ring_spreads_keys_over_ranks():
    ring = HashRing(range(8))
    owners = {ring.lookup(k) for k in _keys(512)}
    assert owners == set(range(8))


def test_ring_stability_adding_a_rank_moves_about_one_nth():
    # The consistent-hashing contract: growing N -> N+1 ranks reassigns
    # only the slice the new rank takes over (~1/(N+1) of the key space),
    # so an autoscaling fleet does not flush every rank's cache.
    n = 8
    keys = _keys(2048)
    before = {k: HashRing(range(n)).lookup(k) for k in keys}
    grown = HashRing(range(n))
    grown.add(n)
    moved = [k for k in keys if grown.lookup(k) != before[k]]
    expected = len(keys) / (n + 1)
    assert 0 < len(moved) < 2 * expected
    # Every moved key moved *to* the new rank, not between old ranks.
    assert all(grown.lookup(k) == n for k in moved)


def test_ring_remove_restores_prior_ownership():
    ring = HashRing(range(4))
    before = {k: ring.lookup(k) for k in _keys(256)}
    ring.add(4)
    ring.remove(4)
    assert {k: ring.lookup(k) for k in _keys(256)} == before


def test_ring_add_remove_add_restores_identical_vnode_ownership():
    # Re-adding a departed rank must land every one of its virtual nodes
    # back on exactly the same ring points (SHA-256 of "rank{r}:{v}" is a
    # pure function of the token), so failover-then-rejoin restores the
    # precise pre-failure ownership map, not merely a statistically
    # similar one.
    ring = HashRing(range(4))
    points_before = list(ring._points)
    lookups_before = {k: ring.lookup(k) for k in _keys(512)}
    ring.remove(2)
    assert all(r != 2 for _, r in ring._points)
    ring.add(2)
    assert list(ring._points) == points_before
    assert ring.members == (0, 1, 2, 3)
    assert {k: ring.lookup(k) for k in _keys(512)} == lookups_before


def test_ring_successors_are_distinct_and_start_at_home():
    ring = HashRing(range(6))
    for key in _keys(32):
        succ = ring.successors(key, 3)
        assert len(succ) == 3
        assert len(set(succ)) == 3
        assert succ[0] == ring.lookup(key)
    # n larger than membership degrades to all members.
    assert sorted(ring.successors("x", 99)) == list(range(6))


# ---------------------------------------------------------------------------
# Sharded service: routing, determinism, network, isolation
# ---------------------------------------------------------------------------

def _fleet_config(ranks, **kw):
    base = dict(ranks=ranks, replicas=min(2, ranks), max_batch=4,
                cache_entries=64, max_queue=256)
    base.update(kw)
    return ServiceConfig(**base)


def test_single_rank_is_bit_identical_to_solve_service():
    spec = named_workload("tiny")
    plain = SolveService(ServiceConfig())
    r_plain = plain.run_workload(build(spec))
    shard = ShardedSolveService(ServiceConfig(ranks=1))
    r_shard = shard.run_workload(build(spec))
    assert plain.metrics_json() == shard.services[0].metrics_json()
    assert len(r_plain) == len(r_shard)
    for a, b in zip(r_plain, r_shard):
        assert a.status == b.status
        if a.x is None:
            assert b.x is None
        else:
            assert np.array_equal(a.x, b.x)
        assert b.rank == 0 and b.home_rank == 0 and b.net_seconds == 0.0


def test_sharded_run_is_deterministic():
    spec = widened(named_workload("mixed"), copies=4, requests=64)
    runs = []
    for _ in range(2):
        svc = ShardedSolveService(_fleet_config(4))
        results = svc.run_workload(build(spec))
        runs.append((svc.metrics_json(),
                     [(r.rank, r.home_rank, r.status, r.net_seconds)
                      for r in results]))
    assert runs[0] == runs[1]


def test_routing_is_key_affine_and_completes_everything():
    spec = widened(named_workload("mixed"), copies=4, requests=64)
    svc = ShardedSolveService(_fleet_config(4))
    results = svc.run_workload(build(spec))
    assert all(r.status == "completed" for r in results)
    sh = svc.metrics_snapshot()["sharded"]
    assert sh["counters"]["completed"] == spec.requests
    assert sh["counters"]["routed"] == spec.requests
    # Multiple ranks actually served traffic.
    served = [c for c in sh["load_balance"]["completed_per_rank"] if c]
    assert len(served) > 1
    assert 0.0 <= sh["locality"]["hit_rate"] <= 1.0


def test_forwarded_requests_pay_modeled_network_time():
    # Force forwarding: two ranks, no spill penalty, and a stream of
    # same-size operators so the router load-balances off-home.
    spec = widened(named_workload("small"), copies=4, requests=48)
    svc = ShardedSolveService(_fleet_config(2, spill_penalty=0))
    results = svc.run_workload(build(spec))
    forwarded = [r for r in results
                 if r.status == "completed" and r.forwarded]
    assert forwarded, "expected the balancer to forward some requests"
    for r in forwarded:
        assert r.rank != r.home_rank
        assert r.net_seconds > 0.0
        assert r.latency_seconds >= r.wait_seconds + r.solve_seconds
    home = [r for r in results
            if r.status == "completed" and not r.forwarded]
    assert all(r.net_seconds == 0.0 for r in home)
    net = svc.metrics_snapshot()["sharded"]["network"]
    assert net["forward_messages"] == len(forwarded) \
        or net["forward_messages"] >= len(forwarded)  # timeouts never forward
    assert net["forward_bytes"] > 0
    assert net["return_messages"] == len(forwarded)
    assert net["forward_seconds"] > 0.0


def test_operator_ships_once_per_rank_then_only_vectors():
    A = laplace_2d_5pt(12)
    rng = np.random.default_rng(7)
    svc = ShardedSolveService(ServiceConfig(ranks=2, replicas=2,
                                            spill_penalty=0))
    # Load rank holding this key's home so the next submits spill.
    tickets = [svc.submit(A, rng.standard_normal(A.nrows), arrival=0.0)
               for _ in range(6)]
    ranks = {t.rank for t in tickets}
    sh = svc.metrics_snapshot()["sharded"]
    if len(ranks) > 1:
        # The CSR payload crossed the wire exactly once; later forwards
        # shipped only the right-hand-side vector.
        assert sh["counters"]["shipments"] == 1
        assert sh["counters"]["forwarded"] >= 1


def test_degraded_request_stays_isolated_to_its_rank():
    # An indefinite operator breaks CG on whatever rank it routes to; the
    # sibling rank's traffic must stay clean and the fleet metrics must
    # attribute the degradation to exactly one rank.
    bad = CSRMatrix.from_dense(np.diag([1.0, -2.0, 3.0, -4.0]))
    good = laplace_2d_5pt(8)
    rng = np.random.default_rng(3)
    svc = ShardedSolveService(ServiceConfig(ranks=2, replicas=1))
    t_bad = svc.submit(bad, np.array([0.0, 1.0, 0.0, 0.0]), method="cg",
                       arrival=0.0)
    t_good = [svc.submit(good, rng.standard_normal(good.nrows), arrival=0.0)
              for _ in range(4)]
    svc.run()
    res_bad = svc.result(t_bad)
    assert res_bad.status == "completed" and res_bad.degraded
    for t in t_good:
        r = svc.result(t)
        assert r.status == "completed" and r.converged and not r.degraded
    snap = svc.metrics_snapshot()
    degraded_per_rank = [s["service"]["counters"]["degraded"]
                        for s in snap["ranks"]]
    assert sum(degraded_per_rank) == 1
    assert degraded_per_rank[t_bad.rank] == 1
    other = 1 - t_bad.rank
    assert snap["ranks"][other]["service"]["counters"]["degraded"] == 0


def test_invalid_request_resolves_to_structured_rejection():
    svc = ShardedSolveService(ServiceConfig(ranks=2))
    t = svc.submit(np.zeros((3, 4)), np.ones(3))
    res = svc.result(t)
    assert res.status == "rejected"
    assert "square" in res.degraded_reason


def test_shedding_rejects_at_the_router():
    A = laplace_2d_5pt(8)
    rng = np.random.default_rng(5)
    svc = ShardedSolveService(ServiceConfig(ranks=2, replicas=1,
                                            shed_depth=2))
    tickets = [svc.submit(A, rng.standard_normal(A.nrows), arrival=0.0)
               for _ in range(8)]
    shed = [t for t in tickets if t.rank == -1]
    assert shed, "expected shedding once the home queue hit depth 2"
    res = svc.result(shed[0])
    assert res.status == "rejected"
    assert res.degraded_reason.startswith("rejected: shed:")
    assert res.rank == -1
    sh = svc.metrics_snapshot()["sharded"]
    assert sh["counters"]["shed"] == len(shed)
    # Shed requests consumed no rank capacity.
    assert sum(s.queue_depth for s in svc.services) == len(tickets) - len(shed)
    svc.run()
    assert all(svc.result(t).status == "completed"
               for t in tickets if t.rank >= 0)


def test_autoscaler_grows_and_shrinks_with_queue_depth():
    A = laplace_2d_5pt(8)
    rng = np.random.default_rng(9)
    svc = ShardedSolveService(ServiceConfig(
        ranks=4, replicas=1, autoscale=True, min_ranks=1,
        scale_up_depth=2.0, scale_down_depth=0.5))
    assert svc.active_ranks == [0]
    for i in range(12):
        svc.submit(A, rng.standard_normal(A.nrows), arrival=0.0)
    assert len(svc.active_ranks) > 1
    svc.run()
    # Queues drained: the next arrival observation scales back down.
    svc.submit(A, rng.standard_normal(A.nrows), arrival=svc.now)
    events = svc.metrics_snapshot()["sharded"]["autoscale_events"]
    assert [e["action"] for e in events].count("up") >= 1
    assert events[-1]["action"] == "down"
    assert all(1 <= e["active"] <= 4 for e in events)


def test_shard_ticket_and_cancel():
    A = laplace_2d_5pt(8)
    svc = ShardedSolveService(ServiceConfig(ranks=2))
    t = svc.submit(A, np.ones(A.nrows), arrival=0.0)
    assert isinstance(t, ShardTicket)
    assert svc.cancel(t)
    assert svc.result(t).status == "cancelled"
    assert not svc.cancel(t)


def test_shard_metrics_json_is_sorted_and_stable():
    spec = named_workload("tiny")
    svc = ShardedSolveService(ServiceConfig(ranks=2))
    svc.run_workload(build(spec))
    text = svc.metrics_json()
    parsed = json.loads(text)
    assert json.dumps(parsed, indent=2, sort_keys=True) == text
    assert set(parsed) == {"ranks", "sharded"}


def test_result_wait_drives_only_the_serving_rank():
    # Without a fault plan, redeeming one ticket runs only its own rank's
    # worker: a request queued on another rank stays queued, so a later
    # same-key submit still joins its micro-batch.
    svc = ShardedSolveService(ServiceConfig(ranks=2, replicas=1))
    homes = {}
    for n in range(6, 16):
        A = laplace_2d_5pt(n)
        key = svc.services[0].cache.pattern_key(A, svc.amg_config)
        homes.setdefault(svc.ring.lookup(key), A)
    rng = np.random.default_rng(4)
    t0 = svc.submit(homes[0], rng.standard_normal(homes[0].nrows),
                    arrival=0.0)
    t1 = svc.submit(homes[1], rng.standard_normal(homes[1].nrows),
                    arrival=0.0)
    assert (t0.rank, t1.rank) == (0, 1)
    assert svc.result(t0).status == "completed"
    assert svc.services[1].queue_depth == 1
    t2 = svc.submit(homes[1], rng.standard_normal(homes[1].nrows),
                    arrival=0.0)
    svc.run()
    assert svc.result(t1).batch_size == svc.result(t2).batch_size == 2


# ---------------------------------------------------------------------------
# Byte-identity matrix of the one router
# ---------------------------------------------------------------------------

#: The CI chaos smoke's plan, and a chaos-activating plan that injects
#: nothing observable (hedging needs a plan to fire at heartbeat ticks).
_CI_PLAN = ShardFaultPlan(seed=7, crashes=((1, 0.004, 0.012),))
_HARMLESS = ShardFaultPlan(seed=1, slow=((0, 0.0, 0.0005, 0.0),))

_MATRIX_MODES = {
    "plain": ({}, None),
    "shed": ({"shed_depth": 2}, None),
    "autoscale": ({"autoscale": True, "scale_up_depth": 2.0,
                   "scale_down_depth": 0.5}, None),
    "chaos": ({}, _CI_PLAN),
    "hedge": ({"hedge_delay": 1e-4, "heartbeat_interval": 5e-4}, _HARMLESS),
}

#: (workload, ranks, mode) -> sha256 of ``metrics_json()`` and of every
#: result field but ``x`` (iterate bytes are host-local; residual
#: histories, statuses and every modeled quantity are not), recorded when
#: the fault-free tier still ran a router of its own beside the fault
#: lifecycle's.
_MATRIX_DIGESTS = {
    ("tiny", 1, "plain"): (
        "50a9c19061f2b8a156a046e999595ee317ce0e7d288fe1c24764dc88e1c8cf44",
        "c416164a2c971ca3242c77ad696f77269767a7753de62b50b6fdcc56f8f38474"),
    ("tiny", 1, "shed"): (
        "3df5caced0a10156432c82bfd2a3c93d0b23b9f0f0389917cf8772fb1b783766",
        "6500c96797be4a5d8526873711cb24f4fe6938f44cfc41b7a023f827da6a18f3"),
    ("tiny", 1, "autoscale"): (
        "9d2823224a949a9669f86c80a7732055c4e809310a855b7a5ce56c32791755fd",
        "c416164a2c971ca3242c77ad696f77269767a7753de62b50b6fdcc56f8f38474"),
    ("tiny", 2, "plain"): (
        "1116b14f6287ffcf78f4e09db97be8a027619d26920bf11c6da6a057d9de6856",
        "f19519e03bc6d07def3227bb223d7901e6adbfb7fdc265baba2e5604d416cec3"),
    ("tiny", 2, "shed"): (
        "1116b14f6287ffcf78f4e09db97be8a027619d26920bf11c6da6a057d9de6856",
        "f19519e03bc6d07def3227bb223d7901e6adbfb7fdc265baba2e5604d416cec3"),
    ("tiny", 2, "autoscale"): (
        "515facba1f634b8a6212eb465f3c7306548b0af5bf097ac17eb9e72f64b4db52",
        "eb832ab3e51d5d06c0629962256c58f18cf238e01fe461bcadf762f7ca7b1ffb"),
    ("tiny", 4, "plain"): (
        "e5906d3556120eefbf65664de04b2327407d2c6551d59cf5555b251f63280200",
        "0bbf10a4ee8d96d3e41ae1b03d0703e9448768f22851e20e1cf8c6c2b922f000"),
    ("tiny", 4, "shed"): (
        "e5906d3556120eefbf65664de04b2327407d2c6551d59cf5555b251f63280200",
        "0bbf10a4ee8d96d3e41ae1b03d0703e9448768f22851e20e1cf8c6c2b922f000"),
    ("tiny", 4, "autoscale"): (
        "ec90be19fad5060dea7c0271d96914856ca38fed5e3ca3a8bf3d5d3caad98cad",
        "eb832ab3e51d5d06c0629962256c58f18cf238e01fe461bcadf762f7ca7b1ffb"),
    ("tiny", 2, "chaos"): (
        "d412f93366b00bd2fcf6fbf96941ffa52cc70ddeea973bf09d3d2ddc861dfe22",
        "b0c56037fcd8d0f5516b15ee474a486fab1a419106954009ecf767a320b6b319"),
    ("tiny", 2, "hedge"): (
        "3d5592de553a0a062e6e9d4d47497196f490d9e201e25c1cc5dbbd4dd2f37fbb",
        "af27ab2530385aff5e61582489a5ae06a21b3a8c447cb217a710db0fdfffd7b2"),
    ("tiny", 4, "chaos"): (
        "b5204f313eb3c497420981b9ad4ad20ea47ba609942b035a2b4674129c708f36",
        "d01ee5a5cfa7dbf78c4ba8d5f3c7c9165d9c8add55eeb0a73239b18f7a183441"),
    ("tiny", 4, "hedge"): (
        "6eafaa136f038f470d9c4f43c1b0009c484fc97ef8b25e375b2cdc910b826f56",
        "4a92a9a14d71413825ea8954658d4ce7e11d84328dd4b2f7b54ee5bddb5f0015"),
    ("mixed", 1, "plain"): (
        "056250d6045eb8142103fe6ba95f106ad5c1b69bdac336efb803505810be5400",
        "b03220f4ba10174f843e1fee39e38d309ca5a427c55264634a0a795649bdf105"),
    ("mixed", 1, "shed"): (
        "724f33b39f0f4289a8b50f677ba451e1f556161ee04a63f570293745c985ae79",
        "1d211ad3a3970830be19f202eea0ff4a4f835ef65a46b7e48d595d79a4f8a7a8"),
    ("mixed", 1, "autoscale"): (
        "c889ec4d9bc4a2d138ed77a0a78cf12e8c670ad6cb77cbc2306faa8aede9afcd",
        "b03220f4ba10174f843e1fee39e38d309ca5a427c55264634a0a795649bdf105"),
    ("mixed", 2, "plain"): (
        "67d9d3314e29d88cd55c0d7b28cec4a072c2ab1ad4c505fb173d4b6eecaa71d1",
        "d51c621af80451fbe21c8f118e416c5d68d78344ff1ae1e2e47cafb2903d0c6c"),
    ("mixed", 2, "shed"): (
        "67d9d3314e29d88cd55c0d7b28cec4a072c2ab1ad4c505fb173d4b6eecaa71d1",
        "d51c621af80451fbe21c8f118e416c5d68d78344ff1ae1e2e47cafb2903d0c6c"),
    ("mixed", 2, "autoscale"): (
        "415c4f4236c63b20da22bdb5e4a65b2b41b72e75b10ec5478404cbc64852e79c",
        "61694a0726bbceafdee5838ba4aaa649a34e79c09bb40c83a67d53bb2b2281be"),
    ("mixed", 4, "plain"): (
        "720538d2a9a4c26b618dfbea11a2ca4e55f0fc9916669478edb0632d8c1b7dd1",
        "98edaeb1313e3fc4de94a796471e1954be03cd167d939f3f427af70717d47381"),
    ("mixed", 4, "shed"): (
        "720538d2a9a4c26b618dfbea11a2ca4e55f0fc9916669478edb0632d8c1b7dd1",
        "98edaeb1313e3fc4de94a796471e1954be03cd167d939f3f427af70717d47381"),
    ("mixed", 4, "autoscale"): (
        "5b01c69238b001f1fe07268be89e31281d58912d0ae148329c97661f359081c3",
        "61694a0726bbceafdee5838ba4aaa649a34e79c09bb40c83a67d53bb2b2281be"),
    ("mixed", 2, "chaos"): (
        "3a8507ef4a9a82fc1be67a19813516f31aa785e68b77fcd428a115b1cbae83db",
        "5d9540eb9a0eae862705a16058dd5557f30e8c86462df0c4de9823d144fe1a83"),
    ("mixed", 2, "hedge"): (
        "b9bb32d0cf521b65e10c080344c22543a9a2bacb49b39802f9eea9d7518f2b31",
        "e38cfe7ddbfe749289fffc60c9178a235bdbe8e2f22154e326d0814a38594d2a"),
    ("mixed", 4, "chaos"): (
        "44334fa7d793fc908a4c90126a0c9d6cf702dc7f1d7d198d8fa6c33cdb30f938",
        "034ded3741fc3533b664a37aac0d5b7a6c929d8c796eb98772648c931dae7ef7"),
    ("mixed", 4, "hedge"): (
        "71c32a5a48b08d4268ef85eb9b8f1454615174df76483462bceeafd8f96740aa",
        "9524f498b8a33844f226e9893976064e6d965d50a1af462966a684a7862db093"),
}


@pytest.mark.parametrize("workload,ranks,mode", sorted(_MATRIX_DIGESTS))
def test_one_router_is_byte_identical(workload, ranks, mode):
    spec = (named_workload("tiny") if workload == "tiny"
            else widened(named_workload("mixed"), copies=4, requests=64))
    kw, plan = _MATRIX_MODES[mode]
    svc = ShardedSolveService(_fleet_config(ranks, **kw), fault_plan=plan)
    results = svc.run_workload(build(spec))
    h = hashlib.sha256()
    for res in results:
        for f in fields(res):
            if f.name != "x":
                h.update(f"{f.name}={getattr(res, f.name)!r};".encode())
    got = (hashlib.sha256(svc.metrics_json().encode()).hexdigest(),
           h.hexdigest())
    assert got == _MATRIX_DIGESTS[(workload, ranks, mode)]


# ---------------------------------------------------------------------------
# ServiceConfig consolidation
# ---------------------------------------------------------------------------

def test_service_config_validates_shard_fields():
    with pytest.raises(ValueError, match="ranks"):
        ServiceConfig(ranks=0)
    with pytest.raises(ValueError, match="replicas"):
        ServiceConfig(ranks=2, replicas=3)
    with pytest.raises(ValueError, match="shed_depth"):
        ServiceConfig(shed_depth=0)
    with pytest.raises(ValueError, match="min_ranks"):
        ServiceConfig(ranks=2, min_ranks=3)
    with pytest.raises(ValueError, match="scale_down_depth"):
        ServiceConfig(scale_up_depth=1.0, scale_down_depth=2.0)


@pytest.mark.parametrize("cls", [SolveService, ShardedSolveService])
def test_service_knobs_only_through_config(cls):
    # A ServiceConfig is the one way to set a knob: a per-field
    # constructor keyword is an unknown argument.
    with pytest.raises(TypeError):
        cls(max_batch=3)
    assert cls(ServiceConfig(max_batch=3)).config.max_batch == 3


# ---------------------------------------------------------------------------
# SolveOptions
# ---------------------------------------------------------------------------

def _system(n=24):
    A = laplace_2d_5pt(n)
    rng = np.random.default_rng(11)
    return A, rng.standard_normal(A.nrows)


def test_solve_options_equivalent_to_keywords():
    A, b = _system()
    r_kw = solve(A, b, method="cg", tol=1e-9, cache=None)
    r_opt = solve(A, b, options=SolveOptions(method="cg", tol=1e-9),
                  cache=None)
    assert np.array_equal(r_kw.x, r_opt.x)
    assert r_kw.iterations == r_opt.iterations


def test_solve_options_conflict_raises():
    A, b = _system()
    with pytest.raises(ValueError, match="not both"):
        solve(A, b, options=SolveOptions(), tol=1e-9)
    with pytest.raises(ValueError, match="not both"):
        solve_many(A, np.column_stack([b, b]), options=SolveOptions(),
                   method="cg")
    with pytest.raises(ValueError, match="not both"):
        setup(A, repro.single_node_config(), options=SolveOptions())


def test_solve_options_validates_at_construction():
    with pytest.raises(ValueError, match="method"):
        SolveOptions(method="qr")
    with pytest.raises(ValueError, match="reuse"):
        SolveOptions(reuse="always")


def test_setup_and_update_accept_options():
    A, b = _system()
    h = setup(A, options=SolveOptions(reuse="never"), cache=None)
    assert h.solve(b).converged
    h.update(A, options=SolveOptions(reuse="never"))
    with pytest.raises(ValueError, match="not both"):
        h.update(A, reuse="auto", options=SolveOptions())


def test_solve_options_is_frozen_with_documented_defaults():
    opts = SolveOptions()
    assert (opts.method, opts.tol, opts.maxiter) == ("amg", 1e-7, None)
    assert (opts.reuse, opts.check, opts.config) == ("auto", None, None)
    with pytest.raises(AttributeError):
        opts.method = "cg"


# ---------------------------------------------------------------------------
# Top-level API surface
# ---------------------------------------------------------------------------

def test_top_level_all_is_sorted_and_resolvable():
    assert list(repro.__all__) == sorted(repro.__all__)
    assert len(set(repro.__all__)) == len(repro.__all__)
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def test_top_level_exports_the_new_surface():
    for name in ("SolveOptions", "ServiceConfig", "ShardedSolveService",
                 "fingerprint"):
        assert name in repro.__all__
    assert repro.SolveOptions is SolveOptions
    assert repro.ShardedSolveService is ShardedSolveService

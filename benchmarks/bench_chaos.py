"""Chaos benchmark — kill-and-rejoin recovery of the sharded service.

The fault-tolerance claim (ISSUE 7): under a seeded
:class:`~repro.faults.ShardFaultPlan` the sharded tier degrades
gracefully and recovers completely.  A mid-stream rank crash displaces
that rank's queued and in-flight work onto ring successors (failover,
charged backoff + re-forward on the modeled network), the rank rejoins
through a cache re-warm from a surviving replica, and once it is back
``up`` the fleet serves at its no-fault rate again.

Measured on the ``mixed`` preset widened to a fleet-sized key space and
replayed as an open Poisson stream (so the crash window hits a live
arrival process), baseline vs. the same workload under a one-crash plan,
at 4 and 8 ranks.  The crash victim at each rank count is the rank that
served the most requests in the no-fault run: a rank that holds no work
displaces nothing when it dies.  The stream arrives faster than the fleet
serves it, so queues are deep when the victim dies and the crash displaces
a fifth of the stream or more; at a rate the fleet absorbs, a crash only
ever held the two or three requests that arrived before it was detected,
and the recovery check could not tell a working failover from one that
loses the displaced work.  Throughput is windowed on the modeled clock — a
request *finishes* at ``arrival + latency_seconds`` — and the bench
compares the post-recovery window (after the dead rank has re-warmed and
rejoined) between the two runs: failed-over work finishes there, so a
failover that drops it falls short.

Acceptance (ISSUE 7): every request under chaos terminates with a
structured status, failover and re-warm accounting are nonzero, and
post-recovery throughput is within 10% of the no-fault run.

Run as a script for the CI determinism smoke: ``python
benchmarks/bench_chaos.py --json OUT.json`` (optionally ``--smoke`` for
the 4-rank point) writes sorted JSON; two runs must produce identical
bytes.
"""

import json

from dataclasses import asdict

from repro.faults import ShardFaultPlan
from repro.perf import format_table
from repro.results import SERVICE_STATUSES
from repro.serve import (
    ServiceConfig,
    ShardedSolveService,
    WorkloadSpec,
    build,
    named_workload,
    widened,
)

RANKS = (4, 8)
SMOKE_RANKS = (4,)

#: Routing configuration of every sweep point (ranks vary); matches
#: bench_shard.py so the two benches describe the same fleet.
BASE = dict(replicas=2, max_batch=4, cache_entries=64, max_queue=256)

#: The stream: ``REQUESTS`` requests at ``RATE`` per modeled second — the
#: arrivals span ~5 ms, and the fleet drains them by ~9-10 ms.
REQUESTS = 192
RATE = 40000.0

#: One mid-stream crash window: the victim dies at 1 ms, with its queue
#: filling, and rejoins at 4 ms, while arrivals keep coming.
CRASH_WINDOW = (0.001, 0.004)
PLAN_SEED = 7


def crash_plan(victim: int) -> ShardFaultPlan:
    """The one-crash plan with *victim* as the rank that dies."""
    return ShardFaultPlan(seed=PLAN_SEED, crashes=((victim, *CRASH_WINDOW),))


def busiest_rank(sharded: dict) -> int:
    """The rank that served the most requests (lowest id on a tie).

    A crash only displaces work on a rank that holds some, and which rank
    that is depends on where the ring puts the keys at each rank count.
    """
    served = sharded["load_balance"]["completed_per_rank"]
    return served.index(max(served))

#: Post-recovery window start: crash end plus margin for re-warm + rejoin.
POST_RECOVERY = CRASH_WINDOW[1] + 0.002


def chaos_spec() -> WorkloadSpec:
    """The widened ``mixed`` stream as an open Poisson arrival process."""
    spec = widened(named_workload("mixed"), copies=4, requests=REQUESTS)
    return WorkloadSpec.from_dict({**asdict(spec), "rate": RATE})


def _run(ranks: int, plan: ShardFaultPlan | None):
    cfg = ServiceConfig(ranks=ranks, replicas=min(BASE["replicas"], ranks),
                        max_batch=BASE["max_batch"],
                        cache_entries=BASE["cache_entries"],
                        max_queue=BASE["max_queue"])
    svc = ShardedSolveService(cfg, fault_plan=plan)
    workload = build(chaos_spec())
    results = svc.run_workload(workload)
    finishes = sorted(
        item.arrival + r.latency_seconds
        for item, r in zip(workload.items, results)
        if r.status == "completed")
    return svc.metrics_snapshot()["sharded"], results, finishes


def _windowed_rate(finishes, start: float, end: float) -> float:
    if end <= start:
        return 0.0
    return sum(1 for f in finishes if start <= f <= end) / (end - start)


def run_sweep(ranks=RANKS) -> dict:
    """Baseline vs. chaos at each rank count; JSON-able results.

    The crash victim at each rank count is the busiest rank of the
    no-fault run.
    """
    points = []
    for r in ranks:
        base_sh, _, base_fin = _run(r, None)
        victim = busiest_rank(base_sh)
        chaos_sh, chaos_res, chaos_fin = _run(r, crash_plan(victim))
        horizon = max(base_fin[-1], chaos_fin[-1])
        base_rate = _windowed_rate(base_fin, POST_RECOVERY, horizon)
        chaos_rate = _windowed_rate(chaos_fin, POST_RECOVERY, horizon)
        faults = chaos_sh["faults"]
        points.append({
            "ranks": r,
            "victim": victim,
            "base_makespan": base_sh["virtual_seconds"],
            "chaos_makespan": chaos_sh["virtual_seconds"],
            "post_recovery_rps_base": base_rate,
            "post_recovery_rps_chaos": chaos_rate,
            "post_recovery_ratio": (chaos_rate / base_rate
                                    if base_rate else 0.0),
            "completed": sum(1 for x in chaos_res
                             if x.status == "completed"),
            "failed": sum(1 for x in chaos_res if x.status == "failed"),
            "all_terminal": all(x is not None
                                and x.status in SERVICE_STATUSES
                                for x in chaos_res),
            "failovers": faults["failovers"],
            "displaced": faults["evacuated"] + faults["lost_inflight"],
            "failover_bytes": faults["failover_bytes"],
            "rewarm_entries": faults["rewarm"]["entries"],
            "rewarm_bytes": faults["rewarm"]["bytes"],
            "availability": faults["health"]["availability"],
        })
    return {
        "workload": (f"mixed widened x4, {REQUESTS} requests, "
                     f"open rate={RATE:.0f}/s"),
        "plan": {"seed": PLAN_SEED, "crash_window": list(CRASH_WINDOW),
                 "victim": "busiest rank of the no-fault run"},
        "post_recovery_start": POST_RECOVERY,
        "config": dict(BASE),
        "points": points,
    }


def _report(res: dict) -> str:
    rows = [
        (p["ranks"], p["victim"], p["displaced"],
         round(p["chaos_makespan"] * 1e3, 3),
         round(p["post_recovery_rps_base"], 1),
         round(p["post_recovery_rps_chaos"], 1),
         f"{p['post_recovery_ratio']:.3f}",
         p["failovers"], p["rewarm_entries"],
         f"{p['availability']:.4f}")
        for p in res["points"]
    ]
    return format_table(
        ["ranks", "victim", "displaced", "makespan ms", "post rps (base)",
         "post rps (chaos)",
         "ratio", "failovers", "re-warm", "availability"],
        rows,
        title=f"Kill-and-rejoin recovery, {res['workload']}")


def test_chaos_recovery(benchmark):
    from conftest import emit, tick

    res = run_sweep()
    emit("chaos", _report(res))
    for p in res["points"]:
        # Every request terminates with a structured status.
        assert p["all_terminal"]
        # The crash actually displaced work and the rejoin re-warmed.
        assert p["failovers"] > 0 and p["displaced"] > 0
        assert p["rewarm_entries"] > 0 and p["rewarm_bytes"] > 0
        # ISSUE 7 acceptance: post-recovery throughput within 10%.
        assert p["post_recovery_ratio"] >= 0.9
        assert p["availability"] < 1.0
    tick(benchmark, chaos_spec)


def test_chaos_sweep_is_deterministic():
    a, b = run_sweep(ranks=SMOKE_RANKS), run_sweep(ranks=SMOKE_RANKS)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(
        description="sharded-service chaos benchmark (JSON output)")
    parser.add_argument("--json", metavar="PATH",
                        help="write results as sorted JSON to PATH")
    parser.add_argument("--smoke", action="store_true",
                        help="CI subset: 4 ranks only")
    args = parser.parse_args()
    result = run_sweep(SMOKE_RANKS if args.smoke else RANKS)
    text = json.dumps(result, indent=2, sort_keys=True)
    if args.json:
        with open(args.json, "w") as f:
            f.write(text + "\n")
    print(_report(result))

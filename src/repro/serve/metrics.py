"""Service metrics: counters, latency histograms, and the JSON snapshot.

Everything the service measures is in *modeled* (virtual) seconds — the
same clock the :mod:`repro.perf` machine models produce — so a metrics
snapshot is bit-identical across runs of the same seeded workload.  There
is deliberately no wall-clock anywhere in this module.

The snapshot merges two layers into one report:

* **service time** — queue wait and batch latency histograms, batch-size
  distribution, queue depth, admission counters, hierarchy-cache hit rate;
* **kernel time** — the :class:`~repro.perf.counters.PerfLog` of every
  kernel the worker's solves charged, converted to modeled seconds per
  Fig. 5 phase by a :class:`~repro.perf.machine.MachineModel`.

``snapshot()`` returns plain dict/list/str/float JSON material;
``to_json()`` serializes it with sorted keys so two identical runs produce
byte-identical files (the CI smoke step diffs exactly that).
"""

from __future__ import annotations

import json

from ..perf.counters import PerfLog
from ..perf.machine import MachineModel
from .health import HealthTracker

__all__ = ["Histogram", "ServiceMetrics", "ShardMetrics"]

#: Fixed histogram bucket edges (modeled seconds), geometric decades from
#: 1 µs to 10 s.  Fixed edges keep snapshots comparable across runs and
#: workloads; out-of-range observations land in the open last bucket.
DEFAULT_EDGES = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)


class Histogram:
    """Fixed-bucket latency histogram with exact count/sum/min/max."""

    def __init__(self, edges: tuple[float, ...] = DEFAULT_EDGES) -> None:
        self.edges = tuple(edges)
        self.counts = [0] * (len(self.edges) + 1)
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None

    def observe(self, value: float) -> None:
        i = 0
        while i < len(self.edges) and value > self.edges[i]:
            i += 1
        self.counts[i] += 1
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        buckets = {}
        for i, edge in enumerate(self.edges):
            buckets[f"le_{edge:g}"] = self.counts[i]
        buckets["inf"] = self.counts[-1]
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "buckets": buckets,
        }


class ServiceMetrics:
    """Aggregated service health: counters, histograms, kernel perf."""

    def __init__(self) -> None:
        # Admission outcomes.
        self.submitted = 0
        self.rejected = 0
        self.cancelled = 0
        self.timed_out = 0
        self.completed = 0
        self.degraded = 0
        # Dispatch.
        self.batches = 0
        self.batch_sizes: dict[int, int] = {}
        #: Batches served through the hierarchy cache's pattern tier — a
        #: same-sparsity operator served via numeric resetup (refresh)
        #: instead of rebuilt from scratch.
        self.refresh_hits = 0
        # Latency (modeled seconds).
        self.wait = Histogram()
        self.solve = Histogram()
        self.latency = Histogram()
        # Queue depth, sampled at every submit and dispatch.
        self.depth_samples = 0
        self.depth_sum = 0
        self.depth_max = 0
        #: Merged kernel records of every batch the worker ran.
        self.perf = PerfLog()

    # -- recording ---------------------------------------------------------
    def sample_depth(self, depth: int) -> None:
        self.depth_samples += 1
        self.depth_sum += depth
        self.depth_max = max(self.depth_max, depth)

    def record_batch(self, size: int, solve_seconds: float) -> None:
        self.batches += 1
        self.batch_sizes[size] = self.batch_sizes.get(size, 0) + 1
        self.solve.observe(solve_seconds)

    def record_completion(self, wait_seconds: float, latency_seconds: float,
                          degraded: bool) -> None:
        self.completed += 1
        self.wait.observe(wait_seconds)
        self.latency.observe(latency_seconds)
        if degraded:
            self.degraded += 1

    # -- reporting ---------------------------------------------------------
    def snapshot(
        self,
        *,
        machine: MachineModel | None = None,
        virtual_seconds: float = 0.0,
        cache_stats: dict[str, int] | None = None,
    ) -> dict:
        """JSON-able snapshot combining service and kernel time.

        ``machine`` converts the merged kernel records into modeled
        seconds (omitted -> counts only); ``virtual_seconds`` is the
        service clock at snapshot time; ``cache_stats`` is
        :meth:`HierarchyCache.stats` of the service's hierarchy cache.
        """
        cache_stats = cache_stats or {}
        lookups = cache_stats.get("hits", 0) + cache_stats.get("misses", 0)
        snap = {
            "service": {
                "virtual_seconds": virtual_seconds,
                "throughput_rps": (self.completed / virtual_seconds
                                   if virtual_seconds > 0 else 0.0),
                "counters": {
                    "submitted": self.submitted,
                    "completed": self.completed,
                    "rejected": self.rejected,
                    "cancelled": self.cancelled,
                    "timed_out": self.timed_out,
                    "degraded": self.degraded,
                    "batches": self.batches,
                    "refresh_hits": self.refresh_hits,
                },
                "batch_sizes": {str(k): v for k, v in
                                sorted(self.batch_sizes.items())},
                "wait_seconds": self.wait.snapshot(),
                "solve_seconds": self.solve.snapshot(),
                "latency_seconds": self.latency.snapshot(),
                "queue_depth": {
                    "max": self.depth_max,
                    "mean": (self.depth_sum / self.depth_samples
                             if self.depth_samples else 0.0),
                    "samples": self.depth_samples,
                },
                "hierarchy_cache": {
                    **cache_stats,
                    "hit_rate": (cache_stats.get("hits", 0) / lookups
                                 if lookups else 0.0),
                },
            },
            "kernel": {
                "records": len(self.perf),
                "flops": self.perf.total("flops"),
                "bytes": self.perf.total("bytes_total"),
            },
        }
        if machine is not None:
            phases = machine.phase_times(self.perf)
            snap["kernel"]["modeled_seconds"] = sum(phases.values())
            snap["kernel"]["phase_seconds"] = {
                k: phases[k] for k in sorted(phases)
            }
        return snap

    def to_json(self, **snapshot_kwargs) -> str:
        """Deterministic JSON serialization of :meth:`snapshot`."""
        return json.dumps(self.snapshot(**snapshot_kwargs), indent=2,
                          sort_keys=True)


class ShardMetrics:
    """Shard-tier health: routing, forwarding volume, locality, autoscale.

    Each rank of a :class:`~repro.serve.shard.ShardedSolveService` keeps
    its own :class:`ServiceMetrics`; this object records only what happens
    *between* ranks — routing decisions, modeled forwarding traffic,
    operator replication, load shedding, autoscaler actions — plus the
    cache-locality tally.  :meth:`snapshot` merges the per-rank snapshots
    with the shard-level view into one deterministic report.

    Locality is counted when a result is redeemed (the return hop is
    charged then), so the hit-rate denominator is redeemed completed
    requests, not all completions.
    """

    def __init__(self) -> None:
        # Routing.
        self.routed = 0
        self.forwarded = 0
        self.shed = 0
        #: Operators replicated to a non-home rank (first forward of a
        #: fingerprint ships the matrix, later forwards only the vector).
        self.shipments = 0
        # Modeled forwarding traffic (request hop / result-return hop).
        self.forward_bytes = 0
        self.forward_seconds = 0.0
        self.return_messages = 0
        self.return_bytes = 0
        self.return_seconds = 0.0
        # Cache locality: completed requests served on their home rank,
        # and the subset that also found a warm hierarchy there.
        self.home_served = 0
        self.home_warm = 0
        self.redeemed_completed = 0
        #: Autoscaler actions: {"t", "action" ("up"/"down"), "active"}.
        self.autoscale_events: list[dict] = []
        # Fault lifecycle (counted only while a fault plan is active; the
        # snapshot emits them only then, so no-fault JSON is unchanged).
        self.failovers = 0
        self.evacuated = 0
        self.lost_inflight = 0
        self.failed = 0
        self.retry_backoff_seconds = 0.0
        self.failover_bytes = 0
        self.failover_seconds = 0.0
        self.failover_shipments = 0
        self.hedges_issued = 0
        self.hedges_won = 0
        self.hedges_lost = 0
        self.hedges_cancelled = 0
        self.hedge_bytes = 0
        self.hedge_seconds = 0.0
        self.rewarm_events = 0
        self.rewarm_entries = 0
        self.rewarm_bytes = 0
        self.rewarm_seconds = 0.0

    # -- recording ---------------------------------------------------------
    def record_route(self, *, forwarded: bool, forward_bytes: int = 0,
                     forward_seconds: float = 0.0,
                     shipped: bool = False) -> None:
        self.routed += 1
        if forwarded:
            self.forwarded += 1
            self.forward_bytes += forward_bytes
            self.forward_seconds += forward_seconds
            if shipped:
                self.shipments += 1

    def record_shed(self) -> None:
        self.routed += 1
        self.shed += 1

    def record_result(self, result, *, return_bytes: int = 0,
                      return_seconds: float = 0.0) -> None:
        """Tally a redeemed result: locality and the result-return hop."""
        if result.status != "completed":
            return
        self.redeemed_completed += 1
        if return_bytes:
            self.return_messages += 1
            self.return_bytes += return_bytes
            self.return_seconds += return_seconds
        if result.rank == result.home_rank:
            self.home_served += 1
            if result.cache_hit:
                self.home_warm += 1

    def record_autoscale(self, t: float, action: str, active: int) -> None:
        self.autoscale_events.append(
            {"t": t, "action": action, "active": active})

    # -- fault lifecycle ---------------------------------------------------
    def record_displaced(self, kind: str) -> None:
        """A request lost its rank: ``"queued"`` (evacuated from the dead
        rank's admission queue) or ``"in_flight"`` (a clairvoyantly
        scheduled result retracted because it finished past the death)."""
        if kind == "queued":
            self.evacuated += 1
        else:
            self.lost_inflight += 1

    def record_failover(self, *, backoff_seconds: float, forward_bytes: int,
                        forward_seconds: float, shipped: bool) -> None:
        self.failovers += 1
        self.retry_backoff_seconds += backoff_seconds
        self.failover_bytes += forward_bytes
        self.failover_seconds += forward_seconds
        if shipped:
            self.failover_shipments += 1

    def record_failed(self) -> None:
        self.failed += 1

    def record_hedge_issued(self, *, forward_bytes: int,
                            forward_seconds: float,
                            shipped: bool = False) -> None:
        """*shipped* is accepted for call-site symmetry with
        :meth:`record_failover`; a dup's operator ship is already folded
        into ``forward_bytes``."""
        self.hedges_issued += 1
        self.hedge_bytes += forward_bytes
        self.hedge_seconds += forward_seconds

    def record_hedge_won(self) -> None:
        self.hedges_won += 1

    def record_hedge_lost(self) -> None:
        self.hedges_lost += 1

    def record_hedge_cancelled(self) -> None:
        self.hedges_cancelled += 1

    def record_rewarm(self, *, entries: int, nbytes: int,
                      seconds: float) -> None:
        self.rewarm_events += 1
        self.rewarm_entries += entries
        self.rewarm_bytes += nbytes
        self.rewarm_seconds += seconds

    def faults_snapshot(self, health: dict) -> dict:
        """The ``faults`` section of the sharded report.

        *health* is a :meth:`HealthTracker.snapshot
        <repro.serve.health.HealthTracker.snapshot>`; breaker transitions
        are counted from its transition log (a health transition that
        keeps the breaker state — e.g. ``up`` → ``suspect`` — is not one).
        """
        last: dict[int, str] = {}
        breaker_transitions = 0
        for ev in health.get("transitions", []):
            prev = last.get(ev["rank"], "closed")
            if ev["breaker"] != prev:
                breaker_transitions += 1
            last[ev["rank"]] = ev["breaker"]
        return {
            "failovers": self.failovers,
            "evacuated": self.evacuated,
            "lost_inflight": self.lost_inflight,
            "failed": self.failed,
            "retry_backoff_seconds": self.retry_backoff_seconds,
            "failover_bytes": self.failover_bytes,
            "failover_seconds": self.failover_seconds,
            "failover_shipments": self.failover_shipments,
            "hedges": {
                "issued": self.hedges_issued,
                "won": self.hedges_won,
                "lost": self.hedges_lost,
                "cancelled": self.hedges_cancelled,
                "bytes": self.hedge_bytes,
                "seconds": self.hedge_seconds,
            },
            "rewarm": {
                "events": self.rewarm_events,
                "entries": self.rewarm_entries,
                "bytes": self.rewarm_bytes,
                "seconds": self.rewarm_seconds,
            },
            "breaker_transitions": breaker_transitions,
            "health": health,
        }

    # -- reporting ---------------------------------------------------------
    def snapshot(self, *, per_rank: list[dict], virtual_seconds: float,
                 active_ranks: int, replicas: int,
                 health: HealthTracker | None = None) -> dict:
        """Aggregated sharded report over the per-rank service snapshots.

        ``per_rank`` is one :meth:`ServiceMetrics.snapshot` per configured
        rank (index = rank id); ``virtual_seconds`` the makespan (the
        busiest rank's clock); ``active_ranks`` the autoscaler's current
        worker count.  ``health`` is the fault lifecycle's tracker; the
        ``faults`` section (:meth:`faults_snapshot` at ``virtual_seconds``)
        is emitted only when it is given — a report without a fault plan
        stays byte-identical to one produced before the fault lifecycle
        existed.
        """
        agg: dict[str, int] = {}
        for snap in per_rank:
            for key, val in snap["service"]["counters"].items():
                agg[key] = agg.get(key, 0) + val
        completed = [s["service"]["counters"]["completed"] for s in per_rank]
        busy = [s["service"]["solve_seconds"]["sum"] for s in per_rank]
        n_active = max(active_ranks, 1)

        def imbalance(values: list[float]) -> float:
            mean = sum(values) / n_active
            return max(values) / mean if mean > 0 else 0.0

        total_completed = sum(completed)
        out = {
            "sharded": {
                "ranks": len(per_rank),
                "active_ranks": active_ranks,
                "replicas": replicas,
                "virtual_seconds": virtual_seconds,
                "throughput_rps": (total_completed / virtual_seconds
                                   if virtual_seconds > 0 else 0.0),
                "counters": {
                    **{k: agg[k] for k in sorted(agg)},
                    "routed": self.routed,
                    "forwarded": self.forwarded,
                    "shed": self.shed,
                    "shipments": self.shipments,
                },
                "locality": {
                    "redeemed_completed": self.redeemed_completed,
                    "home_served": self.home_served,
                    "home_warm": self.home_warm,
                    "hit_rate": (self.home_warm / self.redeemed_completed
                                 if self.redeemed_completed else 0.0),
                },
                "network": {
                    "forward_messages": self.forwarded,
                    "forward_bytes": self.forward_bytes,
                    "forward_seconds": self.forward_seconds,
                    "return_messages": self.return_messages,
                    "return_bytes": self.return_bytes,
                    "return_seconds": self.return_seconds,
                },
                "load_balance": {
                    "completed_per_rank": completed,
                    "busy_seconds_per_rank": busy,
                    "completed_imbalance": imbalance(completed),
                    "busy_imbalance": imbalance(busy),
                },
                "autoscale_events": list(self.autoscale_events),
            },
            "ranks": per_rank,
        }
        if health is not None:
            out["sharded"]["faults"] = self.faults_snapshot(
                health.snapshot(virtual_seconds))
        return out

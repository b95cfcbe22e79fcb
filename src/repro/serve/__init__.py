"""Batching solve service: admission control, coalescing, service metrics.

The serving layer over :mod:`repro.api` (see ``docs/serving.md``):

* :class:`SolveService` — ``submit(A, b) -> Ticket`` / ``result(ticket)``,
  with a worker loop that coalesces same-fingerprint requests into blocked
  multi-RHS micro-batches;
* :class:`ShardedSolveService` — N modeled service ranks behind a
  consistent-hash router (:class:`HashRing`): same-pattern traffic stays
  cache-warm on its home rank, replication/spill balances load, forwarding
  is charged through the network model, with load shedding and an
  autoscaler on the deterministic clock — and, under a
  :class:`~repro.faults.ShardFaultPlan`, a full rank-failure lifecycle
  (health-tracked failover, hedged retries, cache re-warm recovery);
* :class:`HealthTracker` — heartbeat-driven ``up``/``suspect``/``down``/
  ``rejoining`` rank states with per-rank circuit breakers, driving ring
  membership under a fault plan;
* :class:`ServiceConfig` — every service knob (queue bound, batch cap
  ``k``, batch deadline, machine model, sharding) in one frozen object;
* :class:`ServiceMetrics` / :class:`ShardMetrics` — counters, latency
  histograms, batch-size distribution, hierarchy-cache hit rate,
  cache-locality hit rate, load balance, merged kernel perf, JSON export;
* :class:`WorkloadSpec` / :func:`build` / :func:`named_workload` — seeded
  deterministic request streams over :mod:`repro.problems`
  (``python -m repro serve-bench --workload tiny --ranks 4``).
"""

from ..results import SERVICE_STATUSES, ServiceResult
from .health import HealthTracker, RankHealth
from .metrics import Histogram, ServiceMetrics, ShardMetrics
from .queue import AdmissionQueue
from .request import PRIORITIES, Request, Ticket, priority_rank
from .service import ServiceConfig, SolveService
from .shard import HashRing, ShardedSolveService, ShardTicket
from .workload import (
    NAMED_WORKLOADS,
    Workload,
    WorkloadItem,
    WorkloadSpec,
    build,
    named_workload,
    widened,
)

__all__ = [
    "SERVICE_STATUSES",
    "ServiceResult",
    "HealthTracker",
    "RankHealth",
    "Histogram",
    "ServiceMetrics",
    "ShardMetrics",
    "AdmissionQueue",
    "PRIORITIES",
    "Request",
    "Ticket",
    "priority_rank",
    "ServiceConfig",
    "SolveService",
    "HashRing",
    "ShardTicket",
    "ShardedSolveService",
    "NAMED_WORKLOADS",
    "Workload",
    "WorkloadItem",
    "WorkloadSpec",
    "build",
    "named_workload",
    "widened",
]

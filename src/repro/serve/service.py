"""The in-process batching solve service.

:class:`SolveService` turns the one-shot ``repro.solve`` facade into a
request/response service with ``submit(A, b, ...) -> Ticket`` /
``result(ticket) -> ServiceResult`` semantics.  The worker loop coalesces
queued requests that share a hierarchy fingerprint
(:func:`repro.api.fingerprint` of the operator and config, plus the solve
parameters) into blocked :meth:`~repro.api.SolverHandle.solve_many`
micro-batches, so the level matrices stream once per cycle for the whole
batch — the PR-1 multi-RHS amortization, now exploited across independent
requests (Richtmann et al.'s multiple-right-hand-side setup argument at
the serving layer).

Time is **virtual**: the clock advances by the modeled seconds of each
dispatched batch (machine-model time of the kernels it charged), and
arrivals come from the workload's seeded arrival process.  Nothing reads a
wall clock, so a seeded workload produces bit-identical results *and*
metrics on every run.

Scheduling, in one paragraph: the worker picks the head request by
``(priority class, arrival, id)``, gathers up to ``max_batch`` queued
requests with the same coalescing key, and waits at most ``max_wait``
virtual seconds past the head's arrival for later same-key arrivals to
join (the micro-batch deadline).  Because the whole arrival schedule is
queued up front, the worker dispatches as soon as the batch provably
cannot grow — a lone request does not idle out its full deadline, but a
same-key request arriving within the window *is* waited for.  Requests
whose per-request ``timeout`` elapses before dispatch resolve to a
structured ``timeout`` result; a full admission queue resolves a submit to
a structured ``rejected`` result (backpressure is data, never an
exception); ``cancel`` frees the queue slot immediately.  Degradation
verdicts and fault events from the underlying solvers propagate to each
request's :class:`~repro.results.ServiceResult` unchanged — one broken
column never poisons its batch siblings (the blocked solvers freeze it
per column, PR 2).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from ..amg.cache import HierarchyCache
from ..analysis.events import EventLog
from ..api import _as_rhs, _validate_operator, as_csr, fingerprint, setup
from ..config import AMGConfig, single_node_config
from ..perf.counters import collect
from ..perf.machine import HaswellModel, MachineModel
from ..results import ServiceResult, SolveResult
from .metrics import ServiceMetrics
from .queue import AdmissionQueue
from .request import Request, Ticket, priority_rank
from .workload import Workload

__all__ = ["ServiceConfig", "SolveService"]


@dataclass(frozen=True)
class ServiceConfig:
    """Every service knob in one frozen object — the single place the
    serving tier's defaults are defined.

    The first block configures one service rank (admission, coalescing,
    machine model); the second configures the sharded tier
    (:class:`~repro.serve.shard.ShardedSolveService`) and is ignored by a
    plain single-rank :class:`SolveService`.  The service classes take
    this object and no per-field constructor keywords.
    """

    #: Admission-queue capacity; submits beyond it are rejected.
    max_queue: int = 64
    #: Micro-batch cap ``k``: at most this many same-key requests per
    #: blocked solve.
    max_batch: int = 8
    #: Micro-batch deadline, virtual seconds: how long the head request may
    #: wait for same-key arrivals before the batch dispatches anyway.
    max_wait: float = 1e-3
    #: Bound on retained hierarchies in the service's cache.
    cache_entries: int = 8
    #: Modeled thread count of the worker's machine model.
    threads: int = 14
    default_method: str = "amg"
    default_tol: float = 1e-7
    default_maxiter: int | None = None
    default_priority: str = "batch"

    # -- sharded tier (ShardedSolveService) --------------------------------
    #: Modeled service ranks requests are sharded across.
    ranks: int = 1
    #: Candidate ranks per routing key on the consistent-hash ring: the
    #: home rank plus ``replicas - 1`` successors a hot key may spill to.
    replicas: int = 1
    #: Virtual nodes per rank on the hash ring (more -> smoother balance).
    ring_vnodes: int = 64
    #: Load advantage a non-home candidate must show before a request is
    #: forwarded off its home rank, in multiples of the request's own
    #: operator nnz (0 -> pure least-loaded-by-work routing).
    spill_penalty: int = 4
    #: Load shedding: reject a request outright when every candidate
    #: rank's queue is at least this deep (``None`` disables shedding, so
    #: only a full admission queue pushes back).
    shed_depth: int | None = None
    #: Autoscaler: grow/shrink the active rank count from admission-queue
    #: depth (disabled -> all ``ranks`` stay active).
    autoscale: bool = False
    #: Floor on active ranks while autoscaling.
    min_ranks: int = 1
    #: Activate a rank when mean queued requests per active rank exceeds
    #: this; deactivate one when it drops below ``scale_down_depth``.
    scale_up_depth: float = 8.0
    scale_down_depth: float = 1.0

    # -- fault tolerance (sharded tier under a ShardFaultPlan) --------------
    #: Heartbeat probe period, modeled seconds: the health tracker probes
    #: every rank at fixed multiples of this on the virtual clock.
    heartbeat_interval: float = 1e-3
    #: Consecutive missed heartbeats before a rank is marked ``suspect``.
    suspect_after: int = 1
    #: Consecutive missed heartbeats before a rank is declared ``down``
    #: (breaker opens; its work fails over to ring successors).
    down_after: int = 3
    #: Hedged requests: after this many modeled seconds without a result,
    #: an ``interactive`` request is duplicated to one replica and the
    #: first copy to finish wins (``None`` disables hedging).  Hedges fire
    #: at the fault lifecycle's heartbeat ticks to keep the schedule
    #: deterministic, so the sharded tier accepts this only together with
    #: a non-empty ``ShardFaultPlan``.
    hedge_delay: float | None = None
    #: Cache re-warm breadth: a rejoining rank replays this many of the
    #: hottest pattern fingerprints from a surviving replica before it
    #: re-enters the ring (0 disables re-warm; the rank rejoins cold).
    rewarm_top_k: int = 4

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_wait < 0:
            raise ValueError("max_wait must be >= 0")
        priority_rank(self.default_priority)
        if self.ranks < 1:
            raise ValueError("ranks must be >= 1")
        if not 1 <= self.replicas <= self.ranks:
            raise ValueError(
                f"replicas must be in [1, ranks={self.ranks}], "
                f"got {self.replicas}")
        if self.ring_vnodes < 1:
            raise ValueError("ring_vnodes must be >= 1")
        if self.spill_penalty < 0:
            raise ValueError("spill_penalty must be >= 0")
        if self.shed_depth is not None and self.shed_depth < 1:
            raise ValueError("shed_depth must be >= 1 (or None to disable)")
        if not 1 <= self.min_ranks <= self.ranks:
            raise ValueError(
                f"min_ranks must be in [1, ranks={self.ranks}], "
                f"got {self.min_ranks}")
        if self.scale_down_depth > self.scale_up_depth:
            raise ValueError("scale_down_depth must be <= scale_up_depth")
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if not 1 <= self.suspect_after <= self.down_after:
            raise ValueError(
                f"need 1 <= suspect_after <= down_after, got "
                f"suspect_after={self.suspect_after} "
                f"down_after={self.down_after}")
        if self.hedge_delay is not None and self.hedge_delay <= 0:
            raise ValueError("hedge_delay must be positive (or None)")
        if self.rewarm_top_k < 0:
            raise ValueError("rewarm_top_k must be >= 0")


class SolveService:
    """Admission-controlled, micro-batching front end over ``repro.api``.

    Usage::

        svc = SolveService(ServiceConfig(max_batch=8))
        t1 = svc.submit(A, b1)
        t2 = svc.submit(A, b2)          # same fingerprint: coalesces
        r1 = svc.result(t1)             # runs the worker loop as needed
        print(svc.metrics_json())

    ``submit`` may be called from multiple threads (queue, cache, and
    result map are lock-guarded); the worker loop itself is single-logical
    -worker by design — batching is a scheduling decision, and one
    deterministic dispatcher is what makes runs reproducible.
    """

    def __init__(self, config: ServiceConfig | None = None, *,
                 amg_config: AMGConfig | None = None,
                 machine: MachineModel | None = None,
                 cache: HierarchyCache | None = None) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.amg_config = amg_config or single_node_config(
            nthreads=self.config.threads)
        self.machine = machine or HaswellModel(threads=self.config.threads)
        self.cache = cache if cache is not None else HierarchyCache(
            self.config.cache_entries)
        self.metrics = ServiceMetrics()
        self.now = 0.0
        #: Ticket-lifecycle event log (``repro.analysis.events``): empty
        #: unless ``REPRO_CHECK`` is at least ``cheap``, so the off-level
        #: service stays byte-identical.  The sharded tier rebinds this to
        #: one fleet-shared log with per-rank actor names.
        self.events = EventLog()
        self.event_actor = "service"
        self._queue = AdmissionQueue(self.config.max_queue)
        self._results: dict[int, ServiceResult] = {}
        self._known: set[int] = set()
        self._next_id = 0
        self._lock = threading.RLock()

    # -- submission --------------------------------------------------------
    def submit(
        self,
        A,
        b,
        *,
        config: AMGConfig | None = None,
        method: str | None = None,
        tol: float | None = None,
        maxiter: int | None = None,
        priority: str | None = None,
        timeout: float | None = None,
        arrival: float | None = None,
    ) -> Ticket:
        """Enqueue one solve; always returns a :class:`Ticket`.

        Admission failures — full queue, malformed operator or right-hand
        side, unknown priority — resolve the ticket immediately to a
        structured ``rejected`` :class:`~repro.results.ServiceResult`;
        ``submit`` never raises for per-request problems.  ``arrival`` is
        the request's virtual arrival time (defaults to the service clock
        ``now``; workload replay passes the generated arrival process).
        """
        cfg = config or self.amg_config
        method = method or self.config.default_method
        tol = self.config.default_tol if tol is None else tol
        maxiter = self.config.default_maxiter if maxiter is None else maxiter
        priority = priority or self.config.default_priority
        with self._lock:
            rid = self._next_id
            self._next_id += 1
            self._known.add(rid)
            self.metrics.submitted += 1
            ticket = Ticket(rid)
            t_arr = self.now if arrival is None else float(arrival)
            self.events.record(self.event_actor, "submit", time=t_arr,
                               ticket=rid, detail=priority)
            try:
                priority_rank(priority)
                A = _validate_operator(as_csr(A))
                b = _as_rhs(b, A.nrows)
            except (TypeError, ValueError) as exc:
                self._reject(ticket, priority="batch",
                             reason=f"invalid request: {exc}")
                return ticket
            req = Request(
                id=rid, A=A, b=b, config=cfg, method=method, tol=tol,
                maxiter=maxiter, priority=priority,
                arrival=t_arr,
                timeout=timeout,
                key=(fingerprint(A, cfg), method, tol, maxiter),
            )
            if not self._queue.offer(req):
                self._reject(ticket, priority=priority,
                             reason=f"queue full "
                                    f"(capacity {self.config.max_queue})")
                return ticket
            self.events.record(self.event_actor, "admit", time=req.arrival,
                               ticket=rid)
            self.metrics.sample_depth(len(self._queue))
        return ticket

    def _reject(self, ticket: Ticket, *, priority: str, reason: str) -> None:
        self.events.record(self.event_actor, "reject", time=self.now,
                           ticket=ticket.id, detail=reason.split(":")[0])
        self.metrics.rejected += 1
        self._results[ticket.id] = ServiceResult(
            x=None, iterations=0, residuals=[], converged=False,
            degraded=True, degraded_reason=f"rejected: {reason}",
            status="rejected", request_id=ticket.id, priority=priority)

    def cancel(self, ticket: Ticket) -> bool:
        """Withdraw a pending request, freeing its queue slot.

        Returns ``True`` if the request was still queued (it resolves to a
        ``cancelled`` result); ``False`` if it already resolved or was
        never known.
        """
        with self._lock:
            req = self._queue.cancel(ticket.id)
            if req is None:
                return False
            self.events.record(self.event_actor, "cancel", time=self.now,
                               ticket=ticket.id)
            self.metrics.cancelled += 1
            self._results[ticket.id] = ServiceResult(
                x=None, iterations=0, residuals=[], converged=False,
                degraded=True, degraded_reason="cancelled by client",
                status="cancelled", request_id=ticket.id,
                priority=req.priority)
            return True

    # -- crash primitives (used by the sharded tier's fault lifecycle) -----
    def evacuate(self) -> list[Request]:
        """Pull every queued request out of the admission queue.

        The rank-death half of failover: when the sharded router declares
        this rank down, its undispatched requests are not lost — they are
        evacuated here and re-routed to ring successors.  The requests
        leave with their metadata intact (the router re-submits them under
        new arrival times); no results are recorded for them on this rank.
        """
        with self._lock:
            pending = self._queue.pending()
            taken = self._queue.take([r.id for r in pending])
            for req in taken:
                self.events.record(self.event_actor, "evacuate",
                                   time=self.now, ticket=req.id)
            return taken

    def retract(self, request_id: int) -> ServiceResult | None:
        """Take back a resolved result that a rank crash invalidated.

        The worker loop is clairvoyant — it may already have resolved a
        request whose modeled *finish* time lies beyond the instant the
        rank died.  Those results never happened: the sharded tier retracts
        them (removing the result and the ticket from this rank's maps) and
        fails the request over.  Completion-side metrics recorded for a
        retracted result are deliberately left in place: per-rank counters
        describe work the rank *attempted*, and the fleet-level fault
        section accounts for the loss.  Returns the retracted result, or
        ``None`` if the request never resolved here.
        """
        with self._lock:
            res = self._results.pop(request_id, None)
            if res is not None:
                self._known.discard(request_id)
                self.events.record(self.event_actor, "retract",
                                   time=self.now, ticket=request_id)
            return res

    # -- results -----------------------------------------------------------
    def result(self, ticket: Ticket, *, wait: bool = True) -> ServiceResult | None:
        """The request's :class:`~repro.results.ServiceResult`.

        With ``wait=True`` (default) the caller drives the worker loop
        until the ticket resolves; ``wait=False`` returns ``None`` while
        the request is still pending.  Unknown tickets raise ``KeyError``
        (that is a caller bug, not a service condition).
        """
        if ticket.id not in self._known:
            raise KeyError(f"unknown ticket {ticket.id}")
        while ticket.id not in self._results:
            if not wait:
                return None
            if not self.step():
                raise RuntimeError(
                    f"ticket {ticket.id} is pending but the queue is empty")
        return self._results[ticket.id]

    def run(self) -> None:
        """Drive the worker loop until the admission queue drains."""
        while self.step():
            pass

    @property
    def queue_depth(self) -> int:
        """Currently queued (admitted, undispatched) requests."""
        return len(self._queue)

    @property
    def queued_work(self) -> int:
        """Total stored nonzeros across queued operators.

        A cost proxy for the sharded router's load scoring: queue *depth*
        treats a 3-D setup and a tiny 2-D solve as equal load, which
        starves balance on heterogeneous traffic; summed nnz tracks the
        actual setup/solve cost the queue represents.
        """
        return sum(r.A.nnz for r in self._queue.pending())

    def drain_until(self, horizon: float) -> None:
        """Run every worker step whose outcome no longer depends on
        arrivals after *horizon*.

        The scheduler is clairvoyant over the queued arrival schedule: a
        micro-batch may pick up any same-key request arriving inside its
        join window, so a batch must not dispatch until every arrival up
        to its join deadline has been submitted.  The sharded tier submits
        arrivals in time order and calls ``drain_until(next_arrival)``
        between submissions, which yields bit-identical scheduling to
        submitting the whole workload up front and then running — while
        letting the router observe live queue depths.
        """
        while True:
            with self._lock:
                pending = self._queue.pending()
                if not pending:
                    return
                now = max(self.now, min(r.arrival for r in pending))
                if now > horizon:
                    return
                if not any(r.expired(now) for r in pending):
                    ready = [r for r in pending if r.arrival <= now]
                    head = min(ready, key=Request.dispatch_order)
                    if max(now, head.arrival + self.config.max_wait) > horizon:
                        return
            self.step()

    # -- the worker loop ---------------------------------------------------
    def step(self) -> bool:
        """Dispatch one micro-batch (or expire timeouts); False when idle."""
        with self._lock:
            pending = self._queue.pending()
            if not pending:
                return False
            # Idle until the first arrival if the queue holds only
            # future-dated requests.
            now = max(self.now, min(r.arrival for r in pending))
            if self._expire([r for r in pending if r.expired(now)], now):
                self.now = now
                return True
            pending = self._queue.pending()
            ready = [r for r in pending if r.arrival <= now]
            head = min(ready, key=Request.dispatch_order)
            # Same-key requests may join until the head's deadline; if the
            # worker is already past it, late-but-queued requests still
            # ride along (the batch starts now regardless).
            join_deadline = max(now, head.arrival + self.config.max_wait)
            mates = sorted((r for r in pending
                            if r.key == head.key
                            and r.arrival <= join_deadline),
                           key=Request.batch_order)
            batch = mates[:self.config.max_batch]
            start = max(now, max(r.arrival for r in batch))
            # Members whose own deadline elapses before the batch starts
            # time out instead of dispatching.
            stale = [r for r in batch if r.expired(start)]
            if self._expire(stale, start):
                self.now = max(self.now, now)
                return True
            self.metrics.sample_depth(len(pending))
            taken = self._queue.take([r.id for r in batch])
            self.now = start
            self._dispatch(taken, start)
            return True

    def _expire(self, stale: list[Request], now: float) -> bool:
        """Resolve timed-out requests; True if any were expired."""
        for req in self._queue.take([r.id for r in stale]):
            self.events.record(self.event_actor, "timeout", time=now,
                               ticket=req.id)
            self.metrics.timed_out += 1
            self._results[req.id] = ServiceResult(
                x=None, iterations=0, residuals=[], converged=False,
                degraded=True,
                degraded_reason=(f"timeout: waited "
                                 f"{now - req.arrival:.3g}s of "
                                 f"{req.timeout:.3g}s budget"),
                status="timeout", request_id=req.id, priority=req.priority,
                wait_seconds=now - req.arrival)
        return bool(stale)

    def _dispatch(self, batch: list[Request], start: float) -> None:
        """Run one coalesced micro-batch and resolve its tickets."""
        head = batch[0]
        self.events.record(self.event_actor, "batch", time=start,
                           ticket=head.id, detail=f"k={len(batch)}")
        for req in batch:
            self.events.record(self.event_actor, "solve", time=start,
                               ticket=req.id)
        stats_before = self.cache.stats()
        hits_before = stats_before["hits"]
        refresh_before = stats_before.get("pattern_hits", 0)
        with collect() as log:
            handle = setup(head.A, head.config, cache=self.cache)
            if len(batch) == 1:
                solved = [handle.solve(head.b, method=head.method,
                                       tol=head.tol, maxiter=head.maxiter)]
            else:
                B = np.column_stack([r.b for r in batch])
                solved = handle.solve_many(B, method=head.method,
                                           tol=head.tol,
                                           maxiter=head.maxiter)
        stats_after = self.cache.stats()
        cache_hit = stats_after["hits"] > hits_before
        # Same-pattern requests routed through the numeric-resetup tier.
        self.metrics.refresh_hits += (
            stats_after.get("pattern_hits", 0) - refresh_before
        )
        t_batch = self.machine.log_time(log)
        self.metrics.perf.merge(log)
        self.metrics.record_batch(len(batch), t_batch)
        self.now = start + t_batch
        for req, res in zip(batch, solved):
            self._resolve(req, res, start, t_batch, len(batch), cache_hit)

    def _resolve(self, req: Request, res: SolveResult, start: float,
                 t_batch: float, batch_size: int, cache_hit: bool) -> None:
        wait = start - req.arrival
        self.events.record(self.event_actor, "result", time=start + t_batch,
                           ticket=req.id)
        self.metrics.record_completion(wait, wait + t_batch, res.degraded)
        self._results[req.id] = ServiceResult(
            x=res.x, iterations=res.iterations, residuals=res.residuals,
            converged=res.converged, degraded=res.degraded,
            degraded_reason=res.degraded_reason,
            fault_events=list(res.fault_events),
            status="completed", request_id=req.id, priority=req.priority,
            wait_seconds=wait, solve_seconds=t_batch,
            batch_size=batch_size, cache_hit=cache_hit)

    # -- workload replay and reporting -------------------------------------
    def run_workload(self, workload: Workload) -> list[ServiceResult]:
        """Submit a generated workload, drain it, return results in order."""
        spec = workload.spec
        tickets = [
            self.submit(
                workload.matrices[item.matrix_index], item.b,
                method=spec.method, tol=spec.tol, maxiter=spec.maxiter,
                priority=item.priority, timeout=spec.timeout,
                arrival=item.arrival)
            for item in workload.items
        ]
        self.run()
        return [self.result(t, wait=False) for t in tickets]

    def metrics_snapshot(self) -> dict:
        """Combined service + kernel report (see ``ServiceMetrics``)."""
        return self.metrics.snapshot(machine=self.machine,
                                     virtual_seconds=self.now,
                                     cache_stats=self.cache.stats())

    def metrics_json(self) -> str:
        """Deterministic JSON of :meth:`metrics_snapshot`."""
        return self.metrics.to_json(machine=self.machine,
                                    virtual_seconds=self.now,
                                    cache_stats=self.cache.stats())
